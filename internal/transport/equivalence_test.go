// The fault-equivalence test lives in an external test package because
// internal/faults imports internal/transport; importing faults from an
// in-package test would be an import cycle.
package transport_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aodb/internal/codec"
	"aodb/internal/faults"
	"aodb/internal/transport"
)

type eqPayload struct{ N int }
type eqReply struct{ N int }

func init() {
	codec.Register(eqPayload{})
	codec.Register(eqReply{})
}

// TestTCPBatchingFaultEquivalence: the batched writer must be
// observationally equivalent to the NoBatching baseline under the fault
// injector — same seed, same sequential request series, same per-call
// outcome classification.
func TestTCPBatchingFaultEquivalence(t *testing.T) {
	outcomes := func(opts transport.TCPOptions) []string {
		a, err := transport.NewTCPWithOptions("silo-a", "127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		b, err := transport.NewTCPWithOptions("silo-b", "127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		defer b.Close()
		a.SetPeer("silo-b", b.Addr())
		if err := b.Register("silo-b", func(_ context.Context, req transport.Request) (any, error) {
			p, ok := req.Payload.(eqPayload)
			if !ok {
				return nil, fmt.Errorf("bad payload %T", req.Payload)
			}
			return eqReply{N: p.N * 2}, nil
		}); err != nil {
			t.Fatal(err)
		}
		inj := faults.New(faults.Config{Seed: 42, Drop: 0.15, Delay: 0.1, MaxDelay: 2 * time.Millisecond, Dup: 0.05})
		ft := inj.WrapTransport(a)
		var out []string
		ctx := context.Background()
		// Sequential on purpose: the injector's seeded decision sequence
		// is per-call-order, so both modes see identical fault schedules.
		for i := 0; i < 200; i++ {
			resp, err := ft.Call(ctx, "silo-b", transport.Request{TargetKey: fmt.Sprintf("k%d", i%7), Payload: eqPayload{i}})
			switch {
			case err == nil && resp.(eqReply).N == 2*i:
				out = append(out, "ok")
			case err == nil:
				out = append(out, fmt.Sprintf("bad-resp:%v", resp))
			case transport.IsUnreachable(err):
				out = append(out, "unreachable")
			default:
				out = append(out, "err:"+err.Error())
			}
		}
		return out
	}
	batched := outcomes(transport.TCPOptions{})
	baseline := outcomes(transport.TCPOptions{NoBatching: true})
	if len(batched) != len(baseline) {
		t.Fatalf("outcome counts differ: %d vs %d", len(batched), len(baseline))
	}
	for i := range batched {
		if batched[i] != baseline[i] {
			t.Fatalf("outcome %d diverged: batched=%q baseline=%q", i, batched[i], baseline[i])
		}
	}
}
