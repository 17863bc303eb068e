// The fault-equivalence test lives in an external test package because
// internal/faults imports internal/transport; importing faults from an
// in-package test would be an import cycle.
package transport_test

import (
	"context"
	"fmt"
	"sync"
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

// TestTCPBatchingFaultEquivalence: under the fault injector the batched
// writer loses nothing the injector did not drop. The injector is the
// oracle: the unreachable outcomes must number exactly the drops it
// fired, and every other call must come back with its own reply. A
// sequential series writes each frame inline; eight concurrent callers
// keep more than one call active on the connection, so their frames go
// through the writer's queue and coalesce, with delays and duplicates
// interleaved.
func TestTCPBatchingFaultEquivalence(t *testing.T) {
	for _, callers := range []int{1, 8} {
		t.Run(fmt.Sprintf("callers=%d", callers), func(t *testing.T) {
			a, err := transport.NewTCP("silo-a", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := transport.NewTCP("silo-b", "127.0.0.1:0")
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
			const calls = 200
			var (
				mu  sync.Mutex
				out = map[string]int{}
				wg  sync.WaitGroup
			)
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < calls; i += callers {
						// A frame the writer lost would hang its caller: the
						// deadline turns it into an outcome that fails the test.
						ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
						resp, err := ft.Call(ctx, "silo-b", transport.Request{TargetKey: fmt.Sprintf("k%d", i%7), Payload: eqPayload{i}})
						cancel()
						var o string
						switch {
						case err == nil && resp.(eqReply).N == 2*i:
							o = "ok"
						case err == nil:
							o = fmt.Sprintf("bad-resp:%v", resp)
						case transport.IsUnreachable(err):
							o = "unreachable"
						default:
							o = "err:" + err.Error()
						}
						mu.Lock()
						out[o]++
						mu.Unlock()
					}
				}(g)
			}
			wg.Wait()
			drops := int(inj.Fired("drop"))
			if drops == 0 {
				t.Fatal("the injector dropped nothing: the series tests no fault")
			}
			if out["unreachable"] != drops {
				t.Errorf("%d unreachable outcomes, the injector dropped %d", out["unreachable"], drops)
			}
			if out["ok"] != calls-drops {
				t.Errorf("outcomes %v: want %d ok and %d unreachable", out, calls-drops, drops)
			}
		})
	}
}
