package replication

import (
	"context"
	"errors"
	"testing"
	"time"

	"aodb/internal/kvstore"
	"aodb/internal/transport"
)

// TestApplyKeepsNoCallerBuffer: Apply stores its own copy of the bytes
// it was sent, so a caller that reuses its buffer afterwards does not
// change what the replica holds.
func TestApplyKeepsNoCallerBuffer(t *testing.T) {
	ctx := context.Background()
	ring, _ := NewRing([]string{"a"})
	st := testStore(t, "a", ring, 1)
	env := Envelope{Version: Version{Epoch: 1, Seq: 1}, Value: []byte("original")}
	enc := env.Encode()
	if out, err := st.Apply(ctx, "k", enc); err != nil || out != Applied {
		t.Fatalf("apply: %v %v", out, err)
	}
	for i := range enc {
		enc[i] = 0xff
	}
	got, found, err := st.Fetch(ctx, "k")
	if err != nil || !found || !got.Equal(env) {
		t.Fatalf("after the caller reused its buffer the replica holds %+v (found %v, %v), want %+v", got, found, err, env)
	}
}

// TestFenceLeavesSiblingCallsRunning: a write one home fences returns at
// once, while a slower home's call runs on under the fan-out's shared
// deadline, uncancelled, and counts as the success it is. The schedule
// is fixed: the slow home answers only after the write has returned.
func TestFenceLeavesSiblingCallsRunning(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, threeSilos, 3, 2, 2)
	key := "device@fenced"
	homes := c.ring.ReplicaSet(key, 3)
	fencer, slow := homes[0], homes[1]
	successor := Envelope{Version: Version{Epoch: 5, Seq: 1}, Value: []byte("successor")}
	if _, err := c.svc.Store(fencer).Apply(ctx, key, successor.Encode()); err != nil {
		t.Fatal(err)
	}

	type answer struct {
		ctx context.Context
		err error
	}
	gate := make(chan struct{}, 1)
	answered := make(chan answer, 1)
	c.down(slow)
	if err := c.tr.Register(slow, func(ctx context.Context, req transport.Request) (any, error) {
		select {
		case <-gate:
		case <-ctx.Done():
		}
		// A network call gives up once its context ends, as TCP.Call does.
		if err := ctx.Err(); err != nil {
			answered <- answer{ctx, err}
			return nil, err
		}
		resp, err := c.svc.Handle(ctx, slow, req)
		answered <- answer{ctx, err}
		return resp, err
	}); err != nil {
		t.Fatal(err)
	}

	// As many fenced writes as it takes a failing home to turn Unhealthy.
	for round := 0; round < unhealthyAfter; round++ {
		zombie := Version{Epoch: 1, Seq: uint32(round)}.Packed()
		if _, err := c.coord.Store(ctx, key, []byte("zombie"), zombie); !errors.Is(err, kvstore.ErrVersionMismatch) {
			t.Fatalf("round %d: the write should be fenced, got %v", round, err)
		}
		gate <- struct{}{}
		var a answer
		select {
		case a = <-answered:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: the slow home never answered", round)
		}
		if a.err != nil {
			t.Fatalf("round %d: the slow home's call ended with %v after the write returned", round, a.err)
		}
		// The shared deadline is released once the last call has been
		// collected, which is after its result reached noteResult.
		select {
		case <-a.ctx.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: the fan-out's deadline was never released", round)
		}
	}
	if c.coord.Unhealthy(slow) {
		t.Fatalf("%s answered every call, yet the coordinator reports it Unhealthy", slow)
	}
	if env, found, err := c.svc.Store(slow).Fetch(ctx, key); err != nil || !found || env.Version.Epoch != 1 {
		t.Fatalf("the slow home should hold the zombie's last write: %+v %v %v", env, found, err)
	}
}
