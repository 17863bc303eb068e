package replication

import (
	"context"
	"errors"
	"testing"
	"time"

	"aodb/internal/cluster"
	"aodb/internal/telemetry"
	"aodb/internal/transport"
)

// hangingCluster is a coordinator over three homes: s1 in-process, s2
// and s3 behind a Local transport whose handlers never answer. Each
// remote call parks until its context ends (or 10 s pass, so a call with
// no deadline fails the test instead of hanging it) and reports the
// context it was given on seen.
func hangingCluster(t *testing.T) (*Coordinator, chan context.Context) {
	t.Helper()
	tr := transport.NewLocal(nil, nil)
	t.Cleanup(func() { _ = tr.Close() })
	seen := make(chan context.Context, 16)
	for _, silo := range threeSilos[1:] {
		err := tr.Register(silo, func(ctx context.Context, req transport.Request) (any, error) {
			seen <- ctx
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(10 * time.Second):
				return nil, errors.New("call had no deadline")
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	c, err := NewCoordinator(Config{Ring: cluster.NewStaticView(threeSilos...), N: 3, W: 2,
		Transport: tr, Sender: threeSilos[0], Local: map[string]*Store{threeSilos[0]: testStore(t, threeSilos[0], 3)}})
	if err != nil {
		t.Fatal(err)
	}
	return c, seen
}

// TestUncancellableWriteTimesOut: a write from context.Background(),
// whose remote calls share the coordinator's tick deadline, still fails
// within callTimeout of its start when its remote homes never answer,
// and no sooner than callTimeout less one tick.
func TestUncancellableWriteTimesOut(t *testing.T) {
	c, seen := hangingCluster(t)
	start := time.Now()
	_, err := c.Store(context.Background(), "k", []byte("v"), 0)
	took := time.Since(start)
	requireTransientQuorum(t, "write to hanging homes", err)
	const slack = 250 * time.Millisecond
	if took < callTimeout-deadlineTick-slack || took > callTimeout+slack {
		t.Fatalf("write failed after %v, want %v less at most one %v tick", took, callTimeout, deadlineTick)
	}
	for i := 0; i < 2; i++ {
		ctx := <-seen
		dl, ok := ctx.Deadline()
		if !ok || dl.Sub(start) > callTimeout+slack || dl.Sub(start) < callTimeout-deadlineTick-slack {
			t.Fatalf("remote call ran under deadline %v (set: %v), %v after the write began", dl, ok, dl.Sub(start))
		}
	}
}

// TestCancelledWriteStopsEarly: a caller that can be cancelled keeps its
// own deadline path, so its cancel still cuts the remote calls short.
func TestCancelledWriteStopsEarly(t *testing.T) {
	c, _ := hangingCluster(t)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(50*time.Millisecond, cancel)
	start := time.Now()
	_, err := c.Store(ctx, "k", []byte("v"), 0)
	if took := time.Since(start); took > callTimeout/2 {
		t.Fatalf("cancelled write returned after %v", took)
	}
	if err == nil {
		t.Fatal("write acked with two homes cancelled")
	}
}

// TestSpanCarryingWriteKeepsItsContext: a caller whose context carries a
// span cannot be cancelled either, but the tick deadline would drop the
// span, so its remote calls get a deadline of their own under its
// context and the span reaches the replica.
func TestSpanCarryingWriteKeepsItsContext(t *testing.T) {
	c, seen := hangingCluster(t)
	sp := &telemetry.Span{Actor: "writer"}
	_, _ = c.Store(telemetry.WithSpan(context.Background(), sp), "k", []byte("v"), 0)
	for i := 0; i < 2; i++ {
		if got := telemetry.SpanFrom(<-seen); got != sp {
			t.Fatalf("remote call saw span %v, want the caller's", got)
		}
	}
}
