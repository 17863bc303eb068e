package transport

import (
	"context"
	"testing"

	"aodb/internal/codec/codectest"
)

// TestTCPCallAllocs holds one solo loopback round trip in tier-1, counted
// on both endpoints: the caller's Call and the server's dispatch of it.
// Frames, response channels and send requests all come from pools; what
// is left is the copy of the request's strings the server decodes. The
// bound is the count measured once send requests were pooled (1; 3
// before, one send request a frame each way), plus 10 %.
func TestTCPCallAllocs(t *testing.T) {
	codectest.SkipUnderRace(t)
	a, b := newTCPPair(t)
	if err := b.Register("silo-b", func(context.Context, Request) (any, error) { return nil, nil }); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := Request{TargetKind: "Kind", TargetKey: "key", Sender: "silo-a"}
	call := func() {
		if _, err := a.Call(ctx, "silo-b", req); err != nil {
			t.Fatal(err)
		}
	}
	call() // dial
	allocs := testing.AllocsPerRun(500, call)
	const most = 1.1
	if allocs > most {
		t.Errorf("a loopback round trip: %.0f allocations, want at most %.1f", allocs, most)
	} else {
		t.Logf("a loopback round trip: %.0f allocations", allocs)
	}
}
