package replication

import (
	"context"
	"testing"

	"aodb/internal/cluster"
	"aodb/internal/codec/codectest"
)

// Allocation guards for the replicated write path, skipped under -race
// (the detector allocates on its own). Each bound is the measured count
// + 10 %: a second encode of the envelope, a second copy of its value,
// or a deadline per replica call fails them.

// receivedEnvelopes encodes n envelopes of successive versions around a
// 1.8 KB value, as a replica receives them.
func receivedEnvelopes(n int) [][]byte {
	value := make([]byte, 1800)
	encs := make([][]byte, n)
	for i := range encs {
		encs[i] = Envelope{Version: Version{Epoch: 1, Seq: uint32(i + 1)}, Value: value}.Encode()
	}
	return encs
}

// TestApplyAllocs: a memory-only replica applying a newer envelope it
// was sent allocates the stored copy and nothing else.
func TestApplyAllocs(t *testing.T) {
	codectest.SkipUnderRace(t)
	st := testStore(t, "a", 1)
	ctx := context.Background()
	encs := receivedEnvelopes(202)
	i := 0
	got := testing.AllocsPerRun(200, func() {
		if out, err := st.Apply(ctx, "k", encs[i]); err != nil || out != Applied {
			t.Fatalf("apply: %v %v", out, err)
		}
		i++
	})
	if got > 1.1 {
		t.Errorf("memory-only Apply: %.1f allocations, want at most 1.1", got)
	} else {
		t.Logf("memory-only Apply: %.0f allocations", got)
	}
}

// TestWriteQuorumAllocs: a quorum write to three homes that are all
// in-process stores.
func TestWriteQuorumAllocs(t *testing.T) {
	codectest.SkipUnderRace(t)
	view := cluster.NewStaticView(threeSilos...)
	local := make(map[string]*Store, len(threeSilos))
	for _, s := range threeSilos {
		local[s] = testStore(t, s, 3)
	}
	c, err := NewCoordinator(Config{Ring: view, N: 3, Local: local})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	data := make([]byte, 1800)
	var ver int64
	got := testing.AllocsPerRun(200, func() {
		v, err := c.Store(ctx, "PhysicalChannel/org-1@sensor-2/ch-0", data, ver)
		if err != nil {
			t.Fatal(err)
		}
		ver = v
	})
	if got > 12.1 {
		t.Errorf("3-home local write: %.1f allocations, want at most 12.1", got)
	} else {
		t.Logf("3-home local write: %.0f allocations", got)
	}
}
