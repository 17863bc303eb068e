package kvstore

import (
	"context"
	"testing"

	"aodb/internal/codec/codectest"
)

// The write path's allocation guards, each at its measured count + 10 %.
// A decide step that starts escaping to the heap, or a WAL record built
// for a store that has no log, fails them.

// TestPutIfAllocs: a conditional put on a memory-only store allocates
// the stored copy of the value and nothing else.
func TestPutIfAllocs(t *testing.T) {
	codectest.SkipUnderRace(t)
	tb := mustTable(t, memStore(t), "t")
	ctx := context.Background()
	val := make([]byte, 128)
	var ver int64
	got := testing.AllocsPerRun(200, func() {
		v, err := tb.PutIf(ctx, "k", val, ver)
		if err != nil {
			t.Fatal(err)
		}
		ver = v
	})
	if got > 1.1 {
		t.Errorf("memory-only PutIf: %.1f allocations, want at most 1.1", got)
	} else {
		t.Logf("memory-only PutIf: %.0f allocations", got)
	}
}

// TestMergeAllocs: an applied merge on a durable store with one writer,
// group commit and fsync included.
func TestMergeAllocs(t *testing.T) {
	codectest.SkipUnderRace(t)
	s, err := Open(Options{Dir: t.TempDir(), Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb := mustTable(t, s, "t")
	ctx := context.Background()
	val := make([]byte, 128)
	got := testing.AllocsPerRun(200, func() {
		if _, err := tb.Merge(ctx, "k", val, func(Item, bool) bool { return true }); err != nil {
			t.Fatal(err)
		}
	})
	if got > 9.9 {
		t.Errorf("durable Merge: %.1f allocations, want at most 9.9", got)
	} else {
		t.Logf("durable Merge: %.0f allocations", got)
	}
}
