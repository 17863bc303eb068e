package index

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"aodb/internal/core"
)

func newRuntime(t *testing.T) *core.Runtime {
	t.Helper()
	rt, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	if err := RegisterKind(rt); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddSilo("silo-1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddSilo("silo-2", nil); err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestAddLookup(t *testing.T) {
	rt := newRuntime(t)
	ix := New(rt, "cows-by-farm", 4)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := ix.Add(ctx, "farm-1", fmt.Sprintf("cow-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Add(ctx, "farm-2", "cow-99"); err != nil {
		t.Fatal(err)
	}
	got, err := ix.Lookup(ctx, "farm-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0] != "cow-0" || got[4] != "cow-4" {
		t.Fatalf("Lookup = %v", got)
	}
	empty, err := ix.Lookup(ctx, "farm-none")
	if err != nil {
		t.Fatal(err)
	}
	if len(empty) != 0 {
		t.Fatalf("missing value lookup = %v, want empty", empty)
	}
}

func TestAddIsIdempotent(t *testing.T) {
	rt := newRuntime(t)
	ix := New(rt, "ix", 2)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if err := ix.Add(ctx, "v", "a"); err != nil {
			t.Fatal(err)
		}
	}
	got, _ := ix.Lookup(ctx, "v")
	if len(got) != 1 {
		t.Fatalf("posting list = %v, want single entry", got)
	}
}

func TestRemove(t *testing.T) {
	rt := newRuntime(t)
	ix := New(rt, "ix", 2)
	ctx := context.Background()
	ix.Add(ctx, "v", "a")
	ix.Add(ctx, "v", "b")
	if err := ix.Remove(ctx, "v", "a"); err != nil {
		t.Fatal(err)
	}
	got, _ := ix.Lookup(ctx, "v")
	if len(got) != 1 || got[0] != "b" {
		t.Fatalf("after remove = %v", got)
	}
	// Removing a missing entry is fine.
	if err := ix.Remove(ctx, "v", "ghost"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Remove(ctx, "missing-value", "a"); err != nil {
		t.Fatal(err)
	}
}

func TestUpdateMovesEntry(t *testing.T) {
	rt := newRuntime(t)
	ix := New(rt, "cows-by-farm", 4)
	ctx := context.Background()
	ix.Add(ctx, "farm-1", "cow-7")
	// The cow is sold to farm-2 (the paper's §4.4 ownership change).
	if err := ix.Update(ctx, "farm-1", "farm-2", "cow-7"); err != nil {
		t.Fatal(err)
	}
	old, _ := ix.Lookup(ctx, "farm-1")
	if len(old) != 0 {
		t.Fatalf("farm-1 still lists %v", old)
	}
	cur, _ := ix.Lookup(ctx, "farm-2")
	if len(cur) != 1 || cur[0] != "cow-7" {
		t.Fatalf("farm-2 = %v", cur)
	}
	// No-op and create/delete forms.
	if err := ix.Update(ctx, "farm-2", "farm-2", "cow-7"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Update(ctx, "", "farm-3", "cow-8"); err != nil {
		t.Fatal(err)
	}
	if err := ix.Update(ctx, "farm-3", "", "cow-8"); err != nil {
		t.Fatal(err)
	}
	gone, _ := ix.Lookup(ctx, "farm-3")
	if len(gone) != 0 {
		t.Fatalf("farm-3 = %v", gone)
	}
}

func TestAllValuesAndSizeAcrossShards(t *testing.T) {
	rt := newRuntime(t)
	ix := New(rt, "ix", 8)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if err := ix.Add(ctx, fmt.Sprintf("value-%d", i), fmt.Sprintf("actor-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	values, err := ix.AllValues(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(values) != 20 {
		t.Fatalf("AllValues = %d entries, want 20", len(values))
	}
	size, err := ix.Size(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if size != 20 {
		t.Fatalf("Size = %d, want 20", size)
	}
}

func TestSeparateIndexesDoNotCollide(t *testing.T) {
	rt := newRuntime(t)
	a := New(rt, "index-a", 4)
	b := New(rt, "index-b", 4)
	ctx := context.Background()
	a.Add(ctx, "v", "from-a")
	b.Add(ctx, "v", "from-b")
	got, _ := a.Lookup(ctx, "v")
	if len(got) != 1 || got[0] != "from-a" {
		t.Fatalf("index-a = %v", got)
	}
}

func TestConcurrentMaintenance(t *testing.T) {
	rt := newRuntime(t)
	ix := New(rt, "ix", 4)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				v := fmt.Sprintf("v%d", i%10)
				a := fmt.Sprintf("actor-%d-%d", w, i)
				if err := ix.Add(ctx, v, a); err != nil {
					t.Errorf("add: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	size, err := ix.Size(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if size != 8*50 {
		t.Fatalf("size = %d, want 400", size)
	}
}
