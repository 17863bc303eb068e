package query

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"aodb/internal/core"
	"aodb/internal/index"
)

// readingActor returns a numeric value derived from its key.
type readingActor struct{ v int }

type setMsg struct{ V int }
type readMsg struct{}
type explodeMsg struct{}

func (r *readingActor) Receive(_ *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case setMsg:
		r.v = m.V
		return nil, nil
	case readMsg:
		return r.v, nil
	case explodeMsg:
		return nil, errors.New("sensor offline")
	}
	return nil, fmt.Errorf("unknown %T", msg)
}

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
	if err := rt.RegisterKind("Reading", func() core.Actor { return &readingActor{} }); err != nil {
		t.Fatal(err)
	}
	if err := index.RegisterKind(rt); err != nil {
		t.Fatal(err)
	}
	rt.AddSilo("silo-1", nil)
	rt.AddSilo("silo-2", nil)
	return rt
}

func seed(t *testing.T, rt *core.Runtime, n int) []core.ID {
	t.Helper()
	ctx := context.Background()
	ids := make([]core.ID, n)
	for i := range ids {
		ids[i] = core.ID{Kind: "Reading", Key: fmt.Sprintf("r%d", i)}
		if _, err := rt.Call(ctx, ids[i], setMsg{V: i * 10}); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

func TestFanOutCollectsInOrder(t *testing.T) {
	rt := newRuntime(t)
	ids := seed(t, rt, 20)
	e := NewEngine(rt)
	results := e.FanOut(context.Background(), ids, readMsg{})
	if len(results) != 20 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("result %d: %v", i, r.Err)
		}
		if r.Value.(int) != i*10 {
			t.Fatalf("result %d = %v, want %d (order lost)", i, r.Value, i*10)
		}
	}
}

func TestFanOutIsolatesFailures(t *testing.T) {
	rt := newRuntime(t)
	ids := seed(t, rt, 3)
	e := NewEngine(rt)
	ctx := context.Background()
	// Make the middle actor fail.
	results := e.FanOut(ctx, []core.ID{ids[0], ids[1], ids[2]}, readMsg{})
	results[1] = e.FanOut(ctx, []core.ID{ids[1]}, explodeMsg{})[0]
	if results[1].Err == nil {
		t.Fatal("expected failure for exploding actor")
	}
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatal("healthy actors affected by failing one")
	}
	if err := Errs(results); err == nil || !strings.Contains(err.Error(), "sensor offline") {
		t.Fatalf("Errs = %v", err)
	}
}

func TestFanOutEmptyTargets(t *testing.T) {
	rt := newRuntime(t)
	e := NewEngine(rt)
	if got := e.FanOut(context.Background(), nil, readMsg{}); len(got) != 0 {
		t.Fatalf("FanOut(nil) = %v", got)
	}
}

// TestFanOutSplitsLargeGroups: more targets than one multi-actor frame
// carries, spread over both silos, still come back complete and in order.
func TestFanOutSplitsLargeGroups(t *testing.T) {
	rt := newRuntime(t)
	ids := seed(t, rt, 700)
	e := NewEngine(rt)
	results := e.FanOut(context.Background(), ids, readMsg{})
	for i, r := range results {
		if r.Err != nil || r.Actor != ids[i] || r.Value.(int) != i*10 {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
}

func TestReduceSums(t *testing.T) {
	rt := newRuntime(t)
	ids := seed(t, rt, 10)
	e := NewEngine(rt)
	results := e.FanOut(context.Background(), ids, readMsg{})
	sum, n, err := Reduce(results, 0, func(acc int, r Result) int { return acc + r.Value.(int) })
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 || sum != 450 {
		t.Fatalf("sum = %d over %d, want 450 over 10", sum, n)
	}
}

func TestReduceSkipsFailedResults(t *testing.T) {
	results := []Result{
		{Actor: core.ID{Kind: "R", Key: "1"}, Value: 5},
		{Actor: core.ID{Kind: "R", Key: "2"}, Err: errors.New("down")},
		{Actor: core.ID{Kind: "R", Key: "3"}, Value: 7},
	}
	sum, n, err := Reduce(results, 0, func(acc int, r Result) int { return acc + r.Value.(int) })
	if sum != 12 || n != 2 {
		t.Fatalf("sum=%d n=%d", sum, n)
	}
	if err == nil || !strings.Contains(err.Error(), "down") {
		t.Fatalf("err = %v", err)
	}
}

func TestCollectTyped(t *testing.T) {
	results := []Result{{Value: 1}, {Err: errors.New("x")}, {Value: 3}}
	vals, err := Collect[int](results)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 3 {
		t.Fatalf("vals = %v", vals)
	}
	_, err = Collect[string](results)
	if err == nil {
		t.Fatal("type mismatch not reported")
	}
}

func TestByIndexQuery(t *testing.T) {
	rt := newRuntime(t)
	seed(t, rt, 10)
	ix := index.New(rt, "by-zone", 4)
	ctx := context.Background()
	// Readings 2, 4, 6 are in zone-a.
	for _, k := range []string{"r2", "r4", "r6"} {
		if err := ix.Add(ctx, "zone-a", k); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(rt)
	results, err := e.ByIndex(ctx, ix, "Reading", "zone-a", readMsg{})
	if err != nil {
		t.Fatal(err)
	}
	sum, n, err := Reduce(results, 0, func(acc int, r Result) int { return acc + r.Value.(int) })
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || sum != 120 {
		t.Fatalf("sum=%d n=%d, want 120 over 3", sum, n)
	}
	// Missing index value: empty result set, not an error.
	results, err = e.ByIndex(ctx, ix, "Reading", "zone-z", readMsg{})
	if err != nil || len(results) != 0 {
		t.Fatalf("zone-z = %v, %v", results, err)
	}
}

func TestErrsNilWhenAllOK(t *testing.T) {
	if err := Errs([]Result{{Value: 1}, {Value: 2}}); err != nil {
		t.Fatalf("Errs = %v, want nil", err)
	}
}
