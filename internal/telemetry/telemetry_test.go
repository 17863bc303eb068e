package telemetry

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"aodb/internal/clock"
)

func TestHeadSamplingIsDeterministic(t *testing.T) {
	mk := func() *Tracer { return New(Config{SampleEvery: 3}) }
	a, b := mk(), mk()
	for i := 0; i < 9; i++ {
		_, spA := a.StartRoot("call X/1")
		_, spB := b.StartRoot("call X/1")
		wantSampled := i%3 == 0
		if (spA != nil) != wantSampled {
			t.Fatalf("request %d: sampled=%v, want %v", i, spA != nil, wantSampled)
		}
		if (spA != nil) != (spB != nil) {
			t.Fatalf("request %d: two identical tracers disagreed", i)
		}
	}
}

func TestRootContextLinksTurnSpans(t *testing.T) {
	tr := New(Config{})
	sc, root := tr.StartRoot("call Sensor/1")
	if root == nil || !sc.Sampled {
		t.Fatal("first request must be sampled")
	}
	if sc.TraceID != root.TraceID || sc.SpanID != root.SpanID {
		t.Fatalf("context %+v does not name root %+v", sc, root)
	}
	turn := tr.StartTurn(sc, "Sensor/1", "Sensor", "silo-1").Span
	if turn == nil {
		t.Fatal("sampled parent must open a turn span")
	}
	if turn.TraceID != root.TraceID || turn.Parent != root.SpanID {
		t.Fatalf("turn %+v not parented under root %+v", turn, root)
	}
	if turn.SpanID == root.SpanID || turn.SpanID == 0 {
		t.Fatalf("turn span id %d must be fresh and nonzero", turn.SpanID)
	}
	child := turn.ChildContext()
	if child.TraceID != turn.TraceID || child.SpanID != turn.SpanID || !child.Sampled {
		t.Fatalf("child context %+v", child)
	}
	if tn := tr.StartTurn(SpanContext{}, "Sensor/1", "Sensor", "silo-1"); tn.Span != nil || tn.Timed {
		t.Fatal("unsampled parent must not open a span")
	}
}

func TestSpanRingOverwritesOldest(t *testing.T) {
	tr := New(Config{Capacity: 4})
	for i := 0; i < 10; i++ {
		_, sp := tr.StartRoot(fmt.Sprintf("call X/%d", i))
		tr.Finish(sp, nil)
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("stored %d spans, want 4", len(spans))
	}
	for i, sp := range spans {
		if want := fmt.Sprintf("call X/%d", 6+i); sp.Actor != want {
			t.Fatalf("span %d = %q, want %q (oldest first)", i, sp.Actor, want)
		}
	}
	if got := tr.Recorded(); got != 10 {
		t.Fatalf("Recorded = %d, want 10", got)
	}
}

func TestSlowTurnDetector(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	tr := New(Config{SlowTurn: 100 * time.Millisecond, Clock: clk})
	sc, root := tr.StartRoot("call X/1")

	fast := tr.StartTurn(sc, "X/1", "X", "silo-1")
	clk.Advance(10 * time.Millisecond)
	tr.EndTurn(&fast, 0, 0, 0, nil, false)

	slow := tr.StartTurn(sc, "X/2", "X", "silo-1")
	clk.Advance(250 * time.Millisecond)
	tr.EndTurn(&slow, 0, 0, 0, nil, false)

	// A slow root is end-to-end latency, not a slow turn.
	clk.Advance(time.Second)
	tr.Finish(root, nil)

	if got := tr.SlowTurns(); got != 1 {
		t.Fatalf("SlowTurns = %d, want 1", got)
	}
	ss := tr.SlowSpans()
	if len(ss) != 1 || ss[0].Actor != "X/2" || ss[0].Dur != 250*time.Millisecond {
		t.Fatalf("slow spans = %+v", ss)
	}
}

func TestEndTurnRecordsErrorDurationAndTimings(t *testing.T) {
	clk := clock.NewFake(time.Unix(1, 0))
	tr := New(Config{Clock: clk})
	sc, _ := tr.StartRoot("call X/1")
	tn := tr.StartTurn(sc, "X/1", "X", "s")
	if !tn.Timed {
		t.Fatal("a sampled turn must ask for timings")
	}
	clk.Advance(7 * time.Millisecond)
	tr.EndTurn(&tn, 3*time.Millisecond, time.Millisecond, 2*time.Millisecond, errors.New("boom"), false)
	got := tr.Spans()
	if len(got) != 1 || got[0].Dur != 7*time.Millisecond || got[0].Err != "boom" {
		t.Fatalf("spans = %+v", got)
	}
	if got[0].Exec != 3*time.Millisecond || got[0].CPUWait != time.Millisecond || got[0].CPUBurn != 2*time.Millisecond {
		t.Fatalf("timings not recorded: %+v", got[0])
	}
	// A zero Turn (the tracer was off when the turn began) records nothing.
	tr.EndTurn(&Turn{}, time.Second, 0, 0, nil, true)
	if len(tr.Spans()) != 1 || tr.KindStats()[0].Turns != 1 {
		t.Fatal("zero Turn was recorded")
	}
}

func TestExecSelfClampsAtZero(t *testing.T) {
	sp := Span{Exec: 10, Nested: 20}
	if got := sp.ExecSelf(); got != 0 {
		t.Fatalf("ExecSelf = %v, want 0", got)
	}
	sp = Span{Exec: 100, Nested: 30, StoreRead: 20, StoreWrite: 10}
	if got := sp.ExecSelf(); got != 40 {
		t.Fatalf("ExecSelf = %v, want 40", got)
	}
}

func TestAccumulatorsAreNilSafe(t *testing.T) {
	var sp *Span
	sp.AddStoreRead(time.Second)
	sp.AddStoreWrite(time.Second)
	sp.AddNested(time.Second)
	if sc := sp.ChildContext(); sc.Sampled {
		t.Fatal("nil span must yield unsampled child context")
	}

	live := &Span{}
	live.AddNested(3 * time.Millisecond)
	live.AddNested(4 * time.Millisecond)
	if live.Nested != 7*time.Millisecond || live.Hops != 2 {
		t.Fatalf("nested = %v hops = %d", live.Nested, live.Hops)
	}
}

func TestNilAndDisabledTracer(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer is enabled")
	}
	tr.SetEnabled(true) // must not panic
	if sc, sp := tr.StartRoot("x"); sp != nil || sc.Sampled {
		t.Fatal("nil tracer sampled")
	}
	tr.Finish(&Span{}, nil)
	tr.EndTurn(&Turn{}, time.Second, 0, 0, nil, false)
	tr.ObserveState("X/1", "X", 10)
	if tr.Spans() != nil || tr.KindStats() != nil || tr.Recorded() != 0 || tr.HotActors() != nil {
		t.Fatal("nil tracer has data")
	}

	on := New(Config{})
	on.SetEnabled(false)
	if sc, sp := on.StartRoot("x"); sp != nil || sc.Sampled {
		t.Fatal("disabled tracer sampled")
	}
	on.SetEnabled(true)
	if _, sp := on.StartRoot("x"); sp == nil {
		t.Fatal("re-enabled tracer must sample again")
	}
}

// turn records one synthetic unsampled turn that took wall on clk.
func turn(tr *Tracer, clk *clock.Fake, actor, kind string, wall time.Duration) {
	tn := tr.StartTurn(SpanContext{}, actor, kind, "silo-1")
	clk.Advance(wall)
	tr.EndTurn(&tn, 0, 0, 0, nil, false)
}

func TestEveryTurnFeedsKindStats(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	tr := New(Config{SlowTurn: 100 * time.Millisecond, Clock: clk})
	turn(tr, clk, "Sensor/1", "Sensor", 10*time.Millisecond)
	turn(tr, clk, "Sensor/2", "Sensor", 200*time.Millisecond)
	turn(tr, clk, "Org/1", "Org", 5*time.Millisecond)
	stats := tr.KindStats()
	if len(stats) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	byKind := map[string]KindStats{}
	for _, s := range stats {
		byKind[s.Kind] = s
	}
	s := byKind["Sensor"]
	if s.Turns != 2 || s.SlowTurns != 1 || s.TurnNanos != int64(210*time.Millisecond) {
		t.Fatalf("Sensor stats = %+v", s)
	}
}

func TestSplitmixIDsAreUniqueAndNonzero(t *testing.T) {
	tr := New(Config{})
	seen := make(map[uint64]bool)
	for i := 0; i < 10000; i++ {
		id := tr.nextID()
		if id == 0 {
			t.Fatal("minted id 0")
		}
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}
