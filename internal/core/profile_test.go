package core

import (
	"context"
	"testing"
	"time"

	"aodb/internal/capacity"
	"aodb/internal/kvstore"
	"aodb/internal/telemetry"
)

// TestProfilerAccountsTurns verifies the turn-path wiring: every turn is
// counted, CPU burn is attributed to the actor that spent it, and the
// hosting silo rides along as the entry label.
func TestProfilerAccountsTurns(t *testing.T) {
	prof := telemetry.New(telemetry.Config{Parts: telemetry.Profile})
	rt := newTestRuntime(t, Config{
		Tracer: prof,
		Cost: func(id ID, msg any) time.Duration {
			if id.Key == "hot" {
				return 2 * time.Millisecond
			}
			return 0
		},
	})
	registerCounter(t, rt)
	lim := capacity.NewLimiter(capacity.Profile{Workers: 1, Speed: 1}, rt.Clock())
	if _, err := rt.AddSilo("silo-1", lim); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := rt.Call(ctx, ID{"Counter", "hot"}, addMsg{1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Call(ctx, ID{"Counter", "cold"}, addMsg{1}); err != nil {
		t.Fatal(err)
	}
	awaitTurns(t, rt, 6)

	hot := prof.HotActors()
	if len(hot) != 2 {
		t.Fatalf("hot actors = %+v, want 2 entries", hot)
	}
	top := hot[0]
	if top.Key != "Counter/hot" {
		t.Fatalf("top actor = %+v, want Counter/hot", top)
	}
	if top.Turns != 5 {
		t.Fatalf("top turns = %d, want 5", top.Turns)
	}
	if top.Count < int64(5*2*time.Millisecond) {
		t.Fatalf("top cpu = %dns, want >= 10ms of simulated burn", top.Count)
	}
	if top.Label != "silo-1" {
		t.Fatalf("top label = %q, want silo-1", top.Label)
	}
	turns, cpu := prof.ProfileTotals()
	if turns != 6 || cpu <= 0 {
		t.Fatalf("totals = %d turns %d cpu", turns, cpu)
	}
	kinds := prof.KindStats()
	if len(kinds) != 1 || kinds[0].Kind != "Counter" || kinds[0].Turns != 6 {
		t.Fatalf("kind stats = %+v", kinds)
	}
}

// TestProfilerWithoutLimiterUsesWallTime: on an unbounded silo there is no
// simulated burn, so attribution falls back to real handler time.
func TestProfilerWithoutLimiterUsesWallTime(t *testing.T) {
	prof := telemetry.New(telemetry.Config{Parts: telemetry.Profile})
	rt := newTestRuntime(t, Config{Tracer: prof})
	registerCounter(t, rt)
	rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	if _, err := rt.Call(ctx, ID{"Counter", "slow"}, slowMsg{D: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	awaitTurns(t, rt, 1)
	hot := prof.HotActors()
	if len(hot) != 1 || hot[0].Key != "Counter/slow" {
		t.Fatalf("hot = %+v", hot)
	}
	if hot[0].Count < int64(4*time.Millisecond) {
		t.Fatalf("cpu = %dns, want >= ~5ms of wall time", hot[0].Count)
	}
}

// TestProfilerAccountsStateSize verifies the persistence-path wiring: the
// serialized state size reaches both the per-actor entry and the per-kind
// max, on write and on a fresh activation's load.
func TestProfilerAccountsStateSize(t *testing.T) {
	prof := telemetry.New(telemetry.Config{Parts: telemetry.Profile})
	store, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt := newTestRuntime(t, Config{
		Tracer:    prof,
		Store:     store,
		IdleAfter: 10 * time.Millisecond,
	})
	registerCounter(t, rt, WithPersistence(PersistOnDeactivate))
	rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	id := ID{"Counter", "persisted"}
	if _, err := rt.Call(ctx, id, addMsg{41}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Call(ctx, id, saveMsg{}); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range prof.HotActors() {
		if e.Key == "Counter/persisted" && e.Bytes > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("state size not attributed: %+v", prof.HotActors())
	}
	kinds := prof.KindStats()
	if len(kinds) != 1 || kinds[0].MaxStateBytes <= 0 {
		t.Fatalf("kind state bytes missing: %+v", kinds)
	}
}

// TestProfilerDisabledCostsNothingVisible: with no profiler configured the
// turn path must behave identically (this is the contract the hot-path
// benchmark quantifies; here we just assert no accounting appears and
// nothing panics on the nil receiver).
func TestProfilerNilIsInert(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	registerCounter(t, rt)
	rt.AddSilo("silo-1", nil)
	if _, err := rt.Call(context.Background(), ID{"Counter", "a"}, addMsg{1}); err != nil {
		t.Fatal(err)
	}
	if rt.Tracer() != nil {
		t.Fatal("expected nil tracer")
	}
	if rt.Tracer().HotActors() != nil {
		t.Fatal("nil tracer returned data")
	}
}

// TestProfilerDisabledMidRun: toggling the profiler off stops accounting
// without losing what was already gathered.
func TestProfilerToggle(t *testing.T) {
	prof := telemetry.New(telemetry.Config{Parts: telemetry.Profile})
	rt := newTestRuntime(t, Config{Tracer: prof})
	registerCounter(t, rt)
	rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	rt.Call(ctx, ID{"Counter", "a"}, addMsg{1})
	awaitTurns(t, rt, 1)
	prof.SetEnabled(false)
	rt.Call(ctx, ID{"Counter", "a"}, addMsg{1})
	awaitTurns(t, rt, 2)
	turns, _ := prof.ProfileTotals()
	if turns != 1 {
		t.Fatalf("turns = %d, want 1 (second turn observed while disabled)", turns)
	}
	prof.SetEnabled(true)
	rt.Call(ctx, ID{"Counter", "a"}, addMsg{1})
	awaitTurns(t, rt, 3)
	turns, _ = prof.ProfileTotals()
	if turns != 2 {
		t.Fatalf("turns = %d, want 2", turns)
	}
}
