package rebalance

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"aodb/internal/core"
	"aodb/internal/kvstore"
	"aodb/internal/placement"
	"aodb/internal/telemetry"
)

// mutView is a membership view a test can grow mid-run.
type mutView struct {
	mu    sync.Mutex
	silos []string
}

func (v *mutView) View() []string {
	v.mu.Lock()
	defer v.mu.Unlock()
	return append([]string(nil), v.silos...)
}

func (v *mutView) set(silos ...string) {
	v.mu.Lock()
	v.silos = silos
	v.mu.Unlock()
}

type counterState struct{ N int }

type counterActor struct{ state counterState }

type addMsg struct{ N int }
type getMsg struct{}

func (c *counterActor) State() any { return &c.state }

func (c *counterActor) Receive(ctx *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case addMsg:
		c.state.N += m.N
		return c.state.N, nil
	case getMsg:
		return c.state.N, nil
	}
	return nil, fmt.Errorf("unknown message %T", msg)
}

func newRuntime(t *testing.T, view *mutView, strat placement.Strategy) *core.Runtime {
	return newRecordedRuntime(t, view, strat, nil)
}

func newRecordedRuntime(t *testing.T, view *mutView, strat placement.Strategy, tr *telemetry.Tracer) *core.Runtime {
	t.Helper()
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = kv.Close() })
	rt, err := core.New(core.Config{Store: kv, View: view, Placement: strat, Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	})
	if err := rt.RegisterKind("Counter", func() core.Actor { return &counterActor{} },
		core.WithPersistence(core.PersistOnDeactivate)); err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestPlacementDiffOnJoin: actors placed by consistent hashing on a
// one-silo cluster migrate to their hash-ideal homes when a second silo
// joins, and every actor keeps its state.
func TestPlacementDiffOnJoin(t *testing.T) {
	strat := placement.NewConsistentHash()
	view := &mutView{}
	view.set("silo-1")
	rt := newRuntime(t, view, strat)
	if _, err := rt.AddSilo("silo-1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddSilo("silo-2", nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	const actors = 24
	for i := 0; i < actors; i++ {
		if _, err := rt.Call(ctx, core.ID{Kind: "Counter", Key: fmt.Sprintf("a%d", i)}, addMsg{N: i}); err != nil {
			t.Fatal(err)
		}
	}
	s1, _ := rt.Silo("silo-1")
	if s1.Activations() != actors {
		t.Fatalf("pre-join: silo-1 hosts %d, want %d", s1.Activations(), actors)
	}

	rb, err := New(Config{Runtime: rt, Silo: "silo-1", View: view, Strategy: strat, MaxMoves: actors})
	if err != nil {
		t.Fatal(err)
	}
	// Balanced cluster: nothing to do.
	if moves := rb.Plan(); len(moves) != 0 {
		t.Fatalf("plan before join = %v, want none", moves)
	}

	view.set("silo-1", "silo-2")
	moves := rb.Plan()
	if len(moves) == 0 {
		t.Fatal("no moves planned after join")
	}
	for _, m := range moves {
		if m.To != "silo-2" || m.Reason != "placement" {
			t.Fatalf("unexpected move %+v", m)
		}
	}
	if n := rb.Rebalance(ctx); n != len(moves) {
		t.Fatalf("executed %d of %d planned moves", n, len(moves))
	}

	// Every actor now sits where the strategy wants it, state intact.
	for i := 0; i < actors; i++ {
		id := core.ID{Kind: "Counter", Key: fmt.Sprintf("a%d", i)}
		want, err := strat.Place(id.String(), "", []string{"silo-1", "silo-2"})
		if err != nil {
			t.Fatal(err)
		}
		reg, ok := rt.Directory().Lookup(id.String())
		if !ok || reg.Silo != want {
			t.Fatalf("%s registered at %v, want %s", id, reg.Silo, want)
		}
		v, err := rt.Call(ctx, id, getMsg{})
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) != i {
			t.Fatalf("%s state = %v, want %d", id, v, i)
		}
	}
	// Converged: a second round plans nothing.
	if moves := rb.Plan(); len(moves) != 0 {
		t.Fatalf("second round plans %v, want none", moves)
	}
}

// TestOverloadShedding: a silo reporting load far above the mean sheds
// its profiler-hottest actors to the least-loaded member.
func TestOverloadShedding(t *testing.T) {
	view := &mutView{}
	view.set("silo-1", "silo-2", "silo-3")
	prof := telemetry.New(telemetry.Config{Parts: telemetry.Profile})
	rt := newRecordedRuntime(t, view, nil, prof)
	for _, s := range []string{"silo-1", "silo-2", "silo-3"} {
		if _, err := rt.AddSilo(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()

	// Activate a few actors; force them onto silo-1 via Migrate so the
	// profiler labels line up regardless of random placement.
	for i := 0; i < 4; i++ {
		id := core.ID{Kind: "Counter", Key: fmt.Sprintf("hot%d", i)}
		if _, err := rt.Call(ctx, id, addMsg{N: 1}); err != nil {
			t.Fatal(err)
		}
		if err := rt.Migrate(ctx, id, "silo-1"); err != nil {
			t.Fatal(err)
		}
		tn := prof.StartTurn(telemetry.SpanContext{}, id.String(), "Counter", "silo-1")
		prof.EndTurn(&tn, time.Duration(100-i)*time.Millisecond, 0, 0, nil, false)
	}

	loads := map[string]int64{"silo-1": 900, "silo-2": 100, "silo-3": 200}
	rb, err := New(Config{
		Runtime:  rt,
		Silo:     "silo-1",
		View:     view,
		Loads:    func() map[string]int64 { return loads },
		MaxMoves: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	moves := rb.Plan()
	if len(moves) == 0 {
		t.Fatal("overloaded silo planned no shed")
	}
	for _, m := range moves {
		if m.Reason != "overload" {
			t.Fatalf("unexpected reason in %+v", m)
		}
		if m.To != "silo-2" {
			t.Fatalf("shed target %s, want least-loaded silo-2", m.To)
		}
	}
	// Budget: at most a quarter of MaxMoves per round.
	if len(moves) > 2 {
		t.Fatalf("shed %d moves in one round, want a conservative trickle", len(moves))
	}
	if n := rb.Execute(ctx, moves); n != len(moves) {
		t.Fatalf("executed %d/%d", n, len(moves))
	}
	for _, m := range moves {
		reg, ok := rt.Directory().Lookup(m.Actor.String())
		if !ok || reg.Silo != "silo-2" {
			t.Fatalf("%s at %v after shed", m.Actor, reg.Silo)
		}
	}

	// Balanced loads: no shedding.
	loads = map[string]int64{"silo-1": 300, "silo-2": 280, "silo-3": 320}
	if moves := rb.Plan(); len(moves) != 0 {
		t.Fatalf("balanced cluster planned %v", moves)
	}
}

// TestNoMovesWithoutQuorumOfView: a silo that has fallen out of the
// membership view (suspected dead) must not shuffle actors around.
func TestNoMovesWithoutQuorumOfView(t *testing.T) {
	view := &mutView{}
	view.set("silo-2", "silo-3") // silo-1 not in view
	rt := newRuntime(t, view, placement.NewConsistentHash())
	for _, s := range []string{"silo-1", "silo-2", "silo-3"} {
		if _, err := rt.AddSilo(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	rb, err := New(Config{Runtime: rt, Silo: "silo-1", View: view, Strategy: placement.NewConsistentHash()})
	if err != nil {
		t.Fatal(err)
	}
	if moves := rb.Plan(); len(moves) != 0 {
		t.Fatalf("out-of-view silo planned %v", moves)
	}
}
