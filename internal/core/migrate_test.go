package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aodb/internal/kvstore"
)

// TestMigrateMovesStatefulActor: the basic hand-off — drain at the
// source with a state flush, re-activate at the target, state intact.
func TestMigrateMovesStatefulActor(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	rt := newTestRuntime(t, Config{Store: kv})
	registerCounter(t, rt, WithPersistence(PersistOnDeactivate))
	rt.AddSilo("silo-1", nil)
	rt.AddSilo("silo-2", nil)
	ctx := context.Background()

	id := ID{"Counter", "mover"}
	if _, err := rt.Call(ctx, id, addMsg{N: 41}); err != nil {
		t.Fatal(err)
	}
	reg, ok := rt.Directory().Lookup(id.String())
	if !ok {
		t.Fatal("no registration after call")
	}
	src := reg.Silo
	dst := "silo-1"
	if src == dst {
		dst = "silo-2"
	}

	if err := rt.Migrate(ctx, id, dst); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	reg, ok = rt.Directory().Lookup(id.String())
	if !ok || reg.Silo != dst {
		t.Fatalf("registration after migrate = %+v, want %s", reg, dst)
	}
	v, err := rt.Call(ctx, id, addMsg{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 42 {
		t.Fatalf("state after migrate = %v, want 42", v)
	}
	srcSilo, _ := rt.Silo(src)
	if n := srcSilo.Activations(); n != 0 {
		t.Fatalf("source still hosts %d activations", n)
	}
	counts := rt.Metrics().Counters()
	if counts["core.migrations.out"] != 1 || counts["core.migrations.in"] != 1 {
		t.Fatalf("migration counters = out:%d in:%d, want 1/1",
			counts["core.migrations.out"], counts["core.migrations.in"])
	}

	// Migrating an idle (never-activated) actor just activates it there.
	ghost := ID{"Counter", "ghost"}
	if err := rt.Migrate(ctx, ghost, dst); err != nil {
		t.Fatal(err)
	}
	if reg, ok := rt.Directory().Lookup(ghost.String()); !ok || reg.Silo != dst {
		t.Fatalf("ghost registration = %+v, want %s", reg, dst)
	}
	// Migrating to the current home is a no-op.
	if err := rt.Migrate(ctx, id, dst); err != nil {
		t.Fatal(err)
	}
}

// TestCallsDuringMigrationNotLostNotDoubled hammers an actor with
// concurrent increments while it migrates. Every acked increment must
// land exactly once: queued turns run at the source before its final
// flush, late arrivals are redirected to the target, and the target
// loads the flushed state — so the final count equals the acks.
func TestCallsDuringMigrationNotLostNotDoubled(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	rt := newTestRuntime(t, Config{Store: kv})
	registerCounter(t, rt, WithPersistence(PersistOnDeactivate))
	rt.AddSilo("silo-1", nil)
	rt.AddSilo("silo-2", nil)
	ctx := context.Background()

	id := ID{"Counter", "busy"}
	if _, err := rt.Call(ctx, id, getMsg{}); err != nil {
		t.Fatal(err)
	}
	reg, _ := rt.Directory().Lookup(id.String())
	dst := "silo-1"
	if reg.Silo == dst {
		dst = "silo-2"
	}

	const callers = 8
	const perCaller = 25
	var wg sync.WaitGroup
	errs := make(chan error, callers*perCaller)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for j := 0; j < perCaller; j++ {
				if _, err := rt.Call(ctx, id, addMsg{N: 1}); err != nil {
					errs <- err
				}
			}
		}()
	}
	close(start)
	// Migrate mid-hammer (twice, there and back, for good measure).
	if err := rt.Migrate(ctx, id, dst); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if err := rt.Migrate(ctx, id, reg.Silo); err != nil {
		t.Fatalf("Migrate back: %v", err)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent call failed during migration: %v", err)
	}
	v, err := rt.Call(ctx, id, getMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != callers*perCaller {
		t.Fatalf("count after migration = %v, want %d (lost or doubled turns)", v, callers*perCaller)
	}
}

// fenceActor blocks mid-turn on command, then mutates and explicitly
// persists — the shape that exposes zombie writers under forced
// hand-off.
type fenceActor struct {
	state   counterState
	entered chan struct{}
	release chan struct{}
}

type blockThenAddMsg struct{ N int }

func (f *fenceActor) State() any { return &f.state }

func (f *fenceActor) Receive(ctx *Context, msg any) (any, error) {
	switch m := msg.(type) {
	case addMsg:
		f.state.N += m.N
		return f.state.N, ctx.WriteState()
	case getMsg:
		return f.state.N, nil
	case blockThenAddMsg:
		f.entered <- struct{}{}
		<-f.release
		f.state.N += m.N
		return f.state.N, ctx.WriteState()
	}
	return nil, fmt.Errorf("unknown message %T", msg)
}

// TestForcedMigrationFencesZombieWrite: an activation stuck in a turn
// past the drain budget is fenced; when its turn finally completes, its
// state write fails stale instead of clobbering the successor that
// already activated at the target.
func TestForcedMigrationFencesZombieWrite(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	rt := newTestRuntime(t, Config{Store: kv})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	if err := rt.RegisterKind("Fence", func() Actor {
		return &fenceActor{entered: entered, release: release}
	}, WithPersistence(PersistExplicit)); err != nil {
		t.Fatal(err)
	}
	rt.AddSilo("silo-1", nil)
	rt.AddSilo("silo-2", nil)
	ctx := context.Background()

	id := ID{"Fence", "stuck"}
	if _, err := rt.Call(ctx, id, addMsg{N: 5}); err != nil {
		t.Fatal(err)
	}
	reg, _ := rt.Directory().Lookup(id.String())
	src := reg.Silo
	dst := "silo-1"
	if src == dst {
		dst = "silo-2"
	}

	callErr := make(chan error, 1)
	// One attempt, so the zombie's caller sees the fence directly (a Call
	// would transparently re-run at the target — correct, but it would
	// hide what this test asserts).
	go func() {
		_, err := callOnce(ctx, rt, id, blockThenAddMsg{N: 100})
		callErr <- err
	}()
	<-entered // the turn is now wedged mid-execution

	mctx, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
	defer cancel()
	if err := rt.Migrate(mctx, id, dst); err != nil {
		t.Fatalf("forced Migrate: %v", err)
	}
	if got := rt.Metrics().Counters()["core.migrations.forced"]; got != 1 {
		t.Fatalf("core.migrations.forced = %d, want 1", got)
	}
	// The successor is live at the target with the last flushed state.
	v, err := rt.Call(ctx, id, getMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 5 {
		t.Fatalf("successor state = %v, want 5", v)
	}

	// Unwedge the zombie: its mutation + write must be fenced off.
	close(release)
	if err := <-callErr; !errors.Is(err, ErrStaleActivation) {
		t.Fatalf("zombie caller error = %v, want ErrStaleActivation", err)
	}
	if got := rt.Metrics().Counters()["core.stale_writes_fenced"]; got == 0 {
		t.Fatal("no stale write was fenced")
	}
	v, err = rt.Call(ctx, id, getMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 5 {
		t.Fatalf("state after zombie write attempt = %v, want 5 (zombie clobbered it)", v)
	}
}

// TestMovedMarkerRedirects: after a hand-off, calls landing on the old
// silo are answered with a redirect to the new home rather than
// re-activating locally — even when the directory has no entry (the
// TCP-mode situation, simulated here by evicting it).
func TestMovedMarkerRedirects(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	registerCounter(t, rt)
	rt.AddSilo("silo-1", nil)
	rt.AddSilo("silo-2", nil)
	ctx := context.Background()

	id := ID{"Counter", "marked"}
	if _, err := rt.Call(ctx, id, addMsg{N: 7}); err != nil {
		t.Fatal(err)
	}
	reg, _ := rt.Directory().Lookup(id.String())
	src := reg.Silo
	dst := "silo-1"
	if src == dst {
		dst = "silo-2"
	}
	if err := rt.Migrate(ctx, id, dst); err != nil {
		t.Fatal(err)
	}
	// Simulate a process-local directory that never heard of the actor:
	// the moved marker alone must still bounce the call to the target.
	if reg, ok := rt.Directory().Lookup(id.String()); ok {
		rt.Directory().Unregister(reg)
	}
	srcSilo, _ := rt.Silo(src)
	_, err := srcSilo.resolve(ctx, id)
	if !IsWrongSilo(err) {
		t.Fatalf("resolve on old silo = %v, want wrong-silo redirect", err)
	}
	if got := redirectTarget(err); got != dst {
		t.Fatalf("redirect target = %q, want %q", got, dst)
	}
	// And the full call path follows the redirect: the actor keeps
	// running at dst, and src does not resurrect it.
	if _, err := rt.Call(ctx, id, getMsg{}); err != nil {
		t.Fatal(err)
	}
	if n := srcSilo.Activations(); n != 0 {
		t.Fatalf("old silo resurrected the actor (%d activations)", n)
	}
	dstSilo, _ := rt.Silo(dst)
	if n := dstSilo.Activations(); n != 1 {
		t.Fatalf("target hosts %d activations, want 1", n)
	}
}

// failingLoads fails one Load of one key with err, after letting skip
// loads of it through, as a joining silo's replica store does while its
// read gate is still up.
type failingLoads struct {
	StateStore
	mu   sync.Mutex
	key  string
	skip int
	err  error
}

func (f *failingLoads) fail(key string, skip int, err error) {
	f.mu.Lock()
	f.key, f.skip, f.err = key, skip, err
	f.mu.Unlock()
}

func (f *failingLoads) Load(ctx context.Context, key string) ([]byte, int64, error) {
	f.mu.Lock()
	var err error
	if key == f.key && f.err != nil {
		if f.skip == 0 {
			err, f.err = f.err, nil
		}
		f.skip--
	}
	f.mu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	return f.StateStore.Load(ctx, key)
}

// TestMigrateLandsLive: Migrate returns only once the target has loaded
// the actor's state. A transient load failure at the target, whether the
// hand-off's first read of the state or the new activation's, is retried
// rather than reported as a move that left the actor active nowhere; a
// permanent one fails the hand-off.
func TestMigrateLandsLive(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	table, err := kv.EnsureTable(StateTable, kvstore.Throughput{})
	if err != nil {
		t.Fatal(err)
	}
	states := &failingLoads{StateStore: tableStateStore{t: table}}
	rt := newTestRuntime(t, Config{States: states})
	registerCounter(t, rt, WithPersistence(PersistOnDeactivate))
	rt.AddSilo("silo-1", nil)
	rt.AddSilo("silo-2", nil)
	ctx := context.Background()

	id := ID{"Counter", "joiner"}
	if _, err := rt.Call(ctx, id, addMsg{N: 41}); err != nil {
		t.Fatal(err)
	}
	other := map[string]string{"silo-1": "silo-2", "silo-2": "silo-1"}
	reg, _ := rt.Directory().Lookup(id.String())
	at := reg.Silo
	for skip := 0; skip < 2; skip++ {
		dst := other[at]
		states.fail(id.String(), skip, fmt.Errorf("test: replica rebuilding: %w", ErrTransient))
		if err := rt.Migrate(ctx, id, dst); err != nil {
			t.Fatalf("Migrate over a transient failure of load %d: %v", skip+1, err)
		}
		counts := rt.Metrics().Counters()
		if counts["core.activations"] != int64(2+skip) || counts["core.migrations.in"] != int64(1+skip) {
			t.Fatalf("after Migrate %d: core.activations = %d, core.migrations.in = %d; want %d and %d (the target's activation loaded)",
				skip+1, counts["core.activations"], counts["core.migrations.in"], 2+skip, 1+skip)
		}
		if s, _ := rt.Silo(dst); s.Activations() != 1 {
			t.Fatalf("target hosts %d activations after Migrate %d, want 1", s.Activations(), skip+1)
		}
		if v, err := rt.Call(ctx, id, getMsg{}); err != nil || v.(int) != 41 {
			t.Fatalf("state after Migrate %d = %v, %v; want 41", skip+1, v, err)
		}
		at = dst
	}

	states.fail(id.String(), 0, errors.New("test: corrupt replica"))
	if err := rt.Migrate(ctx, id, other[at]); err == nil {
		t.Fatal("Migrate over a permanent load failure succeeded")
	}
	if got := rt.Metrics().Counters()["core.migrations.in"]; got != 2 {
		t.Fatalf("core.migrations.in = %d after a failed hand-off, want 2", got)
	}
}
