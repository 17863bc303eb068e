package core

import (
	"context"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aodb/internal/clock"
	"aodb/internal/codec/codectest"
)

// liveKB is what the benchmark's mem_kb_per_actor is made of: live heap
// plus stacks, after a collection.
func liveKB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc+ms.StackInuse) / 1024
}

// awaitGoroutines waits for the process to run at most n goroutines:
// workers exit on their own a moment after the visit that outlived their
// silo, so the count is polled, not read once.
func awaitGoroutines(t *testing.T, n int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > n {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want at most %d", what, runtime.NumGoroutine(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// exclActor fails the test when two of its turns — or a turn and a
// lifecycle hook — overlap. The flag is the actor's, not the activation's,
// so a successor activation overlapping its predecessor's teardown is
// caught too.
type exclActor struct {
	h *exclHarness
}

type exclHarness struct {
	busy     []atomic.Int32 // one per actor, by key
	overlaps atomic.Int64
	turns    atomic.Int64
}

type exclMsg struct{ Deactivate bool }

func (h *exclHarness) enter(key string) *atomic.Int32 {
	i, _ := strconv.Atoi(key)
	f := &h.busy[i]
	if !f.CompareAndSwap(0, 1) {
		h.overlaps.Add(1)
	}
	return f
}

func (a *exclActor) OnActivate(ctx *Context) error {
	defer a.h.enter(ctx.Self().Key).Store(0)
	runtime.Gosched()
	return nil
}

func (a *exclActor) OnDeactivate(ctx *Context) error {
	defer a.h.enter(ctx.Self().Key).Store(0)
	runtime.Gosched()
	return nil
}

func (a *exclActor) Receive(ctx *Context, msg any) (any, error) {
	defer a.h.enter(ctx.Self().Key).Store(0)
	if n := a.h.turns.Add(1); n%8 == 0 {
		runtime.Gosched() // widen the window an overlap would need
	}
	if msg.(exclMsg).Deactivate {
		ctx.DeactivateOnIdle()
	}
	return nil, nil
}

// TestTurnsNeverOverlap: at most one worker owns an activation at any
// instant, whatever flips its mailbox. Concurrent Call, Tell, CallManyOf,
// DeactivateOnIdle, the idle collector at a 1 ms window and Migrate hammer
// a handful of actors; no two turns of one actor overlap, and every
// message the runtime accepted ran exactly one turn.
func TestTurnsNeverOverlap(t *testing.T) {
	const actors = 6
	h := &exclHarness{busy: make([]atomic.Int32, actors)}
	rt := newTestRuntime(t, Config{
		IdleAfter:    time.Millisecond,
		CollectEvery: time.Millisecond,
	})
	if err := rt.RegisterKind("Excl", func() Actor { return &exclActor{h: h} }); err != nil {
		t.Fatal(err)
	}
	silos := []string{"silo-1", "silo-2"}
	for _, s := range silos {
		if _, err := rt.AddSilo(s, nil); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]ID, actors)
	for i := range ids {
		ids[i] = ID{Kind: "Excl", Key: strconv.Itoa(i)}
	}
	ctx := context.Background()
	rounds := 1500
	if testing.Short() {
		rounds = 300
	}

	// A message is accepted when its call returns nil. Under this much
	// migration a call may instead run out of wrong-silo hops between two
	// silos' redirect markers (the parent commit's routing does the same);
	// that is a refusal — transient, and no turn ran — not a lost message.
	var accepted, refused atomic.Int64
	took := func(err error) error {
		switch {
		case err == nil:
			accepted.Add(1)
		case Transient(err):
			refused.Add(1)
		default:
			return err
		}
		return nil
	}
	var wg sync.WaitGroup
	hammer := func(seed int64, op func(r *rand.Rand) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < rounds; i++ {
				if err := op(r); err != nil {
					t.Errorf("hammer %d, round %d: %v", seed, i, err)
					return
				}
			}
		}()
	}
	for c := int64(0); c < 3; c++ {
		hammer(c, func(r *rand.Rand) error { // Call
			_, err := rt.Call(ctx, ids[r.Intn(actors)], exclMsg{})
			return took(err)
		})
	}
	for c := int64(10); c < 12; c++ {
		hammer(c, func(r *rand.Rand) error { // Tell
			return took(rt.Tell(ctx, ids[r.Intn(actors)], exclMsg{}))
		})
	}
	hammer(20, func(r *rand.Rand) error { // CallManyOf
		_, errs := CallManyOf[any](ctx, rt, ids, exclMsg{})
		for i := range ids {
			var err error
			if errs != nil {
				err = errs[i]
			}
			if err := took(err); err != nil {
				return err
			}
		}
		return nil
	})
	hammer(30, func(r *rand.Rand) error { // DeactivateOnIdle
		_, err := rt.Call(ctx, ids[r.Intn(actors)], exclMsg{Deactivate: true})
		return took(err)
	})
	hammer(40, func(r *rand.Rand) error { // Migrate
		return rt.Migrate(ctx, ids[r.Intn(actors)], silos[r.Intn(len(silos))])
	})
	wg.Wait()
	if t.Failed() {
		return
	}
	// Told turns may still be queued: a Tell is acknowledged at enqueue.
	deadline := time.Now().Add(10 * time.Second)
	for h.turns.Load() < accepted.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("%d messages accepted, %d turns ran: a message was dropped", accepted.Load(), h.turns.Load())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // a turn run twice would show up late
	if got, want := h.turns.Load(), accepted.Load(); got != want {
		t.Fatalf("%d messages accepted, %d turns ran", want, got)
	}
	if n := h.overlaps.Load(); n != 0 {
		t.Fatalf("%d overlapping turns", n)
	}
	t.Logf("%d turns (%d calls refused), %d activations, %d migrations", h.turns.Load(), refused.Load(),
		rt.Metrics().Counter("core.activations").Value(), rt.Metrics().Counter("core.migrations").Value())
}

// TestBlockedTurnsNeverStarveTheSilo: turns that block hold their workers,
// so the workers cannot be a bounded pool. A chain of nested Calls deeper
// than the parked cap, and more simultaneously gated turns than the cap,
// both complete — and the workers past the cap exit once they are done.
func TestBlockedTurnsNeverStarveTheSilo(t *testing.T) {
	const depth = 300
	if depth <= maxParked {
		t.Fatalf("depth %d must exceed the parked cap %d", depth, maxParked)
	}
	rt := newTestRuntime(t, Config{})
	entered := make(chan struct{}, depth)
	release := make(chan struct{})
	rt.RegisterKind("Link", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) {
			n := msg.(int)
			if n == 0 {
				return 0, nil
			}
			v, err := ctx.Call(ID{Kind: "Link", Key: strconv.Itoa(n - 1)}, n-1)
			if err != nil {
				return nil, err
			}
			return v.(int) + 1, nil
		})
	})
	rt.RegisterKind("Gated", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) {
			entered <- struct{}{}
			<-release
			return msg, nil
		})
	})
	rt.AddSilo("silo-1", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	goroutines := runtime.NumGoroutine()

	v, err := rt.Call(ctx, ID{Kind: "Link", Key: strconv.Itoa(depth)}, depth)
	if err != nil || v.(int) != depth {
		t.Fatalf("%d-deep chain = %v, %v", depth, v, err)
	}

	var wg sync.WaitGroup
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if v, err := rt.Call(ctx, ID{Kind: "Gated", Key: strconv.Itoa(i)}, i); err != nil || v.(int) != i {
				t.Errorf("gated call %d = %v, %v", i, v, err)
			}
		}(i)
	}
	for i := 0; i < depth; i++ {
		select {
		case <-entered:
		case <-ctx.Done():
			t.Fatalf("only %d of %d gated turns started: the rest wait for a worker", i, depth)
		}
	}
	close(release)
	wg.Wait()
	awaitGoroutines(t, goroutines+maxParked, "with every turn finished")
}

// TestIdleActorsOwnNoGoroutine is ROADMAP's core.mem_kb_per_idle_actor row
// as a test: an idle activation holds no goroutine and costs at most 0.65 KB
// of live heap and stacks, and a shut-down runtime leaves no worker behind.
// The bound is the cost measured once an activation's teardown signal was
// made only when awaited (0.587 KB; 0.696 with one made for each), plus
// 10 %; a goroutine per activation would cost several KB. The race
// detector's shadow memory makes the cost meaningless, so -race skips the
// bound alone.
func TestIdleActorsOwnNoGoroutine(t *testing.T) {
	const actors = 20_000
	start := runtime.NumGoroutine()
	rt, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt.RegisterKind("Noop", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) { return nil, nil })
	})
	silo, _ := rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	call := func(i int) {
		if _, err := rt.Call(ctx, ID{Kind: "Noop", Key: strconv.Itoa(i)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	call(0) // the first worker, and every lazily made table, is not the actors'
	goroutines, kb := runtime.NumGoroutine(), liveKB()
	for i := 1; i <= actors; i++ {
		call(i)
	}
	awaitTurns(t, rt, actors+1)
	perActor := (liveKB() - kb) / actors
	t.Logf("%d idle activations: %.3f KB each, %d goroutines more", actors, perActor, runtime.NumGoroutine()-goroutines)
	if got := silo.Activations(); got != actors+1 {
		t.Fatalf("%d activations live, want %d", got, actors+1)
	}
	if perActor > 0.65 && !codectest.RaceEnabled {
		t.Errorf("an idle activation costs %.3f KB, want at most 0.65", perActor)
	}
	awaitGoroutines(t, goroutines+maxParked, "with every activation idle")
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	awaitGoroutines(t, start, "after Shutdown")
}

// TestPopulationBurstGivesMemoryBack: the catalog and the directory's
// shard maps are made afresh once a burst has drained, so a silo's idle
// footprint does not keep the high-water mark of its busiest moment. One
// collector sweep closes the whole population at once, which is also the
// burst of worker starts that must not allocate per start.
func TestPopulationBurstGivesMemoryBack(t *testing.T) {
	const actors = 50_000
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	rt := newTestRuntime(t, Config{Clock: clk})
	rt.RegisterKind("Noop", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) { return nil, nil })
	})
	silo, _ := rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	cycle := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := rt.Call(ctx, ID{Kind: "Noop", Key: strconv.Itoa(i)}, nil); err != nil {
				t.Fatal(err)
			}
		}
		clk.Advance(rt.cfg.IdleAfter)
		deadline := time.Now().Add(20 * time.Second)
		for silo.Activations() != 0 || rt.Directory().Len() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%d activations never collected", silo.Activations())
			}
			clk.Advance(rt.cfg.CollectEvery) // the collector's next tick
			time.Sleep(time.Millisecond)
		}
	}
	cycle(10) // warm: the first workers, lazily made tables
	before := liveKB()
	cycle(actors)
	deadline := time.Now().Add(5 * time.Second)
	var grew float64
	for {
		// Workers past the parked cap exit on their own after the sweep.
		if grew = liveKB() - before; grew <= 2048 || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Logf("live heap + stacks after a %d-actor burst drained: %+.0f KB", actors, grew)
	if grew > 2048 {
		t.Errorf("%.0f KB still held after a %d-actor burst drained, want at most 2 MB", grew, actors)
	}
}
