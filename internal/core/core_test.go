package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aodb/internal/capacity"
	"aodb/internal/kvstore"
	"aodb/internal/placement"
)

// counterActor is a Stateful test actor.
type counterActor struct {
	state       counterState
	activations *atomic.Int32 // shared across instances via factory closure
}

type counterState struct {
	N int
}

type addMsg struct{ N int }
type getMsg struct{}
type saveMsg struct{}
type failMsg struct{}
type slowMsg struct{ D time.Duration }

func (c *counterActor) State() any { return &c.state }

func (c *counterActor) OnActivate(ctx *Context) error {
	if c.activations != nil {
		c.activations.Add(1)
	}
	return nil
}

func (c *counterActor) Receive(ctx *Context, msg any) (any, error) {
	switch m := msg.(type) {
	case addMsg:
		c.state.N += m.N
		return c.state.N, nil
	case getMsg:
		return c.state.N, nil
	case saveMsg:
		return nil, ctx.WriteState()
	case failMsg:
		return nil, errors.New("counter exploded")
	case slowMsg:
		time.Sleep(m.D)
		return c.state.N, nil
	default:
		return nil, fmt.Errorf("unknown message %T", msg)
	}
}

func newTestRuntime(t *testing.T, cfg Config) *Runtime {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return rt
}

// awaitTurns waits until the runtime has finished n turns. A caller's reply
// is sent from inside the turn, before the turn's profiler, tracer and
// journal accounting, so a test that reads that accounting right after
// Call returns races it; core.turns is bumped last.
func awaitTurns(t *testing.T, rt *Runtime, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Metrics().Counter("core.turns").Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d turns finished", rt.Metrics().Counter("core.turns").Value(), n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func registerCounter(t *testing.T, rt *Runtime, opts ...KindOption) {
	t.Helper()
	if err := rt.RegisterKind("Counter", func() Actor { return &counterActor{} }, opts...); err != nil {
		t.Fatal(err)
	}
}

func TestCallBasic(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	registerCounter(t, rt)
	if _, err := rt.AddSilo("silo-1", nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	id := ID{Kind: "Counter", Key: "a"}
	v, err := rt.Call(ctx, id, addMsg{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 2 {
		t.Fatalf("v = %v, want 2", v)
	}
	v, err = rt.Call(ctx, id, addMsg{N: 3})
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 5 {
		t.Fatalf("v = %v, want 5 (state lost between calls)", v)
	}
}

func TestActorsAreIndependent(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	registerCounter(t, rt)
	rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	rt.Call(ctx, ID{"Counter", "a"}, addMsg{10})
	rt.Call(ctx, ID{"Counter", "b"}, addMsg{20})
	va, _ := rt.Call(ctx, ID{"Counter", "a"}, getMsg{})
	vb, _ := rt.Call(ctx, ID{"Counter", "b"}, getMsg{})
	if va.(int) != 10 || vb.(int) != 20 {
		t.Fatalf("a=%v b=%v, want 10/20", va, vb)
	}
}

func TestUnknownKind(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	rt.AddSilo("silo-1", nil)
	if _, err := rt.Call(context.Background(), ID{"Ghost", "1"}, getMsg{}); !errors.Is(err, ErrUnknownKind) {
		t.Fatalf("err = %v, want ErrUnknownKind", err)
	}
}

func TestInvalidID(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	rt.AddSilo("silo-1", nil)
	for _, id := range []ID{{}, {Kind: "A"}, {Key: "k"}, {Kind: "A/B", Key: "k"}} {
		if _, err := rt.Call(context.Background(), id, getMsg{}); err == nil {
			t.Errorf("Call with id %+v succeeded", id)
		}
	}
}

func TestNoSilos(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	registerCounter(t, rt)
	if _, err := rt.Call(context.Background(), ID{"Counter", "a"}, getMsg{}); !errors.Is(err, ErrNoSilos) {
		t.Fatalf("err = %v, want ErrNoSilos", err)
	}
}

func TestDuplicateKindAndSilo(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	registerCounter(t, rt)
	if err := rt.RegisterKind("Counter", func() Actor { return &counterActor{} }); err == nil {
		t.Fatal("duplicate kind accepted")
	}
	if _, err := rt.AddSilo("s", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddSilo("s", nil); err == nil {
		t.Fatal("duplicate silo accepted")
	}
}

func TestActorErrorPropagates(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	registerCounter(t, rt)
	rt.AddSilo("silo-1", nil)
	_, err := rt.Call(context.Background(), ID{"Counter", "x"}, failMsg{})
	if err == nil || err.Error() != "counter exploded" {
		t.Fatalf("err = %v, want actor error", err)
	}
	// The activation survives an application error.
	v, err := rt.Call(context.Background(), ID{"Counter", "x"}, addMsg{1})
	if err != nil || v.(int) != 1 {
		t.Fatalf("after error: v=%v err=%v", v, err)
	}
}

func TestTurnsAreSerialized(t *testing.T) {
	type racyActor struct {
		counterActor
	}
	var inTurn, overlaps atomic.Int32
	rt := newTestRuntime(t, Config{})
	rt.RegisterKind("Racy", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) {
			if inTurn.Add(1) > 1 {
				overlaps.Add(1)
			}
			time.Sleep(100 * time.Microsecond)
			inTurn.Add(-1)
			return nil, nil
		})
	})
	rt.AddSilo("silo-1", nil)
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt.Call(context.Background(), ID{"Racy", "one"}, getMsg{})
		}()
	}
	wg.Wait()
	if overlaps.Load() != 0 {
		t.Fatalf("%d overlapping turns on one activation", overlaps.Load())
	}
	_ = racyActor{}
}

// actorFunc adapts a function to Actor for test brevity.
type actorFunc func(ctx *Context, msg any) (any, error)

func (f actorFunc) Receive(ctx *Context, msg any) (any, error) { return f(ctx, msg) }

func TestConcurrentFirstCallsSingleActivation(t *testing.T) {
	var activations atomic.Int32
	rt := newTestRuntime(t, Config{})
	rt.RegisterKind("Counter", func() Actor { return &counterActor{activations: &activations} })
	for i := 1; i <= 4; i++ {
		rt.AddSilo(fmt.Sprintf("silo-%d", i), nil)
	}
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rt.Call(context.Background(), ID{"Counter", "hot"}, addMsg{1}); err != nil {
				t.Errorf("Call: %v", err)
			}
		}()
	}
	wg.Wait()
	if n := activations.Load(); n != 1 {
		t.Fatalf("activations = %d, want 1 (single-activation guarantee)", n)
	}
	v, err := rt.Call(context.Background(), ID{"Counter", "hot"}, getMsg{})
	if err != nil || v.(int) != 32 {
		t.Fatalf("final count = %v, %v; want 32", v, err)
	}
}

func TestTellDelivers(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	registerCounter(t, rt)
	rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if err := rt.Tell(ctx, ID{"Counter", "t"}, addMsg{1}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		v, err := rt.Call(ctx, ID{"Counter", "t"}, getMsg{})
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) == 10 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("count = %v, want 10", v)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestActorToActorCall(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	registerCounter(t, rt)
	rt.RegisterKind("Proxy", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) {
			return ctx.Call(ID{"Counter", "backend"}, msg)
		})
	})
	rt.AddSilo("silo-1", nil)
	rt.AddSilo("silo-2", nil)
	v, err := rt.Call(context.Background(), ID{"Proxy", "p"}, addMsg{7})
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 7 {
		t.Fatalf("v = %v", v)
	}
}

func TestCallCycleDetected(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	rt.RegisterKind("Ping", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) {
			return ctx.Call(ID{"Pong", "1"}, msg)
		})
	})
	rt.RegisterKind("Pong", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) {
			return ctx.Call(ID{"Ping", "1"}, msg)
		})
	})
	rt.AddSilo("silo-1", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err := rt.Call(ctx, ID{"Ping", "1"}, getMsg{})
	if !errors.Is(err, ErrCallCycle) {
		t.Fatalf("err = %v, want ErrCallCycle", err)
	}
}

func TestSelfCallDetected(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	rt.RegisterKind("Narcissus", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) {
			return ctx.Call(ctx.Self(), msg)
		})
	})
	rt.AddSilo("silo-1", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := rt.Call(ctx, ID{"Narcissus", "n"}, getMsg{}); !errors.Is(err, ErrCallCycle) {
		t.Fatalf("err = %v, want ErrCallCycle", err)
	}
}

func TestExplicitStatePersistence(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	rt := newTestRuntime(t, Config{Store: kv})
	registerCounter(t, rt, WithPersistence(PersistExplicit))
	rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	id := ID{"Counter", "persist-me"}
	rt.Call(ctx, id, addMsg{42})
	if _, err := rt.Call(ctx, id, saveMsg{}); err != nil {
		t.Fatal(err)
	}
	table, _ := kv.Table(StateTable)
	it, err := table.Get(ctx, "Counter/persist-me")
	if err != nil {
		t.Fatalf("state not written: %v", err)
	}
	if string(it.Value) != `{"N":42}` {
		t.Fatalf("state = %s", it.Value)
	}
}

func TestStateLoadedOnActivation(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	table, err := kv.EnsureTable(StateTable, kvstore.Throughput{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := table.Put(ctx, "Counter/pre", []byte(`{"N":99}`)); err != nil {
		t.Fatal(err)
	}
	rt := newTestRuntime(t, Config{Store: kv})
	registerCounter(t, rt, WithPersistence(PersistExplicit))
	rt.AddSilo("silo-1", nil)
	v, err := rt.Call(ctx, ID{"Counter", "pre"}, getMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 99 {
		t.Fatalf("loaded state = %v, want 99", v)
	}
}

func TestPersistOnShutdown(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	rt, err := New(Config{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterKind("Counter", func() Actor { return &counterActor{} },
		WithPersistence(PersistOnDeactivate)); err != nil {
		t.Fatal(err)
	}
	rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	rt.Call(ctx, ID{"Counter", "c"}, addMsg{5})
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	table, _ := kv.Table(StateTable)
	it, err := table.Get(ctx, "Counter/c")
	if err != nil {
		t.Fatalf("state not persisted at shutdown: %v", err)
	}
	if string(it.Value) != `{"N":5}` {
		t.Fatalf("state = %s", it.Value)
	}
}

func TestIdleCollectionPersistsAndReloads(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	rt := newTestRuntime(t, Config{
		Store:        kv,
		IdleAfter:    30 * time.Millisecond,
		CollectEvery: 10 * time.Millisecond,
	})
	registerCounter(t, rt, WithPersistence(PersistOnDeactivate))
	silo, _ := rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	id := ID{"Counter", "sleepy"}
	rt.Call(ctx, id, addMsg{8})

	deadline := time.Now().Add(3 * time.Second)
	for silo.Activations() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("activation never collected (%d live)", silo.Activations())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, ok := rt.Directory().Lookup(id.String()); ok {
		t.Fatal("directory entry survived deactivation")
	}
	// Next call re-activates with persisted state.
	v, err := rt.Call(ctx, id, getMsg{})
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 8 {
		t.Fatalf("state after reactivation = %v, want 8", v)
	}
}

func TestBusyActorNotCollected(t *testing.T) {
	rt := newTestRuntime(t, Config{
		IdleAfter:    50 * time.Millisecond,
		CollectEvery: 10 * time.Millisecond,
	})
	registerCounter(t, rt)
	silo, _ := rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	id := ID{"Counter", "busy"}
	stop := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(stop) {
		if _, err := rt.Call(ctx, id, addMsg{1}); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if silo.Activations() != 1 {
		t.Fatalf("busy activation count = %d, want 1", silo.Activations())
	}
}

func TestCapacityLimiterQueuesTurns(t *testing.T) {
	limiter := capacity.NewLimiter(capacity.Profile{Workers: 1, Speed: 1}, nil)
	rt := newTestRuntime(t, Config{
		Cost: func(id ID, msg any) time.Duration { return 5 * time.Millisecond },
	})
	registerCounter(t, rt)
	rt.AddSilo("silo-1", limiter)
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt.Call(ctx, ID{"Counter", fmt.Sprintf("k%d", i)}, addMsg{1})
		}(i)
	}
	wg.Wait()
	if elapsed := time.Since(start); elapsed < 45*time.Millisecond {
		t.Fatalf("10 turns of 5ms on 1 worker took %v, capacity not enforced", elapsed)
	}
}

func TestPlacementOverridePerKind(t *testing.T) {
	rt := newTestRuntime(t, Config{Placement: placement.NewRandom(1)})
	rt.RegisterKind("Pinned", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) { return ctx.SiloName(), nil })
	}, WithPlacement(placement.NewConsistentHash()))
	for i := 1; i <= 4; i++ {
		rt.AddSilo(fmt.Sprintf("silo-%d", i), nil)
	}
	ctx := context.Background()
	first, err := rt.Call(ctx, ID{"Pinned", "p1"}, getMsg{})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic placement: same key always lands on the same silo,
	// even after checking via repeated fresh keys that the ring is in use.
	got, _ := rt.Call(ctx, ID{"Pinned", "p1"}, getMsg{})
	if got != first {
		t.Fatalf("placement moved: %v vs %v", got, first)
	}
}

func TestShutdownRejectsFurtherCalls(t *testing.T) {
	rt, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	rt.RegisterKind("Counter", func() Actor { return &counterActor{} })
	rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	rt.Call(ctx, ID{"Counter", "x"}, addMsg{1})
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Call(ctx, ID{"Counter", "x"}, getMsg{}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("err = %v, want ErrShutdown", err)
	}
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func TestParseID(t *testing.T) {
	id, err := ParseID("Cow/farm/7")
	if err != nil {
		t.Fatal(err)
	}
	if id.Kind != "Cow" || id.Key != "farm/7" {
		t.Fatalf("id = %+v", id)
	}
	for _, bad := range []string{"", "Cow", "/x", "Cow/"} {
		if _, err := ParseID(bad); err == nil {
			t.Errorf("ParseID(%q) succeeded", bad)
		}
	}
}

func TestIDString(t *testing.T) {
	id := ID{Kind: "Sensor", Key: "17"}
	if id.String() != "Sensor/17" {
		t.Fatalf("String = %q", id.String())
	}
	if id.IsZero() {
		t.Fatal("non-zero ID reported zero")
	}
	if !(ID{}).IsZero() {
		t.Fatal("zero ID not reported zero")
	}
}

func TestManyActorsManySilos(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	registerCounter(t, rt)
	for i := 1; i <= 4; i++ {
		rt.AddSilo(fmt.Sprintf("silo-%d", i), nil)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	const actors = 200
	for i := 0; i < actors; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := ID{"Counter", fmt.Sprintf("k%d", i)}
			for j := 0; j < 5; j++ {
				if _, err := rt.Call(ctx, id, addMsg{1}); err != nil {
					t.Errorf("call %d: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	// Every actor holds exactly its own count.
	for i := 0; i < actors; i++ {
		v, err := rt.Call(ctx, ID{"Counter", fmt.Sprintf("k%d", i)}, getMsg{})
		if err != nil || v.(int) != 5 {
			t.Fatalf("actor %d = %v, %v; want 5", i, v, err)
		}
	}
	// Activations spread across silos.
	counts := rt.Directory().CountBySilo()
	if len(counts) < 2 {
		t.Fatalf("all activations on one silo: %v", counts)
	}
}
