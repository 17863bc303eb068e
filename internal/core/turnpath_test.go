package core

import (
	"context"
	"slices"
	"strconv"
	"sync"
	"testing"
	"time"

	"aodb/internal/codec/codectest"
	"aodb/internal/kvstore"
)

// TestTellStartsANewChain: a Tell is acknowledged once it is queued, so it
// starts a new call chain. An actor may Tell itself, and a told actor may
// Call back its teller; neither is a cycle, and both messages arrive.
func TestTellStartsANewChain(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	got := make(chan string, 2)
	rt.RegisterKind("Echo", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) {
			if msg == "start" {
				return nil, ctx.Tell(ctx.Self(), "again")
			}
			got <- "self-told"
			return nil, nil
		})
	})
	teller := ID{"Teller", "a"}
	rt.RegisterKind("Teller", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) {
			if msg == "start" {
				return nil, ctx.Tell(ID{"Told", "b"}, "call back")
			}
			return "pong", nil
		})
	})
	rt.RegisterKind("Told", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) {
			v, err := ctx.Call(teller, "ping")
			if err != nil {
				got <- "call back: " + err.Error()
			} else {
				got <- "call back: " + v.(string)
			}
			return nil, nil
		})
	})
	rt.AddSilo("silo-1", nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, id := range []ID{{"Echo", "e"}, teller} {
		if _, err := rt.Call(ctx, id, "start"); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	want := map[string]bool{"self-told": true, "call back: pong": true}
	for len(want) > 0 {
		select {
		case s := <-got:
			if !want[s] {
				t.Fatalf("got %q, want one of %v", s, want)
			}
			delete(want, s)
		case <-ctx.Done():
			t.Fatalf("still waiting for %v", want)
		}
	}
}

// TestContextIsPerTurn: a turn's Context belongs to the worker running it
// and is reset for every turn, so it must never be seen by two turns at
// once. 200 concurrent chains of awaited Calls, A→B→C, each with its own
// deadline, check at every level that no other running turn holds their
// Context, and, once the nested Call has returned from another worker,
// that Self, the chain and the deadline are still the turn's own.
func TestContextIsPerTurn(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	var mu sync.Mutex
	running := map[*Context]ID{}
	hold := func(ctx *Context) (release func()) {
		mu.Lock()
		defer mu.Unlock()
		if other, ok := running[ctx]; ok {
			t.Errorf("%s and %s run on one Context", other, ctx.Self())
		}
		running[ctx] = ctx.Self()
		return func() {
			mu.Lock()
			delete(running, ctx)
			mu.Unlock()
		}
	}
	next := map[string]string{"A": "B", "B": "C"}
	callers := map[string][]string{"B": {"A"}, "C": {"A", "B"}}
	link := func(ctx *Context, msg any) (any, error) {
		defer hold(ctx)()
		self := ctx.Self()
		var chain []string
		for _, k := range callers[self.Kind] {
			chain = append(chain, k+"/"+self.Key)
		}
		deadline, _ := ctx.Deadline()
		if !slices.Equal(ctx.chain, chain) {
			t.Errorf("%s starts with chain %v, want %v", self, ctx.chain, chain)
		}
		kind, ok := next[self.Kind]
		if !ok {
			return deadline, nil
		}
		v, err := ctx.Call(ID{Kind: kind, Key: self.Key}, msg)
		if err != nil {
			return nil, err
		}
		if ctx.Self() != self || !slices.Equal(ctx.chain, chain) {
			t.Errorf("after its Call returned, %s reads Self %s and chain %v, want %v", self, ctx.Self(), ctx.chain, chain)
		}
		if d, _ := ctx.Deadline(); !d.Equal(deadline) {
			t.Errorf("after its Call returned, %s reads deadline %v, want %v", self, d, deadline)
		}
		return v, nil
	}
	for _, k := range []string{"A", "B", "C"} {
		rt.RegisterKind(k, func() Actor { return actorFunc(link) })
	}
	rt.AddSilo("silo-1", nil)
	rt.AddSilo("silo-2", nil)
	var wg sync.WaitGroup
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second+time.Duration(i)*time.Millisecond)
			defer cancel()
			want, _ := ctx.Deadline()
			v, err := rt.Call(ctx, ID{"A", strconv.Itoa(i)}, i)
			if err != nil {
				t.Errorf("chain %d: %v", i, err)
			} else if d := v.(time.Time); !d.Equal(want) {
				t.Errorf("chain %d: C ran with deadline %v, want its caller's %v", i, d, want)
			}
		}(i)
	}
	wg.Wait()
}

// keepingStore is a state store that keeps the contexts it is handed, as a
// replicated one does when a quorum write returns on the first fenced
// answer while its other replica calls still run.
type keepingStore struct {
	mu   sync.Mutex
	kept []context.Context
}

func (s *keepingStore) keep(ctx context.Context) {
	s.mu.Lock()
	s.kept = append(s.kept, ctx)
	s.mu.Unlock()
}

func (s *keepingStore) Load(ctx context.Context, key string) ([]byte, int64, error) {
	s.keep(ctx)
	return nil, 0, kvstore.ErrNotFound
}

func (s *keepingStore) Store(ctx context.Context, key string, data []byte, version int64) (int64, error) {
	s.keep(ctx)
	return version + 1, nil
}

// TestStateStoreMayKeepTheContext: the context a state store is handed for
// an activation's load and its final write stays usable after the store
// returns, once the worker has run other turns and parked: the runtime
// hands storage a context.Context of its own, never the worker's Context.
func TestStateStoreMayKeepTheContext(t *testing.T) {
	store := &keepingStore{}
	rt, err := New(Config{States: store})
	if err != nil {
		t.Fatal(err)
	}
	registerCounter(t, rt, WithPersistence(PersistOnDeactivate))
	rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		if _, err := rt.Call(ctx, ID{"Counter", strconv.Itoa(i % 4)}, addMsg{1}); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if len(store.kept) != 8 {
		t.Fatalf("the store was handed %d contexts, want a load and a final write for each of 4 actors", len(store.kept))
	}
	for i, kept := range store.kept {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("context %d, used after its store call returned: %v", i, r)
				}
			}()
			child, cancel := context.WithTimeout(kept, time.Second)
			cancel()
			if kept.Err() != nil || child.Err() == nil {
				t.Errorf("context %d reads Err %v after its store call returned, want nil", i, kept.Err())
			}
		}()
	}
}

// TestTurnAllocs holds the turn path's allocations in tier-1: one turn
// that makes an awaited actor-to-actor Call, and one that Tells, each
// driven by a Runtime.Call and measured until every turn it caused has
// run. The bounds are the counts measured when the worker's Context, the
// chainless Tell and the unrendered cycle check went in, plus 10 %.
func TestTurnAllocs(t *testing.T) {
	codectest.SkipUnderRace(t)
	rt := newTestRuntime(t, Config{})
	told := make(chan struct{}, 1)
	back := ID{"Back", "b"}
	rt.RegisterKind("Front", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) {
			if msg == "tell" {
				return nil, ctx.Tell(back, msg)
			}
			return ctx.Call(back, msg)
		})
	})
	rt.RegisterKind("Back", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) {
			if msg == "tell" {
				told <- struct{}{}
			}
			return nil, nil
		})
	})
	rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	// A reply channel is two allocations (its buffer holds pointers): the
	// call case pays two of them, the callee's chain and nothing else.
	for _, c := range []struct {
		msg  any // boxed once, here
		most float64
	}{
		{"call", 5.5},
		{"tell", 2.2},
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := rt.Call(ctx, ID{"Front", "f"}, c.msg); err != nil {
				t.Fatal(err)
			}
			if c.msg == "tell" {
				<-told
			}
		})
		if allocs > c.most {
			t.Errorf("a turn that makes one %s: %.0f allocations, want at most %.1f", c.msg, allocs, c.most)
		} else {
			t.Logf("a turn that makes one %s: %.0f allocations", c.msg, allocs)
		}
	}
}

// The cycle check names hops without rendering the target's ID.
func TestIDIs(t *testing.T) {
	id := ID{"Kind", "a/b"}
	for s, want := range map[string]bool{
		"Kind/a/b": true, "Kind/a/c": false, "Kind/a/": false, "Kinda/b": false,
		"Kind/a/bc": false, "Kin/da/b": false, "": false,
	} {
		if got := id.is(s); got != want {
			t.Errorf("%v.is(%q) = %v, want %v", id, s, got, want)
		}
	}
}
