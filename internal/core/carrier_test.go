package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"aodb/internal/capacity"
	"aodb/internal/telemetry"
)

// A caller that gives up on its context drops its reply channel, because
// the turn still answers into it. Were the channel recycled, the next call
// to take it would read the late answer as its own. One P makes that call
// take it for sure: a recycled channel is kept per P.
func TestAbandonedReplyChannelNotReused(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rt := newTestRuntime(t, Config{})
	entered, release := make(chan struct{}), make(chan struct{})
	rt.RegisterKind("Echo", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) {
			if msg == "hold" {
				entered <- struct{}{}
				<-release
			}
			return msg, nil
		})
	})
	rt.AddSilo("silo-1", nil)
	id := ID{"Echo", "e"}
	if _, err := rt.Call(context.Background(), id, -1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-entered
		cancel()
	}()
	if _, err := rt.Call(ctx, id, "hold"); !errors.Is(err, context.Canceled) {
		t.Fatalf("gated call returned %v, want context.Canceled", err)
	}
	close(release)
	awaitTurns(t, rt, 2) // the late answer now sits in the dropped channel
	for i := 0; i < 1000; i++ {
		if got, err := rt.Call(context.Background(), id, i); err != nil || got != i {
			t.Fatalf("call %d answered %v, %v", i, got, err)
		}
	}
}

// Every queued envelope is answered exactly once: by its turn when the
// handler panics, and by fail when the capacity limiter refuses the turn
// on an expired context before the handler runs. Each reply channel here
// has room for a second answer, so a double answer shows as a length.
func TestTurnAnswersOnce(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	entered, release := make(chan struct{}), make(chan struct{})
	rt.RegisterKind("T", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) {
			switch msg {
			case "panic":
				panic("boom")
			case "hold":
				entered <- struct{}{}
				<-release
			}
			return msg, nil
		})
	})
	s, _ := rt.AddSilo("silo-1", capacity.NewLimiter(capacity.Profile{Workers: 1, Speed: 1}, nil))
	send := func(ctx context.Context, key string, msg any) chan turnResult {
		reply := make(chan turnResult, 2)
		env := s.envelope(ctx, msg, nil, telemetry.SpanContext{}, false)
		env.reply = reply
		if act, err := s.resolve(context.Background(), ID{"T", key}); err != nil || !act.push(env) {
			t.Fatalf("push to %s: %v", key, err)
		}
		return reply
	}
	answeredOnce := func(reply chan turnResult, want func(error) bool) {
		t.Helper()
		if len(reply) != 1 {
			t.Fatalf("%d answers, want 1", len(reply))
		}
		if res := <-reply; !want(res.err) {
			t.Fatalf("answered %v, %v", res.val, res.err)
		}
	}

	panicked := send(context.Background(), "p", "panic")
	awaitTurns(t, rt, 1)
	answeredOnce(panicked, func(err error) bool {
		var pe *PanicError
		return errors.As(err, &pe)
	})

	// The limiter's one slot is held by a gated turn, so the next turn
	// waits for it until its context is cancelled.
	held := make(chan error, 1)
	go func() {
		_, err := rt.Call(context.Background(), ID{"T", "h"}, "hold")
		held <- err
	}()
	<-entered
	ctx, cancel := context.WithCancel(context.Background())
	refused := send(ctx, "r", "x")
	cancel()
	awaitTurns(t, rt, 2)
	answeredOnce(refused, func(err error) bool { return errors.Is(err, context.Canceled) })
	close(release)
	if err := <-held; err != nil {
		t.Fatal(err)
	}
}

// A waiter that arrives after an activation's teardown has finished is
// handed a closed channel and returns at once, at each of the three sites
// that wait for a teardown. tornDown stages that arrival: the activation
// is deactivated, its teardown finished, and it is put back in the
// catalog, where a site finds it as if it had looked just before the end.
func TestLateTeardownWaiterReturnsAtOnce(t *testing.T) {
	const patience = 2 * time.Second // a waiter that hangs fails at this
	setUp := func(t *testing.T) (*Runtime, *Silo, ID, *activation) {
		rt := newTestRuntime(t, Config{})
		rt.RegisterKind("Echo", func() Actor {
			return actorFunc(func(ctx *Context, msg any) (any, error) { return msg, nil })
		})
		s, _ := rt.AddSilo("silo-1", nil)
		id := ID{"Echo", "e"}
		return rt, s, id, tornDown(t, rt, s, id)
	}

	t.Run("deliver", func(t *testing.T) {
		rt, s, id, a := setUp(t)
		// Push is refused and the wait returns, over and over, until the
		// corpse leaves the catalog and the call activates a successor.
		time.AfterFunc(10*time.Millisecond, func() { s.removeActivation(a) })
		ctx, cancel := context.WithTimeout(context.Background(), patience)
		defer cancel()
		if got, err := rt.Call(ctx, id, 7); err != nil || got != 7 {
			t.Fatalf("call answered %v, %v", got, err)
		}
	})
	t.Run("migrate", func(t *testing.T) {
		rt, s, id, a := setUp(t)
		ctx, cancel := context.WithTimeout(context.Background(), patience)
		defer cancel()
		if err := s.migrateOut(ctx, id, "silo-2", 0); err != nil {
			t.Fatal(err)
		}
		if n := rt.Metrics().Counter("core.migrations.forced").Value(); n != 0 {
			t.Fatalf("the hand-off was forced %d times: its wait for the teardown hung", n)
		}
		s.removeActivation(a)
	})
	t.Run("drainAll", func(t *testing.T) {
		rt, _, _, _ := setUp(t)
		ctx, cancel := context.WithTimeout(context.Background(), patience)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
	})
}

// tornDown activates id on s, deactivates it, waits for its teardown to
// finish, and puts the finished activation back in s's catalog.
func tornDown(t *testing.T, rt *Runtime, s *Silo, id ID) *activation {
	t.Helper()
	if _, err := rt.Call(context.Background(), id, 0); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	a := s.catalog[id]
	s.mu.Unlock()
	a.close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		a.box.mu.Lock()
		gone := a.box.done == closedDone
		a.box.mu.Unlock()
		if gone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("teardown did not finish")
		}
		time.Sleep(100 * time.Microsecond)
	}
	s.mu.Lock()
	s.catalog[id] = a
	s.mu.Unlock()
	return a
}
