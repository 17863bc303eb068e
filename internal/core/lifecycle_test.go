package core

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"aodb/internal/kvstore"
)

// TestDeactivateOnIdleIsPrompt checks the explicit early-deactivation
// request from inside a turn.
func TestDeactivateOnIdleIsPrompt(t *testing.T) {
	rt := newTestRuntime(t, Config{
		// Long idle: only the explicit request can collect it quickly.
		IdleAfter:    time.Hour,
		CollectEvery: 10 * time.Millisecond,
	})
	rt.RegisterKind("OneShot", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) {
			ctx.DeactivateOnIdle()
			return "done", nil
		})
	})
	silo, _ := rt.AddSilo("silo-1", nil)
	if _, err := rt.Call(context.Background(), ID{"OneShot", "x"}, 1); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for silo.Activations() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("DeactivateOnIdle never collected the activation")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The actor remains callable (fresh activation).
	if v, err := rt.Call(context.Background(), ID{"OneShot", "x"}, 1); err != nil || v != "done" {
		t.Fatalf("call after early deactivation = %v, %v", v, err)
	}
}

// TestOnActivateFailureSurfacesAndRetries checks that a failing
// activation reports the error to callers and does not wedge the actor
// forever.
func TestOnActivateFailureSurfacesAndRetries(t *testing.T) {
	var attempts atomic.Int32
	rt := newTestRuntime(t, Config{})
	rt.RegisterKind("Flaky", func() Actor { return &flakyActivator{attempts: &attempts} })
	rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	// First call: activation fails, error surfaces — unless the failed
	// activation closed its mailbox before the call's envelope was pushed,
	// in which case the delivery re-resolved onto the second activation.
	if _, err := rt.Call(ctx, ID{"Flaky", "f"}, 1); err == nil && attempts.Load() < 2 {
		t.Fatal("call succeeded despite failing OnActivate")
	}
	// Subsequent call: fresh activation succeeds (second attempt passes).
	deadline := time.Now().Add(3 * time.Second)
	for {
		if v, err := rt.Call(ctx, ID{"Flaky", "f"}, 1); err == nil {
			if v != "ok" {
				t.Fatalf("v = %v", v)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("actor never recovered from failed activation")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if attempts.Load() < 2 {
		t.Fatalf("attempts = %d, want >= 2", attempts.Load())
	}
}

type flakyActivator struct {
	attempts *atomic.Int32
}

func (f *flakyActivator) OnActivate(*Context) error {
	if f.attempts.Add(1) == 1 {
		return errTestBoom
	}
	return nil
}

func (f *flakyActivator) Receive(*Context, any) (any, error) { return "ok", nil }

var errTestBoom = &testError{"activation boom"}

type testError struct{ s string }

func (e *testError) Error() string { return e.s }

// TestDeadlineExpiresWhileQueued: a caller whose context dies while its
// message waits behind a slow turn gets a context error, and the actor
// keeps working for others.
func TestDeadlineExpiresWhileQueued(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	registerCounter(t, rt)
	rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	id := ID{"Counter", "slow"}
	// Occupy the actor with a slow turn.
	done := make(chan struct{})
	go func() {
		rt.Call(ctx, id, slowMsg{D: 300 * time.Millisecond})
		close(done)
	}()
	time.Sleep(30 * time.Millisecond) // let the slow turn start
	shortCtx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if _, err := rt.Call(shortCtx, id, getMsg{}); err == nil {
		t.Fatal("queued call with expired deadline succeeded")
	}
	<-done
	// The actor is healthy afterwards.
	if _, err := rt.Call(ctx, id, addMsg{1}); err != nil {
		t.Fatal(err)
	}
}

// TestSiloActivationsSpreadWithRandomPlacement sanity-checks the default
// placement across added silos.
func TestManySilosAllUsable(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	registerCounter(t, rt)
	ctx := context.Background()
	for i := 1; i <= 6; i++ {
		rt.AddSilo(siloName(i), nil)
	}
	for i := 0; i < 120; i++ {
		if _, err := rt.Call(ctx, ID{"Counter", keyN(i)}, addMsg{1}); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[string]int{}
	for i := 0; i < 120; i++ {
		if reg, ok := rt.Directory().Lookup(ID{"Counter", keyN(i)}.String()); ok {
			counts[reg.Silo]++
		}
	}
	used := 0
	for i := 1; i <= 6; i++ {
		if counts[siloName(i)] > 0 {
			used++
		}
	}
	if used < 4 {
		t.Fatalf("only %d of 6 silos used: %v", used, counts)
	}
}

// TestContextTable checks the auxiliary-table access actors use for
// archival data.
func TestContextTable(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	rt := newTestRuntime(t, Config{Store: kv})
	rt.RegisterKind("Archiver", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) {
			table, err := ctx.Table("aux")
			if err != nil {
				return nil, err
			}
			if _, err := table.Put(ctx, "from-actor", []byte("x")); err != nil {
				return nil, err
			}
			return nil, nil
		})
	})
	rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	if _, err := rt.Call(ctx, ID{"Archiver", "a"}, 1); err != nil {
		t.Fatal(err)
	}
	table, err := kv.Table("aux")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := table.Get(ctx, "from-actor"); err != nil {
		t.Fatalf("actor's aux write not visible: %v", err)
	}

	// Without a store, Table errors cleanly.
	rt2 := newTestRuntime(t, Config{})
	rt2.RegisterKind("NoStore", func() Actor {
		return actorFunc(func(ctx *Context, msg any) (any, error) {
			_, err := ctx.Table("aux")
			return nil, err
		})
	})
	rt2.AddSilo("silo-1", nil)
	if _, err := rt2.Call(ctx, ID{"NoStore", "n"}, 1); err == nil {
		t.Fatal("Table without store succeeded")
	}
}

func siloName(i int) string { return "silo-" + string(rune('0'+i)) }
func keyN(i int) string     { return "k" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) }
