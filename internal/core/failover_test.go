package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"aodb/internal/kvstore"
)

// TestRemoveSiloFailover exercises the silo-loss recovery path: a
// persistent actor lives on one silo, the silo is removed, and the next
// call re-activates the actor elsewhere with its persisted state.
func TestRemoveSiloFailover(t *testing.T) {
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

	// Spread some actors; find one on each silo.
	perSilo := map[string]ID{}
	for i := 0; len(perSilo) < 2 && i < 200; i++ {
		id := ID{"Counter", fmt.Sprintf("c%d", i)}
		if _, err := rt.Call(ctx, id, addMsg{N: i}); err != nil {
			t.Fatal(err)
		}
		reg, ok := rt.Directory().Lookup(id.String())
		if !ok {
			t.Fatal("no registration after call")
		}
		if _, seen := perSilo[reg.Silo]; !seen {
			perSilo[reg.Silo] = id
		}
	}
	victim, ok := perSilo["silo-1"]
	if !ok {
		t.Fatal("no actor landed on silo-1")
	}
	before, err := rt.Call(ctx, victim, getMsg{})
	if err != nil {
		t.Fatal(err)
	}

	if err := rt.RemoveSilo(ctx, "silo-1"); err != nil {
		t.Fatal(err)
	}
	// The actor must come back on silo-2 with its persisted state.
	after, err := rt.Call(ctx, victim, getMsg{})
	if err != nil {
		t.Fatalf("call after silo loss: %v", err)
	}
	if after != before {
		t.Fatalf("state after failover = %v, want %v", after, before)
	}
	reg, ok := rt.Directory().Lookup(victim.String())
	if !ok || reg.Silo != "silo-2" {
		t.Fatalf("registration after failover = %+v, want silo-2", reg)
	}
	// And new work keeps flowing.
	if _, err := rt.Call(ctx, ID{"Counter", "fresh"}, addMsg{1}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveUnknownSilo(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	if err := rt.RemoveSilo(context.Background(), "ghost"); err == nil {
		t.Fatal("removing unknown silo succeeded")
	}
}

func TestRemoveLastSiloLeavesRuntimeCallableAfterReAdd(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	registerCounter(t, rt)
	rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	rt.Call(ctx, ID{"Counter", "x"}, addMsg{1})
	if err := rt.RemoveSilo(ctx, "silo-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Call(ctx, ID{"Counter", "x"}, getMsg{}); err == nil {
		t.Fatal("call with no silos succeeded")
	}
	if _, err := rt.AddSilo("silo-2", nil); err != nil {
		t.Fatal(err)
	}
	v, err := rt.Call(ctx, ID{"Counter", "x"}, getMsg{})
	if err != nil {
		t.Fatal(err)
	}
	// Without a store, state restarts from zero — documented volatility.
	if v.(int) != 0 {
		t.Fatalf("volatile state after re-add = %v, want 0", v)
	}
}

// TestStateWriteBlockedByProvisionedThroughput injects storage throttling
// into the persistence path: a state table with minuscule write capacity
// makes WriteState slow, but the write still succeeds (blocking, not
// failing) — DynamoDB-style throttling semantics.
func TestStateWriteBlockedByProvisionedThroughput(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	rt := newTestRuntime(t, Config{
		Store:           kv,
		StateThroughput: kvstore.Throughput{WriteUnits: 5},
	})
	registerCounter(t, rt, WithPersistence(PersistExplicit))
	rt.AddSilo("silo-1", nil)
	ctx := context.Background()
	// Burn the burst, then time a throttled write.
	for i := 0; i < 5; i++ {
		rt.Call(ctx, ID{"Counter", fmt.Sprintf("w%d", i)}, addMsg{1})
		if _, err := rt.Call(ctx, ID{"Counter", fmt.Sprintf("w%d", i)}, saveMsg{}); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if _, err := rt.Call(ctx, ID{"Counter", "w0"}, saveMsg{}); err != nil {
		t.Fatalf("throttled write failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Fatalf("throttled write returned in %v, throttling not applied", elapsed)
	}
}

// TestIDRoundTripProperty: parse(id.String()) == id for all valid IDs.
func TestIDRoundTripProperty(t *testing.T) {
	f := func(kindRaw, keyRaw string) bool {
		kind := strings.ReplaceAll(kindRaw, "/", "_")
		if kind == "" {
			kind = "K"
		}
		key := keyRaw
		if key == "" {
			key = "k"
		}
		id := ID{Kind: kind, Key: key}
		parsed, err := ParseID(id.String())
		if err != nil {
			return false
		}
		return parsed == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestMailboxFIFOProperty: any push sequence pops in order.
func TestMailboxFIFOProperty(t *testing.T) {
	f := func(values []int) bool {
		m := newMailbox()
		for _, v := range values {
			if !m.push(envelope{msg: v}) {
				return false
			}
		}
		for _, want := range values {
			env, ok := m.pop()
			if !ok || env.msg.(int) != want {
				return false
			}
		}
		m.close()
		if _, ok := m.pop(); ok {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMailboxDeepBacklogDrains: a 50k-deep backlog drains in order with
// pops that do not shift the queue, depth tracks the live part only, the
// slice is reused once drained, and closeIfEmpty still refuses while
// anything is queued.
func TestMailboxDeepBacklogDrains(t *testing.T) {
	const n = 50_000
	m := newMailbox()
	for i := 0; i < n; i++ {
		if !m.push(envelope{msg: i}) {
			t.Fatal("push refused")
		}
	}
	if m.depth() != n {
		t.Fatalf("depth = %d, want %d", m.depth(), n)
	}
	late := 0
	for i := 0; i < n; i++ {
		if i == n/2 || i == n-1 {
			if m.closeIfEmpty() {
				t.Fatalf("closed with %d queued", n-i)
			}
		}
		env, ok := m.pop()
		if !ok || env.msg.(int) != i {
			t.Fatalf("pop %d = %v, %v", i, env.msg, ok)
		}
		// Interleaved pushes keep their place behind the backlog.
		if i%1000 == 0 {
			m.push(envelope{msg: -1 - i})
			late++
		}
		if d := m.depth(); d != n-i-1+late {
			t.Fatalf("depth after %d pops = %d, want %d", i+1, d, n-i-1+late)
		}
	}
	// The 50 interleaved envelopes follow, in push order.
	for i := 0; i < n; i += 1000 {
		env, ok := m.pop()
		if !ok || env.msg.(int) != -1-i {
			t.Fatalf("interleaved pop = %v, %v, want %d", env.msg, ok, -1-i)
		}
	}
	if m.depth() != 0 || m.head != 0 || len(m.q) != 0 {
		t.Fatalf("drained mailbox: depth %d head %d len %d", m.depth(), m.head, len(m.q))
	}
	for _, env := range m.q[:cap(m.q)] {
		if env.msg != nil {
			t.Fatal("a popped slot still holds its message")
		}
	}
	if !m.closeIfEmpty() {
		t.Fatal("failed to close drained mailbox")
	}
	if _, ok := m.pop(); ok {
		t.Fatal("pop from closed, drained mailbox")
	}
}

func TestMailboxCloseIfEmptyRaces(t *testing.T) {
	// closeIfEmpty must refuse while a message is queued.
	m := newMailbox()
	m.push(envelope{msg: 1})
	if m.closeIfEmpty() {
		t.Fatal("closed non-empty mailbox")
	}
	m.pop()
	if !m.closeIfEmpty() {
		t.Fatal("failed to close empty mailbox")
	}
	if m.push(envelope{msg: 2}) {
		t.Fatal("push into closed mailbox succeeded")
	}
	// Idempotent.
	if !m.closeIfEmpty() {
		t.Fatal("closeIfEmpty on closed mailbox returned false")
	}
}

// TestCrashSiloErrorsAreTransient: a silo that is closing while the
// runtime lives (crash, decommission) answers transient — the caller's
// retry re-places the actor — and only a runtime shutdown answers
// ErrShutdown. The chaos soak used to leak the permanent "runtime shut
// down" from calls that raced a silo crash.
func TestCrashSiloErrorsAreTransient(t *testing.T) {
	// Retries off, so every raw error of the race reaches the caller.
	rt := newTestRuntime(t, Config{Retry: RetryPolicy{Disabled: true}})
	registerCounter(t, rt)
	addSilo(t, rt, "s1")
	addSilo(t, rt, "s2")
	ctx := context.Background()

	// The window itself, without the race: resolve on a crashed silo.
	s1, _ := rt.Silo("s1")
	if err := rt.CrashSilo("s1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.resolve(ctx, ID{"Counter", "late"}); !Transient(err) || errors.Is(err, ErrShutdown) {
		t.Fatalf("resolve on a crashed silo = %v, want a transient error", err)
	}
	if err := s1.migrateOut(ctx, ID{"Counter", "late"}, "s2", 0); !Transient(err) {
		t.Fatalf("migrateOut on a crashed silo = %v, want a transient error", err)
	}
	addSilo(t, rt, "s1")

	// And the race: callers hammer both silos while each is crashed and
	// re-added in turn.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var calls, failed atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				_, err := rt.Call(ctx, ID{"Counter", fmt.Sprintf("c%d-%d", w, i%50)}, addMsg{N: 1})
				calls.Add(1)
				if err != nil {
					failed.Add(1)
					if !Transient(err) {
						t.Errorf("call racing a silo crash: unclassified %v", err)
						return
					}
				}
			}
		}(w)
	}
	for round := 0; round < 30; round++ {
		name := []string{"s1", "s2"}[round%2]
		time.Sleep(2 * time.Millisecond)
		if err := rt.CrashSilo(name); err != nil {
			t.Fatal(err)
		}
		addSilo(t, rt, name)
	}
	close(stop)
	wg.Wait()
	t.Logf("%d calls, %d failed transient", calls.Load(), failed.Load())

	shutdownCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := rt.Shutdown(shutdownCtx); err != nil {
		t.Fatal(err)
	}
	s2, _ := rt.Silo("s2")
	if _, err := s2.resolve(ctx, ID{"Counter", "late"}); !errors.Is(err, ErrShutdown) {
		t.Fatalf("resolve after Shutdown = %v, want ErrShutdown", err)
	}
}
