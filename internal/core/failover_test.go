package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
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

// TestMailboxFIFOProperty: any push sequence pops in order; only the first
// push into the idle mailbox asks for a wake.
func TestMailboxFIFOProperty(t *testing.T) {
	f := func(values []int) bool {
		m := new(mailbox)
		for i, v := range values {
			if ok, wake := m.push(envelope{msg: v}); !ok || wake != (i == 0) {
				return false
			}
		}
		for _, want := range values {
			env, st := m.pop(false)
			if st != popped || env.msg.(int) != want {
				return false
			}
		}
		// Closing asks for a wake only when no push had taken the mailbox.
		if wake := m.close(); wake != (len(values) == 0) {
			return false
		}
		if _, st := m.pop(false); st != drained {
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
	m := new(mailbox)
	for i := 0; i < n; i++ {
		if ok, wake := m.push(envelope{msg: i}); !ok || wake != (i == 0) {
			t.Fatalf("push %d = %v, wake %v", i, ok, wake)
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
		env, st := m.pop(false)
		if st != popped || env.msg.(int) != i {
			t.Fatalf("pop %d = %v, %v", i, env.msg, st)
		}
		// Interleaved pushes keep their place behind the backlog, and ask
		// for no wake: the mailbox is owned.
		if i%1000 == 0 {
			if ok, wake := m.push(envelope{msg: -1 - i}); !ok || wake {
				t.Fatalf("interleaved push = %v, wake %v", ok, wake)
			}
			late++
		}
		if d := m.depth(); d != n-i-1+late {
			t.Fatalf("depth after %d pops = %d, want %d", i+1, d, n-i-1+late)
		}
	}
	// The 50 interleaved envelopes follow, in push order.
	for i := 0; i < n; i += 1000 {
		env, st := m.pop(false)
		if st != popped || env.msg.(int) != -1-i {
			t.Fatalf("interleaved pop = %v, %v, want %d", env.msg, st, -1-i)
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
	// Empty but still owned: the worker has not let go yet.
	if m.closeIfEmpty() {
		t.Fatal("closed an owned mailbox")
	}
	if _, st := m.pop(false); st != released {
		t.Fatalf("pop from open, empty mailbox = %v, want released", st)
	}
	if !m.closeIfEmpty() {
		t.Fatal("failed to close idle mailbox")
	}
	if _, st := m.pop(false); st != drained {
		t.Fatal("pop from closed, drained mailbox")
	}
}

func TestMailboxCloseIfEmptyRaces(t *testing.T) {
	// closeIfEmpty must refuse while a message is queued.
	m := new(mailbox)
	m.push(envelope{msg: 1})
	if m.closeIfEmpty() {
		t.Fatal("closed non-empty mailbox")
	}
	m.pop(false)
	// And while the worker that popped it still owns the mailbox: the turn
	// is running.
	if m.closeIfEmpty() {
		t.Fatal("closed an owned mailbox")
	}
	if _, st := m.pop(false); st != released {
		t.Fatalf("empty pop = %v, want released", st)
	}
	if !m.closeIfEmpty() {
		t.Fatal("failed to close idle mailbox")
	}
	if ok, _ := m.push(envelope{msg: 2}); ok {
		t.Fatal("push into closed mailbox succeeded")
	}
	// The wake is asked for once.
	if m.closeIfEmpty() {
		t.Fatal("closeIfEmpty on closed mailbox asked for a second wake")
	}
	if m.close() {
		t.Fatal("close on closed mailbox asked for a second wake")
	}

	// closeOnIdle: the empty pop closes instead of releasing.
	m = new(mailbox)
	m.push(envelope{msg: 1})
	if _, st := m.pop(true); st != popped {
		t.Fatal("closeOnIdle pop skipped a queued message")
	}
	if _, st := m.pop(true); st != drained {
		t.Fatal("closeOnIdle pop of an empty mailbox did not close it")
	}
	if ok, _ := m.push(envelope{msg: 2}); ok {
		t.Fatal("push into closed mailbox succeeded")
	}
}

// TestMailboxOneWakePerFlip: under 8 concurrent pushers and a closer, every
// idle→owned flip is reported to exactly one caller. The worker here is
// the test: a reported wake starts a visit, visits of one mailbox must
// never overlap, and every accepted push must be popped. A mailbox the
// closer wins is replaced by a fresh one, as a torn-down activation is.
func TestMailboxOneWakePerFlip(t *testing.T) {
	const pushers, perPusher = 8, 2000
	type box struct {
		mailbox
		owners atomic.Int64
	}
	var cur atomic.Pointer[box]
	cur.Store(new(box))
	var wakes, npopped, accepted, closes atomic.Int64
	var visits sync.WaitGroup
	visit := func(m *box) {
		defer visits.Done()
		wakes.Add(1)
		for n := 0; ; n++ {
			if m.owners.Add(1) != 1 {
				t.Error("two owners at once")
			}
			if n%64 == 0 {
				runtime.Gosched() // widen the owned window
			}
			// The count drops before the pop that may let go: after that
			// pop another flip, and another owner, are legitimate.
			m.owners.Add(-1)
			switch _, st := m.pop(false); st {
			case popped:
				npopped.Add(1)
			case drained:
				closes.Add(1)
				cur.Store(new(box))
				return
			default:
				return
			}
		}
	}
	var pushing sync.WaitGroup
	for p := 0; p < pushers; p++ {
		pushing.Add(1)
		go func() {
			defer pushing.Done()
			for i := 0; i < perPusher; {
				m := cur.Load()
				ok, wake := m.push(envelope{msg: i})
				if wake {
					visits.Add(1)
					go visit(m)
				}
				if !ok {
					runtime.Gosched() // closed: wait for its successor
					continue
				}
				accepted.Add(1)
				i++
				runtime.Gosched() // let the mailbox run empty now and then
			}
		}()
	}
	stop := make(chan struct{})
	closerDone := make(chan struct{})
	go func() { // the idle collector: loses while a worker owns the mailbox
		defer close(closerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			m := cur.Load()
			if m.closeIfEmpty() {
				visits.Add(1)
				go visit(m)
			}
			runtime.Gosched()
		}
	}()
	pushing.Wait()
	close(stop)
	<-closerDone
	visits.Wait()
	if npopped.Load() != accepted.Load() || accepted.Load() != pushers*perPusher {
		t.Fatalf("%d pushes accepted, %d popped, want %d", accepted.Load(), npopped.Load(), pushers*perPusher)
	}
	t.Logf("%d accepted, %d wakes, %d mailboxes closed idle", accepted.Load(), wakes.Load(), closes.Load())
}

// TestCrashedTurnWritesNothing: a turn that was already running when its
// silo crashed gets no state write out — a dead process writes nothing, and
// a write issued after the crash could be acknowledged beside the
// successor's claim — and its caller sees a transient error.
func TestCrashedTurnWritesNothing(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	rt := newTestRuntime(t, Config{Store: kv, Retry: RetryPolicy{Disabled: true}})
	entered, release := make(chan struct{}), make(chan struct{})
	rt.RegisterKind("Slow", func() Actor { return &slowWriter{entered: entered, release: release} },
		WithPersistence(PersistExplicit))
	addSilo(t, rt, "s1")
	id := ID{"Slow", "w"}
	done := make(chan error, 1)
	go func() {
		_, err := rt.Call(context.Background(), id, 7)
		done <- err
	}()
	<-entered // the turn is past the crashed check and has not written yet
	if err := rt.CrashSilo("s1"); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := <-done; !Transient(err) {
		t.Fatalf("call whose silo crashed mid-turn = %v, want a transient error", err)
	}
	if n := rt.Metrics().Counter("core.state_writes").Value(); n != 0 {
		t.Fatalf("%d state writes from a crashed activation", n)
	}
	table, _ := kv.EnsureTable("grains", kvstore.Throughput{})
	if _, err := table.Get(context.Background(), id.String()); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("state of the crashed activation in the store: %v", err)
	}
}

// slowWriter parks its turn on the test's gate, then persists.
type slowWriter struct {
	state            struct{ N int }
	entered, release chan struct{}
}

func (w *slowWriter) State() any { return &w.state }

func (w *slowWriter) Receive(ctx *Context, msg any) (any, error) {
	w.state.N = msg.(int)
	w.entered <- struct{}{}
	<-w.release
	return nil, ctx.WriteState()
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
