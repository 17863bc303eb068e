package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aodb/internal/kvstore"
	"aodb/internal/transport"
)

// chaosActor panics on demand and otherwise counts, for exercising the
// panic-isolation and crash-recovery paths.
type chaosActor struct {
	state   counterState
	gate    chan struct{} // when non-nil, holdMsg parks the turn here
	entered chan struct{} // when non-nil, holdMsg signals here before parking
}

type panicMsg struct{}
type holdMsg struct{} // parks the turn on gate until released

func (c *chaosActor) State() any { return &c.state }

func (c *chaosActor) Receive(ctx *Context, msg any) (any, error) {
	switch m := msg.(type) {
	case addMsg:
		c.state.N += m.N
		return c.state.N, nil
	case getMsg:
		return c.state.N, nil
	case saveMsg:
		return nil, ctx.WriteState()
	case panicMsg:
		panic("chaos: injected handler panic")
	case holdMsg:
		if c.entered != nil {
			c.entered <- struct{}{}
		}
		if c.gate != nil {
			<-c.gate
		}
		return c.state.N, nil
	default:
		_ = m
		return nil, errors.New("chaos: unknown message")
	}
}

func addSilo(t *testing.T, rt *Runtime, name string) {
	t.Helper()
	if _, err := rt.AddSilo(name, nil); err != nil {
		t.Fatal(err)
	}
}

// TestActorPanicIsolatedAndReactivates: a panic in one turn must (1) reach
// the caller as a classified ErrActorPanic, (2) leave the silo and every
// other actor running, and (3) deactivate only the panicking activation so
// the next call gets a fresh one.
func TestActorPanicIsolatedAndReactivates(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	if err := rt.RegisterKind("Chaos", func() Actor { return &chaosActor{} }); err != nil {
		t.Fatal(err)
	}
	addSilo(t, rt, "s1")
	ctx := context.Background()

	bomb := ID{"Chaos", "bomb"}
	bystander := ID{"Chaos", "bystander"}
	if _, err := rt.Call(ctx, bomb, addMsg{5}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Call(ctx, bystander, addMsg{7}); err != nil {
		t.Fatal(err)
	}

	_, err := rt.Call(ctx, bomb, panicMsg{})
	if !errors.Is(err, ErrActorPanic) {
		t.Fatalf("panic call error = %v, want ErrActorPanic", err)
	}
	var perr *PanicError
	if !errors.As(err, &perr) {
		t.Fatalf("panic call error %v does not carry *PanicError", err)
	}
	if perr.Actor != bomb.String() || !strings.Contains(perr.Stack, "Receive") {
		t.Fatalf("PanicError lacks actor/stack detail: %+v", perr)
	}
	if Transient(err) {
		t.Fatal("actor panic misclassified as transient")
	}

	// The bystander on the same silo never noticed.
	if v, err := rt.Call(ctx, bystander, getMsg{}); err != nil || v.(int) != 7 {
		t.Fatalf("bystander after panic: %v, %v", v, err)
	}
	// The bomb re-activates fresh (its in-memory state was lost, and with
	// PersistNone nothing was stored).
	if v, err := rt.Call(ctx, bomb, getMsg{}); err != nil || v.(int) != 0 {
		t.Fatalf("re-activated call: v=%v err=%v", v, err)
	}
	if got := rt.Metrics().Counter("core.panics").Value(); got == 0 {
		t.Fatal("core.panics counter never incremented")
	}
}

// TestPanicFailsQueuedCallsTransient: messages queued behind a panicking
// turn must fail with a retryable classification (here retries are
// disabled so the classification itself is visible to the caller).
func TestPanicFailsQueuedCallsTransient(t *testing.T) {
	rt := newTestRuntime(t, Config{Retry: RetryPolicy{Disabled: true}})
	gate := make(chan struct{})
	if err := rt.RegisterKind("Chaos", func() Actor { return &chaosActor{gate: gate} }); err != nil {
		t.Fatal(err)
	}
	addSilo(t, rt, "s1")
	ctx := context.Background()
	id := ID{"Chaos", "x"}

	// Park a turn so we can queue behind it deterministically.
	held := make(chan error, 1)
	go func() {
		_, err := rt.Call(ctx, id, holdMsg{})
		held <- err
	}()
	waitForActive(t, rt, 1)

	// Enqueue the bomb first and wait for it, so the mailbox order is
	// deterministic: panic turn, then the call that must see the poison.
	bombed := make(chan error, 1)
	go func() {
		_, err := rt.Call(ctx, id, panicMsg{})
		bombed <- err
	}()
	waitForQueued(t, rt, id, 1)
	queued := make(chan error, 1)
	go func() {
		_, err := rt.Call(ctx, id, getMsg{})
		queued <- err
	}()
	waitForQueued(t, rt, id, 2)
	close(gate) // release the held turn; the panic turn runs next

	if err := <-held; err != nil {
		t.Fatalf("held turn failed: %v", err)
	}
	if err := <-bombed; !errors.Is(err, ErrActorPanic) {
		t.Fatalf("panicking call error = %v, want ErrActorPanic", err)
	}
	if err := <-queued; err == nil || !Transient(err) {
		t.Fatalf("queued call error = %v, want transient", err)
	}
}

// waitForActive spins until the runtime-wide active gauge reaches n.
func waitForActive(t *testing.T, rt *Runtime, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for rt.Metrics().Gauge("core.active").Value() < n {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d active activations", n)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitForQueued spins until id's mailbox holds n envelopes.
func waitForQueued(t *testing.T, rt *Runtime, id ID, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		count := 0
		rt.mu.RLock()
		for _, s := range rt.silos {
			s.mu.Lock()
			if a, ok := s.catalog[id]; ok {
				a.box.mu.Lock()
				count = len(a.box.q)
				a.box.mu.Unlock()
			}
			s.mu.Unlock()
		}
		rt.mu.RUnlock()
		if count >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("mailbox never reached %d queued (at %d)", n, count)
		}
		time.Sleep(time.Millisecond)
	}
}

// failFirstTransport wraps a Transport and fails the first n Calls with a
// transport-level unreachability error, then behaves normally.
type failFirstTransport struct {
	transport.Transport
	remaining atomic.Int32
}

func (f *failFirstTransport) Call(ctx context.Context, node string, req transport.Request) (any, error) {
	if f.remaining.Add(-1) >= 0 {
		return nil, &transport.UnreachableError{Node: node, Err: errors.New("injected")}
	}
	return f.Transport.Call(ctx, node, req)
}

// TestCallRetriesTransientFailures: transient transport failures are
// absorbed by the retry layer; the caller sees one successful Call.
func TestCallRetriesTransientFailures(t *testing.T) {
	inner := transport.NewLocal(nil, nil)
	ft := &failFirstTransport{Transport: inner}
	ft.remaining.Store(2)
	rt := newTestRuntime(t, Config{
		Transport: ft,
		Retry:     RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
	})
	registerCounter(t, rt)
	addSilo(t, rt, "s1")

	v, err := rt.Call(context.Background(), ID{"Counter", "a"}, addMsg{3})
	if err != nil {
		t.Fatalf("retried call failed: %v", err)
	}
	if v.(int) != 3 {
		t.Fatalf("v = %v", v)
	}
	if got := rt.Metrics().Counter("core.call_retries").Value(); got != 2 {
		t.Fatalf("core.call_retries = %d, want 2", got)
	}
}

// TestCallRetryDisabledFailsFast: with retries off the first transient
// failure surfaces directly, still classified for the caller.
func TestCallRetryDisabledFailsFast(t *testing.T) {
	inner := transport.NewLocal(nil, nil)
	ft := &failFirstTransport{Transport: inner}
	ft.remaining.Store(1)
	rt := newTestRuntime(t, Config{Transport: ft, Retry: RetryPolicy{Disabled: true}})
	registerCounter(t, rt)
	addSilo(t, rt, "s1")

	_, err := rt.Call(context.Background(), ID{"Counter", "a"}, addMsg{3})
	if err == nil || !Transient(err) {
		t.Fatalf("err = %v, want transient failure", err)
	}
	if got := rt.Metrics().Counter("core.call_retries").Value(); got != 0 {
		t.Fatalf("core.call_retries = %d, want 0", got)
	}
}

// TestCallRetriesExhaust: when every attempt fails transient, the final
// error reports the attempt count and keeps the transient classification.
func TestCallRetriesExhaust(t *testing.T) {
	inner := transport.NewLocal(nil, nil)
	ft := &failFirstTransport{Transport: inner}
	ft.remaining.Store(1 << 20)
	rt := newTestRuntime(t, Config{
		Transport: ft,
		Retry:     RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	registerCounter(t, rt)
	addSilo(t, rt, "s1")

	_, err := rt.Call(context.Background(), ID{"Counter", "a"}, getMsg{})
	if err == nil || !Transient(err) {
		t.Fatalf("err = %v, want transient after exhaustion", err)
	}
	if !strings.Contains(err.Error(), "after 3 attempts") {
		t.Fatalf("err %v does not report attempts", err)
	}
}

// alternating places successive actors on successive silos, so a
// re-placement is certain to pick a different silo than the placement
// before it.
type alternating struct{ n atomic.Int32 }

func (a *alternating) Name() string { return "alternating" }

func (a *alternating) Place(_, _ string, silos []string) (string, error) {
	return silos[int(a.n.Add(1)-1)%len(silos)], nil
}

// TestUnreachableCallKeepsRegistration: a lost message to a live,
// registered activation must not cost the actor its directory entry. The
// retry reaches the same activation; had the call path unregistered it,
// re-placement would have activated a second instance on the other silo
// while the first still ran.
func TestUnreachableCallKeepsRegistration(t *testing.T) {
	ft := &failFirstTransport{Transport: transport.NewLocal(nil, nil)}
	var built atomic.Int32
	rt := newTestRuntime(t, Config{
		Transport: ft,
		Placement: &alternating{},
		Retry:     RetryPolicy{BaseBackoff: time.Millisecond},
	})
	if err := rt.RegisterKind("Counter", func() Actor { built.Add(1); return &counterActor{} }); err != nil {
		t.Fatal(err)
	}
	addSilo(t, rt, "s1")
	addSilo(t, rt, "s2")
	ctx := context.Background()
	id := ID{"Counter", "a"}

	if _, err := rt.Call(ctx, id, addMsg{1}); err != nil {
		t.Fatal(err)
	}
	reg, ok := rt.Directory().Lookup(id.String())
	if !ok {
		t.Fatal("actor not in directory")
	}

	ft.remaining.Store(1) // the next delivery is lost on the way to a live silo
	v, err := rt.Call(ctx, id, addMsg{1})
	if err != nil {
		t.Fatalf("retried call failed: %v", err)
	}
	if v.(int) != 2 {
		t.Fatalf("v = %v, want 2: the retry reached a different activation", v)
	}
	if got := rt.Metrics().Counter("core.call_retries").Value(); got != 1 {
		t.Fatalf("core.call_retries = %d, want 1", got)
	}
	if got, acts := built.Load(), rt.Metrics().Counter("core.activations").Value(); got != 1 || acts != 1 {
		t.Fatalf("factory ran %d times, core.activations = %d; want one activation", got, acts)
	}
	if now, ok := rt.Directory().Lookup(id.String()); !ok || now != reg {
		t.Fatalf("registration = %+v (ok=%v), want the original %+v", now, ok, reg)
	}
}

// TestCrashSiloFailsOverWithPersistedState: CrashSilo kills a silo
// abruptly; a queued call behind the in-flight turn fails transient and the
// retry layer transparently re-activates the actor on the surviving silo
// from its last persisted state. This is the self-healing loop end to end.
func TestCrashSiloFailsOverWithPersistedState(t *testing.T) {
	store, kverr := kvstore.Open(kvstore.Options{})
	if kverr != nil {
		t.Fatal(kverr)
	}
	gate := make(chan struct{})
	entered := make(chan struct{}, 1)
	rt := newTestRuntime(t, Config{Store: store})
	if err := rt.RegisterKind("Chaos", func() Actor { return &chaosActor{gate: gate, entered: entered} },
		WithPersistence(PersistExplicit)); err != nil {
		t.Fatal(err)
	}
	addSilo(t, rt, "s1")
	addSilo(t, rt, "s2")
	ctx := context.Background()
	id := ID{"Chaos", "d"}

	if _, err := rt.Call(ctx, id, addMsg{41}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Call(ctx, id, saveMsg{}); err != nil {
		t.Fatal(err)
	}
	reg, ok := rt.Directory().Lookup(id.String())
	if !ok {
		t.Fatal("actor not in directory")
	}
	home := reg.Silo

	// Park a turn, queue a read behind it, then crash the hosting silo.
	held := make(chan error, 1)
	go func() {
		_, err := rt.Call(ctx, id, holdMsg{})
		held <- err
	}()
	<-entered // the hold turn is executing; anything sent now queues behind it
	queued := make(chan struct {
		v   any
		err error
	}, 1)
	go func() {
		v, err := rt.Call(ctx, id, getMsg{})
		queued <- struct {
			v   any
			err error
		}{v, err}
	}()
	waitForQueued(t, rt, id, 1)

	if err := rt.CrashSilo(home); err != nil {
		t.Fatal(err)
	}
	close(gate)

	res := <-queued
	if res.err != nil {
		t.Fatalf("queued call not healed across crash: %v", res.err)
	}
	if res.v.(int) != 41 {
		t.Fatalf("recovered state = %v, want 41 (last persisted)", res.v)
	}
	if reg, ok := rt.Directory().Lookup(id.String()); !ok || reg.Silo == home {
		t.Fatalf("actor not re-homed: %+v ok=%v", reg, ok)
	}
	<-held // the in-flight turn's fate is timing-dependent; just reap it
	if got := rt.Metrics().Counter("core.silo_crashes").Value(); got != 1 {
		t.Fatalf("core.silo_crashes = %d", got)
	}
}

// TestZombieWriteFenced: an activation that survives a simulated crash in
// a torn state cannot clobber its successor's persisted state — the
// version-fenced write fails ErrStaleActivation and the zombie
// self-deactivates.
func TestZombieWriteFenced(t *testing.T) {
	store, kverr := kvstore.Open(kvstore.Options{})
	if kverr != nil {
		t.Fatal(kverr)
	}
	rt := newTestRuntime(t, Config{Store: store, Retry: RetryPolicy{Disabled: true}})
	registerCounter(t, rt, WithPersistence(PersistExplicit))
	addSilo(t, rt, "s1")
	ctx := context.Background()
	id := ID{"Counter", "z"}

	if _, err := rt.Call(ctx, id, addMsg{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Call(ctx, id, saveMsg{}); err != nil {
		t.Fatal(err)
	}

	// Simulate a successor writing behind the live activation's back: bump
	// the stored version directly, as a replacement activation would.
	table, err := store.EnsureTable("grains", kvstore.Throughput{})
	if err != nil {
		t.Fatal(err)
	}
	it, err := table.Get(ctx, id.String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := table.PutIf(ctx, id.String(), it.Value, it.Version); err != nil {
		t.Fatal(err)
	}

	// The zombie's next write must be fenced and classified transient.
	_, err = rt.Call(ctx, id, saveMsg{})
	if !errors.Is(err, ErrStaleActivation) {
		t.Fatalf("zombie write error = %v, want ErrStaleActivation", err)
	}
	if !Transient(err) {
		t.Fatal("stale-activation fence misclassified as permanent")
	}
	if got := rt.Metrics().Counter("core.stale_writes_fenced").Value(); got != 1 {
		t.Fatalf("core.stale_writes_fenced = %d", got)
	}
	// The zombie deactivated itself; a fresh call sees the store's truth.
	if v, err := rt.Call(ctx, id, getMsg{}); err != nil || v.(int) != 1 {
		t.Fatalf("post-fence call: v=%v err=%v", v, err)
	}
}
