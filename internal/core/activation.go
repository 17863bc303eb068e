package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"aodb/internal/capacity"
	"aodb/internal/directory"
	"aodb/internal/kvstore"
	"aodb/internal/telemetry"
)

// activation is one in-memory instance of a virtual actor, owned by a
// silo. It has no goroutine of its own: all application code for the actor
// runs on whichever worker currently owns its mailbox (see mailbox and
// workers), one worker at a time, which is what keeps turns single-threaded.
type activation struct {
	id    ID
	silo  *Silo
	cfg   *kindConfig
	actor Actor
	box   mailbox
	reg   directory.Registration

	lastBusy atomic.Int64 // unix nanos of the last turn
	crashed  atomic.Bool  // silo crash: skip all teardown persistence
	// fenced marks an activation cut off by a forced migration hand-off:
	// ownership has already moved, so any state write it still attempts
	// must fail as stale rather than clobber the successor's writes.
	fenced atomic.Bool
	// closeOnIdle is Context.DeactivateOnIdle's request, consumed by the
	// owning worker when the mailbox next runs empty.
	closeOnIdle atomic.Bool

	// The rest is touched only by the worker that owns the mailbox.
	// started says the first visit has run activate, activateErr is what
	// that returned, poison is the panic of a turn (see visit).
	started     bool
	activateErr error
	poison      error

	// stateVersion is the kvstore version the activation's state was
	// loaded at; writes are fenced with PutIf so a zombie activation (one
	// that survived a simulated silo crash mid-turn) can never clobber
	// its successor's state.
	stateVersion int64

	// cur is the span of the turn currently executing, when that turn is
	// sampled. Context methods and the kvstore instrumentation read it
	// via a.context.
	cur *telemetry.Span
}

// newActivation returns an activation whose mailbox is already owned: the
// caller hands it to a worker, whose first visit activates it.
func newActivation(id ID, silo *Silo, cfg *kindConfig, reg directory.Registration) *activation {
	a := &activation{
		id:    id,
		silo:  silo,
		cfg:   cfg,
		actor: cfg.factory(),
		reg:   reg,
	}
	a.box.owned = true
	a.lastBusy.Store(silo.rt.clk.Now().UnixNano())
	return a
}

// push and close flip the mailbox's owned bit and make the hand-off the flip
// obliges; the third flipper, closeIfEmpty, is the idle collector's.
func (a *activation) push(env envelope) bool {
	ok, wake := a.box.push(env)
	if wake {
		a.silo.workers.handOff(a)
	}
	return ok
}

func (a *activation) close() {
	if a.box.close() {
		a.silo.workers.handOff(a)
	}
}

// pushInline is push for a NonBlocking message: when the push flips the
// owned bit and a has started healthy, the caller runs the turn itself, on
// c, instead of handing a to a worker. inline reports that it did. What the
// turn leaves — more queued, a close, DeactivateOnIdle, a poison — goes to
// a worker after it, as a push would have sent it.
func (a *activation) pushInline(env envelope, c *Context) (ok, inline bool) {
	ok, wake := a.box.push(env)
	if !wake {
		return ok, false
	}
	// The flip made the caller the owner, so it may read what only the
	// owner touches; the queue held nothing before env.
	if !a.started || a.activateErr != nil || a.poison != nil || a.crashed.Load() {
		a.silo.workers.handOff(a)
		return true, false
	}
	env, _ = a.box.pop(false)
	if a.poison = a.turn(c, env); a.poison != nil {
		a.box.close()
	}
	if !a.box.releaseIfIdle(a.closeOnIdle.Load()) {
		a.silo.workers.handOff(a)
	}
	return true, true
}

// visit is one worker's tenure as owner: activate on the first, run turns
// until the mailbox is empty, and let go — or deactivate, once it is closed
// and drained. A panic in any turn poisons the activation: the panicking
// call gets a PanicError, queued and late messages fail transient (so
// retries reach a fresh activation), and the silo process never crashes.
// c is the visiting worker's Context, reset for each turn and hook.
func (a *activation) visit(c *Context) {
	if !a.started {
		a.started = true
		if a.activateErr = a.activate(c); a.activateErr != nil {
			// Fail every queued message, then tear down so the next call
			// can retry with a fresh activation.
			a.box.close()
		}
	}
	for {
		env, st := a.box.pop(a.closeOnIdle.Load())
		switch {
		case st == released:
			return
		case st == drained:
			a.deactivate(c, a.activateErr == nil, a.poison != nil || a.crashed.Load())
			return
		case a.activateErr != nil:
			env.fail(fmt.Errorf("core: activating %s: %w", a.id, a.activateErr))
		case a.crashed.Load():
			env.fail(fmt.Errorf("core: %s lost to silo crash: %w", a.id, ErrTransient))
		case a.poison != nil:
			env.fail(fmt.Errorf("core: %s deactivating after panic: %w", a.id, ErrTransient))
		case env.msg == loadedProbe{}: // a hand-off waits on the first load
			env.respond(nil, nil)
		default:
			if a.poison = a.turn(c, env); a.poison != nil {
				a.box.close()
			}
		}
	}
}

// activate loads persistent state and runs the OnActivate hook. Panics in
// either are recovered into an activation error.
func (a *activation) activate(c *Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			a.silo.metrics.Counter("core.panics").Inc()
			err = &PanicError{Actor: a.id.String(), Value: r, Stack: string(debug.Stack())}
		}
	}()
	cctx := a.context(c, context.Background(), nil)
	if a.cfg.persist != PersistNone {
		// The store gets the turn's context.Context, never the worker's
		// Context: a store may use it after returning.
		if err := a.loadState(cctx.Context); err != nil {
			return err
		}
	}
	if hook, ok := a.actor.(Activator); ok {
		if err := hook.OnActivate(cctx); err != nil {
			return err
		}
	}
	a.silo.activations.Inc()
	a.silo.active.Add(1)
	return nil
}

// turn executes one message under the silo's capacity limiter. It returns
// non-nil only when the actor panicked, which poisons the activation.
func (a *activation) turn(c *Context, env envelope) (panicked error) {
	a.lastBusy.Store(a.silo.rt.clk.Now().UnixNano())
	ctx := env.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	// One enabled load decides whether the recorder sees this turn at all;
	// what it records (span, profile, events) is its own business, told
	// once more at the end of the turn. Disabled, a turn pays this check.
	tr := a.silo.rt.tracer
	recording := tr.Enabled()
	var tn telemetry.Turn
	var timing capacity.TurnTiming
	var tm *capacity.TurnTiming // nil adds no clock reads to the limiter
	if recording {
		// reg.Actor is id.String() as registered: the recorder's label for
		// every turn, so it is not rebuilt per turn.
		tn = tr.StartTurn(env.trace, a.reg.Actor, a.id.Kind, a.silo.name)
		if tn.Timed {
			tm = &timing
			tn.Depth = a.box.depth()
		}
		if sp := tn.Span; sp != nil {
			sp.Remote = env.remote
			if !env.enqueuedAt.IsZero() {
				sp.Mailbox = sp.Start.Sub(env.enqueuedAt)
			}
			a.cur = sp
		}
	}
	cost := a.silo.rt.costOf(a.id, env.msg)
	var turnErr error
	var execDur time.Duration
	err := a.silo.limiter.ExecuteTimed(ctx, cost, func() error {
		cctx := a.context(c, ctx, env.chain)
		var execStart time.Time
		if tn.Timed {
			execStart = a.silo.rt.clk.Now()
		}
		v, err := a.invoke(cctx, env.msg)
		if tn.Timed {
			execDur = a.silo.rt.clk.Since(execStart)
		}
		turnErr = err
		if perr, ok := err.(*PanicError); ok {
			panicked = perr
			v = nil
		}
		env.respond(v, err)
		return nil
	}, tm)
	if err != nil {
		env.fail(err)
		if turnErr == nil {
			turnErr = err
		}
	}
	if recording {
		a.cur = nil
		tr.EndTurn(&tn, execDur, timing.SlotWait, timing.Burn, turnErr, panicked != nil)
	}
	a.silo.turns.Inc()
	return panicked
}

// invoke runs the actor handler for one turn, converting panics into
// PanicError so application bugs and injected faults are isolated to the
// activation instead of taking down the silo process.
func (a *activation) invoke(cctx *Context, msg any) (v any, err error) {
	defer func() {
		if r := recover(); r != nil {
			a.silo.metrics.Counter("core.panics").Inc()
			v = nil
			err = &PanicError{Actor: a.id.String(), Value: r, Stack: string(debug.Stack())}
		}
	}()
	if hook := a.silo.rt.cfg.BeforeTurn; hook != nil {
		hook(a.id, msg)
	}
	return a.actor.Receive(cctx, msg)
}

// deactivate runs teardown after the mailbox has drained. The order
// matters: hooks and the final state write complete before the directory
// registration disappears, so a successor activation can never load stale
// state. A dirty teardown (panic poison or silo crash) skips hooks and
// persistence: the in-memory state is suspect or deliberately "lost".
func (a *activation) deactivate(c *Context, wasActive, dirty bool) {
	if wasActive {
		if !dirty {
			a.teardownHooks(c)
		}
		a.silo.active.Add(-1)
		a.silo.deactivations.Inc()
	}
	a.silo.rt.directory.Unregister(a.reg)
	a.silo.removeActivation(a)
	a.box.finishTeardown()
}

// teardownHooks runs OnDeactivate and the final state write, recovering
// panics so a buggy teardown cannot crash the silo.
func (a *activation) teardownHooks(c *Context) {
	defer func() {
		if r := recover(); r != nil {
			a.silo.metrics.Counter("core.panics").Inc()
			a.silo.metrics.Counter("core.deactivate_hook_errors").Inc()
		}
	}()
	cctx := a.context(c, context.Background(), nil)
	if hook, ok := a.actor.(Deactivator); ok {
		if err := hook.OnDeactivate(cctx); err != nil {
			a.silo.metrics.Counter("core.deactivate_hook_errors").Inc()
		}
	}
	if a.cfg.persist == PersistOnDeactivate {
		if err := a.writeState(cctx.Context); err != nil {
			a.silo.metrics.Counter("core.state_write_errors").Inc()
		}
	}
}

// context readies c, the visiting worker's Context, for one turn or hook
// of a. Every field is set, so nothing of the worker's previous turn — of
// this activation or another — survives into this one.
func (a *activation) context(c *Context, ctx context.Context, chain []string) *Context {
	if a.cur != nil {
		// Carry the turn's span in the context so the kvstore layer can
		// attribute storage time without importing core.
		ctx = telemetry.WithSpan(ctx, a.cur)
	}
	*c = Context{Context: ctx, rt: a.silo.rt, silo: a.silo, self: a.id, act: a, chain: chain}
	return c
}

// loadState hydrates a Stateful actor from the state store, remembering
// the version it loaded so later writes can be fenced.
func (a *activation) loadState(ctx context.Context) error {
	st, ok := a.actor.(Stateful)
	if !ok || a.silo.rt.states == nil {
		return nil
	}
	data, ver, err := a.silo.rt.states.Load(ctx, a.reg.Actor)
	if err != nil {
		if isNotFound(err) {
			// First activation ever: zero-value state at version zero,
			// which is what every store returns for a missing key.
			return nil
		}
		return err
	}
	state := st.State()
	if u, ok := state.(json.Unmarshaler); ok {
		err = u.UnmarshalJSON(data) // see Stateful: no re-scan by encoding/json
	} else {
		err = json.Unmarshal(data, state)
	}
	if err != nil {
		return fmt.Errorf("core: corrupt state for %s: %w", a.id, err)
	}
	a.stateVersion = ver
	a.observeState(len(data))
	return nil
}

// writeState persists a Stateful actor's state with a conditional put
// fenced on the version this activation last observed. A mismatch means
// a successor activation (created after this silo was declared crashed)
// has already written; this activation is a zombie. It deactivates itself
// so queued work re-routes to the live activation, and reports
// ErrStaleActivation — transient, because a retry reaches fresh state.
func (a *activation) writeState(ctx context.Context) error {
	st, ok := a.actor.(Stateful)
	if !ok {
		return fmt.Errorf("core: %s is not Stateful", a.id)
	}
	if a.silo.rt.states == nil {
		return nil // no store configured: treat as volatile
	}
	if a.fenced.Load() {
		// A forced migration already moved ownership; this zombie's write
		// must not land. (With a replicated state store the version fence
		// would also catch it — the successor's load bumps the epoch — but
		// a plain table load does not, so the local fence closes that
		// window.)
		a.silo.metrics.Counter("core.stale_writes_fenced").Inc()
		a.close() // self-deactivate; successor owns the state now
		return fmt.Errorf("%w: %s migrated away mid-write", ErrStaleActivation, a.id)
	}
	state := st.State()
	var data []byte
	var err error
	if m, ok := state.(json.Marshaler); ok {
		data, err = m.MarshalJSON() // see Stateful: no compacting copy
	} else {
		data, err = json.Marshal(state)
	}
	if err != nil {
		return err
	}
	if a.crashed.Load() {
		// A dead process writes nothing; beside a successor it could be acked.
		return fmt.Errorf("core: %s lost to silo crash: %w", a.id, ErrTransient)
	}
	next, err := a.silo.rt.states.Store(ctx, a.reg.Actor, data, a.stateVersion)
	if err != nil {
		if errors.Is(err, kvstore.ErrVersionMismatch) {
			a.silo.metrics.Counter("core.stale_writes_fenced").Inc()
			a.close() // self-deactivate; successor owns the state now
			return fmt.Errorf("%w: %s at v%d: %v", ErrStaleActivation, a.id, a.stateVersion, err)
		}
		if next != 0 {
			a.stateVersion = next // the failed attempt spent this version
		}
		return err
	}
	a.stateVersion = next
	a.silo.stateWrites.Inc()
	a.observeState(len(data))
	return nil
}

// observeState feeds one serialized-state size (a load or a write) to the
// recorder's profile.
func (a *activation) observeState(bytes int) {
	if tr := a.silo.rt.tracer; tr.Enabled() {
		tr.ObserveState(a.reg.Actor, a.id.Kind, bytes)
	}
}

// idleFor returns how long the activation has gone without real traffic.
func (a *activation) idleFor(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, a.lastBusy.Load()))
}

// respond hands the turn's outcome to whoever awaits it: a multi-actor
// call's gather, a single caller's reply channel, or nobody (one-way).
// Every queued envelope is answered exactly once — by its turn, or by fail
// when the turn never runs.
func (e envelope) respond(v any, err error) {
	switch {
	case e.gather != nil:
		e.gather.set(int(e.slot), v, err)
	case e.reply != nil:
		e.reply <- turnResult{val: v, err: err}
	}
}

func (e envelope) fail(err error) { e.respond(nil, err) }
