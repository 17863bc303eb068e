package core

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/capacity"
	"aodb/internal/clock"
	"aodb/internal/directory"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/placement"
	"aodb/internal/telemetry"
	"aodb/internal/transport"
)

// CostFunc assigns a simulated CPU cost to one actor turn, used with
// capacity-limited silos to reproduce bounded-server behaviour. A nil
// CostFunc means all turns are free (still bounded in concurrency if the
// silo has a limiter).
type CostFunc func(id ID, msg any) time.Duration

// ViewProvider supplies the current set of active silos for placement.
// The runtime only reads the slice View returns, so it may be shared.
type ViewProvider interface {
	View() []string
}

// RetryPolicy configures the self-healing call path: transient failures
// (see Transient) are retried transparently with exponential backoff and
// jitter, up to maxAttempts and within a per-call time budget. The zero
// value retries; set Disabled to turn transparent retries off.
type RetryPolicy struct {
	// Disabled turns off transparent retries (wrong-silo re-routing, an
	// internal correctness mechanism, still happens). It stays settable
	// because tests read a first attempt's error through it.
	Disabled bool
}

// The retry schedule of the self-healing call path.
const (
	// maxAttempts is the total number of tries including the first: 4.
	maxAttempts = 4
	// baseBackoff is the delay before the first retry, 2 ms; it doubles
	// per retry up to maxBackoff, 250 ms.
	baseBackoff = 2 * time.Millisecond
	maxBackoff  = 250 * time.Millisecond
	// retryJitter is the fraction of each backoff randomized away to
	// decorrelate retry storms: 0.5.
	retryJitter = 0.5
	// retryBudget bounds the total time spent retrying one call when the
	// caller's context has no deadline of its own: 5 s. The first attempt
	// is never cut short by the budget — only retries are.
	retryBudget = 5 * time.Second
)

// StateTable names the grain-state table every runtime persists activation
// state to, and every replica store keeps its envelopes in.
const StateTable = "grains"

// Config configures a Runtime. The zero value is usable: an in-process
// transport with no latency model, random placement, no persistence, and
// no capacity limits.
type Config struct {
	// Transport moves messages between silos. Nil means a zero-latency
	// in-process transport.
	Transport transport.Transport
	// Placement is the default strategy for kinds without an override.
	// Nil means random placement (Orleans' default).
	Placement placement.Strategy
	// Store enables actor-state persistence when set.
	Store *kvstore.Store
	// States overrides where activation state loads and flushes go. Nil
	// uses Store's state table directly; a replication coordinator's
	// state store routes them through quorum reads and writes instead.
	// Store (for Context.Table and the table default) may still be set
	// alongside it.
	States StateStore
	// StateThroughput provisions the state table when it must be created
	// (zero = unlimited).
	StateThroughput kvstore.Throughput
	// Cost simulates per-turn CPU cost on capacity-limited silos.
	Cost CostFunc
	// IdleAfter is how long an activation may sit idle before collection
	// (default 2 minutes).
	IdleAfter time.Duration
	// CollectEvery is the idle-collector period (default 15 seconds).
	CollectEvery time.Duration
	// View overrides the silo set used for placement. Nil means all silos
	// added to this Runtime.
	View ViewProvider
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Metrics receives runtime instrumentation; nil allocates a registry.
	Metrics *metrics.Registry
	// Retry configures transparent retries of transient call failures.
	Retry RetryPolicy
	// BeforeTurn, when set, runs at the start of every actor turn, inside
	// the panic-isolation boundary. It exists for fault injection (a hook
	// that panics exercises the recovery path exactly as an application
	// bug would); nil adds no hot-path overhead.
	BeforeTurn func(id ID, msg any)
	// Tracer is the runtime's one recorder: distributed tracing, the
	// flight recorder's events and HLC stamps, per-actor hot-spot
	// accounting — whichever parts it was built with. Nil (or a disabled
	// tracer) costs one nil-or-atomic check per message, mirroring the
	// internal/faults contract.
	Tracer *telemetry.Tracer
}

// Runtime is an actor-oriented database instance: a set of silos, a grain
// directory, kind registrations, and the shared persistence plumbing.
type Runtime struct {
	cfg       Config
	clk       clock.Clock
	directory *directory.Directory
	metrics   *metrics.Registry
	tracer    *telemetry.Tracer // nil = recording off
	states    StateStore        // nil = no persistence

	// services maps reserved transport target kinds (e.g. replication
	// RPCs) to their handlers. Copy-on-write: the hot inbound path does
	// one atomic load and, for actor traffic on a runtime with no
	// services, one nil check.
	services atomic.Pointer[map[string]ServiceHandler]

	// kinds is copy-on-write like services and shutdown an atomic flag:
	// every call reads both, and a read lock's reader count is a cache
	// line the cores would pass back and forth. Both are written under mu.
	kinds    atomic.Pointer[map[string]*kindConfig]
	shutdown atomic.Bool

	mu       sync.RWMutex
	silos    map[string]*Silo
	siloList []string // sorted names; replaced on a change, never written in place
}

// New creates a runtime. Add at least one silo and register kinds before
// calling actors.
func New(cfg Config) (*Runtime, error) {
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	if cfg.Transport == nil {
		cfg.Transport = transport.NewLocal(nil, cfg.Clock)
	}
	if cfg.Placement == nil {
		cfg.Placement = placement.NewRandom(cfg.Clock.Now().UnixNano())
	}
	if cfg.IdleAfter <= 0 {
		cfg.IdleAfter = 2 * time.Minute
	}
	if cfg.CollectEvery <= 0 {
		cfg.CollectEvery = 15 * time.Second
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	rt := &Runtime{
		cfg:       cfg,
		clk:       cfg.Clock,
		directory: directory.New(),
		metrics:   cfg.Metrics,
		tracer:    cfg.Tracer,
		silos:     make(map[string]*Silo),
	}
	rt.kinds.Store(&map[string]*kindConfig{})
	if cfg.Store != nil {
		table, err := cfg.Store.EnsureTable(StateTable, cfg.StateThroughput)
		if err != nil {
			return nil, err
		}
		rt.states = tableStateStore{t: table}
	}
	if cfg.States != nil {
		rt.states = cfg.States
	}
	// Live actor hand-off (Runtime.Migrate) is a built-in service: silos
	// answer drain/activate RPCs on the reserved "!migrate" kind.
	if err := rt.RegisterService(MigrateKind, rt.handleMigrate); err != nil {
		return nil, err
	}
	// So are multi-actor calls (CallManyOf), on "!multi".
	if err := rt.RegisterService(MultiKind, rt.handleMulti); err != nil {
		return nil, err
	}
	return rt, nil
}

// ServiceHandler serves requests addressed to a reserved (non-actor)
// target kind on behalf of the silo named by the second argument. It
// runs on the transport's inbound path, outside any actor mailbox.
type ServiceHandler func(ctx context.Context, silo string, req transport.Request) (any, error)

// RegisterService binds a handler for a reserved transport target kind,
// dispatched on every hosted silo before actor resolution. Kinds should
// be outside the actor namespace (the replication service uses "!repl").
// Re-registering a kind replaces its handler.
func (rt *Runtime) RegisterService(kind string, h ServiceHandler) error {
	if kind == "" || h == nil {
		return errors.New("core: RegisterService needs a kind and handler")
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	old := rt.services.Load()
	next := make(map[string]ServiceHandler, 1)
	if old != nil {
		for k, v := range *old {
			next[k] = v
		}
	}
	next[kind] = h
	rt.services.Store(&next)
	return nil
}

// service returns the handler for kind, or nil.
func (rt *Runtime) service(kind string) ServiceHandler {
	m := rt.services.Load()
	if m == nil {
		return nil
	}
	return (*m)[kind]
}

// RegisterKind makes a kind callable. It must be called before any actor
// of the kind is addressed; re-registering a kind is an error.
func (rt *Runtime) RegisterKind(kind string, factory Factory, opts ...KindOption) error {
	if kind == "" || factory == nil {
		return errors.New("core: RegisterKind needs a kind name and factory")
	}
	cfg := &kindConfig{kind: kind, factory: factory}
	for _, opt := range opts {
		opt(cfg)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if _, ok := rt.kind(kind); ok {
		return fmt.Errorf("core: kind %q already registered", kind)
	}
	next := maps.Clone(*rt.kinds.Load())
	next[kind] = cfg
	rt.kinds.Store(&next)
	return nil
}

func (rt *Runtime) kind(name string) (*kindConfig, bool) {
	cfg, ok := (*rt.kinds.Load())[name]
	return cfg, ok
}

// AddSilo creates a silo named name with an optional capacity limiter
// (nil = unbounded) and registers it with the transport.
func (rt *Runtime) AddSilo(name string, limiter *capacity.Limiter) (*Silo, error) {
	if name == "" {
		return nil, errors.New("core: empty silo name")
	}
	rt.mu.Lock()
	if rt.shutdown.Load() {
		rt.mu.Unlock()
		return nil, ErrShutdown
	}
	if _, ok := rt.silos[name]; ok {
		rt.mu.Unlock()
		return nil, fmt.Errorf("core: silo %q already exists", name)
	}
	s := newSilo(name, rt, limiter)
	rt.silos[name] = s
	rt.rebuildSiloList()
	rt.mu.Unlock()
	if err := rt.cfg.Transport.Register(name, s.handle); err != nil {
		rt.mu.Lock()
		delete(rt.silos, name)
		rt.rebuildSiloList()
		rt.mu.Unlock()
		return nil, err
	}
	go s.collector(rt.cfg.CollectEvery)
	return s, nil
}

// rebuildSiloList replaces siloList with a new sorted list of rt.silos:
// view hands the list out, so a published one is never written.
func (rt *Runtime) rebuildSiloList() {
	list := make([]string, 0, len(rt.silos))
	for n := range rt.silos {
		list = append(list, n)
	}
	sort.Strings(list)
	rt.siloList = list
}

// RemoveSilo takes a silo out of service: it drains its activations
// (persisting state where configured), evicts its directory entries so
// actors can re-activate elsewhere, and removes it from the placement
// view. It models both graceful decommission and — when the silo's state
// was persisted — recovery from silo loss.
func (rt *Runtime) RemoveSilo(ctx context.Context, name string) error {
	rt.mu.Lock()
	s, ok := rt.silos[name]
	if !ok {
		rt.mu.Unlock()
		return fmt.Errorf("core: no silo %q", name)
	}
	delete(rt.silos, name)
	rt.rebuildSiloList()
	rt.mu.Unlock()

	close(s.collectorStop)
	select {
	case <-s.collectorDone:
	case <-ctx.Done():
		return ctx.Err()
	}
	if err := s.drainAll(ctx); err != nil {
		return err
	}
	// Evict any remaining registrations (activations unregister themselves
	// during teardown; this catches ones that failed mid-activation).
	rt.directory.EvictSilo(name)
	if d, ok := rt.cfg.Transport.(transport.Deregisterer); ok {
		d.Deregister(name)
	}
	return nil
}

// CrashSilo abruptly kills a silo, simulating process death: nothing is
// drained or persisted, in-memory activation state is lost, queued and
// in-flight work fails transient, directory entries are evicted so actors
// re-activate elsewhere, and the transport stops delivering to the name.
// Re-adding the same name with AddSilo models a process restart. Compare
// RemoveSilo, which is a graceful decommission.
func (rt *Runtime) CrashSilo(name string) error {
	rt.mu.Lock()
	s, ok := rt.silos[name]
	if !ok {
		rt.mu.Unlock()
		return fmt.Errorf("core: no silo %q", name)
	}
	delete(rt.silos, name)
	rt.rebuildSiloList()
	rt.mu.Unlock()

	// Unplug the transport first so no new messages reach the corpse,
	// then kill the activations and evict their registrations.
	if d, ok := rt.cfg.Transport.(transport.Deregisterer); ok {
		d.Deregister(name)
	}
	close(s.collectorStop)
	s.crashAll()
	rt.directory.EvictSilo(name)
	rt.metrics.Counter("core.silo_crashes").Inc()
	return nil
}

// Silo returns a silo by name (for tests and tooling).
func (rt *Runtime) Silo(name string) (*Silo, bool) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	s, ok := rt.silos[name]
	return s, ok
}

// view returns the active silo set used for placement. It is shared, not
// copied: like any cluster.Viewer's, callers only read it.
func (rt *Runtime) view() []string {
	if rt.cfg.View != nil {
		return rt.cfg.View.View()
	}
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.siloList
}

// isShutdown reports whether Shutdown has begun.
func (rt *Runtime) isShutdown() bool { return rt.shutdown.Load() }

func (rt *Runtime) costOf(id ID, msg any) time.Duration {
	if rt.cfg.Cost == nil {
		return 0
	}
	return rt.cfg.Cost(id, msg)
}

// Metrics exposes the runtime's instrument registry.
func (rt *Runtime) Metrics() *metrics.Registry { return rt.metrics }

// Tracer exposes the runtime's recorder; nil when none is configured.
func (rt *Runtime) Tracer() *telemetry.Tracer { return rt.tracer }

// Clock exposes the runtime clock.
func (rt *Runtime) Clock() clock.Clock { return rt.clk }

// Directory exposes activation placement information (read-only use).
func (rt *Runtime) Directory() *directory.Directory { return rt.directory }

// Call sends msg to the actor named id and waits for its reply. The call
// activates the actor if needed, according to the kind's placement.
func (rt *Runtime) Call(ctx context.Context, id ID, msg any) (any, error) {
	return rt.call(ctx, "", nil, id, msg, true, telemetry.SpanContext{}, "")
}

// Tell sends msg one-way: it is delivered through the actor's mailbox but
// no reply is awaited.
func (rt *Runtime) Tell(ctx context.Context, id ID, msg any) error {
	_, err := rt.call(ctx, "", nil, id, msg, false, telemetry.SpanContext{}, "")
	return err
}

// call is the shared routing path for external callers (callerSilo == "")
// and actor-to-actor calls. It is self-healing: transient failures (see
// Transient) are retried with exponential backoff and jitter inside a
// time budget, and each retry resolves the actor afresh, so one whose
// silo membership has meanwhile evicted is re-placed on a live silo.
// Every returned error is classified — Transient(err) answers
// whether the caller may usefully retry. A non-empty redirect addresses
// the first attempt to that silo instead of resolving id: the caller
// already holds a wrong-silo answer naming the actor's home.
func (rt *Runtime) call(ctx context.Context, callerSilo string, chain []string, id ID, msg any, needReply bool, trace telemetry.SpanContext, redirect string) (any, error) {
	if err := id.Validate(); err != nil {
		return nil, err
	}
	if rt.isShutdown() {
		return nil, ErrShutdown
	}
	cfg, ok := rt.kind(id.Kind)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKind, id.Kind)
	}
	for _, hop := range chain {
		if id.is(hop) {
			return nil, fmt.Errorf("%w: %v -> %s", ErrCallCycle, chain, id)
		}
	}
	strat := rt.strategy(cfg)
	method := "call"
	if !needReply {
		method = "tell"
	}

	// External entry points (not actor-to-actor hops) are where traces
	// begin: the tracer's head sampler decides whether this request is
	// followed through the cluster. Actor-to-actor calls arrive with the
	// parent turn's context in trace and never re-sample.
	var root *telemetry.Span
	if callerSilo == "" && !trace.Sampled && rt.tracer.Tracing() {
		trace, root = rt.tracer.StartRoot(method + " " + id.String())
	}
	resp, retries, hops, err := rt.callLoop(ctx, callerSilo, chain, id, msg, strat, method, trace, redirect)
	if root != nil {
		root.Retries = int32(retries)
		root.Hops = int32(hops)
		rt.tracer.Finish(root, err)
	}
	return resp, err
}

// callLoop is the self-healing delivery loop behind call, reporting how
// many transparent retries and wrong-silo re-routes the delivery needed
// so root spans can attribute them.
func (rt *Runtime) callLoop(ctx context.Context, callerSilo string, chain []string, id ID, msg any, strat placement.Strategy, method string, trace telemetry.SpanContext, redirect string) (resp any, retries, hops int, err error) {
	// maxHops bounds the wrong-silo re-route loop: losing the activation
	// race means the directory already names the winner, so re-routing is
	// immediate (no backoff) but must not spin forever under pathological
	// churn.
	const maxHops = 8
	disabled := rt.cfg.Retry.Disabled
	attempts := maxAttempts
	if disabled {
		attempts = 1
	}
	backoff := baseBackoff
	// The retry deadline is armed lazily on the first failure, so the
	// happy path allocates no timer and pays nothing for the budget.
	var retryDeadline time.Time
	var lastErr error
	for attempt := 1; ; {
		resp, err := rt.routeOnce(ctx, callerSilo, chain, id, msg, strat, method, trace, redirect)
		redirect = ""
		if err == nil {
			return resp, retries, hops, nil
		}
		lastErr = err
		if IsWrongSilo(err) {
			hops++
			if hops >= maxHops {
				return nil, retries, hops, fmt.Errorf("core: %s unroutable after %d hops: %w", id, hops, lastErr)
			}
			// Route the next hop straight at the named winner: after a
			// migration the local directory may know nothing about the
			// actor's new home, and deterministic placement would keep
			// re-addressing the silo that just refused.
			redirect = redirectTarget(err)
			continue
		}
		if !Transient(err) {
			return nil, retries, hops, err
		}
		attempt++
		if attempt > attempts {
			break
		}
		if ctx.Err() != nil {
			// The caller's own deadline or cancellation fired; no retry
			// can help within this context.
			break
		}
		if retryDeadline.IsZero() {
			retryDeadline = rt.clk.Now().Add(retryBudget)
		} else if rt.clk.Now().After(retryDeadline) {
			break
		}
		retries++
		rt.metrics.Counter("core.call_retries").Inc()
		// Equal jitter: sleep in [d*(1-retryJitter), d] to decorrelate
		// storms.
		d := backoff - time.Duration(retryJitter*float64(backoff)*rand.Float64())
		t := rt.clk.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, retries, hops, fmt.Errorf("core: %s retry interrupted: %v: %w", id, ctx.Err(), lastErr)
		case <-t.C():
		}
		backoff = min(2*backoff, maxBackoff)
	}
	if disabled {
		return nil, retries, hops, lastErr
	}
	return nil, retries, hops, fmt.Errorf("core: %s failed after %d attempts: %w", id, attempts, lastErr)
}

// strategy is the placement a kind's actors use: its own, else the
// runtime's default.
func (rt *Runtime) strategy(cfg *kindConfig) placement.Strategy {
	if cfg.placement != nil {
		return cfg.placement
	}
	return rt.cfg.Placement
}

// place picks the silo for an actor the directory does not know.
func place(strat placement.Strategy, key, callerSilo string, view []string) (string, error) {
	if len(view) == 0 {
		return "", ErrNoSilos
	}
	return strat.Place(key, callerSilo, view)
}

// routeOnce resolves id to a silo (directory hit or fresh placement) and
// performs one transport delivery. It only reads the directory: a target
// that proves unreachable may be a live activation behind a lost message,
// and unregistering it here would let the retry place a second one. A
// registration is removed by its owner (activation teardown), by
// membership (CrashSilo, RemoveSilo, a gossip death's EvictSilo) or by a
// forced migration's fence — never by a caller.
func (rt *Runtime) routeOnce(ctx context.Context, callerSilo string, chain []string, id ID, msg any, strat placement.Strategy, method string, trace telemetry.SpanContext, redirect string) (any, error) {
	var target string
	if redirect != "" {
		// The previous hop named the actor's current home; trust it over
		// the directory (which may hold the stale pre-migration route).
		target = redirect
	} else if r, ok := rt.directory.LookupID(id.Kind, id.Key); ok {
		target = r.Silo
	} else {
		// A miss renders the id once, for placement.
		var err error
		if target, err = place(strat, id.String(), callerSilo, rt.view()); err != nil {
			return nil, err
		}
	}
	req := transport.Request{
		TargetKind: id.Kind,
		TargetKey:  id.Key,
		Method:     method,
		Payload:    msg,
		Sender:     callerSilo,
		Chain:      chain,
		Trace:      trace,
	}
	// No HLC stamp here: in-process deliveries share this runtime's
	// clock already, and the TCP transport stamps frames that actually
	// leave the process (TCPOptions.StampHLC) — so the hot local path
	// pays no clock work even with the recorder on.
	// A Tell travels as a transport call too: the reply acknowledges the
	// enqueue, not the turn. This keeps Tell reliable when the target
	// silo loses an activation race and the message must be re-routed to
	// the winner.
	return rt.cfg.Transport.Call(ctx, target, req)
}

// Shutdown deactivates every activation on every silo (persisting state
// where configured), stops background loops, and closes the transport.
func (rt *Runtime) Shutdown(ctx context.Context) error {
	rt.mu.Lock()
	if rt.shutdown.Load() {
		rt.mu.Unlock()
		return nil
	}
	rt.shutdown.Store(true)
	silos := make([]*Silo, 0, len(rt.silos))
	for _, s := range rt.silos {
		silos = append(silos, s)
	}
	rt.mu.Unlock()

	var firstErr error
	for _, s := range silos {
		close(s.collectorStop)
	}
	for _, s := range silos {
		select {
		case <-s.collectorDone:
		case <-ctx.Done():
			return ctx.Err()
		}
		if err := s.drainAll(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := rt.cfg.Transport.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
