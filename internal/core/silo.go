package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/capacity"
	"aodb/internal/directory"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/telemetry"
	"aodb/internal/transport"
)

// Silo is one logical server hosting activations. In simulated multi-
// server runs all silos live in one Runtime and process; in a real TCP
// deployment each process hosts one.
type Silo struct {
	name    string
	rt      *Runtime
	limiter *capacity.Limiter // nil = unbounded
	metrics *metrics.Registry
	workers workers // the goroutines that run this silo's turns

	mu          sync.Mutex
	catalog     map[ID]*activation
	catalogPeak int // most activations held since catalog was last made
	closing     bool
	// moved records actors handed off to another silo: calls landing here
	// are redirected instead of re-activating locally. Entries expire
	// (pruned by the collector) once cluster views have converged on the
	// new placement. This is what keeps a TCP-mode silo — whose directory
	// is process-local — from resurrecting an actor it just migrated out.
	moved map[ID]movedEntry

	collectorStop chan struct{}
	collectorDone chan struct{}
}

func newSilo(name string, rt *Runtime, limiter *capacity.Limiter) *Silo {
	return &Silo{
		name:          name,
		rt:            rt,
		limiter:       limiter,
		metrics:       rt.metrics,
		catalog:       make(map[ID]*activation),
		collectorStop: make(chan struct{}),
		collectorDone: make(chan struct{}),
	}
}

// Activations returns the number of live activations (for tests and
// benchmark reporting).
func (s *Silo) Activations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.catalog)
}

// handle is the transport-facing entry point for messages addressed to
// actors this silo should host.
func (s *Silo) handle(ctx context.Context, req transport.Request) (any, error) {
	// Merge the sender's HLC stamp before anything else runs, so every
	// event this delivery causes — service RPCs included — orders after
	// the send. Only a sender that records events stamps its frames.
	if req.HLC != 0 {
		s.rt.tracer.ObserveHLC(req.HLC)
	}
	// Reserved service kinds (replication RPCs) bypass actor resolution;
	// a runtime with no services pays one atomic load and a nil check.
	if h := s.rt.service(req.TargetKind); h != nil {
		return h(ctx, s.name, req)
	}
	id := ID{Kind: req.TargetKind, Key: req.TargetKey}
	// An empty sender is an external client; both that and another silo's
	// name count as a remote hop for trace attribution.
	remote := req.Sender != s.name
	return s.deliver(ctx, id, req.Payload, req.Method != "tell", req.Chain, req.Trace, remote)
}

// replyChans recycles awaited calls' reply channels. One goes back only
// once answered: a caller that gave up drops it, as the turn still answers
// into it, exactly once (respond). transport.respChans keeps the same rule.
var replyChans = sync.Pool{New: func() any { return make(chan turnResult, 1) }}

// deliver routes one message to the actor's activation, creating it if
// needed, and waits for the reply when needReply is set.
func (s *Silo) deliver(ctx context.Context, id ID, msg any, needReply bool, chain []string, trace telemetry.SpanContext, remote bool) (any, error) {
	var reply chan turnResult
	turnCtx := ctx
	if needReply {
		reply = replyChans.Get().(chan turnResult)
	} else {
		// One-way deliveries are acknowledged at enqueue, so the turn runs
		// under nothing of the sender's: not its cancellation or deadline,
		// and not its values. The only value the runtime puts in a context
		// is the sending turn's span (telemetry.WithSpan), and a told turn
		// that is recorded carries its own (activation.context).
		turnCtx = context.Background()
	}
	env := s.envelope(turnCtx, msg, chain, trace, remote)
	env.reply = reply
	for {
		act, err := s.resolve(ctx, id)
		if err != nil {
			return nil, err
		}
		if act.push(env) {
			break
		}
		// The activation closed between resolve and push; wait for its
		// teardown to finish, then re-resolve.
		select {
		case <-act.box.teardownDone():
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if !needReply {
		return nil, nil
	}
	select {
	case res := <-reply:
		replyChans.Put(reply)
		return res.val, res.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// envelope builds the queued form of one inbound message; the caller adds
// where the turn's result goes.
func (s *Silo) envelope(ctx context.Context, msg any, chain []string, trace telemetry.SpanContext, remote bool) envelope {
	env := envelope{ctx: ctx, msg: msg, chain: chain}
	if s.rt.tracer.Enabled() { // the one check a disabled recorder costs here
		env.trace = trace
		env.remote = remote
		if trace.Sampled {
			// The enqueue timestamp feeds the span's mailbox-wait
			// component; only sampled messages pay the clock read.
			env.enqueuedAt = s.rt.clk.Now()
		}
	}
	return env
}

// resolve returns the live activation for id on this silo, activating the
// actor if this silo wins the directory race. It returns wrongSiloError
// when another silo holds the activation.
func (s *Silo) resolve(ctx context.Context, id ID) (*activation, error) {
	cfg, ok := s.rt.kind(id.Kind)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownKind, id.Kind)
	}
	for {
		act, err := s.resolveOnce(id, cfg, false)
		if err != errMidTeardown {
			return act, err
		}
		// Yield and retry.
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		default:
		}
		waitTimer := s.rt.clk.NewTimer(100 * time.Microsecond)
		select {
		case <-ctx.Done():
			waitTimer.Stop()
			return nil, ctx.Err()
		case <-waitTimer.C():
		}
	}
}

// errMidTeardown is resolveOnce's answer while the actor's previous
// activation on this silo is still deactivating: registered here, no
// longer in the catalog. resolve waits it out; a multi-actor call, which
// must not block its batch on one target, reports the slot transient.
var errMidTeardown = fmt.Errorf("core: previous activation still deactivating: %w", ErrTransient)

// resolveOnce is one non-blocking pass of resolve. sharedKey says id.Key
// is a slice of memory shared with other keys (the targets of a decoded
// MultiKind frame): an activation created for it keeps a copy instead, so
// one long-lived actor does not hold a whole frame's keys in memory.
func (s *Silo) resolveOnce(id ID, cfg *kindConfig, sharedKey bool) (*activation, error) {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return nil, s.closingErr()
	}
	if act, ok := s.catalog[id]; ok {
		s.mu.Unlock()
		return act, nil
	}
	if me, ok := s.moved[id]; ok {
		if s.rt.clk.Now().Before(me.until) {
			s.mu.Unlock()
			return nil, &wrongSiloError{Actor: id.String(), Winner: me.target}
		}
		delete(s.moved, id)
	}
	s.mu.Unlock()

	reg, err := s.rt.directory.Register(id.String(), s.name)
	if err != nil {
		if !errors.Is(err, directory.ErrAlreadyRegistered) {
			return nil, err
		}
		if reg.Silo != s.name {
			return nil, &wrongSiloError{Actor: id.String(), Winner: reg.Silo}
		}
		return nil, errMidTeardown
	}

	if sharedKey {
		id.Key = strings.Clone(id.Key)
	}
	act := newActivation(id, s, cfg, reg)
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		s.rt.directory.Unregister(reg)
		return nil, s.closingErr()
	}
	s.catalog[id] = act
	s.catalogPeak = max(s.catalogPeak, len(s.catalog))
	s.mu.Unlock()
	s.workers.handOff(act) // the first visit activates it
	return act, nil
}

// closingErr is what a silo that has stopped taking work answers. While
// the runtime lives that is a property of the moment — the silo crashed
// or is being decommissioned, and a retry re-places the actor on a live
// one — so it is transient; only a runtime shutdown is ErrShutdown.
func (s *Silo) closingErr() error {
	if s.rt.isShutdown() {
		return ErrShutdown
	}
	return fmt.Errorf("core: silo %s is closing: %w", s.name, ErrTransient)
}

// catalogShrinkAbove is the peak population past which a catalog that
// drains to empty is made afresh: a Go map never gives buckets back. A silo
// cycling between no activation and a few keeps its map, allocating nothing.
const catalogShrinkAbove = 1024

// removeActivation drops a fully deactivated activation from the catalog.
func (s *Silo) removeActivation(a *activation) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, ok := s.catalog[a.id]; ok && cur == a {
		delete(s.catalog, a.id)
		if len(s.catalog) == 0 && s.catalogPeak > catalogShrinkAbove {
			s.catalog = make(map[ID]*activation)
			s.catalogPeak = 0
		}
	}
}

// collector periodically deactivates idle activations, the analog of
// Orleans reclaiming grains that "have been standing idle for too long".
func (s *Silo) collector(every time.Duration) {
	defer close(s.collectorDone)
	t := s.rt.clk.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-s.collectorStop:
			return
		case <-t.C():
			s.collectIdle()
		}
	}
}

func (s *Silo) collectIdle() {
	now := s.rt.clk.Now()
	s.mu.Lock()
	for id, me := range s.moved {
		if now.After(me.until) {
			delete(s.moved, id)
		}
	}
	candidates := make([]*activation, 0)
	for _, act := range s.catalog {
		idleAfter := act.cfg.idleAfter
		if idleAfter == 0 {
			idleAfter = s.rt.cfg.IdleAfter
		}
		if act.idleFor(now) >= idleAfter {
			candidates = append(candidates, act)
		}
	}
	s.mu.Unlock()
	// One sweep can close thousands of activations, far more than the
	// silo parks workers for; handed off, each would start a goroutine,
	// and the Go runtime never gives a goroutine's descriptor back. A few
	// lanes share the sweep instead: a lane flips the owned bit and is
	// itself the worker of every activation it closes.
	var next atomic.Int64
	lane := func() {
		growStack(0)
		c := new(Context) // a lane is a worker: one Context for all its visits
		for i := next.Add(1) - 1; i < int64(len(candidates)); i = next.Add(1) - 1 {
			if candidates[i].box.closeIfEmpty() {
				candidates[i].visit(c)
			}
		}
	}
	for n := min(len(candidates), 64); n > 0; n-- {
		go lane()
	}
}

// crashAll abruptly kills every activation: mailboxes close, queued and
// in-flight work fails transient, and teardown skips hooks and state
// writes — in-memory state is lost exactly as a process crash would lose
// it. It does not wait for the teardowns: a crash is not a drain.
func (s *Silo) crashAll() {
	for _, a := range s.stop(true) {
		a.close()
	}
}

// stop marks the silo closing — it resolves no more activations and its
// parked workers exit — and returns the activations it still holds. A
// crash marks them crashed first: a turn that starts on the corpse could
// still get a write acknowledged beside its successor's.
func (s *Silo) stop(crashed bool) []*activation {
	s.mu.Lock()
	s.closing = true
	acts := make([]*activation, 0, len(s.catalog))
	for _, a := range s.catalog {
		if crashed {
			a.crashed.Store(true)
		}
		acts = append(acts, a)
	}
	s.mu.Unlock()
	s.workers.stop()
	return acts
}

// drainAll synchronously deactivates every activation (shutdown path).
func (s *Silo) drainAll(ctx context.Context) error {
	acts := s.stop(false)
	for _, a := range acts {
		a.close()
	}
	for _, a := range acts {
		select {
		case <-a.box.teardownDone():
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return nil
}

func isNotFound(err error) bool { return errors.Is(err, kvstore.ErrNotFound) }
