package core

import (
	"context"
	"errors"
	"time"

	"aodb/internal/clock"
	"aodb/internal/kvstore"
	"aodb/internal/telemetry"
)

// Context is passed to every actor turn. It carries the caller's
// context.Context (cancellation, deadlines) plus the actor-facing runtime
// surface: identity, messaging, and persistence.
//
// A Context belongs to whatever runs the turn, not to the actor: a worker
// resets its own for every turn and lifecycle hook it runs, and a
// NonBlocking multi-actor frame's inline turns share one that lives in the
// frame. It is valid only for the duration of the turn that received it;
// actors must not retain it across turns, nor hand it to a goroutine that
// outlives the turn. A nested turn never shares its caller's Context: it
// runs on a worker, or inline under a frame's own, and a caller's turn may
// be blocked beneath it on the same goroutine.
type Context struct {
	context.Context
	rt    *Runtime
	silo  *Silo
	self  ID
	act   *activation
	chain []string
}

// Self returns the identity of the actor processing this turn.
func (c *Context) Self() ID { return c.self }

// SiloName returns the name of the silo hosting this activation.
func (c *Context) SiloName() string { return c.silo.name }

// Clock returns the runtime clock. Actors use it instead of time.Now so
// simulations and tests control time.
func (c *Context) Clock() clock.Clock { return c.rt.clk }

// Call invokes another actor and waits for its reply. The runtime tracks
// the chain of awaited calls and fails fast with ErrCallCycle when the
// target is already waiting in it, since a cycle would deadlock the
// single-threaded mailboxes involved. A Tell starts a new chain.
func (c *Context) Call(id ID, msg any) (any, error) {
	trace, sp, start := c.childTrace()
	v, err := c.rt.call(c.Context, c.silo.name, c.callChain(), id, msg, true, trace, "")
	if sp != nil {
		sp.AddNested(c.rt.clk.Since(start))
	}
	return v, err
}

// Tell sends a one-way message to another actor. A Tell starts a new call
// chain: it is acknowledged once the message is queued, so the teller never
// waits for the told turn, and that turn cannot close a deadlock cycle. It
// may Call its teller back, and an actor may Tell itself.
func (c *Context) Tell(id ID, msg any) error {
	trace, sp, start := c.childTrace()
	_, err := c.rt.call(c.Context, c.silo.name, nil, id, msg, false, trace, "")
	if sp != nil {
		sp.AddNested(c.rt.clk.Since(start))
	}
	return err
}

// childTrace returns the trace context outgoing calls from this turn
// should carry, plus the current span and start time for nested-time
// accounting. All zero when the turn is unsampled.
func (c *Context) childTrace() (telemetry.SpanContext, *telemetry.Span, time.Time) {
	sp := c.act.cur
	if sp == nil {
		return telemetry.SpanContext{}, nil, time.Time{}
	}
	return sp.ChildContext(), sp, c.rt.clk.Now()
}

// callChain is the chain an awaited Call from this turn carries: the turn's
// own chain, then this actor by its registration, which is its ID rendered
// once. It is a fresh slice, since the callee holds it for its whole turn.
func (c *Context) callChain() []string {
	out := make([]string, len(c.chain), len(c.chain)+1)
	copy(out, c.chain)
	return append(out, c.act.reg.Actor)
}

// WriteState persists the actor's state now — the analog of Orleans'
// WriteStateAsync. The write is charged against the state table's
// provisioned throughput, so hot-path writes can block; see the paper's
// durability discussion in Section 5.
func (c *Context) WriteState() error {
	return c.act.writeState(c.Context)
}

// Table returns an auxiliary table in the runtime's store, creating it
// (unlimited throughput) if needed. Actors use it for data that outgrows
// their own state — e.g. sensor channels archiving closed window segments
// so long-period historical queries stay answerable after the in-memory
// window moves on. Returns an error when the runtime has no store.
func (c *Context) Table(name string) (*kvstore.Table, error) {
	if c.rt.cfg.Store == nil {
		return nil, errors.New("core: runtime has no store configured")
	}
	return c.rt.cfg.Store.EnsureTable(name, kvstore.Throughput{})
}

// DeactivateOnIdle requests prompt collection of this activation: it is
// torn down as soon as its mailbox drains — by the worker that finds it
// empty, in the same visit — rather than waiting for the idle collector.
func (c *Context) DeactivateOnIdle() { c.act.closeOnIdle.Store(true) }
