package transport

import (
	"context"
	"fmt"
	"sync"
	"time"

	"aodb/internal/clock"
	"aodb/internal/telemetry"
)

// BreakerOptions tunes the per-target circuit breakers.
type BreakerOptions struct {
	// FailureThreshold is how many consecutive unreachable failures open
	// the circuit to a node (default 5).
	FailureThreshold int
	// Cooldown is how long an open circuit rejects calls before letting a
	// single probe through (default 1 second).
	Cooldown time.Duration
	// Clock defaults to the real clock.
	Clock clock.Clock
	// OnTrip, when set, is called (outside the breaker lock) each time a
	// node's circuit transitions to open, with the failure streak that
	// tripped it. The flight journal hooks here; nil costs nothing.
	OnTrip func(node string, failures int)
}

// Breaker state machine per target node.
const (
	stateClosed = iota
	stateOpen
	stateHalfOpen
)

type breakerNode struct {
	state    int
	failures int
	trips    int64
	openedAt time.Time
	probing  bool // a half-open probe is in flight
}

// Breaker wraps a Transport with per-target-node circuit breakers. A node
// that keeps failing at the transport level (dead connections, failed
// dials, deregistration) trips its breaker: further calls fail fast with
// ErrCircuitOpen instead of hammering the dead node, which lets the
// runtime's retry layer re-place actors on live silos. After Cooldown the
// breaker goes half-open and admits one probe; a successful probe closes
// the circuit, a failed one re-opens it.
//
// Only unreachable failures (IsUnreachable) count: errors returned by the
// remote handler prove the node is alive and reset the breaker.
type Breaker struct {
	inner Transport
	opts  BreakerOptions

	mu    sync.Mutex
	nodes map[string]*breakerNode
	trips int64
}

// NewBreaker wraps inner with circuit breakers.
func NewBreaker(inner Transport, opts BreakerOptions) *Breaker {
	if opts.FailureThreshold <= 0 {
		opts.FailureThreshold = 5
	}
	if opts.Cooldown <= 0 {
		opts.Cooldown = time.Second
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real()
	}
	return &Breaker{inner: inner, opts: opts, nodes: make(map[string]*breakerNode)}
}

// Register passes through to the inner transport and resets the node's
// breaker: a (re-)registered node is known alive, so a silo restarting
// after a crash becomes routable immediately instead of after a cooldown.
func (b *Breaker) Register(node string, h Handler) error {
	if err := b.inner.Register(node, h); err != nil {
		return err
	}
	b.mu.Lock()
	delete(b.nodes, node)
	b.mu.Unlock()
	return nil
}

// Deregister forwards to the inner transport when it supports removal.
func (b *Breaker) Deregister(node string) {
	if d, ok := b.inner.(Deregisterer); ok {
		d.Deregister(node)
	}
}

// allow decides whether a call to node may proceed right now.
func (b *Breaker) allow(node string) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, ok := b.nodes[node]
	if !ok {
		return nil // closed by default; no entry allocated until a failure
	}
	switch n.state {
	case stateClosed:
		return nil
	case stateOpen:
		if b.opts.Clock.Since(n.openedAt) < b.opts.Cooldown {
			return fmt.Errorf("%w: %q", ErrCircuitOpen, node)
		}
		n.state = stateHalfOpen
		n.probing = true
		return nil // this caller is the probe
	default: // half-open
		if n.probing {
			return fmt.Errorf("%w: %q (probe in flight)", ErrCircuitOpen, node)
		}
		n.probing = true
		return nil
	}
}

// record updates node's breaker with a call outcome.
func (b *Breaker) record(node string, err error) {
	unreachable := err != nil && IsUnreachable(err)
	tripped := 0
	b.mu.Lock()
	n, ok := b.nodes[node]
	if !ok {
		if !unreachable {
			b.mu.Unlock()
			return // stay closed, allocate nothing on the happy path
		}
		n = &breakerNode{}
		b.nodes[node] = n
	}
	if !unreachable {
		// Any response from the node — success or a handler error —
		// proves it alive.
		n.state = stateClosed
		n.failures = 0
		n.probing = false
		b.mu.Unlock()
		return
	}
	n.failures++
	n.probing = false
	if n.state == stateHalfOpen || n.failures >= b.opts.FailureThreshold {
		if n.state != stateOpen {
			b.trips++
			n.trips++
			tripped = n.failures
		}
		n.state = stateOpen
		n.openedAt = b.opts.Clock.Now()
	}
	b.mu.Unlock()
	if tripped > 0 && b.opts.OnTrip != nil {
		b.opts.OnTrip(node, tripped)
	}
}

// Trips returns how many times any circuit has transitioned to open, for
// chaos-run reporting.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// Call delivers req through the node's breaker.
func (b *Breaker) Call(ctx context.Context, node string, req Request) (any, error) {
	if err := b.allow(node); err != nil {
		return nil, err
	}
	resp, err := b.inner.Call(ctx, node, req)
	b.record(node, err)
	return resp, err
}

// States reports every tracked node's breaker state, failure streak, and
// trip count for operator introspection (the telemetry /metrics surface
// exports these as aodb_breaker_* gauges). Nodes that never failed have
// no entry: they are closed by construction.
func (b *Breaker) States() []telemetry.BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := make([]telemetry.BreakerState, 0, len(b.nodes))
	for node, n := range b.nodes {
		state := "closed"
		switch n.state {
		case stateOpen:
			// An open breaker past its cooldown admits the next call as
			// a probe; report the state the next caller will see.
			if b.opts.Clock.Since(n.openedAt) < b.opts.Cooldown {
				state = "open"
			} else {
				state = "half-open"
			}
		case stateHalfOpen:
			state = "half-open"
		}
		out = append(out, telemetry.BreakerState{
			Node:     node,
			State:    state,
			Failures: n.failures,
			Trips:    n.trips,
		})
	}
	return out
}

// Open reports whether node's circuit is currently open (rejecting).
// Useful as a placement-view filter so new activations avoid dead silos.
func (b *Breaker) Open(node string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, ok := b.nodes[node]
	if !ok || n.state != stateOpen {
		return false
	}
	return b.opts.Clock.Since(n.openedAt) < b.opts.Cooldown
}

// Close shuts down the inner transport.
func (b *Breaker) Close() error { return b.inner.Close() }
