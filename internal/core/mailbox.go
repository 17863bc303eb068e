package core

import (
	"context"
	"sync"
	"time"

	"aodb/internal/telemetry"
)

// envelope is one queued message for an activation.
type envelope struct {
	ctx   context.Context
	msg   any
	reply chan turnResult // nil for one-way sends and gathered calls
	chain []string        // synchronous call chain, for cycle detection

	// gather and slot route the turn's result into a multi-actor call's
	// shared reply (see multi.go) instead of a reply channel.
	gather *gather
	slot   int32

	// Tracing context, populated only while the runtime's tracer is
	// enabled (zero otherwise, costing nothing).
	trace      telemetry.SpanContext
	enqueuedAt time.Time // when the message entered the mailbox (sampled only)
	remote     bool      // arrived over a cross-silo or external hop
}

type turnResult struct {
	val any
	err error
}

// mailbox is an unbounded FIFO queue with a cooperative close protocol.
// It is unbounded on purpose: per-actor queues in Orleans are unbounded
// too, and backpressure in this runtime comes from the silo's capacity
// limiter. An unbounded queue is also what lets the latency-percentile
// experiments exhibit honest queueing delay instead of tail-dropping.
//
// No goroutine waits on a mailbox. The owned bit says a worker holds the
// activation (or has been handed it): push, close and closeIfEmpty report
// the idle→owned flip, and whoever flips it hands the activation to a
// worker (or is one); the worker gives the bit back inside pop, in the critical section
// that found the queue empty, so a push either lands before that pop or
// flips the bit again. Open and unowned implies empty; a closed mailbox
// stays owned for good, by the worker that tears the activation down. The
// zero value is an open, idle, empty mailbox.
type mailbox struct {
	mu sync.Mutex
	// q[head:] are the queued envelopes; q[:head] are popped and zeroed.
	q      []envelope
	head   int
	closed bool
	owned  bool
}

// popState is what pop found.
type popState uint8

const (
	popped   popState = iota // an envelope: run its turn
	released                 // open and empty: the worker no longer owns the activation
	drained                  // closed and empty: the worker tears the activation down
)

// push enqueues env. ok is false if the mailbox has been closed (the
// activation is deactivating and the caller must re-resolve the actor);
// wake is true if the push flipped the owned bit.
func (m *mailbox) push(env envelope) (ok, wake bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false, false
	}
	m.q = append(m.q, env)
	wake = !m.owned
	m.owned = true
	return true, wake
}

// pop dequeues the next envelope for the worker that owns the mailbox; it
// never blocks. An empty mailbox is released, or — closed, or closed here
// because the activation asked for that with closeOnIdle — reported
// drained, once.
func (m *mailbox) pop(closeOnIdle bool) (envelope, popState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.head == len(m.q) {
		if m.closed || closeOnIdle {
			m.closed = true
			return envelope{}, drained
		}
		m.owned = false
		return envelope{}, released
	}
	env := m.q[m.head]
	m.head++
	// Advancing a head index keeps a pop O(1) however deep the backlog is.
	// Once more than half the slice is dead the live part moves to the
	// front, so the slice is reused instead of growing for ever; a move
	// copies fewer envelopes than were popped since the last one. Popped
	// slots are zeroed, here or by the move, to drop what they referenced.
	if m.head <= len(m.q)/2 {
		m.q[m.head-1] = envelope{}
		return env, popped
	}
	n := copy(m.q, m.q[m.head:])
	clear(m.q[n:])
	m.q = m.q[:n]
	m.head = 0
	return env, popped
}

// closeIfEmpty closes the mailbox if it is idle and reports whether it did,
// which flips the owned bit. It refuses while a worker owns the mailbox —
// a turn is queued or running — so traffic keeps an activation alive; the
// idle collector relies on that.
func (m *mailbox) closeIfEmpty() (wake bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.owned {
		return false
	}
	m.closed, m.owned = true, true
	return true
}

// close closes the mailbox unconditionally; queued envelopes are still
// drained by pop. wake is true if the call flipped the owned bit.
func (m *mailbox) close() (wake bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	wake = !m.owned
	m.owned = true
	return wake
}

// depth reports the number of queued messages, for introspection gauges.
func (m *mailbox) depth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.q) - m.head
}
