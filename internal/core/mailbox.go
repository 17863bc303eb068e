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
type mailbox struct {
	mu   sync.Mutex
	cond *sync.Cond
	// q[head:] are the queued envelopes; q[:head] are popped and zeroed.
	q      []envelope
	head   int
	closed bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// push enqueues env, returning false if the mailbox has been closed (the
// activation is deactivating and the caller must re-resolve the actor).
func (m *mailbox) push(env envelope) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return false
	}
	m.q = append(m.q, env)
	m.cond.Signal()
	return true
}

// pop dequeues the next envelope, blocking while the mailbox is open and
// empty. It returns ok=false once the mailbox is closed and drained.
func (m *mailbox) pop() (envelope, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.head == len(m.q) && !m.closed {
		m.cond.Wait()
	}
	if m.head == len(m.q) {
		return envelope{}, false
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
		return env, true
	}
	n := copy(m.q, m.q[m.head:])
	clear(m.q[n:])
	m.q = m.q[:n]
	m.head = 0
	return env, true
}

// closeIfEmpty atomically closes the mailbox when it holds no messages,
// returning whether it closed. The idle collector uses this so that a
// message racing in keeps the activation alive.
func (m *mailbox) closeIfEmpty() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return true
	}
	if m.head < len(m.q) {
		return false
	}
	m.closed = true
	m.cond.Broadcast()
	return true
}

// close closes the mailbox unconditionally; queued envelopes will still be
// drained by pop. Used at runtime shutdown.
func (m *mailbox) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.cond.Broadcast()
}

// depth reports the number of queued messages, for introspection gauges.
func (m *mailbox) depth() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.q) - m.head
}
