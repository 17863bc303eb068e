// Package transport moves actor messages between silos.
//
// Two implementations are provided. The Local transport connects silos
// living in one process and charges each delivery the latency a netsim
// Model assigns to the link — this is what the benchmark harness uses to
// reproduce the paper's multi-server EC2 deployment on a single machine.
// The TCP transport connects real processes with codec frames — a
// length, a binary header and a tagged payload (package codec) — over
// multiplexed connections, and backs the cmd/shmserver + cmd/shmload pair.
package transport

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"sync"
	"sync/atomic"

	"aodb/internal/clock"
	"aodb/internal/netsim"
	"aodb/internal/telemetry"
)

// Request is one actor invocation in flight between silos.
type Request struct {
	TargetKind string
	TargetKey  string
	Method     string
	Payload    any
	Sender     string // originating silo
	// Chain carries the synchronous call chain for cycle detection.
	Chain []string
	// Trace is the caller's trace context; the zero value means the
	// request is not sampled. Both transports carry it to the target
	// silo so turn spans parent correctly across the wire.
	Trace telemetry.SpanContext
	// HLC is the sender's hybrid-logical-clock stamp (zero when the
	// sender keeps no flight journal). Receivers merge it into their own
	// clock so events on both sides of the hop get a causal order.
	HLC uint64
	// SizeHint is the approximate encoded size in bytes used by the
	// network model; zero means a small control message.
	SizeHint int
}

// Handler processes an inbound request on the owning silo.
type Handler func(ctx context.Context, req Request) (any, error)

// Transport delivers requests to named silos.
type Transport interface {
	// Register binds the inbound handler for a silo hosted at this
	// endpoint. A silo must be registered before peers can call it.
	Register(node string, h Handler) error
	// Call delivers req to node and waits for the response.
	Call(ctx context.Context, node string, req Request) (any, error)
	// Close releases connections and stops serving.
	Close() error
}

// Errors reported by transports.
var (
	ErrUnknownNode = errors.New("transport: unknown node")
	ErrClosed      = errors.New("transport: closed")
	// ErrCircuitOpen reports a call rejected by an open circuit breaker;
	// the target silo has been failing and is being routed around.
	ErrCircuitOpen = errors.New("transport: circuit open")
)

// Deregisterer is implemented by transports that can take a node out of
// service at runtime (simulated silo crash, graceful decommission).
// Wrapper transports forward Deregister to their inner transport.
type Deregisterer interface {
	Deregister(node string)
}

// UnreachableError marks a delivery failure at the transport level — the
// target node could not be reached at all (dead connection, failed dial,
// deregistered node), as opposed to an error the target's handler
// returned. Unreachable failures are transient from the caller's point of
// view: the node may restart, or the actor may be re-placed elsewhere.
type UnreachableError struct {
	Node string
	Err  error
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("transport: %s unreachable: %v", e.Node, e.Err)
}

func (e *UnreachableError) Unwrap() error { return e.Err }

// IsUnreachable reports whether err indicates the target node could not
// be reached at the transport level. Circuit-open rejections count too:
// they stand in for the unreachability the breaker observed.
func IsUnreachable(err error) bool {
	var u *UnreachableError
	return errors.As(err, &u) || errors.Is(err, ErrCircuitOpen)
}

// RemoteError wraps an error string that crossed the wire, with the
// retry classification the serving node gave the original (see Transient).
type RemoteError struct {
	Node      string
	Msg       string
	Transient bool
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("remote error from %s: %s", e.Node, e.Msg)
}

// TransientError reports what the serving node's error said of itself.
func (e *RemoteError) TransientError() bool { return e.Transient }

// Transient reports whether err may be retried as far as a layer that
// knows no error by name can tell: an error anywhere in the chain
// classifies itself through a TransientError() bool method, or the
// failure is unreachability or deadline expiry. It is the bit a TCP
// error reply carries, and the part of core.Transient below core.
func Transient(err error) bool {
	var t interface{ TransientError() bool }
	if errors.As(err, &t) {
		return t.TransientError()
	}
	return IsUnreachable(err) || errors.Is(err, context.DeadlineExceeded)
}

// RedirectError reports that the addressed node rejected the request and
// named the node that should serve it — the wire form of core's
// wrong-silo answer (an activation race lost, or an actor migrated
// away). It is transient: re-routing to Target is expected to succeed.
type RedirectError struct {
	Node   string // the node that answered
	Target string // the node it redirected to
	Msg    string
}

func (e *RedirectError) Error() string {
	return fmt.Sprintf("transport: %s redirects to %s: %s", e.Node, e.Target, e.Msg)
}

// RedirectTarget names the node to re-route to; core's wrong-silo error
// implements the same method, so routing code handles local and remote
// redirects uniformly.
func (e *RedirectError) RedirectTarget() string { return e.Target }

// TransientError marks redirects safe to retry (at the new target).
func (e *RedirectError) TransientError() bool { return true }

// Local is an in-process transport with simulated link latency. It is the
// default for tests, examples, and the benchmark harness.
type Local struct {
	// handlers is copy-on-write: every call reads it with one atomic load,
	// writers swap in a new map under mu. A nil map is a closed transport.
	handlers atomic.Pointer[map[string]Handler]
	mu       sync.Mutex
	model    *netsim.Model
	clk      clock.Clock

	localCalls  atomic.Int64
	remoteCalls atomic.Int64
}

// NewLocal returns a local transport. model may be nil for zero-latency
// links; clk may be nil for the real clock.
func NewLocal(model *netsim.Model, clk clock.Clock) *Local {
	if clk == nil {
		clk = clock.Real()
	}
	l := &Local{model: model, clk: clk}
	l.handlers.Store(&map[string]Handler{})
	return l
}

// Register binds node's inbound handler.
func (l *Local) Register(node string, h Handler) error {
	if h == nil {
		return errors.New("transport: nil handler")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	old := l.handlers.Load()
	if old == nil {
		return ErrClosed
	}
	if _, ok := (*old)[node]; ok {
		return fmt.Errorf("transport: node %q already registered", node)
	}
	next := maps.Clone(*old)
	next[node] = h
	l.handlers.Store(&next)
	return nil
}

// Deregister removes a node (used when simulating silo failure).
func (l *Local) Deregister(node string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	old := l.handlers.Load()
	if old == nil {
		return
	}
	next := maps.Clone(*old)
	delete(next, node)
	l.handlers.Store(&next)
}

func (l *Local) handler(node string) (Handler, error) {
	m := l.handlers.Load()
	if m == nil {
		return nil, ErrClosed
	}
	h, ok := (*m)[node]
	if !ok {
		// A node the local transport does not know is either never-added
		// or deregistered (simulated crash); both are unreachability.
		return nil, &UnreachableError{Node: node, Err: fmt.Errorf("%w: %q", ErrUnknownNode, node)}
	}
	return h, nil
}

func (l *Local) delay(ctx context.Context, from, to string, size int) error {
	if l.model == nil {
		return nil
	}
	d := l.model.Delay(from, to, size)
	if d <= 0 {
		return nil
	}
	t := l.clk.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C():
		return nil
	}
}

// Call delivers req to node, paying the simulated request and response
// latency, and returns the handler's result.
func (l *Local) Call(ctx context.Context, node string, req Request) (any, error) {
	h, err := l.handler(node)
	if err != nil {
		return nil, err
	}
	if req.Sender == node {
		l.localCalls.Add(1)
	} else {
		l.remoteCalls.Add(1)
	}
	if err := l.delay(ctx, req.Sender, node, req.SizeHint); err != nil {
		return nil, err
	}
	resp, err := h(ctx, req)
	if err != nil {
		return nil, err
	}
	if err := l.delay(ctx, node, req.Sender, 0); err != nil {
		return nil, err
	}
	return resp, nil
}

// Stats returns how many calls stayed on their silo vs crossed silos.
// Calls from external clients (empty sender) count as remote.
func (l *Local) Stats() (local, remote int64) {
	return l.localCalls.Load(), l.remoteCalls.Load()
}

// Close shuts the transport down.
func (l *Local) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.handlers.Store(nil)
	return nil
}
