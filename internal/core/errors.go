package core

import (
	"errors"
	"fmt"

	"aodb/internal/transport"
)

// transientErr is the type of the runtime's retryable sentinels. Its
// method lets a layer core does not import — the transport, marking an
// error reply — classify them as Transient does.
type transientErr string

func (e transientErr) Error() string      { return string(e) }
func (transientErr) TransientError() bool { return true }

// Errors surfaced by the runtime.
var (
	// ErrUnknownKind reports a Call to a kind no silo has registered.
	ErrUnknownKind = errors.New("core: unknown actor kind")
	// ErrShutdown reports a Call on a runtime that has been shut down.
	ErrShutdown = errors.New("core: runtime shut down")
	// ErrCallCycle reports a synchronous call chain that revisits an
	// actor already waiting in the chain, which would deadlock its
	// single-threaded mailbox.
	ErrCallCycle = errors.New("core: call cycle detected")
	// ErrNoSilos reports a runtime with no silos added yet.
	ErrNoSilos error = transientErr("core: no silos in runtime")

	// ErrTransient marks errors that are safe to retry: the failure is a
	// property of the moment (an activation race, a dead silo being
	// routed around, a dropped message), not of the request. Errors carry
	// the mark via errors.Is; use Transient to classify.
	ErrTransient error = transientErr("core: transient failure")
	// ErrActorPanic marks a panic recovered inside an actor handler. The
	// panicking activation is poisoned and deactivated; the error is
	// permanent for the call that triggered it, but a fresh Call to the
	// same actor ID re-activates it. Match with errors.Is(err,
	// ErrActorPanic) or errors.As with *PanicError.
	ErrActorPanic = errors.New("core: actor panicked")
	// ErrStaleActivation reports a state write fenced off by the version
	// check: another activation of the same actor has written since this
	// one loaded. The stale activation deactivates itself; retrying
	// reaches the fresh one, so the error is transient.
	ErrStaleActivation error = transientErr("core: stale activation fenced")
)

// PanicError is the recovered panic from an actor handler, carrying the
// panic value and the goroutine stack at the point of recovery.
type PanicError struct {
	Actor string
	Value any
	Stack string
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: actor %s panicked: %v", e.Actor, e.Value)
}

// Is marks PanicError as ErrActorPanic for errors.Is.
func (e *PanicError) Is(target error) bool { return target == ErrActorPanic }

// wrongSiloError is returned by a silo that lost the activation race for
// an actor; the runtime re-routes the call to the winner.
type wrongSiloError struct {
	Actor  string
	Winner string
}

func (e *wrongSiloError) Error() string {
	return fmt.Sprintf("core: %s is activated on %s", e.Actor, e.Winner)
}

// Is marks the wrong-silo race as transient for errors.Is.
func (e *wrongSiloError) Is(target error) bool { return target == ErrTransient }

// RedirectTarget names the silo holding the activation, matching
// transport.RedirectError so routing treats local and remote wrong-silo
// answers identically.
func (e *wrongSiloError) RedirectTarget() string { return e.Winner }

// IsWrongSilo reports whether err is the wrong-silo activation race: the
// addressed silo lost (or never entered) the race — or the actor was
// migrated away — and the answer names the winner. It matches both the
// in-process error and its wire form (transport.RedirectError). Callers
// normally never see it — the runtime re-routes internally — but it can
// surface in the failure chain after retries are exhausted.
func IsWrongSilo(err error) bool {
	return redirectTarget(err) != ""
}

// redirectTarget extracts the re-route target from a wrong-silo answer
// (local or wire form), or "".
func redirectTarget(err error) string {
	var r interface{ RedirectTarget() string }
	if errors.As(err, &r) {
		return r.RedirectTarget()
	}
	return ""
}

// Transient reports whether err is safe to retry. The taxonomy:
//
//   - transient: the wrong-silo activation race, transport-level
//     unreachability (dead connection, deregistered/crashed silo, open
//     circuit breaker), a cluster with no silos (mid-failover), a fenced
//     stale activation, and deadline expiry (the work may succeed with a
//     fresh budget);
//   - permanent: everything else — unknown kinds, invalid IDs, call
//     cycles, runtime shutdown, actor panics, and any error an actor's
//     own handler returned (the turn ran; retrying would re-execute it).
//
// Errors classify themselves by implementing `TransientError() bool`
// anywhere in their chain: core's own transient sentinels do, so does the
// replication layer's quorum failure (replicas come back; the caller saw
// no ack, so retrying is safe), and so does an error that crossed the
// wire, which reports what the serving silo's Transient said of it.
func Transient(err error) bool {
	return err != nil && (errors.Is(err, ErrTransient) || transport.Transient(err))
}
