// Package txn adds multi-actor ACID transactions to the runtime — the
// "transactions across actors" feature the paper cites as the AODB gap
// being closed in Orleans, and the mechanism its Section 4.4 recommends
// for keeping relationship constraints consistent across actors.
//
// The protocol is two-phase commit with per-actor locks:
//
//  1. The coordinator sends Prepare{TxnID, Op} to every participant. A
//     participant validates the operation against its current state,
//     stages it, and takes a lease-bounded lock.
//  2. If every participant votes yes, the coordinator sends Commit (the
//     staged op is applied atomically in the actor's turn); otherwise
//     Abort (the stage is dropped).
//
// Conflicts are handled optimistically: a Prepare against a locked
// participant fails with ErrConflict, the coordinator aborts the whole
// transaction and retries with randomized exponential backoff. Because no
// participant ever blocks its mailbox waiting for a lock, the system
// cannot deadlock; lock leases expire so a crashed coordinator cannot
// strand a participant forever.
//
// Actors opt in by embedding State and routing transaction messages to it
// from Receive; see the package tests and internal/cattle for usage.
package txn

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/core"
)

// Errors reported by the transaction layer.
var (
	// ErrConflict reports a Prepare that lost to a concurrent transaction.
	ErrConflict = errors.New("txn: conflicting transaction holds the lock")
	// ErrAborted reports a transaction that could not commit.
	ErrAborted = errors.New("txn: aborted")
	// ErrNotPrepared reports a Commit for a transaction the participant
	// never prepared (or whose lease expired and was stolen).
	ErrNotPrepared = errors.New("txn: not prepared")
)

// Prepare asks a participant to validate and stage Op under TxnID.
type Prepare struct {
	TxnID string
	Op    any
}

// Commit applies a staged op.
type Commit struct{ TxnID string }

// Abort discards a staged op.
type Abort struct{ TxnID string }

// State is the participant-side 2PC bookkeeping an actor embeds. It is
// manipulated only from the actor's own turns, so it needs no locking of
// its own; the lease uses the runtime clock passed per call.
type State struct {
	holder  string
	staged  any
	expires time.Time
}

// Hooks define how a participant validates and applies staged operations.
type Hooks struct {
	// Validate inspects op against current state; returning an error votes
	// no without staging.
	Validate func(op any) error
	// Apply mutates actor state with a committed op.
	Apply func(op any) error
}

// DefaultLease bounds how long a staged lock survives without commit.
const DefaultLease = 5 * time.Second

// Handle processes a transaction message. The bool result reports whether
// msg was a transaction message at all (false means the actor should
// handle it itself). now is the actor's clock reading for lease checks.
func (s *State) Handle(now time.Time, msg any, h Hooks) (resp any, handled bool, err error) {
	switch m := msg.(type) {
	case Prepare:
		if s.holder != "" && s.holder != m.TxnID && now.Before(s.expires) {
			return nil, true, fmt.Errorf("%w (held by %s)", ErrConflict, s.holder)
		}
		if h.Validate != nil {
			if err := h.Validate(m.Op); err != nil {
				return nil, true, err
			}
		}
		s.holder = m.TxnID
		s.staged = m.Op
		s.expires = now.Add(DefaultLease)
		return nil, true, nil
	case Commit:
		if s.holder != m.TxnID {
			return nil, true, fmt.Errorf("%w: commit %s, holder %q", ErrNotPrepared, m.TxnID, s.holder)
		}
		op := s.staged
		s.clear()
		if h.Apply != nil {
			if err := h.Apply(op); err != nil {
				// Apply failing after a yes vote is a participant bug
				// (Validate must cover it); surface it loudly.
				return nil, true, fmt.Errorf("txn: apply after prepare failed: %w", err)
			}
		}
		return nil, true, nil
	case Abort:
		if s.holder == m.TxnID {
			s.clear()
		}
		return nil, true, nil
	default:
		return nil, false, nil
	}
}

func (s *State) clear() {
	s.holder = ""
	s.staged = nil
	s.expires = time.Time{}
}

// Coordinator runs two-phase commits over runtime actors.
type Coordinator struct {
	rt *core.Runtime
	// MaxAttempts bounds conflict retries (default 16).
	MaxAttempts int
	// Backoff is the initial retry backoff (default 1ms, doubling with
	// jitter up to 64x).
	Backoff time.Duration

	seq atomic.Uint64
	rng struct {
		sync.Mutex
		*rand.Rand
	}
}

// NewCoordinator returns a coordinator bound to rt.
func NewCoordinator(rt *core.Runtime) *Coordinator {
	c := &Coordinator{rt: rt, MaxAttempts: 16, Backoff: time.Millisecond}
	c.rng.Rand = rand.New(rand.NewSource(rt.Clock().Now().UnixNano()))
	return c
}

// Op pairs a participant with its operation.
type Op struct {
	Target core.ID
	Op     any
}

// Run executes ops atomically: either every participant applies its op or
// none does. It retries conflicting attempts with backoff before giving
// up with ErrAborted.
func (c *Coordinator) Run(ctx context.Context, ops []Op) error {
	if len(ops) == 0 {
		return nil
	}
	var lastErr error
	backoff := c.Backoff
	for attempt := 0; attempt < c.MaxAttempts; attempt++ {
		err := c.attempt(ctx, ops)
		if err == nil {
			return nil
		}
		lastErr = err
		if !errors.Is(err, ErrConflict) {
			return fmt.Errorf("%w: %v", ErrAborted, err)
		}
		// Randomized backoff breaks livelock between symmetric conflicting
		// coordinators.
		c.rng.Lock()
		jitter := time.Duration(c.rng.Int63n(int64(backoff) + 1))
		c.rng.Unlock()
		t := c.rt.Clock().NewTimer(backoff + jitter)
		select {
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		case <-t.C():
		}
		if backoff < 64*c.Backoff {
			backoff *= 2
		}
	}
	return fmt.Errorf("%w after %d attempts: %v", ErrAborted, c.MaxAttempts, lastErr)
}

func (c *Coordinator) attempt(ctx context.Context, ops []Op) error {
	txnID := fmt.Sprintf("txn-%d-%d", c.rt.Clock().Now().UnixNano(), c.seq.Add(1))
	prepared := make([]core.ID, 0, len(ops))
	var prepErr error
	for _, op := range ops {
		if _, err := c.rt.Call(ctx, op.Target, Prepare{TxnID: txnID, Op: op.Op}); err != nil {
			prepErr = err
			break
		}
		prepared = append(prepared, op.Target)
	}
	if prepErr != nil {
		for _, id := range prepared {
			_, _ = c.rt.Call(ctx, id, Abort{TxnID: txnID})
		}
		return prepErr
	}
	var commitErr error
	for _, op := range ops {
		if _, err := c.rt.Call(ctx, op.Target, Commit{TxnID: txnID}); err != nil && commitErr == nil {
			commitErr = err
		}
	}
	if commitErr != nil {
		// A participant failing to commit after voting yes leaves the
		// transaction partially applied; this is surfaced, not hidden —
		// the participant contract (Validate covers Apply) is violated.
		return fmt.Errorf("txn: partial commit of %s: %w", txnID, commitErr)
	}
	return nil
}
