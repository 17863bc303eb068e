package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"aodb/internal/codec"
	"aodb/internal/telemetry"
	"aodb/internal/transport"
)

// MigrateKind is the reserved transport target kind for live actor
// hand-off RPCs between silos ('!' keeps it out of the actor namespace,
// like replication's "!repl" and gossip's "!gossip").
const MigrateKind = "!migrate"

// movedTTL is how long a silo remembers that an actor was handed off
// (redirecting calls that still land here), long enough for every
// caller's membership view and routing cache to converge on the new
// placement.
const movedTTL = 2 * time.Minute

type movedEntry struct {
	target string
	until  time.Time
}

// migrateDrain asks a silo to hand off one actor: deactivate it with a
// state flush and leave a redirect to Target behind. BudgetMs bounds the
// drain; past it the hand-off is forced (the laggard activation is
// fenced and its registration evicted so the target can proceed).
type migrateDrain struct {
	Target   string
	BudgetMs int64
	// Corr carries the migration's flight-journal correlation id so the
	// drain events a remote source records group with the coordinator's.
	Corr uint64
}

// migrateActivate asks a silo to activate one actor (the second half of
// a hand-off).
type migrateActivate struct {
	Corr uint64
}

// migratePrepare asks the target silo to clear any stale redirect
// marker for the actor before the source drains. Without this, moving
// an actor back to a silo it previously left makes the two markers
// point at each other and redirected calls ping-pong until their hop
// budget runs out.
type migratePrepare struct {
	Corr uint64
}

func init() {
	codec.Register(migrateDrain{})
	codec.Register(migrateActivate{})
	codec.Register(migratePrepare{})
}

// Migrate moves actor id to the target silo: drain-with-state-flush at
// the source (its final write lands before the activation's directory
// registration disappears), then re-activation at the target, which
// loads that state. Calls arriving at the old silo meanwhile are
// redirected — the same wrong-silo path an activation race uses — so
// nothing is lost or double-executed. If the source cannot finish
// draining within ctx's budget the hand-off is forced: the lagging
// activation is fenced (its late state writes fail as stale) and the
// target activates anyway.
//
// Migrating an actor that is not currently active just activates it at
// the target; migrating to the silo already hosting it is a no-op.
func (rt *Runtime) Migrate(ctx context.Context, id ID, target string) error {
	if err := id.Validate(); err != nil {
		return err
	}
	if _, ok := rt.kind(id.Kind); !ok {
		return fmt.Errorf("%w: %q", ErrUnknownKind, id.Kind)
	}
	if rt.isShutdown() {
		return ErrShutdown
	}
	// One correlation id groups every phase event of this hand-off — on
	// this silo and, riding the RPC payloads, on the source and target —
	// so a merged timeline shows prepare→drain→activate as one story.
	corr := rt.tracer.NewCorr()
	if reg, ok := rt.directory.Lookup(id.String()); ok && reg.Silo != target {
		rt.tracer.Record(telemetry.MigratePrepare, id.String(), corr, "from="+reg.Silo+" to="+target)
		// Clear any stale marker at the target first (it may have hosted
		// this actor before): during the drain, redirected calls must fall
		// through to the directory there, not bounce straight back here.
		// Best-effort — if the target is truly down, the activate half
		// below reports it.
		if tgt, hosted := rt.Silo(target); hosted {
			tgt.clearMoved(id)
		} else {
			rt.cfg.Transport.Call(ctx, target, rt.migrateReq(id, migratePrepare{Corr: corr}))
		}
		if src, hosted := rt.Silo(reg.Silo); hosted {
			if err := src.migrateOut(ctx, id, target, corr); err != nil {
				return err
			}
		} else {
			budget := int64(0)
			if dl, ok := ctx.Deadline(); ok {
				budget = time.Until(dl).Milliseconds()
			}
			_, err := rt.cfg.Transport.Call(ctx, reg.Silo,
				rt.migrateReq(id, migrateDrain{Target: target, BudgetMs: budget, Corr: corr}))
			if err != nil {
				if !transport.IsUnreachable(err) {
					return err
				}
				// The source is gone; its registration is stale. Evict it so
				// the target can claim the actor.
				rt.directory.Unregister(reg)
			}
		}
	}
	if tgt, hosted := rt.Silo(target); hosted {
		if err := tgt.activateFor(ctx, id, corr); err != nil {
			return err
		}
	} else {
		_, err := rt.cfg.Transport.Call(ctx, target, rt.migrateReq(id, migrateActivate{Corr: corr}))
		if err != nil && !IsWrongSilo(err) {
			return err
		}
	}
	rt.metrics.Counter("core.migrations").Inc()
	return nil
}

// migrateReq builds a MigrateKind RPC, HLC-stamped when events are being
// recorded so remote phase events order after the coordinator's.
func (rt *Runtime) migrateReq(id ID, payload any) transport.Request {
	return transport.Request{
		TargetKind: MigrateKind,
		TargetKey:  id.String(),
		Method:     "call",
		Payload:    payload,
		HLC:        rt.tracer.StampHLC(),
	}
}

// handleMigrate serves MigrateKind RPCs (registered in New), dispatching
// drain/activate halves of a hand-off to the addressed hosted silo.
func (rt *Runtime) handleMigrate(ctx context.Context, silo string, req transport.Request) (any, error) {
	s, ok := rt.Silo(silo)
	if !ok {
		return nil, fmt.Errorf("core: no silo %q for migrate rpc", silo)
	}
	id, err := ParseID(req.TargetKey)
	if err != nil {
		return nil, err
	}
	switch p := req.Payload.(type) {
	case migrateDrain:
		dctx := ctx
		if p.BudgetMs > 0 {
			var cancel context.CancelFunc
			dctx, cancel = context.WithTimeout(ctx, time.Duration(p.BudgetMs)*time.Millisecond)
			defer cancel()
		}
		return nil, s.migrateOut(dctx, id, p.Target, p.Corr)
	case migrateActivate:
		return nil, s.activateFor(ctx, id, p.Corr)
	case migratePrepare:
		s.clearMoved(id)
		return nil, nil
	}
	return nil, fmt.Errorf("core: bad migrate payload %T", req.Payload)
}

// migrateOut is the source half of a hand-off: leave a redirect marker,
// close the activation's mailbox, and wait for its teardown (which
// flushes state and unregisters it). If ctx expires first the hand-off
// is forced: the laggard is fenced so any state write it still attempts
// fails as stale, and its registration is evicted so the target can
// register. The marker is placed before the drain so calls racing the
// hand-off queue onto the draining mailbox (failing over to the
// redirect once it closes) rather than re-activating here.
func (s *Silo) migrateOut(ctx context.Context, id ID, target string, corr uint64) error {
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return s.closingErr()
	}
	act, active := s.catalog[id]
	if s.moved == nil {
		s.moved = make(map[ID]movedEntry)
	}
	s.moved[id] = movedEntry{target: target, until: s.rt.clk.Now().Add(movedTTL)}
	s.mu.Unlock()
	if !active {
		return nil
	}
	act.close()
	select {
	case <-act.drained:
		s.metrics.Counter("core.migrations.out").Inc()
		s.rt.tracer.Record(telemetry.MigrateDrain, id.String(), corr, "to="+target)
		return nil
	case <-ctx.Done():
		act.fenced.Store(true)
		s.rt.directory.Unregister(act.reg)
		s.metrics.Counter("core.migrations.forced").Inc()
		s.rt.tracer.Record(telemetry.MigrateForced, id.String(), corr, "to="+target+" (laggard fenced)")
		return nil
	}
}

// clearMoved drops a redirect marker (hand-off prepare step).
func (s *Silo) clearMoved(id ID) {
	s.mu.Lock()
	delete(s.moved, id)
	s.mu.Unlock()
}

// activateFor is the target half of a hand-off: drop any stale redirect
// marker (the actor is moving here) and activate through the ordinary
// resolve path, so the registration race and state load behave exactly
// as they would for an incoming call. Losing the race to a third silo
// is fine — the actor is live, which is all a migration guarantees.
func (s *Silo) activateFor(ctx context.Context, id ID, corr uint64) error {
	s.mu.Lock()
	delete(s.moved, id)
	_, existed := s.catalog[id]
	s.mu.Unlock()
	if _, err := s.resolve(ctx, id); err != nil {
		if IsWrongSilo(err) {
			return nil
		}
		return err
	}
	if !existed {
		s.metrics.Counter("core.migrations.in").Inc()
		s.rt.tracer.Record(telemetry.MigrateActivate, id.String(), corr, "")
	}
	return nil
}

// ActiveIDs snapshots the IDs of this silo's live activations, sorted —
// the rebalancer's input for hash-diff planning.
func (s *Silo) ActiveIDs() []ID {
	s.mu.Lock()
	ids := make([]ID, 0, len(s.catalog))
	for id := range s.catalog {
		ids = append(ids, id)
	}
	s.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool {
		if ids[i].Kind != ids[j].Kind {
			return ids[i].Kind < ids[j].Kind
		}
		return ids[i].Key < ids[j].Key
	})
	return ids
}
