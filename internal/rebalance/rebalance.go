// Package rebalance plans and executes live actor migrations when the
// cluster changes shape or a silo runs hot.
//
// Two signals drive it. The placement diff: under a deterministic
// strategy (consistent hashing), a membership change moves some actors'
// ideal homes, and every activation still sitting on its old home is a
// remote hop on every call until it moves — the planner computes
// exactly the hash-diff set. And the load signal: the recorder's
// top-K profile names the hottest activations on an overloaded silo, and
// gossip's piggybacked per-silo loads name the silos with headroom; the
// planner sheds the former to the latter. Execution is core.Migrate's
// live hand-off — drain with a state flush, redirect markers, version
// fences — so acked calls are neither lost nor double-executed while
// actors are in flight.
package rebalance

import (
	"context"
	"errors"
	"slices"
	"sync"
	"time"

	"aodb/internal/clock"
	"aodb/internal/cluster"
	"aodb/internal/core"
	"aodb/internal/metrics"
	"aodb/internal/placement"
)

// Move is one planned migration.
type Move struct {
	Actor  core.ID
	From   string
	To     string
	Reason string // "placement" or "overload"
}

// Config configures a Rebalancer. One Rebalancer plans for one silo —
// it only ever moves actors *off* Silo, so every cluster member runs
// its own and no coordination is needed (each source drains itself).
type Config struct {
	// Runtime hosts Silo and executes migrations. Required.
	Runtime *core.Runtime
	// Silo is the silo whose activations this rebalancer manages.
	Silo string
	// View is the live membership; migration targets come from its
	// members. Required.
	View cluster.Viewer
	// Strategy, when set, enables placement-diff planning: any local
	// activation whose Strategy.Place target is another silo is moved
	// there. Leave nil for non-deterministic strategies (random,
	// prefer-local) — they have no stable target to diff against.
	Strategy placement.Strategy
	// Loads reports the latest known per-silo load (gossip's piggybacked
	// Load values). Nil disables overload shedding.
	Loads func() map[string]int64
	// Every is the background planning period (default 10s); membership
	// events trigger immediate rounds via Notify.
	Every time.Duration
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Metrics receives rebalance instrumentation; nil allocates one.
	Metrics *metrics.Registry

	// maxMoves overrides defaultMaxMoves; tests lower it to see the
	// overload budget cut in.
	maxMoves int
}

const (
	// defaultMaxMoves caps migrations per planning round at 32: a big
	// membership change rebalances over several rounds instead of
	// draining half the silo at once.
	defaultMaxMoves = 32
	// overloadRatio is the shed threshold: 1.5× the cluster mean load.
	overloadRatio = 1.5
	// drainTimeout bounds each migration's source drain at 5 s; past it
	// the hand-off is forced and the laggard fenced.
	drainTimeout = 5 * time.Second
)

// Rebalancer owns one silo's share of cluster rebalancing.
type Rebalancer struct {
	cfg Config

	kick chan struct{}
	stop chan struct{}
	done chan struct{}
	once sync.Once

	mPlanned  *metrics.Counter
	mMoved    *metrics.Counter
	mFailed   *metrics.Counter
	mOverload *metrics.Counter
}

// New builds a Rebalancer.
func New(cfg Config) (*Rebalancer, error) {
	if cfg.Runtime == nil {
		return nil, errors.New("rebalance: needs a runtime")
	}
	if cfg.Silo == "" {
		return nil, errors.New("rebalance: needs a silo name")
	}
	if cfg.View == nil {
		return nil, errors.New("rebalance: needs a membership view")
	}
	if cfg.maxMoves <= 0 {
		cfg.maxMoves = defaultMaxMoves
	}
	if cfg.Every <= 0 {
		cfg.Every = 10 * time.Second
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return &Rebalancer{
		cfg:       cfg,
		kick:      make(chan struct{}, 1),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
		mPlanned:  cfg.Metrics.Counter("rebalance.moves.planned"),
		mMoved:    cfg.Metrics.Counter("rebalance.moves.done"),
		mFailed:   cfg.Metrics.Counter("rebalance.moves.failed"),
		mOverload: cfg.Metrics.Counter("rebalance.moves.overload"),
	}, nil
}

// Plan computes this round's migrations off cfg.Silo: first the
// placement diff against the current view, then overload shedding,
// capped at maxMoves.
func (rb *Rebalancer) Plan() []Move {
	view := rb.cfg.View.View().Members
	if len(view) < 2 || !slices.Contains(view, rb.cfg.Silo) {
		// Nowhere to move to, or this silo is itself out of the view
		// (suspected dead): moving actors around would fight failover.
		return nil
	}
	silo, ok := rb.cfg.Runtime.Silo(rb.cfg.Silo)
	if !ok {
		return nil
	}
	var moves []Move
	planned := make(map[core.ID]bool)

	if rb.cfg.Strategy != nil {
		for _, id := range silo.ActiveIDs() {
			if len(moves) >= rb.cfg.maxMoves {
				break
			}
			want, err := rb.cfg.Strategy.Place(id.String(), rb.cfg.Silo, view)
			if err != nil || want == rb.cfg.Silo {
				continue
			}
			planned[id] = true
			moves = append(moves, Move{Actor: id, From: rb.cfg.Silo, To: want, Reason: "placement"})
		}
	}

	if rb.cfg.Loads != nil && len(moves) < rb.cfg.maxMoves {
		moves = rb.planShed(silo, view, planned, moves)
	}
	rb.mPlanned.Add(int64(len(moves)))
	return moves
}

// planShed appends overload moves: when this silo's reported load runs
// overloadRatio above the cluster mean, local actors go to the
// least-loaded member — the profile's hottest first when the runtime's
// recorder keeps one, otherwise any local activations (plain-count shedding).
func (rb *Rebalancer) planShed(silo *core.Silo, view []string, planned map[core.ID]bool, moves []Move) []Move {
	loads := rb.cfg.Loads()
	if len(loads) == 0 {
		return moves
	}
	var mine, total int64
	counted := 0
	coolest := ""
	var coolestLoad int64
	for _, s := range view {
		l, ok := loads[s]
		if !ok {
			continue
		}
		total += l
		counted++
		if s == rb.cfg.Silo {
			mine = l
			continue
		}
		if coolest == "" || l < coolestLoad {
			coolest, coolestLoad = s, l
		}
	}
	if counted < 2 || coolest == "" {
		return moves
	}
	mean := float64(total) / float64(counted)
	if float64(mine) <= overloadRatio*mean {
		return moves
	}
	// Shed conservatively: at most a quarter of the round budget, so a
	// load spike moves a few hot actors and re-measures rather than
	// stampeding the coolest silo.
	budget := rb.cfg.maxMoves / 4
	if budget < 1 {
		budget = 1
	}
	// When the runtime's recorder profiles, shed its hottest activations
	// (top-K CPU attribution) — the most profitable movers first.
	if hots := rb.cfg.Runtime.Tracer().HotActors(); len(hots) > 0 {
		for _, hot := range hots {
			if budget == 0 || len(moves) >= rb.cfg.maxMoves {
				break
			}
			if hot.Label != rb.cfg.Silo {
				continue // hosted elsewhere (or stale sketch residue)
			}
			id, err := core.ParseID(hot.Key)
			if err != nil || planned[id] {
				continue
			}
			planned[id] = true
			moves = append(moves, Move{Actor: id, From: rb.cfg.Silo, To: coolest, Reason: "overload"})
			budget--
		}
		return moves
	}
	// No profile: shed by plain activation count. Every local actor is
	// equally anonymous, so take them in ActiveIDs' stable order — the
	// next round re-measures and sheds again if the silo is still hot.
	for _, id := range silo.ActiveIDs() {
		if budget == 0 || len(moves) >= rb.cfg.maxMoves {
			break
		}
		if planned[id] {
			continue
		}
		planned[id] = true
		moves = append(moves, Move{Actor: id, From: rb.cfg.Silo, To: coolest, Reason: "overload"})
		budget--
	}
	return moves
}

// Execute runs the planned migrations, each drain bounded by
// drainTimeout. It returns how many completed; failed moves are counted
// and skipped (the next round re-plans from live state).
func (rb *Rebalancer) Execute(ctx context.Context, moves []Move) int {
	doneCount := 0
	for _, m := range moves {
		if ctx.Err() != nil {
			return doneCount
		}
		mctx, cancel := context.WithTimeout(ctx, drainTimeout)
		err := rb.cfg.Runtime.Migrate(mctx, m.Actor, m.To)
		cancel()
		if err != nil {
			rb.mFailed.Inc()
			continue
		}
		doneCount++
		rb.mMoved.Inc()
		if m.Reason == "overload" {
			rb.mOverload.Inc()
		}
	}
	return doneCount
}

// Rebalance runs one plan+execute round.
func (rb *Rebalancer) Rebalance(ctx context.Context) int {
	return rb.Execute(ctx, rb.Plan())
}

// Notify kicks an immediate planning round (membership changed,
// overload detected). Non-blocking; rounds coalesce.
func (rb *Rebalancer) Notify() {
	select {
	case rb.kick <- struct{}{}:
	default:
	}
}

// Start launches the background loop: a round every cfg.Every, plus
// immediate rounds on Notify. Call Stop to end it.
func (rb *Rebalancer) Start() {
	go func() {
		defer close(rb.done)
		t := rb.cfg.Clock.NewTicker(rb.cfg.Every)
		defer t.Stop()
		for {
			select {
			case <-rb.stop:
				return
			case <-rb.kick:
			case <-t.C():
			}
			ctx, cancel := context.WithTimeout(context.Background(), rb.cfg.Every)
			rb.Rebalance(ctx)
			cancel()
		}
	}()
}

// Stop ends the background loop and waits for the in-flight round.
func (rb *Rebalancer) Stop() {
	rb.once.Do(func() { close(rb.stop) })
	<-rb.done
}
