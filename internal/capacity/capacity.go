// Package capacity simulates bounded server compute, standing in for the
// EC2 instances the paper benchmarks on.
//
// The paper's headline numbers — an m5.large silo saturating around 1,800
// ingestion requests per second (Figure 6), linear scale-out at 2,100
// sensors per m5.xlarge (Figure 7), and latency percentiles exploding as
// utilization approaches the server limit (Figures 8 and 9) — are queueing
// behaviours of a CPU-bounded server. A Limiter reproduces them: each silo
// gets Workers concurrent execution slots, and every actor turn holds a
// slot for its simulated CPU cost (scaled by the worker speed) before the
// real, fast Go handler runs. Offered load beyond Workers×Speed/cost
// queues, exactly like requests piling up on a saturated silo.
//
// Profiles are calibrated against the paper: the m5.xlarge is 1.5× the
// m5.large by ECU, which the paper itself uses to scale its baseline load.
package capacity

import (
	"context"
	"sync"
	"time"

	"aodb/internal/clock"
)

// Profile describes a simulated instance type.
type Profile struct {
	// Name is the EC2 instance type being simulated.
	Name string
	// Workers is the number of concurrent execution slots (vCPUs).
	Workers int
	// Speed scales worker execution: a turn with cost c occupies a slot
	// for c/Speed. Speed 1.0 is one m5.large vCPU.
	Speed float64
}

// Instance profiles used by the benchmark harness. The m5.large has two
// vCPUs at reference speed. The m5.xlarge has four vCPUs derated so that
// its total compute is 1.5× the m5.large, matching the ECU ratio the paper
// uses when deriving its per-silo baseline load.
var (
	M5Large  = Profile{Name: "m5.large", Workers: 2, Speed: 1.0}
	M5XLarge = Profile{Name: "m5.xlarge", Workers: 4, Speed: 0.75}
)

// Capacity returns the profile's sustainable turns/second for a given
// per-turn cost, i.e. Workers × Speed / cost. Useful for sizing offered
// load in benchmarks.
func (p Profile) Capacity(cost time.Duration) float64 {
	if cost <= 0 {
		return 0
	}
	return float64(p.Workers) * p.Speed / cost.Seconds()
}

// Limiter enforces a profile's compute bound. A nil *Limiter is valid and
// imposes no limit (infinitely fast server), which is what unit tests and
// non-benchmark deployments use.
//
// Timer wake-ups overshoot on loaded hosts, which would silently deflate
// the simulated capacity. The limiter therefore banks each turn's
// overshoot as credit and discounts it from subsequent burns, so the
// long-run throughput matches Workers x Speed / cost even when individual
// sleeps are sloppy.
type Limiter struct {
	profile Profile
	slots   chan struct{}
	clk     clock.Clock

	creditMu sync.Mutex
	credit   time.Duration
}

// maxCredit bounds banked overshoot so a single scheduling hiccup cannot
// grant a long free burst afterwards.
const maxCredit = 50 * time.Millisecond

// NewLimiter returns a limiter for the given profile. clk may be nil for
// the real clock.
func NewLimiter(p Profile, clk clock.Clock) *Limiter {
	if p.Workers <= 0 {
		p.Workers = 1
	}
	if p.Speed <= 0 {
		p.Speed = 1
	}
	if clk == nil {
		clk = clock.Real()
	}
	return &Limiter{profile: p, slots: make(chan struct{}, p.Workers), clk: clk}
}

// Profile returns the simulated instance profile.
func (l *Limiter) Profile() Profile { return l.profile }

// TurnTiming receives the limiter's latency decomposition for one turn:
// SlotWait is time queued for a worker slot (simulated CPU contention),
// Burn the simulated CPU service time actually slept. Telemetry passes a
// TurnTiming only for sampled turns, so the unsampled path stays free of
// extra clock reads.
type TurnTiming struct {
	SlotWait time.Duration
	Burn     time.Duration
}

// ExecuteTimed runs fn after charging cost of simulated CPU on one worker
// slot. Zero-cost work still takes a slot, bounding true concurrency. It
// blocks while all slots are busy — that queueing delay is the latency the
// paper's percentile figures measure. When tm is non-nil the slot wait and
// simulated burn are measured into it; a nil tm adds no clock reads to the
// path.
func (l *Limiter) ExecuteTimed(ctx context.Context, cost time.Duration, fn func() error, tm *TurnTiming) error {
	if l == nil {
		return fn()
	}
	var waitStart time.Time
	if tm != nil {
		waitStart = l.clk.Now()
	}
	select {
	case l.slots <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	if tm != nil {
		tm.SlotWait = l.clk.Since(waitStart)
	}
	defer func() { <-l.slots }()
	if cost > 0 {
		burn := time.Duration(float64(cost) / l.profile.Speed)
		l.creditMu.Lock()
		if l.credit >= burn {
			l.credit -= burn
			burn = 0
		} else {
			burn -= l.credit
			l.credit = 0
		}
		l.creditMu.Unlock()
		if burn > 0 {
			start := l.clk.Now()
			t := l.clk.NewTimer(burn)
			select {
			case <-ctx.Done():
				t.Stop()
				return ctx.Err()
			case <-t.C():
			}
			if tm != nil {
				tm.Burn = l.clk.Since(start)
			}
			if over := l.clk.Since(start) - burn; over > 0 {
				l.creditMu.Lock()
				l.credit += over
				if l.credit > maxCredit {
					l.credit = maxCredit
				}
				l.creditMu.Unlock()
			}
		}
	}
	return fn()
}

// InUse reports how many worker slots are currently held (for tests).
func (l *Limiter) InUse() int {
	if l == nil {
		return 0
	}
	return len(l.slots)
}
