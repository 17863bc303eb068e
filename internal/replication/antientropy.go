package replication

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/placement"
)

// newerSummary mirrors newerEnv over wire summaries.
func newerSummary(a, b KeySummary) bool {
	va, vb := Unpack(a.Packed), Unpack(b.Packed)
	if cp := va.Compare(vb); cp != 0 {
		return cp > 0
	}
	return a.Hash > b.Hash
}

// sweepPair reconciles one silo pair over the keys both home under the
// given rings (cur first, by its members): exchange bucket digests,
// expand only mismatched buckets into per-key summaries, and for every
// key the two sides disagree on, copy the (version, value-hash) winner to
// the loser. A key missing on one side is treated as never-received and
// pushed: nothing deletes a key, so an absence is always a copy still to
// be made. Returns how many divergent keys were repaired: keys a home
// under cur took the winner for. A racing write that brought the loser
// level first is no divergence, nor is a superseded ring's home left
// behind — writes stop reaching it once a handoff closes anywhere, and
// no quorum needs it after this one closes.
func (c *Coordinator) sweepPair(ctx context.Context, a, b string, cur *placement.Ring, rings [][]string) (int, error) {
	n, _, _ := c.quorumFor(cur)
	da, err := ask[rpcDigestResp](ctx, c, a, rpcDigest{Peer: b, Buckets: sweepBuckets, Rings: rings})
	if err != nil {
		return 0, err
	}
	db, err := ask[rpcDigestResp](ctx, c, b, rpcDigest{Peer: a, Buckets: sweepBuckets, Rings: rings})
	if err != nil {
		return 0, err
	}
	divergent := 0
	for bucket := uint32(0); bucket < sweepBuckets; bucket++ {
		if da.Buckets[bucket] == db.Buckets[bucket] {
			continue
		}
		ra, err := ask[rpcKeysResp](ctx, c, a, rpcKeys{Peer: b, Bucket: bucket, Buckets: sweepBuckets, Rings: rings})
		if err != nil {
			return divergent, err
		}
		rb, err := ask[rpcKeysResp](ctx, c, b, rpcKeys{Peer: a, Bucket: bucket, Buckets: sweepBuckets, Rings: rings})
		if err != nil {
			return divergent, err
		}
		ka, kb := ra.Keys, rb.Keys
		keys := make(map[string]bool, len(ka)+len(kb))
		for k := range ka {
			keys[k] = true
		}
		for k := range kb {
			keys[k] = true
		}
		for key := range keys {
			sa, okA := ka[key]
			sb, okB := kb[key]
			var src, dst string
			switch {
			case okA && okB && sa == sb:
				continue
			case !okB || (okA && newerSummary(sa, sb)):
				src, dst = a, b
			default:
				src, dst = b, a
			}
			env, found, err := c.fetchFrom(ctx, src, key)
			if err != nil || !found {
				continue // src went down or was wiped since its digest; next sweep
			}
			if out, err := c.applyTo(ctx, dst, rpcApply{Key: key, Env: env.Encode()}); err != nil || out != Applied || !cur.Homes(key, n, dst) {
				continue
			}
			divergent++
			c.cfg.Metrics.Counter("replication.antientropy.divergent_keys").Inc()
		}
	}
	return divergent, nil
}

// SweepOnce reconciles every live pair of the current view's members
// (optionally only pairs involving `only`, which is how each shmserver
// process avoids sweeping the whole cluster's pairs). It is the one repair
// path besides read repair: a home that missed writes while down, or came
// back wiped, converges here. While a handoff is open the pairs compare
// keys homed under either ring, so the old→new backfill of moved replicas
// rides these very pairs; a member that left the view is not swept.
//
// A clean pair — swept with no error and no divergent key — is evidence.
// A local replica's read gate (Store.SetRebuilding) lifts once at least
// one pair naming it was swept and every one came back clean: a pair
// skipped for a dead peer, or a view with no peer, is no evidence. An
// all-pairs sweep that started ready (see ready) and came back clean
// closes the handoff; one silo's pairs cannot, since this coordinator
// serves keys whose new homes may not include that silo.
func (c *Coordinator) SweepOnce(ctx context.Context, only string) (divergent int, err error) {
	rs := c.state(false)
	closes := only == "" && c.ready(rs)
	members := rs.cur.Members()
	rings := [][]string{members}
	if rs.old != nil {
		rings = append(rings, rs.old.Members())
	}
	clean := make(map[string]bool, len(c.cfg.Local)) // local silo → all its pairs clean
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			a, b := members[i], members[j]
			if only != "" && a != only && b != only {
				continue
			}
			ok := c.alive(a) && c.alive(b)
			if ok {
				n, perr := c.sweepPair(ctx, a, b, rs.cur, rings)
				divergent += n
				if perr != nil && err == nil {
					err = perr
				}
				ok = n == 0 && perr == nil
			}
			closes = closes && ok
			for _, s := range [2]string{a, b} {
				if prev, seen := clean[s]; c.cfg.Local[s] != nil {
					clean[s] = ok && (prev || !seen)
				}
			}
		}
	}
	c.cfg.Metrics.Counter("replication.antientropy.sweeps").Inc()
	for silo, ok := range clean {
		if ok {
			c.cfg.Local[silo].SetRebuilding(false)
		}
	}
	if closes {
		c.mu.Lock()
		if c.rs == rs { // a ring published since the sweep began is not covered
			c.rs = &ringState{cur: rs.cur}
		}
		c.mu.Unlock()
	}
	return divergent, err
}

// gated reports whether a local replica's read gate is still shut.
func (c *Coordinator) gated() bool {
	for _, st := range c.cfg.Local {
		if st.rebuilding.Load() {
			return true
		}
	}
	return false
}

const (
	// resweepEvery is the sweep cadence while evidence is owed — while a
	// local read gate is shut, and while an open handoff is ready to
	// close: 200 ms.
	resweepEvery = 200 * time.Millisecond
	// resweepTimeout bounds each of those sweeps: 5 s.
	resweepTimeout = 5 * time.Second
	// sweepBuckets is how many hash buckets a pair's digests fold its
	// shared keys into; only a mismatched bucket's keys are exchanged.
	sweepBuckets = 64
)

// Sweeper runs the anti-entropy sweep in the background: every period,
// and every resweepEvery while evidence is owed.
type Sweeper struct {
	c     *Coordinator
	every time.Duration
	only  string

	started atomic.Bool
	once    sync.Once
	stop    chan struct{}
	done    chan struct{}
}

// NewSweeper builds a background sweeper over c. only restricts sweeps
// to silo pairs involving that silo (empty sweeps all pairs) unless a
// handoff is ready to close.
func NewSweeper(c *Coordinator, every time.Duration, only string) *Sweeper {
	if every <= 0 {
		every = 30 * time.Second
	}
	return &Sweeper{
		c:     c,
		every: every,
		only:  only,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Start launches the sweep loop; call Stop to end it. The loop looks
// every resweepEvery: it sweeps at once, then every period, and at each
// look while evidence is owed. Once an open handoff is ready to close it
// sweeps every pair, not only this silo's: only that sweep closes it.
func (s *Sweeper) Start() {
	s.started.Store(true)
	go func() {
		defer close(s.done)
		t := s.c.cfg.Clock.NewTicker(resweepEvery)
		defer t.Stop()
		var last time.Time
		for {
			ready := s.c.ready(s.c.state(false))
			owed := ready || s.c.gated()
			if now := s.c.cfg.Clock.Now(); owed || now.Sub(last) >= s.every {
				last = now
				only, timeout := s.only, s.every
				if ready {
					only = ""
				}
				if owed {
					timeout = resweepTimeout
				}
				ctx, cancel := context.WithTimeout(context.Background(), timeout)
				_, _ = s.c.SweepOnce(ctx, only)
				cancel()
			}
			select {
			case <-s.stop:
				return
			case <-t.C():
			}
		}
	}()
}

// Stop ends the sweep loop and waits for the in-flight sweep to finish.
// A sweeper never started stops at once.
func (s *Sweeper) Stop() {
	s.once.Do(func() { close(s.stop) })
	if s.started.Load() {
		<-s.done
	}
}
