package replication

import (
	"context"
	"sort"
	"sync"
	"time"
)

// digestFrom asks silo for its bucketed digest of the keys it shares
// with peer.
func (c *Coordinator) digestFrom(ctx context.Context, silo, peer string, buckets int) (map[uint32]uint64, error) {
	resp, err := c.call(ctx, silo, rpcDigest{Peer: peer, Buckets: buckets})
	c.noteResult(silo, err)
	if err != nil {
		return nil, err
	}
	r, ok := resp.(rpcDigestResp)
	if !ok {
		return nil, errBadRPC
	}
	return r.Buckets, nil
}

// keysFrom asks silo for the per-key summaries of one shared bucket.
func (c *Coordinator) keysFrom(ctx context.Context, silo, peer string, bucket uint32, buckets int) (map[string]KeySummary, error) {
	resp, err := c.call(ctx, silo, rpcKeys{Peer: peer, Bucket: bucket, Buckets: buckets})
	c.noteResult(silo, err)
	if err != nil {
		return nil, err
	}
	r, ok := resp.(rpcKeysResp)
	if !ok {
		return nil, errBadRPC
	}
	return r.Keys, nil
}

// newerSummary mirrors newerEnv over wire summaries.
func newerSummary(a, b KeySummary) bool {
	va, vb := Unpack(a.Packed), Unpack(b.Packed)
	if cp := va.Compare(vb); cp != 0 {
		return cp > 0
	}
	return a.Hash > b.Hash
}

// SweepPair reconciles one silo pair: exchange bucket digests, expand
// only mismatched buckets into per-key summaries, and for every key the
// two sides disagree on, copy the (version, value-hash) winner to the
// loser. Returns how many divergent keys were repaired. A key missing on
// one side is treated as never-received and pushed: nothing deletes a
// key, so an absence is always a copy still to be made.
func (c *Coordinator) SweepPair(ctx context.Context, a, b string, buckets int) (int, error) {
	if buckets <= 0 {
		buckets = 64
	}
	da, err := c.digestFrom(ctx, a, b, buckets)
	if err != nil {
		return 0, err
	}
	db, err := c.digestFrom(ctx, b, a, buckets)
	if err != nil {
		return 0, err
	}
	mismatch := make(map[uint32]bool)
	for k, v := range da {
		if db[k] != v {
			mismatch[k] = true
		}
	}
	for k, v := range db {
		if da[k] != v {
			mismatch[k] = true
		}
	}
	if len(mismatch) == 0 {
		return 0, nil
	}
	order := make([]uint32, 0, len(mismatch))
	for k := range mismatch {
		order = append(order, k)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	divergent := 0
	for _, bucket := range order {
		ka, err := c.keysFrom(ctx, a, b, bucket, buckets)
		if err != nil {
			return divergent, err
		}
		kb, err := c.keysFrom(ctx, b, a, bucket, buckets)
		if err != nil {
			return divergent, err
		}
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
			if _, err := c.applyTo(ctx, dst, key, env.Encode()); err != nil {
				continue
			}
			divergent++
			c.cfg.Metrics.Counter("replication.antientropy.divergent_keys").Inc()
		}
	}
	return divergent, nil
}

// SweepOnce reconciles every live silo pair (optionally only pairs
// involving `only`, which is how each shmserver process avoids sweeping
// the whole cluster's pairs). It is the one repair path besides read
// repair: a home that missed writes while down, or came back wiped,
// converges here.
func (c *Coordinator) SweepOnce(ctx context.Context, only string, buckets int) (divergent int, err error) {
	// During a ring transition, sweep over the union membership: the
	// old→new backfill of moved replicas rides these very pairs.
	cur, old := c.rings()
	members := cur.Members()
	if old != nil {
		seen := make(map[string]bool, len(members))
		for _, m := range members {
			seen[m] = true
		}
		for _, m := range old.Members() {
			if !seen[m] {
				members = append(members, m)
			}
		}
		sort.Strings(members)
	}
	var firstErr error
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			a, b := members[i], members[j]
			if only != "" && a != only && b != only {
				continue
			}
			if !c.alive(a) || !c.alive(b) {
				continue
			}
			n, perr := c.SweepPair(ctx, a, b, buckets)
			divergent += n
			if perr != nil && firstErr == nil {
				firstErr = perr
			}
		}
	}
	c.cfg.Metrics.Counter("replication.antientropy.sweeps").Inc()
	return divergent, firstErr
}

// Sweeper runs the anti-entropy sweep on a period in the background.
type Sweeper struct {
	c       *Coordinator
	every   time.Duration
	only    string
	buckets int

	once sync.Once
	stop chan struct{}
	done chan struct{}
}

// NewSweeper builds a background sweeper over c. only restricts sweeps
// to silo pairs involving that silo (empty sweeps all pairs); buckets
// sizes the digest exchange (<=0 for the default).
func NewSweeper(c *Coordinator, every time.Duration, only string, buckets int) *Sweeper {
	if every <= 0 {
		every = 30 * time.Second
	}
	return &Sweeper{
		c:       c,
		every:   every,
		only:    only,
		buckets: buckets,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
}

// Start launches the sweep loop; call Stop to end it.
func (s *Sweeper) Start() {
	go func() {
		defer close(s.done)
		t := s.c.cfg.Clock.NewTicker(s.every)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C():
				ctx, cancel := context.WithTimeout(context.Background(), s.every)
				_, _ = s.c.SweepOnce(ctx, s.only, s.buckets)
				cancel()
			}
		}
	}()
}

// Stop ends the sweep loop and waits for the in-flight sweep to finish.
func (s *Sweeper) Stop() {
	s.once.Do(func() { close(s.stop) })
	<-s.done
}
