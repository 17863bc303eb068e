package replication

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/clock"
	"aodb/internal/codec"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/transport"
)

// TargetKind is the reserved transport target kind replication RPCs
// travel under. The '!' prefix keeps it out of the actor-kind namespace
// (core.ID validation never produces it), so the silo handler can
// dispatch it to the replication service before actor resolution.
const TargetKind = "!repl"

// Outcome classifies what a replica did with an incoming envelope.
type Outcome uint8

const (
	// Applied: the envelope was newer and is now the replica's value.
	Applied Outcome = iota + 1
	// Equal: the replica already holds this exact envelope — an
	// idempotent duplicate (a retried write, a repeated repair).
	Equal
	// Stale: the replica holds a strictly newer version; the incoming
	// envelope was discarded. On a fenced write path this is the fence
	// firing — a successor epoch exists.
	Stale
	// Conflict: same version, different bytes — two writers raced within
	// one epoch (both loaded empty state, or a zombie write landed on a
	// minority replica). The replica resolved it deterministically by
	// value hash so all replicas converge, but a writer seeing Conflict
	// must treat its write as fenced.
	Conflict
)

// applyCounter names the per-outcome apply counters, spelled out so the
// apply path does not build a name per call.
var applyCounter = [...]string{
	Applied:  "replication.apply.applied",
	Equal:    "replication.apply.equal",
	Stale:    "replication.apply.stale",
	Conflict: "replication.apply.conflict",
}

func (o Outcome) String() string {
	switch o {
	case Applied:
		return "applied"
	case Equal:
		return "equal"
	case Stale:
		return "stale"
	case Conflict:
		return "conflict"
	}
	return fmt.Sprintf("outcome(%d)", uint8(o))
}

// hashEnv is the deterministic tiebreak for equal-version conflicts:
// every replica applies "higher hash wins", so divergent same-version
// values converge without coordination.
func hashEnv(e Envelope) uint64 {
	return mix64(fnv64(string(e.Value)))
}

// KeySummary is one key's replication state as reported by a digest
// bucket transfer: the packed version and the value hash.
type KeySummary struct {
	Packed int64
	Hash   uint64
}

// StoreConfig configures one silo's replica store.
type StoreConfig struct {
	// Silo is the name of the silo this store serves.
	Silo string
	// Table holds the replicated envelopes (normally the runtime's
	// grain-state table).
	Table *kvstore.Table
	// Ring and N scope anti-entropy digests to keys this silo homes.
	Ring *Ring
	N    int
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Metrics receives replication instrumentation; nil allocates one.
	Metrics *metrics.Registry
}

// ErrRebuilding reports a fetch served by a replica that is rebuilding
// after total storage loss. A wiped replica's "not found" is
// indistinguishable from a real one: letting it count as a read-quorum
// answer defeats the R+W>N intersection guarantee whenever the other
// surviving copy of an acknowledged write happens to be unreachable
// (the Load would adopt a stale winner, epoch-bump it, and erase the
// acknowledged write everywhere). While rebuilding, the replica keeps
// accepting writes and anti-entropy repairs; only its read answers are
// withheld.
var ErrRebuilding = errors.New("replication: replica rebuilding")

// Store is the replica role of one silo: it applies possibly-duplicated,
// possibly-stale envelopes if-newer, serves fetches, and computes
// anti-entropy digests over the keys it homes.
type Store struct {
	cfg        StoreConfig
	rebuilding atomic.Bool

	mu       sync.RWMutex
	ring     *Ring     // current ring
	oldRing  *Ring     // superseded ring, nil outside a transition window
	oldUntil time.Time // when the superseded ring drops out of digests
}

// NewStore builds a replica store.
func NewStore(cfg StoreConfig) (*Store, error) {
	if cfg.Table == nil {
		return nil, errors.New("replication: store needs a table")
	}
	if cfg.Ring == nil {
		return nil, errors.New("replication: store needs a ring")
	}
	if cfg.N <= 0 {
		cfg.N = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	return &Store{cfg: cfg, ring: cfg.Ring}, nil
}

// UpdateRing swaps the ring anti-entropy digests are scoped to. The
// superseded ring stays in scope for a transition window so a silo
// keeps offering keys it used to home to their new homes (and digests
// stay symmetric with peers mid-change).
func (s *Store) UpdateRing(r *Ring) {
	if r == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r.Equal(s.ring) {
		return
	}
	if s.oldRing == nil || s.cfg.Clock.Now().After(s.oldUntil) {
		s.oldRing = s.ring
	}
	s.ring = r
	s.oldUntil = s.cfg.Clock.Now().Add(ringTransition)
}

// rings returns the current ring and, within the transition window, the
// superseded one (nil otherwise).
func (s *Store) rings() (cur, old *Ring) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.oldRing != nil && s.cfg.Clock.Now().After(s.oldUntil) {
		s.oldRing = nil
	}
	return s.ring, s.oldRing
}

// Table exposes the backing table (for tests and tooling).
func (s *Store) Table() *kvstore.Table { return s.cfg.Table }

// SetRebuilding gates (true) or releases (false) the replica's read
// path. A replica restored onto empty storage must stay gated until an
// anti-entropy pass against its peers comes back clean — see
// ErrRebuilding for why.
func (s *Store) SetRebuilding(v bool) { s.rebuilding.Store(v) }

// Apply merges the encoded envelope enc into the replica under the
// if-newer rule and reports what happened. enc is stored as sent, and
// the store keeps no reference to it. Apply is idempotent: re-applying
// any envelope the replica has seen returns Equal (or Stale) without
// touching storage, which is what makes repairs and write retries safe.
func (s *Store) Apply(ctx context.Context, key string, enc []byte) (Outcome, error) {
	env, err := DecodeEnvelope(enc)
	if err != nil {
		return 0, err
	}
	out := Applied
	_, err = s.cfg.Table.Merge(ctx, key, enc, func(cur kvstore.Item, exists bool) bool {
		if !exists {
			out = Applied
			return true
		}
		curEnv, derr := DecodeEnvelope(cur.Value)
		if derr != nil {
			// Unparseable replica bytes (pre-replication data or
			// corruption): any versioned envelope supersedes them.
			out = Applied
			return true
		}
		switch c := env.Version.Compare(curEnv.Version); {
		case c > 0:
			out = Applied
			return true
		case c < 0:
			out = Stale
			return false
		case env.Equal(curEnv):
			out = Equal
			return false
		default:
			out = Conflict
			return hashEnv(env) > hashEnv(curEnv)
		}
	})
	if err != nil {
		return 0, err
	}
	s.cfg.Metrics.Counter(applyCounter[out]).Inc()
	return out, nil
}

// Fetch returns the envelope the replica holds for key, or found=false
// when the key was never written here. A rebuilding replica refuses:
// its absences are meaningless.
func (s *Store) Fetch(ctx context.Context, key string) (Envelope, bool, error) {
	if s.rebuilding.Load() {
		return Envelope{}, false, fmt.Errorf("%w: %s", ErrRebuilding, s.cfg.Silo)
	}
	it, err := s.cfg.Table.Get(ctx, key)
	if err != nil {
		if errors.Is(err, kvstore.ErrNotFound) {
			return Envelope{}, false, nil
		}
		return Envelope{}, false, err
	}
	env, derr := DecodeEnvelope(it.Value)
	if derr != nil {
		// Pre-replication bytes: surface them as a zero-version live
		// value so any replicated write supersedes them.
		return Envelope{Value: it.Value}, true, nil
	}
	return env, true, nil
}

// Digest folds the replica's keys shared with peer into buckets: for
// every key both this silo and peer home (under the common ring and N),
// bucket[keyPoint%buckets] accumulates an XOR of a key/version/value-hash
// mix. Two replicas with identical shared contents produce identical
// digests; any differing key perturbs exactly one bucket on the side
// that differs. XOR folding is order-independent, so no sort is needed.
func (s *Store) Digest(ctx context.Context, peer string, buckets int) (map[uint32]uint64, error) {
	if buckets <= 0 {
		buckets = 1
	}
	out := make(map[uint32]uint64)
	err := s.scanShared(ctx, peer, func(key string, env Envelope) {
		b := uint32(keyPoint(key) % uint64(buckets))
		out[b] ^= mix64(keyPoint(key) ^ uint64(env.Version.Packed()) ^ hashEnv(env))
	})
	return out, err
}

// BucketKeys lists the replica's keys shared with peer that fall in the
// given bucket, with each key's version and value hash — the second
// round of a digest exchange, fetched only for buckets that mismatched.
func (s *Store) BucketKeys(ctx context.Context, peer string, bucket uint32, buckets int) (map[string]KeySummary, error) {
	if buckets <= 0 {
		buckets = 1
	}
	out := make(map[string]KeySummary)
	err := s.scanShared(ctx, peer, func(key string, env Envelope) {
		if uint32(keyPoint(key)%uint64(buckets)) != bucket {
			return
		}
		out[key] = KeySummary{Packed: env.Version.Packed(), Hash: hashEnv(env)}
	})
	return out, err
}

// scanShared visits every item whose key both this silo and peer
// home — under the current ring or, during a transition window, the
// superseded one, so a silo still offers keys it no longer homes to
// their new homes (the old→new backfill after a ring change). Keys this
// silo does not home under either ring are skipped.
func (s *Store) scanShared(ctx context.Context, peer string, fn func(key string, env Envelope)) error {
	self := s.cfg.Silo
	cur, old := s.rings()
	n := s.cfg.N
	if n > cur.Size() {
		n = cur.Size()
	}
	nOld := s.cfg.N
	if old != nil && nOld > old.Size() {
		nOld = old.Size()
	}
	homes := func(key, silo string) bool {
		if cur.Homes(key, n, silo) {
			return true
		}
		return old != nil && old.Homes(key, nOld, silo)
	}
	return s.cfg.Table.Scan(ctx, "", func(it kvstore.Item) bool {
		if !homes(it.Key, self) || !homes(it.Key, peer) {
			return true
		}
		env, err := DecodeEnvelope(it.Value)
		if err != nil {
			env = Envelope{Value: it.Value}
		}
		fn(it.Key, env)
		return true
	})
}

// Wire types for replication RPCs. The envelope crosses the wire in its
// storage encoding; versions stay packed. All types are registered with
// the codec so they can ride transport payload fields.
type (
	rpcApply struct {
		Key string
		Env []byte
	}
	rpcApplyResp struct {
		Outcome uint8
	}
	rpcFetch struct {
		Key string
	}
	rpcFetchResp struct {
		Found bool
		Env   []byte
	}
	rpcDigest struct {
		Peer    string
		Buckets int
	}
	rpcDigestResp struct {
		Buckets map[uint32]uint64
	}
	rpcKeys struct {
		Peer    string
		Bucket  uint32
		Buckets int
	}
	rpcKeysResp struct {
		Keys map[string]KeySummary
	}
)

func init() {
	codec.Register(rpcApply{})
	codec.Register(rpcApplyResp{})
	codec.Register(rpcFetch{})
	codec.Register(rpcFetchResp{})
	codec.Register(rpcDigest{})
	codec.Register(rpcDigestResp{})
	codec.Register(rpcKeys{})
	codec.Register(rpcKeysResp{})
	// The quorum write and read paths get binary wire forms (tags
	// 0x50–0x5f are this package's); anti-entropy rides the gob fallback.
	codec.RegisterWire(0x50,
		func(e *codec.Enc, m rpcApply) { e.String(m.Key); e.Bytes(m.Env) },
		func(d *codec.Dec) rpcApply { return rpcApply{Key: d.String(), Env: d.Bytes()} })
	codec.RegisterWire(0x51,
		func(e *codec.Enc, m rpcApplyResp) { e.Byte(m.Outcome) },
		func(d *codec.Dec) rpcApplyResp { return rpcApplyResp{Outcome: d.Byte()} })
	codec.RegisterWire(0x52,
		func(e *codec.Enc, m rpcFetch) { e.String(m.Key) },
		func(d *codec.Dec) rpcFetch { return rpcFetch{Key: d.String()} })
	codec.RegisterWire(0x53,
		func(e *codec.Enc, m rpcFetchResp) { e.Bool(m.Found); e.Bytes(m.Env) },
		func(d *codec.Dec) rpcFetchResp { return rpcFetchResp{Found: d.Bool(), Env: d.Bytes()} })
}

// errBadRPC reports a replication request whose payload type or target
// silo the service cannot serve.
var errBadRPC = errors.New("replication: bad rpc")

// Service hosts replica stores behind the transport: each silo a runtime
// hosts registers its store here, and the runtime dispatches requests
// with TargetKind to Handle. In a TCP deployment a process hosts one
// store; the simulated multi-silo runtime hosts one per silo.
type Service struct {
	mu     sync.RWMutex
	stores map[string]*Store
}

// NewService returns an empty service; register stores with Host.
func NewService() *Service { return &Service{stores: make(map[string]*Store)} }

// Host serves silo's replica store. Re-hosting a silo replaces its
// store (a wiped-and-rebuilt replica hot-swaps itself back in).
func (sv *Service) Host(silo string, st *Store) {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.stores[silo] = st
}

// Store returns the hosted store for silo, or nil.
func (sv *Service) Store(silo string) *Store {
	sv.mu.RLock()
	defer sv.mu.RUnlock()
	return sv.stores[silo]
}

// Handle dispatches one replication RPC addressed to silo. It has the
// core.ServiceHandler shape and is registered under TargetKind; the
// runtime has merged the request's HLC stamp by the time it runs, so
// events this replica records after applying a write sort after the
// coordinator's quorum-write event in a merged timeline.
func (sv *Service) Handle(ctx context.Context, silo string, req transport.Request) (any, error) {
	st := sv.Store(silo)
	if st == nil {
		return nil, fmt.Errorf("%w: no replica store on silo %q", errBadRPC, silo)
	}
	return serveLocal(ctx, st, req.Payload)
}
