package replication

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"aodb/internal/clock"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/telemetry"
	"aodb/internal/transport"
)

// Caller is the slice of transport.Transport the coordinator needs to
// reach remote replicas. transport.Local, transport.TCP, and every
// wrapper (breakers, fault injectors) satisfy it.
type Caller interface {
	Call(ctx context.Context, node string, req transport.Request) (any, error)
}

// Config configures a quorum Coordinator.
type Config struct {
	// Ring is the initial key→replica-set mapping. Required. UpdateRing
	// swaps it live when membership changes.
	Ring *Ring
	// N, R, W are the desired replication factor and the read/write
	// quorum sizes. Defaults: N=1, R and W to majorities of N. All three
	// are clamped per operation to the current ring's size, so a cluster
	// seeded below N grows into its full replication factor as silos
	// join. The classic R+W > N intersection guarantee — and the W > N/2
	// zombie fence — hold only for the majority settings; smaller
	// quorums trade them away for latency, which is exactly the ablation
	// the benchmark measures.
	N, R, W int
	// Transport reaches remote replica stores; requests carry TargetKind
	// and are served by a Service on the peer. Required unless every
	// ring member is wired through Local below.
	Transport Caller
	// Sender is the silo name stamped on outgoing RPCs ("" = external
	// client). With transports that loop self-calls back locally this is
	// also the node whose calls skip the network.
	Sender string
	// Local maps silo names to in-process replica stores. Calls to these
	// silos bypass the transport entirely, and a write applies to its
	// first local home on the calling goroutine, so an N=1 write makes
	// no transport call and starts no goroutine. Leave empty (as the
	// chaos soak does) to force every replica hop through the transport,
	// faults and all.
	Local map[string]*Store
	// Alive, when set, reports whether a silo is believed reachable; a
	// write counts a home it vetoes as failed instead of paying a
	// timeout. Nil means optimistic: every home is tried.
	Alive func(silo string) bool
	// Clock defaults to the real clock.
	Clock clock.Clock
	// Metrics receives replication instrumentation; nil allocates one.
	Metrics *metrics.Registry
	// Tracer, when it records events, gets quorum outcomes and ring
	// changes in the cluster flight recorder, and replica RPCs are
	// stamped with HLC timestamps. Nil or disabled costs one
	// nil-or-atomic check per operation. Successful plain reads are not
	// recorded (a read-heavy workload would wash the ring out); reads
	// that pushed a repair are.
	Tracer *telemetry.Tracer
}

// quorumErr is the sentinel type behind ErrQuorum. It self-classifies as
// transient for core's retry taxonomy (via TransientError) without the
// replication layer importing core: quorums reassemble when crashed or
// rebuilding replicas come back, so callers should retry.
type quorumErr struct{}

func (quorumErr) Error() string        { return "replication: quorum not reached" }
func (quorumErr) TransientError() bool { return true }

// ErrQuorum reports a read or write that could not assemble its quorum.
// It is a transient condition (core.Transient returns true for it):
// replicas may return, and the caller sees no ack, so retrying is safe.
var ErrQuorum error = quorumErr{}

// errFenced wraps kvstore.ErrVersionMismatch so core's stale-activation
// detection (errors.Is on ErrVersionMismatch) fires on quorum writes
// exactly as it does on single-table conditional puts.
func errFenced(key string, v Version, out Outcome) error {
	return fmt.Errorf("%w: quorum write %s at %s fenced (%s)", kvstore.ErrVersionMismatch, key, v, out)
}

// Coordinator performs strict quorum reads and writes over the key's
// home replicas, with read-repair; anti-entropy (SweepOnce, Sweeper)
// converges whatever a quorum left behind. Only homes count toward R and
// W: a missed home is a failed home, never covered by another silo. One
// coordinator serves a whole process (shmserver) or a whole simulated
// cluster (the bench harness); it is safe for concurrent use.
type Coordinator struct {
	cfg Config

	mu       sync.Mutex
	suspects map[string]*suspect
	ring     *Ring     // current ring
	oldRing  *Ring     // previous ring, nil outside a transition window
	oldUntil time.Time // when the old ring's quorum veto lapses

	mReadRepair *metrics.Counter
}

// suspect tracks consecutive replica-storage failures for one silo, the
// signal behind Unhealthy.
type suspect struct {
	fails int
	since time.Time
}

// unhealthyAfter is how many consecutive replica failures mark a silo's
// storage dead for placement filtering.
const unhealthyAfter = 3

// NewCoordinator builds a Coordinator.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if cfg.Ring == nil {
		return nil, errors.New("replication: coordinator needs a ring")
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
	if cfg.Transport == nil {
		for _, silo := range cfg.Ring.Members() {
			if _, ok := cfg.Local[silo]; !ok {
				return nil, fmt.Errorf("replication: no transport and no local store for %q", silo)
			}
		}
	}
	return &Coordinator{
		cfg:         cfg,
		ring:        cfg.Ring,
		suspects:    make(map[string]*suspect),
		mReadRepair: cfg.Metrics.Counter("replication.readrepair.count"),
	}, nil
}

const (
	// ringTransition is how long a superseded ring keeps its quorum veto
	// after an UpdateRing: 1 min, long enough for one anti-entropy sweep
	// to backfill the moved replicas under the default cadence. During
	// the window, writes must clear the write quorum on both the old and
	// new home sets, and reads consult both; SettleRing ends it early.
	ringTransition = time.Minute
	// callTimeout bounds each replica RPC: 2 s. The calls a fan-out
	// launches at one instant share one such deadline.
	callTimeout = 2 * time.Second
)

// bounded returns ctx bounded to callTimeout from now and the function
// that releases the deadline. A ctx that already ends sooner needs no
// deadline of its own and comes back as it is, with a release that does
// nothing.
func bounded(ctx context.Context) (context.Context, context.CancelFunc) {
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= callTimeout {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, callTimeout)
}

// quorumFor clamps the desired N/R/W to what ring can actually provide.
func (c *Coordinator) quorumFor(ring *Ring) (n, r, w int) {
	n = c.cfg.N
	if n > ring.Size() {
		n = ring.Size()
	}
	r, w = c.cfg.R, c.cfg.W
	if r <= 0 {
		r = n/2 + 1
	}
	if w <= 0 {
		w = n/2 + 1
	}
	if r > n {
		r = n
	}
	if w > n {
		w = n
	}
	return n, r, w
}

// rings returns the current ring and, during a transition window, the
// superseded one (nil otherwise), lazily retiring the latter once its
// window lapses.
func (c *Coordinator) rings() (cur, old *Ring) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.oldRing != nil && c.cfg.Clock.Now().After(c.oldUntil) {
		c.oldRing = nil
	}
	return c.ring, c.oldRing
}

// Ring returns the current ring.
func (c *Coordinator) Ring() *Ring {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ring
}

// UpdateRing swaps the replica ring live (a silo joined or left). The
// superseded ring stays in the quorum path for ringTransition: writes
// must clear W on both home sets and reads consult both, so R+W > N
// intersection holds against the union of old and new replica sets
// while anti-entropy backfills the keys whose homes moved. Back-to-back
// updates inside one window keep the oldest un-settled ring (quorums
// only strengthen) and restart the window.
func (c *Coordinator) UpdateRing(r *Ring) {
	if r == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.Equal(c.ring) {
		return
	}
	if c.oldRing == nil || c.cfg.Clock.Now().After(c.oldUntil) {
		c.oldRing = c.ring
	}
	c.ring = r
	c.oldUntil = c.cfg.Clock.Now().Add(ringTransition)
	c.cfg.Metrics.Counter("replication.ring.changes").Inc()
	c.cfg.Metrics.Gauge("replication.ring.size").Set(int64(r.Size()))
	if tr := c.cfg.Tracer; tr.Recording() {
		tr.Record(telemetry.RingChange, "", 0,
			fmt.Sprintf("members=%v (transition window open)", r.Members()))
	}
}

// SettleRing ends the transition window immediately — the caller knows
// anti-entropy has already backfilled the moved replicas.
func (c *Coordinator) SettleRing() {
	c.mu.Lock()
	c.oldRing = nil
	c.mu.Unlock()
}

// N returns the effective replication factor on the current ring.
func (c *Coordinator) N() int {
	n, _, _ := c.quorumFor(c.Ring())
	return n
}

// Quorums returns the effective read and write quorum sizes on the
// current ring.
func (c *Coordinator) Quorums() (r, w int) {
	_, r, w = c.quorumFor(c.Ring())
	return r, w
}

// Close releases nothing: replica stores and the transport belong to
// the caller, and the coordinator holds no other resource.
func (c *Coordinator) Close(context.Context) error { return nil }

// alive reports whether writes should try silo at all.
func (c *Coordinator) alive(silo string) bool {
	if c.cfg.Alive == nil {
		return true
	}
	return c.cfg.Alive(silo)
}

// noteResult feeds the storage-health tracker behind Unhealthy.
func (c *Coordinator) noteResult(silo string, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.suspects[silo]
	if err == nil {
		if s != nil {
			delete(c.suspects, silo)
		}
		return
	}
	if s == nil {
		s = &suspect{}
		c.suspects[silo] = s
	}
	s.fails++
	s.since = c.cfg.Clock.Now()
}

// Unhealthy reports whether silo's replica storage has been failing —
// the predicate cluster.FilteredView composes to steer actor placement
// away from storage-dead silos until their replica answers again.
func (c *Coordinator) Unhealthy(silo string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.suspects[silo]
	return s != nil && s.fails >= unhealthyAfter
}

// call performs one replica RPC, preferring the in-process store, which
// runs under ctx as it is. A remote call runs under ctx bounded to
// callTimeout; a fan-out passes the deadline it shares, and a lone call
// makes its own.
func (c *Coordinator) call(ctx context.Context, silo string, payload any) (any, error) {
	if st, ok := c.cfg.Local[silo]; ok {
		return serveLocal(ctx, st, payload)
	}
	if c.cfg.Transport == nil {
		return nil, &transport.UnreachableError{Node: silo, Err: errors.New("replication: no route")}
	}
	cctx, release := bounded(ctx)
	defer release()
	req := transport.Request{
		TargetKind: TargetKind,
		TargetKey:  silo,
		Method:     "call",
		Payload:    payload,
		Sender:     c.cfg.Sender,
		HLC:        c.cfg.Tracer.StampHLC(),
	}
	return c.cfg.Transport.Call(cctx, silo, req)
}

// serveLocal dispatches one replication RPC payload against a store: the
// coordinator's in-process shortcut and the body of Service.Handle.
func serveLocal(ctx context.Context, st *Store, payload any) (any, error) {
	switch m := payload.(type) {
	case rpcApply:
		out, err := st.Apply(ctx, m.Key, m.Env)
		if err != nil {
			return nil, err
		}
		return rpcApplyResp{Outcome: uint8(out)}, nil
	case rpcFetch:
		env, found, err := st.Fetch(ctx, m.Key)
		if err != nil {
			return nil, err
		}
		resp := rpcFetchResp{Found: found}
		if found {
			resp.Env = env.Encode()
		}
		return resp, nil
	case rpcDigest:
		d, err := st.Digest(ctx, m.Peer, m.Buckets)
		if err != nil {
			return nil, err
		}
		return rpcDigestResp{Buckets: d}, nil
	case rpcKeys:
		ks, err := st.BucketKeys(ctx, m.Peer, m.Bucket, m.Buckets)
		if err != nil {
			return nil, err
		}
		return rpcKeysResp{Keys: ks}, nil
	}
	return nil, fmt.Errorf("%w: payload %T", errBadRPC, payload)
}

func (c *Coordinator) applyTo(ctx context.Context, silo, key string, enc []byte) (Outcome, error) {
	resp, err := c.call(ctx, silo, rpcApply{Key: key, Env: enc})
	c.noteResult(silo, err)
	if err != nil {
		return 0, err
	}
	r, ok := resp.(rpcApplyResp)
	if !ok {
		return 0, fmt.Errorf("%w: apply response %T", errBadRPC, resp)
	}
	return Outcome(r.Outcome), nil
}

func (c *Coordinator) fetchFrom(ctx context.Context, silo, key string) (Envelope, bool, error) {
	resp, err := c.call(ctx, silo, rpcFetch{Key: key})
	c.noteResult(silo, err)
	if err != nil {
		return Envelope{}, false, err
	}
	r, ok := resp.(rpcFetchResp)
	if !ok {
		return Envelope{}, false, fmt.Errorf("%w: fetch response %T", errBadRPC, resp)
	}
	if !r.Found {
		return Envelope{}, false, nil
	}
	env, err := DecodeEnvelope(r.Env)
	if err != nil {
		return Envelope{}, false, err
	}
	return env, true, nil
}

// writeTarget is one distinct replica a quorum operation talks to,
// tagged with which ring(s)' home set it belongs to — during a ring
// transition an ack must be credited to every home set the silo is in.
type writeTarget struct {
	silo     string
	cur, old bool
}

// maxTargets sizes the stack buffers that a quorum operation and
// Ring.Homes collect homes in; a larger set spills to the heap.
const maxTargets = 8

// quorumTargets appends to dst the key's home sets under the current
// and (when in a transition window) superseded rings, merged into one
// distinct target list, current-ring homes first.
func quorumTargets(dst []writeTarget, key string, cur *Ring, nCur int, old *Ring, nOld int) []writeTarget {
	var homes [maxTargets]string
	for _, h := range cur.appendHomes(homes[:0], key, nCur) {
		dst = append(dst, writeTarget{silo: h, cur: true})
	}
	if old == nil {
		return dst
	}
	inCur := len(dst)
next:
	for _, h := range old.appendHomes(homes[:0], key, nOld) {
		for i := range dst[:inCur] {
			if dst[i].silo == h {
				dst[i].old = true
				continue next
			}
		}
		dst = append(dst, writeTarget{silo: h, old: true})
	}
	return dst
}

// sharedDeadline makes the one deadline the remote calls of a fan-out
// share (see bounded). Its release may run only once every call under it
// has returned: a call cancelled early reaches noteResult as a failure
// and can mark a healthy home Unhealthy.
func (c *Coordinator) sharedDeadline(ctx context.Context, targets []writeTarget) (context.Context, context.CancelFunc) {
	for _, t := range targets {
		if _, ok := c.cfg.Local[t.silo]; !ok {
			return bounded(ctx)
		}
	}
	return ctx, func() {}
}

// homeCtx is the context a fan-out calls silo under: an in-process home
// keeps the caller's ctx, a remote one gets the shared deadline.
func (c *Coordinator) homeCtx(ctx, shared context.Context, silo string) context.Context {
	if _, ok := c.cfg.Local[silo]; ok {
		return ctx
	}
	return shared
}

// writeQuorum pushes enc to the key's home set and collects the homes'
// answers: a fence (Stale/Conflict) from any home fails the write at
// once, since a newer epoch owns the key; otherwise it waits for every
// home and succeeds once W homes applied it. A dead or failing home is
// one failed home, so a write that cannot reach W homes fails with
// ErrQuorum. During a ring transition the write must clear W on the
// superseded ring's home set too — that is what keeps R+W > N
// intersection valid against the union of old and new replica sets
// mid-change. The remote homes are called on goroutines under one shared
// deadline; the first local home is applied on the calling goroutine
// while they run.
func (c *Coordinator) writeQuorum(ctx context.Context, key string, env Envelope) error {
	enc := env.Encode()
	cur, old := c.rings()
	n, _, w := c.quorumFor(cur)
	wOld := 0
	nOld := 0
	if old != nil {
		nOld, _, wOld = c.quorumFor(old)
	}
	var buf [maxTargets]writeTarget
	targets := quorumTargets(buf[:0], key, cur, n, old, nOld)
	corr := c.cfg.Tracer.NewCorr()

	ackCur, ackOld := 0, 0
	var firstErr error
	type res struct {
		t   writeTarget
		out Outcome
		err error
	}
	results := make(chan res, len(targets))
	shared, release := c.sharedDeadline(ctx, targets)
	inline := -1
	for i, t := range targets {
		if !c.alive(t.silo) {
			// Known-dead home: a failed home without paying the timeout.
			results <- res{t: t, err: &transport.UnreachableError{Node: t.silo, Err: errors.New("replication: vetoed by alive check")}}
			continue
		}
		if _, ok := c.cfg.Local[t.silo]; ok && inline < 0 {
			inline = i
			continue
		}
		tctx := c.homeCtx(ctx, shared, t.silo)
		go func() {
			out, err := c.applyTo(tctx, t.silo, key, enc)
			results <- res{t: t, out: out, err: err}
		}()
	}
	if inline >= 0 {
		t := targets[inline]
		out, err := c.applyTo(ctx, t.silo, key, enc)
		results <- res{t: t, out: out, err: err}
	}
	for i := 0; i < len(targets); i++ {
		r := <-results
		if r.err == nil {
			switch r.out {
			case Applied, Equal:
				if r.t.cur {
					ackCur++
				}
				if r.t.old {
					ackOld++
				}
			case Stale, Conflict:
				if corr != 0 {
					c.cfg.Tracer.Record(telemetry.QuorumWriteFail, key, corr,
						fmt.Sprintf("fenced by %s at %s", r.out, env.Version))
				}
				// The fence returns now; the calls still in flight keep
				// the shared deadline until the last of them answers.
				go func(left int) {
					for ; left > 0; left-- {
						<-results
					}
					release()
				}(len(targets) - i - 1)
				return errFenced(key, env.Version, r.out)
			}
			continue
		}
		if firstErr == nil {
			firstErr = r.err
		}
	}
	release()
	if ackCur >= w && (old == nil || ackOld >= wOld) {
		if corr != 0 {
			c.cfg.Tracer.Record(telemetry.QuorumWrite, key, corr,
				fmt.Sprintf("acks=%d/%d at %s", ackCur, w, env.Version))
		}
		return nil
	}
	acked := ackCur
	if old != nil && ackOld < acked {
		acked = ackOld
	}
	if corr != 0 {
		detail := fmt.Sprintf("acks=%d/%d at %s", acked, w, env.Version)
		if firstErr != nil {
			detail += ": " + firstErr.Error()
		}
		c.cfg.Tracer.Record(telemetry.QuorumWriteFail, key, corr, detail)
	}
	if firstErr != nil {
		return fmt.Errorf("%w: %s got %d/%d acks: %v", ErrQuorum, key, acked, w, firstErr)
	}
	return fmt.Errorf("%w: %s got %d/%d acks", ErrQuorum, key, acked, w)
}

// readQuorum collects R home answers for key (a clean "not found" from a
// home counts as an answer) and returns the winning envelope under the
// (version, value-hash) order, repairing any responder that returned an
// older answer. Only homes answer: any R homes intersect the W homes
// that acked the last write, so a read that cannot reach R homes fails
// with ErrQuorum rather than answer without that write. During a ring
// transition R answers are required from the superseded ring's home set
// as well — a write acked before the change only intersects the old
// homes, and the new homes' "not found" answers must not outvote it.
// found is false when no responder held the key.
func (c *Coordinator) readQuorum(ctx context.Context, key string) (Envelope, bool, error) {
	cur, old := c.rings()
	n, rq, _ := c.quorumFor(cur)
	rOld := 0
	nOld := 0
	if old != nil {
		nOld, rOld, _ = c.quorumFor(old)
	}
	var buf [maxTargets]writeTarget
	targets := quorumTargets(buf[:0], key, cur, n, old, nOld)

	type res struct {
		t     writeTarget
		env   Envelope
		found bool
		err   error
	}
	results := make(chan res, len(targets))
	shared, release := c.sharedDeadline(ctx, targets)
	for _, t := range targets {
		tctx := c.homeCtx(ctx, shared, t.silo)
		go func() {
			env, found, err := c.fetchFrom(tctx, t.silo, key)
			results <- res{t: t, env: env, found: found, err: err}
		}()
	}
	var oks []res
	okCur, okOld := 0, 0
	var firstErr error
	for i := 0; i < len(targets); i++ {
		r := <-results
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		if r.t.cur {
			okCur++
		}
		if r.t.old {
			okOld++
		}
		oks = append(oks, r)
	}
	release()
	if okCur < rq || okOld < rOld {
		got := okCur
		if old != nil && okOld < got {
			got = okOld
		}
		if tr := c.cfg.Tracer; tr.Recording() {
			detail := fmt.Sprintf("reads=%d/%d", got, rq)
			if firstErr != nil {
				detail += ": " + firstErr.Error()
			}
			tr.Record(telemetry.QuorumReadFail, key, tr.NewCorr(), detail)
		}
		if firstErr != nil {
			return Envelope{}, false, fmt.Errorf("%w: %s got %d/%d reads: %v", ErrQuorum, key, got, rq, firstErr)
		}
		return Envelope{}, false, fmt.Errorf("%w: %s got %d/%d reads", ErrQuorum, key, got, rq)
	}
	var win Envelope
	var winFound bool
	for _, r := range oks {
		if !r.found {
			continue
		}
		if !winFound || newerEnv(r.env, win) {
			win, winFound = r.env, true
		}
	}
	if !winFound {
		return Envelope{}, false, nil
	}
	// Read-repair: push the winner to every responder that answered with
	// something older (or nothing). Best-effort and synchronous — the
	// repairs hit at most N-1 homes that just proved reachable.
	enc := win.Encode()
	repaired := 0
	for _, r := range oks {
		if r.found && !newerEnv(win, r.env) {
			continue
		}
		if out, err := c.applyTo(ctx, r.t.silo, key, enc); err == nil && out == Applied {
			c.mReadRepair.Inc()
			repaired++
		}
	}
	// Only the interesting reads make the journal — ones that pushed a
	// repair. Plain healthy reads would wash the ring out under a
	// read-heavy workload.
	if tr := c.cfg.Tracer; repaired > 0 && tr.Recording() {
		tr.Record(telemetry.QuorumRead, key, tr.NewCorr(),
			fmt.Sprintf("repaired=%d at %s", repaired, win.Version))
	}
	return win, true, nil
}

// newerEnv orders envelopes by (version, value-hash) — the same total
// order replicas apply, so reads, repairs, and anti-entropy all agree on
// one winner.
func newerEnv(a, b Envelope) bool {
	if cp := a.Version.Compare(b.Version); cp != 0 {
		return cp > 0
	}
	return hashEnv(a) > hashEnv(b)
}

// Load performs a quorum read for an activation about to own key. The
// returned version is the new activation's fencing claim: the loaded
// envelope's epoch plus one, sequence zero, so every write this
// activation makes orders above everything its predecessors wrote.
// A key no home holds returns (nil, 0) and an error matching
// kvstore.ErrNotFound.
func (c *Coordinator) Load(ctx context.Context, key string) ([]byte, int64, error) {
	env, found, err := c.readQuorum(ctx, key)
	if err != nil {
		return nil, 0, err
	}
	if !found {
		return nil, 0, fmt.Errorf("%w: %s", kvstore.ErrNotFound, key)
	}
	next := Version{Epoch: env.Version.Epoch + 1}
	// The claim lives only in the new activation until its first write, so
	// a predecessor can still be acked below it: the recorder is the one
	// place a timeline can see that window open.
	if tr := c.cfg.Tracer; tr.Recording() {
		tr.Record(telemetry.EpochClaim, key, 0, fmt.Sprintf("epoch %d over %s", next.Epoch, env.Version))
	}
	return env.Value, next.Packed(), nil
}

// Get performs a plain quorum read (no epoch claim): the currently
// visible value and its packed version. A missing key returns an error
// matching kvstore.ErrNotFound.
func (c *Coordinator) Get(ctx context.Context, key string) ([]byte, int64, error) {
	env, found, err := c.readQuorum(ctx, key)
	if err != nil {
		return nil, 0, err
	}
	if !found {
		return nil, 0, fmt.Errorf("%w: %s", kvstore.ErrNotFound, key)
	}
	return env.Value, env.Version.Packed(), nil
}

// Store quorum-writes data under key, fenced on the packed version the
// caller loaded at: the write carries (epoch, seq+1), and any replica
// holding a higher version rejects it, surfacing as an error matching
// kvstore.ErrVersionMismatch. The caller's new version is returned on
// success and also beside a quorum failure: that attempt may sit on a
// minority of replicas, so its (epoch, seq) is spent and a retry must
// write above it rather than reuse it with different bytes.
func (c *Coordinator) Store(ctx context.Context, key string, data []byte, version int64) (int64, error) {
	v := Unpack(version)
	next := Version{Epoch: v.Epoch, Seq: v.Seq + 1}
	if next.Seq == 0 {
		// Sequence wrap after 4B writes in one epoch: move to a fresh
		// epoch rather than reusing (E, 0).
		next = Version{Epoch: v.Epoch + 1, Seq: 1}
	}
	env := Envelope{Version: next, Value: data}
	if err := c.writeQuorum(ctx, key, env); err != nil {
		if errors.Is(err, kvstore.ErrVersionMismatch) {
			return 0, err
		}
		return next.Packed(), err
	}
	return next.Packed(), nil
}
