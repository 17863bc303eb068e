package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/core"
	"aodb/internal/faults"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/replication"
	"aodb/internal/telemetry"
	"aodb/internal/transport"
)

// ReplChaosConfig describes a replicated chaos soak: the ledger workload
// of RunChaos, but with actor state quorum-replicated across per-silo
// stores and a second fault axis — seeded storage wipes that destroy one
// replica's entire disk. The run's invariant is the same, made strictly
// harder: every acknowledged write survives even though replicas keep
// losing all local state, and every client-visible error is classified.
//
// Quorums are strict: only a key's N homes count toward R and W, so any
// two W>N/2 quorums intersect whatever the cluster size. With Silos > N
// every key also has silos that are not its homes; they stay alive while
// a home is down and must never stand in for it. See DESIGN.md,
// "Replication".
type ReplChaosConfig struct {
	// Silos is the cluster size and the replication factor N's ceiling
	// (default 3).
	Silos int
	// N, R, W configure the coordinator (defaults: N=Silos, majorities).
	N, R, W int
	// Ledgers and Clients shape the acked-write load (defaults 8/8).
	Ledgers int
	Clients int
	// Duration is the chaos window (default 5s).
	Duration time.Duration
	// CrashEvery drives the silo crash loop (default and outage length
	// as in RunChaos).
	CrashEvery time.Duration
	// WipeEvery is how often the wipe loop consults the seeded
	// WipeDecision for a random replica (default Duration/4). A wipe only
	// proceeds when every silo is up and the previous wipe's restoration
	// sweep has completed, so at most one replica is ever rebuilding —
	// with W>=2 durable home acks, that leaves at least one intact copy
	// of every acknowledged write at all times.
	WipeEvery time.Duration
	// OpTimeout bounds one client write attempt (default 2s).
	OpTimeout time.Duration
	// Faults configures the injector; its Seed defaults to Seed.
	Faults faults.Config
	Seed   int64
	// StoreDir is required: each silo's replica store lives in its own
	// subdirectory (that is what a wipe destroys).
	StoreDir string
	// Durable makes every replica apply fsync before acking, so the
	// zero-lost-writes audit is checked against real durability.
	Durable bool
}

func (c *ReplChaosConfig) fill() error {
	if c.StoreDir == "" {
		return errors.New("bench: replicated soak needs StoreDir (wipes destroy real directories)")
	}
	fillQuorum(&c.Silos, &c.N, &c.R, &c.W)
	orDefault(&c.Ledgers, 8)
	orDefault(&c.Clients, 8)
	orDefault(&c.Duration, 5*time.Second)
	orDefault(&c.CrashEvery, c.Duration/4)
	orDefault(&c.WipeEvery, c.Duration/4)
	orDefault(&c.OpTimeout, defaultOpTimeout)
	if c.Seed == 0 {
		c.Seed = defaultSeed
	}
	return nil
}

// ReplChaosResult reports what a replicated soak survived.
type ReplChaosResult struct {
	LedgerAudit
	SoakFaults
	Wipes                      int // replicas whose storage was destroyed and rebuilt
	ReadRepairs, DivergentKeys uint64
	VerifyElapsed              time.Duration
	// Activations and StaleFences are core.activations and
	// core.stale_writes_fenced: a run in which no silo crashes and no turn
	// panics activates each ledger once and fences nothing.
	Activations, StaleFences int64
	// LossTimeline is the flight recorder's view of the lowest lost
	// write's ledger around that write's ack, so a red run explains itself.
	LossTimeline []telemetry.Event
}

// replReplica is one silo's wipeable storage: the harness swaps the
// whole stack (kvstore, table, replica store) when the disk is wiped.
type replReplica struct {
	name string
	dir  string

	mu     sync.Mutex
	store  *kvstore.Store
	rstore *replication.Store
}

func (r *replReplica) close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.store.Close()
}

// classifiedRepl extends the soak taxonomy with the replication layer's
// transient condition: a read or write that could not assemble its
// quorum (replicas crashed, wiping, or storage-faulted). Clients retry
// it like any other transient.
func classifiedRepl(err error) bool {
	return classified(err) || errors.Is(err, replication.ErrQuorum)
}

// fillQuorum defaults the cluster to 3 silos, N to all of them (and
// clamps it there), and R and W to majorities of N.
func fillQuorum(silos, n, r, w *int) {
	orDefault(silos, 3)
	if *n <= 0 || *n > *silos {
		*n = *silos
	}
	orDefault(r, *n/2+1)
	orDefault(w, *n/2+1)
}

// RunChaosReplicated executes one replicated chaos soak and audits the
// aftermath. As with RunChaos, the error return is for harness failures;
// the run's verdict is in the result: LostWrites and Unclassified must
// come back empty even though silos crashed and replica disks were
// destroyed mid-flight.
func RunChaosReplicated(ctx context.Context, cfg ReplChaosConfig) (ReplChaosResult, error) {
	var res ReplChaosResult
	if err := cfg.fill(); err != nil {
		return res, err
	}
	reg := metrics.NewRegistry()
	// One recorder for the runtime and the coordinator, sized to hold a
	// whole soak (one quorum-write event per acked write).
	rec := telemetry.New(telemetry.Config{Parts: telemetry.Events, Silo: "soak", EventCapacity: 1 << 16})
	s := newSoak(cfg.Silos, cfg.Faults, cfg.Seed)
	set, err := newReplicaSet(s.silos, cfg.N, cfg.Durable, reg)
	if err != nil {
		return res, err
	}

	// Per-silo replica stores, each on its own wipeable directory, all
	// hosted behind one service so replication RPCs ride the soak's
	// transport stack like actor traffic: a crashed silo's replica is
	// unreachable exactly while the silo is down.
	replicas := make([]*replReplica, cfg.Silos)
	open := func(r *replReplica, rebuilding bool) error {
		return set.host(r.name, r.dir, func(st *kvstore.Store, rstore *replication.Store) {
			st.SetWriteFault(s.inj.KVWriteFault())
			// A store reopened over a wiped directory must not answer reads
			// until restoration declares it caught up: its "not found"s would
			// count as read-quorum answers and can defeat quorum intersection.
			rstore.SetRebuilding(rebuilding)
			r.mu.Lock()
			r.store, r.rstore = st, rstore
			r.mu.Unlock()
		})
	}
	for i, name := range s.silos {
		replicas[i] = &replReplica{name: name, dir: filepath.Join(cfg.StoreDir, name)}
		if err := open(replicas[i], false); err != nil {
			return res, err
		}
		defer replicas[i].close()
	}
	defer s.close() // the runtime shuts down before the stores close

	coord, err := replication.NewCoordinator(replication.Config{
		Ring:      set.ring,
		N:         cfg.N,
		R:         cfg.R,
		W:         cfg.W,
		Transport: s.breaker,
		Alive:     s.view.isUp,
		Metrics:   reg,
		Tracer:    rec,
	})
	if err != nil {
		return res, err
	}
	if err := s.start(core.Config{States: coord, Metrics: reg, Tracer: rec}, func(rt *core.Runtime) error {
		return rt.RegisterService(replication.TargetKind, set.svc.Handle)
	}); err != nil {
		return res, err
	}

	// Chaos window opens.
	s.inj.SetEnabled(true)
	chaosCtx, stopChaos := context.WithTimeout(ctx, cfg.Duration)
	defer stopChaos()
	crashDone := s.crashLoop(chaosCtx, cfg.CrashEvery, cfg.Seed)

	// Wipe loop: seeded total storage loss on one replica at a time. A
	// wipe closes the store, destroys the directory contents, reopens an
	// empty store, hot-swaps it into the service, then runs restoration
	// sweeps until a full pass finds nothing divergent — only then is the
	// next wipe eligible. In-flight replica RPCs during the swap fail
	// with kvstore.ErrClosed and count as ordinary replica failures
	// (failed homes, retried); they never reach a client unclassified.
	wipeDone := make(chan struct{})
	go func() {
		defer close(wipeDone)
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		ticker := time.NewTicker(cfg.WipeEvery)
		defer ticker.Stop()
		for {
			select {
			case <-chaosCtx.Done():
				return
			case <-ticker.C:
			}
			if !s.allUp() {
				continue // never overlap a wipe with a crash outage
			}
			victim := replicas[rng.Intn(len(replicas))]
			if !s.inj.WipeDecision(victim.name) {
				continue
			}
			victim.mu.Lock()
			_ = victim.store.Close()
			err := faults.StorageWipe(victim.dir)
			victim.mu.Unlock()
			if err != nil {
				return // harness failure; audit will surface missing data
			}
			if err := open(victim, true); err != nil {
				return
			}
			res.Wipes++
			// Restoration: anti-entropy rebuilds the wiped replica from
			// its peers. Sweep until one full pass over the victim's
			// pairs is clean (or chaos ends first — the healing audit
			// finishes the job then), then release the read gate.
			for chaosCtx.Err() == nil {
				sctx, cancel := context.WithTimeout(context.Background(), cfg.OpTimeout)
				n, serr := coord.SweepOnce(sctx, victim.name, 64)
				cancel()
				if serr == nil && n == 0 && s.allUp() {
					victim.mu.Lock()
					victim.rstore.SetRebuilding(false)
					victim.mu.Unlock()
					break
				}
			}
		}
	}()

	load := &ledgerLoad{rt: s.rt, ledgers: cfg.Ledgers, opTimeout: cfg.OpTimeout, classified: classifiedRepl, rec: rec}
	load.start(chaosCtx, cfg.Clients)
	load.clients.Wait()
	<-crashDone
	<-wipeDone

	// Heal: stop injecting, restart every silo, sweep to convergence,
	// then audit through quorum reads, all inside one budget.
	verifyStart := time.Now()
	for _, r := range replicas {
		r.mu.Lock()
		r.store.SetWriteFault(nil)
		// Chaos may have ended mid-restoration; with every silo up and
		// faults off, the healing sweeps below converge fully, so read
		// gates can lift now.
		r.rstore.SetRebuilding(false)
		r.mu.Unlock()
	}
	if err := s.heal(); err != nil {
		return res, err
	}
	deadline := time.Now().Add(auditBudget)
	for {
		sctx, cancel := context.WithTimeout(ctx, cfg.OpTimeout)
		n, serr := coord.SweepOnce(sctx, "", 64)
		cancel()
		if serr == nil && n == 0 {
			break
		}
		if time.Now().After(deadline) {
			return res, fmt.Errorf("bench: anti-entropy not converged after healing (divergent=%d, err=%v)", n, serr)
		}
	}
	if res.LedgerAudit, res.LossTimeline, err = load.audit(ctx, deadline); err != nil {
		return res, err
	}
	res.SoakFaults = s.faults()
	res.ReadRepairs = uint64(reg.Counter("replication.readrepair.count").Value())
	res.DivergentKeys = uint64(reg.Counter("replication.antientropy.divergent_keys").Value())
	res.Activations = reg.Counter("core.activations").Value()
	res.StaleFences = reg.Counter("core.stale_writes_fenced").Value()
	res.VerifyElapsed = time.Since(verifyStart)
	return res, nil
}

// QuorumLatencyConfig configures one point of the N/R/W latency
// ablation: durable quorum puts through a coordinator over in-process
// silos, against a bare single-table durable put baseline.
type QuorumLatencyConfig struct {
	// Silos and N, R, W shape the ring and quorums (defaults 3, N=Silos,
	// majorities; N=1 exercises the Local-map fast path).
	Silos   int
	N, R, W int
	// Ops is how many sequential puts to measure (default 2000), spread
	// over quorumKeys keys of quorumValueSize bytes.
	Ops int
	// Dir backs the stores with disk; required when Durable.
	Dir     string
	Durable bool
}

const (
	quorumKeys      = 64
	quorumValueSize = 128
)

// QuorumLatencyResult is one measured ablation point.
type QuorumLatencyResult struct {
	N, R, W, Ops        int
	Mean, P50, P95, P99 time.Duration
	// Baseline is the same op count of bare durable table puts on one
	// store: the cost an N=1 coordinator's Local-map fast path adds
	// nothing to.
	BaselineMean, BaselineP50 time.Duration
	// RPCs is the transport calls the measured puts made; the N=1 fast
	// path makes none. Allocs and BaselineAllocs are each loop's
	// allocations per put, background goroutines included.
	RPCs                   int64
	Allocs, BaselineAllocs float64
}

// countingTransport counts the calls that go through it.
type countingTransport struct {
	transport.Transport
	calls atomic.Int64
}

func (c *countingTransport) Call(ctx context.Context, node string, req transport.Request) (any, error) {
	c.calls.Add(1)
	return c.Transport.Call(ctx, node, req)
}

// mallocs is the process's allocation count so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// RunQuorumLatency measures one N/R/W point. The first silo's store is
// wired through the coordinator's Local map (the production fast path:
// a silo is always local to itself); the rest are reached through an
// in-process transport, so N>1 points pay real dispatch per extra
// replica.
func RunQuorumLatency(ctx context.Context, cfg QuorumLatencyConfig) (QuorumLatencyResult, error) {
	var out QuorumLatencyResult
	fillQuorum(&cfg.Silos, &cfg.N, &cfg.R, &cfg.W)
	orDefault(&cfg.Ops, 2000)
	if cfg.Durable && cfg.Dir == "" {
		return out, errors.New("bench: durable quorum latency needs Dir")
	}
	out.N, out.R, out.W, out.Ops = cfg.N, cfg.R, cfg.W, cfg.Ops
	dir := func(name string) string {
		if cfg.Dir == "" {
			return ""
		}
		return filepath.Join(cfg.Dir, name)
	}

	names := siloNames(cfg.Silos)
	set, err := newReplicaSet(names, cfg.N, cfg.Durable, nil)
	if err != nil {
		return out, err
	}
	locals := make(map[string]*replication.Store)
	tr := &countingTransport{Transport: transport.NewLocal(nil, nil)}
	defer tr.Close()
	var stores []*kvstore.Store
	defer func() {
		for _, st := range stores {
			st.Close()
		}
	}()
	for _, name := range names {
		if err := set.host(name, dir(name), func(st *kvstore.Store, rstore *replication.Store) {
			stores = append(stores, st)
			if name == names[0] {
				locals[name] = rstore
			}
		}); err != nil {
			return out, err
		}
		// The first silo answers on the transport too, so a coordinator
		// that missed its Local map would show up as RPCs, not as an error.
		silo := name
		if err := tr.Register(silo, func(hctx context.Context, req transport.Request) (any, error) {
			return set.svc.Handle(hctx, silo, req)
		}); err != nil {
			return out, err
		}
	}
	coord, err := replication.NewCoordinator(replication.Config{
		Ring: set.ring, N: cfg.N, R: cfg.R, W: cfg.W,
		Transport: tr, Sender: names[0], Local: locals,
	})
	if err != nil {
		return out, err
	}
	defer coord.Close(context.Background())

	value := make([]byte, quorumValueSize)
	for i := range value {
		value[i] = byte(i)
	}
	versions := make(map[string]int64, quorumKeys)
	key := func(i int) string { return fmt.Sprintf("Sensor/%04d", i%quorumKeys) }
	// Warm every key so the measured loop is steady-state puts.
	for i := 0; i < quorumKeys; i++ {
		v, err := coord.Store(ctx, key(i), value, versions[key(i)])
		if err != nil {
			return out, err
		}
		versions[key(i)] = v
	}
	lat := metrics.NewHistogram()
	calls, allocs := tr.calls.Load(), mallocs()
	for i := 0; i < cfg.Ops; i++ {
		k := key(i)
		start := time.Now()
		v, err := coord.Store(ctx, k, value, versions[k])
		if err != nil {
			return out, err
		}
		lat.RecordDuration(time.Since(start))
		versions[k] = v
	}
	out.Allocs = float64(mallocs()-allocs) / float64(cfg.Ops)
	out.RPCs = tr.calls.Load() - calls
	snap := lat.Snapshot()
	out.Mean = time.Duration(snap.Mean())
	out.P50, out.P95, out.P99 = snap.PercentileDuration(50), snap.PercentileDuration(95), snap.PercentileDuration(99)

	// Baseline: bare durable puts on a standalone table, same op count.
	bst, err := kvstore.Open(kvstore.Options{Dir: dir("baseline"), Durable: cfg.Durable})
	if err != nil {
		return out, err
	}
	defer bst.Close()
	btab, err := bst.EnsureTable(core.StateTable, kvstore.Throughput{})
	if err != nil {
		return out, err
	}
	lat = metrics.NewHistogram()
	allocs = mallocs()
	for i := 0; i < cfg.Ops; i++ {
		start := time.Now()
		if _, err := btab.Put(ctx, key(i), value); err != nil {
			return out, err
		}
		lat.RecordDuration(time.Since(start))
	}
	out.BaselineAllocs = float64(mallocs()-allocs) / float64(cfg.Ops)
	snap = lat.Snapshot()
	out.BaselineMean, out.BaselineP50 = time.Duration(snap.Mean()), snap.PercentileDuration(50)
	return out, nil
}

// QuorumAblationRow is one N/R/W configuration measured two ways: the
// steady-state durable-put latency through the coordinator, and what a
// storage-kill soak at that configuration actually lost.
type QuorumAblationRow struct {
	Latency QuorumLatencyResult
	Soak    ReplChaosResult
}

// QuorumAblation measures the N/R/W tradeoff: each configuration pays
// its quorum's latency and keeps (or loses) acknowledged writes under
// combined silo crashes and replica storage wipes accordingly. N=1 and
// W=1 are expected to lose writes when the only replica's disk dies —
// that is the row that justifies the others.
func QuorumAblation(ctx context.Context, dir string, duration time.Duration, points [][3]int) ([]QuorumAblationRow, error) {
	orDefault(&duration, 3*time.Second)
	if len(points) == 0 {
		points = [][3]int{{1, 1, 1}, {2, 1, 1}, {2, 2, 2}, {3, 1, 1}, {3, 2, 2}, {3, 3, 3}}
	}
	rows := make([]QuorumAblationRow, 0, len(points))
	for i, p := range points {
		n, r, w := p[0], p[1], p[2]
		lat, err := RunQuorumLatency(ctx, QuorumLatencyConfig{
			Silos: 3, N: n, R: r, W: w,
			Dir:     filepath.Join(dir, fmt.Sprintf("lat-%d", i)),
			Durable: true,
		})
		if err != nil {
			return rows, err
		}
		soak, err := RunChaosReplicated(ctx, ReplChaosConfig{
			Silos: 3, N: n, R: r, W: w,
			Duration: duration,
			Seed:     int64(100 + i),
			StoreDir: filepath.Join(dir, fmt.Sprintf("soak-%d", i)),
			Durable:  true,
			Faults: faults.Config{
				Drop: 0.01, KVWrite: 0.01, Wipe: 1, // every eligible wipe tick fires
			},
		})
		if err != nil {
			return rows, err
		}
		rows = append(rows, QuorumAblationRow{Latency: lat, Soak: soak})
	}
	return rows, nil
}
