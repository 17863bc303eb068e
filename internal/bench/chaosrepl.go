package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/cluster"
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
	// CrashEvery / RestartAfter drive the silo crash loop (defaults as in
	// RunChaos).
	CrashEvery   time.Duration
	RestartAfter time.Duration
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
	if c.Silos <= 0 {
		c.Silos = 3
	}
	if c.N <= 0 || c.N > c.Silos {
		c.N = c.Silos
	}
	if c.R <= 0 {
		c.R = c.N/2 + 1
	}
	if c.W <= 0 {
		c.W = c.N/2 + 1
	}
	if c.Ledgers <= 0 {
		c.Ledgers = 8
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.CrashEvery <= 0 {
		c.CrashEvery = c.Duration / 4
	}
	if c.RestartAfter <= 0 || c.RestartAfter >= c.CrashEvery {
		c.RestartAfter = c.CrashEvery / 2
	}
	if c.WipeEvery <= 0 {
		c.WipeEvery = c.Duration / 4
	}
	if c.OpTimeout <= 0 {
		c.OpTimeout = 2 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Faults.Seed == 0 {
		c.Faults.Seed = c.Seed
	}
	return nil
}

// ReplChaosResult reports what a replicated soak survived.
type ReplChaosResult struct {
	AckedWrites  int
	LostWrites   []uint64 // must be empty
	Crashes      int
	Restarts     int
	Wipes        int // replicas whose storage was destroyed and rebuilt
	RetriedOps   int64
	Unclassified []string // must be empty
	InjectedDrops, InjectedDups, InjectedDelays,
	InjectedKVErrs, InjectedPanics uint64
	ReadRepairs, DivergentKeys uint64
	BreakerTrips               bool
	VerifyElapsed              time.Duration
	// Activations and StaleFences are core.activations and
	// core.stale_writes_fenced: a run in which no silo crashes and no turn
	// panics activates each ledger once and fences nothing.
	Activations, StaleFences int64
	// LossTimeline is the flight recorder's view of the first lost write's
	// ledger around that write's ack, so a red run explains itself.
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
	inj := faults.New(cfg.Faults)
	inj.SetEnabled(false)
	// One recorder for the runtime and the coordinator, sized to hold a
	// whole soak (one quorum-write event per acked write).
	rec := telemetry.New(telemetry.Config{Parts: telemetry.Events, Silo: "soak", EventCapacity: 1 << 16})

	siloNames := make([]string, cfg.Silos)
	for i := range siloNames {
		siloNames[i] = fmt.Sprintf("silo-%d", i+1)
	}
	ring, err := replication.NewRing(siloNames)
	if err != nil {
		return res, err
	}

	// Per-silo replica stores, each on its own wipeable directory, all
	// hosted behind one service so replication RPCs ride the same
	// breaker(faults(local)) stack as actor traffic: a crashed silo's
	// replica is unreachable exactly while the silo is down.
	svc := replication.NewService()
	replicas := make([]*replReplica, cfg.Silos)
	openReplica := func(r *replReplica, rebuilding bool) error {
		st, err := kvstore.Open(kvstore.Options{Dir: r.dir, Durable: cfg.Durable})
		if err != nil {
			return err
		}
		st.SetWriteFault(inj.KVWriteFault())
		tab, err := st.EnsureTable(core.StateTable, kvstore.Throughput{})
		if err != nil {
			st.Close()
			return err
		}
		rstore, err := replication.NewStore(replication.StoreConfig{
			Silo: r.name, Table: tab, Ring: ring, N: cfg.N, Metrics: reg,
		})
		if err != nil {
			st.Close()
			return err
		}
		// A store reopened over a wiped directory must not answer reads
		// until restoration declares it caught up: its "not found"s would
		// count as read-quorum answers and can defeat quorum intersection.
		rstore.SetRebuilding(rebuilding)
		r.mu.Lock()
		r.store, r.rstore = st, rstore
		r.mu.Unlock()
		svc.Host(r.name, rstore)
		return nil
	}
	for i, name := range siloNames {
		replicas[i] = &replReplica{name: name, dir: filepath.Join(cfg.StoreDir, name)}
		if err := openReplica(replicas[i], false); err != nil {
			return res, err
		}
		defer replicas[i].close()
	}

	local := transport.NewLocal(nil, nil)
	breaker := transport.NewBreaker(inj.WrapTransport(local), transport.BreakerOptions{})
	view := &chaosView{up: make(map[string]bool)}

	coord, err := replication.NewCoordinator(replication.Config{
		Ring:      ring,
		N:         cfg.N,
		R:         cfg.R,
		W:         cfg.W,
		Transport: breaker,
		Alive:     func(silo string) bool { return siloUp(view, silo) },
		Metrics:   reg,
		Tracer:    rec,
	})
	if err != nil {
		return res, err
	}

	panicHook := inj.PanicHook()
	rt, err := core.New(core.Config{
		Transport:    breaker,
		States:       coord,
		View:         cluster.NewFilteredView(view, breaker.Open),
		IdleAfter:    time.Hour,
		CollectEvery: time.Hour,
		BeforeTurn:   func(id core.ID, msg any) { panicHook(id.String()) },
		Metrics:      reg,
		Tracer:       rec,
	})
	if err != nil {
		return res, err
	}
	defer func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = rt.Shutdown(shCtx)
	}()
	if err := rt.RegisterService(replication.TargetKind, svc.Handle); err != nil {
		return res, err
	}
	if err := rt.RegisterKind("Ledger", func() core.Actor { return &ledgerActor{} },
		core.WithPersistence(core.PersistExplicit)); err != nil {
		return res, err
	}
	for _, name := range siloNames {
		if _, err := rt.AddSilo(name, nil); err != nil {
			return res, err
		}
		view.set(name, true)
	}

	// Chaos window opens.
	inj.SetEnabled(true)
	chaosCtx, stopChaos := context.WithTimeout(ctx, cfg.Duration)
	defer stopChaos()

	// Crash loop: one victim at a time, abrupt kill, delayed restart.
	// The replica's disk survives a crash — only a wipe destroys it.
	crashDone := make(chan struct{})
	go func() {
		defer close(crashDone)
		rng := rand.New(rand.NewSource(cfg.Seed))
		ticker := time.NewTicker(cfg.CrashEvery)
		defer ticker.Stop()
		for {
			select {
			case <-chaosCtx.Done():
				return
			case <-ticker.C:
			}
			victim := siloNames[rng.Intn(len(siloNames))]
			if err := rt.CrashSilo(victim); err != nil {
				continue
			}
			view.set(victim, false)
			res.Crashes++
			select {
			case <-chaosCtx.Done():
				return
			case <-time.After(cfg.RestartAfter):
			}
			if _, err := rt.AddSilo(victim, nil); err == nil {
				view.set(victim, true)
				res.Restarts++
			}
		}
	}()

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
			if !allUp(view, siloNames) {
				continue // never overlap a wipe with a crash outage
			}
			victim := replicas[rng.Intn(len(replicas))]
			if !inj.WipeDecision(victim.name) {
				continue
			}
			victim.mu.Lock()
			_ = victim.store.Close()
			err := faults.StorageWipe(victim.dir)
			victim.mu.Unlock()
			if err != nil {
				return // harness failure; audit will surface missing data
			}
			if err := openReplica(victim, true); err != nil {
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
				if serr == nil && n == 0 && allUp(view, siloNames) {
					victim.mu.Lock()
					victim.rstore.SetRebuilding(false)
					victim.mu.Unlock()
					break
				}
			}
		}
	}()

	// Clients: retry until acked or chaos ends; only acks join the audit.
	var (
		seqCtr     atomic.Uint64
		retriedOps atomic.Int64
		ackedMu    sync.Mutex
		acked      []ackedWrite
		unclassMu  sync.Mutex
		unclass    []string
	)
	var clients sync.WaitGroup
	for c := 0; c < cfg.Clients; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for chaosCtx.Err() == nil {
				seq := seqCtr.Add(1)
				id := core.ID{Kind: "Ledger", Key: fmt.Sprintf("L%d", seq%uint64(cfg.Ledgers))}
				attempts := 0
				for chaosCtx.Err() == nil {
					attempts++
					opCtx, cancel := context.WithTimeout(context.Background(), cfg.OpTimeout)
					_, err := rt.Call(opCtx, id, ledgerPut{Seq: seq})
					cancel()
					if err == nil {
						ackedMu.Lock()
						acked = append(acked, ackedWrite{seq: seq, hlc: rec.StampHLC()})
						ackedMu.Unlock()
						break
					}
					if !classifiedRepl(err) {
						unclassMu.Lock()
						if len(unclass) < 16 {
							unclass = append(unclass, err.Error())
						}
						unclassMu.Unlock()
						break
					}
				}
				if attempts > 1 {
					retriedOps.Add(1)
				}
			}
		}()
	}
	clients.Wait()
	<-crashDone
	<-wipeDone

	// Heal: stop injecting, restart every silo, sweep to convergence,
	// then audit through quorum reads.
	verifyStart := time.Now()
	inj.SetEnabled(false)
	for _, r := range replicas {
		r.mu.Lock()
		r.store.SetWriteFault(nil)
		// Chaos may have ended mid-restoration; with every silo up and
		// faults off, the healing sweeps below converge fully, so read
		// gates can lift now.
		r.rstore.SetRebuilding(false)
		r.mu.Unlock()
	}
	for _, name := range siloNames {
		if _, ok := rt.Silo(name); !ok {
			if _, err := rt.AddSilo(name, nil); err != nil {
				return res, fmt.Errorf("bench: healing restart of %s: %w", name, err)
			}
			res.Restarts++
		}
		view.set(name, true)
	}
	deadline := time.Now().Add(30 * time.Second)
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

	survived := make(map[uint64]bool)
	for l := 0; l < cfg.Ledgers; l++ {
		id := core.ID{Kind: "Ledger", Key: fmt.Sprintf("L%d", l)}
		// Fence before reading, as in RunChaos: one write forces the
		// version-conditional quorum put, so a zombie activation fails
		// its fence and the retried call reads hydrated quorum state.
		fence := seqCtr.Add(1)
		if err := replCallUntil(ctx, rt, id, ledgerPut{Seq: fence}, cfg.OpTimeout, deadline); err != nil {
			return res, fmt.Errorf("bench: ledger %s unwritable after healing: %w", id, err)
		}
		v, err := replCallValueUntil(ctx, rt, id, ledgerSeqs{}, cfg.OpTimeout, deadline)
		if err != nil {
			return res, fmt.Errorf("bench: ledger %s unreadable after healing: %w", id, err)
		}
		for _, s := range v.([]uint64) {
			survived[s] = true
		}
	}
	for _, a := range acked {
		if survived[a.seq] {
			continue
		}
		if len(res.LostWrites) == 0 {
			ledger := core.ID{Kind: "Ledger", Key: fmt.Sprintf("L%d", a.seq%uint64(cfg.Ledgers))}
			res.LossTimeline = eventsAround(rec, ledger.String(), a.hlc)
		}
		res.LostWrites = append(res.LostWrites, a.seq)
	}

	res.AckedWrites = len(acked)
	res.RetriedOps = retriedOps.Load()
	res.Unclassified = unclass
	res.InjectedDrops = inj.Fired("drop")
	res.InjectedDups = inj.Fired("dup")
	res.InjectedDelays = inj.Fired("delay")
	res.InjectedKVErrs = inj.Fired("kvwrite")
	res.InjectedPanics = inj.Fired("panic")
	res.ReadRepairs = uint64(reg.Counter("replication.readrepair.count").Value())
	res.DivergentKeys = uint64(reg.Counter("replication.antientropy.divergent_keys").Value())
	res.BreakerTrips = breaker.Trips() > 0
	res.Activations = reg.Counter("core.activations").Value()
	res.StaleFences = reg.Counter("core.stale_writes_fenced").Value()
	res.VerifyElapsed = time.Since(verifyStart)
	return res, nil
}

// ackedWrite is one acknowledged ledger put and the recorder's clock at
// the moment the client saw the ack.
type ackedWrite struct {
	seq, hlc uint64
}

// eventsAround returns actor's events nearest the instant at: the eight
// before it and the eight after, in causal order.
func eventsAround(rec *telemetry.Tracer, actor string, at uint64) []telemetry.Event {
	const each = 8
	evs := telemetry.EventFilter{Actor: actor}.Apply(telemetry.MergeEvents(rec.Events()))
	i := sort.Search(len(evs), func(i int) bool { return evs[i].HLC > at })
	return evs[max(0, i-each):min(len(evs), i+each)]
}

func siloUp(v *chaosView, name string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.up[name]
}

func allUp(v *chaosView, names []string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	for _, n := range names {
		if !v.up[n] {
			return false
		}
	}
	return true
}

func replCallUntil(ctx context.Context, rt *core.Runtime, id core.ID, msg any, opTimeout time.Duration, deadline time.Time) error {
	_, err := replCallValueUntil(ctx, rt, id, msg, opTimeout, deadline)
	return err
}

func replCallValueUntil(ctx context.Context, rt *core.Runtime, id core.ID, msg any, opTimeout time.Duration, deadline time.Time) (any, error) {
	for {
		opCtx, cancel := context.WithTimeout(ctx, opTimeout)
		v, err := rt.Call(opCtx, id, msg)
		cancel()
		if err == nil {
			return v, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// QuorumLatencyConfig configures one point of the N/R/W latency
// ablation: durable quorum puts through a coordinator over in-process
// silos, against a bare single-table durable put baseline.
type QuorumLatencyConfig struct {
	// Silos and N, R, W shape the ring and quorums (defaults 3, N=Silos,
	// majorities; N=1 exercises the Local-map fast path).
	Silos   int
	N, R, W int
	// Ops is how many sequential puts to measure (default 2000) over
	// Keys distinct keys (default 64) of ValueSize bytes (default 128).
	Ops       int
	Keys      int
	ValueSize int
	// Dir backs the stores with disk; required when Durable.
	Dir     string
	Durable bool
}

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
	if cfg.Silos <= 0 {
		cfg.Silos = 3
	}
	if cfg.N <= 0 || cfg.N > cfg.Silos {
		cfg.N = cfg.Silos
	}
	if cfg.R <= 0 {
		cfg.R = cfg.N/2 + 1
	}
	if cfg.W <= 0 {
		cfg.W = cfg.N/2 + 1
	}
	if cfg.Ops <= 0 {
		cfg.Ops = 2000
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 64
	}
	if cfg.ValueSize <= 0 {
		cfg.ValueSize = 128
	}
	if cfg.Durable && cfg.Dir == "" {
		return out, errors.New("bench: durable quorum latency needs Dir")
	}
	out.N, out.R, out.W, out.Ops = cfg.N, cfg.R, cfg.W, cfg.Ops

	names := make([]string, cfg.Silos)
	for i := range names {
		names[i] = fmt.Sprintf("silo-%d", i+1)
	}
	ring, err := replication.NewRing(names)
	if err != nil {
		return out, err
	}
	svc := replication.NewService()
	locals := make(map[string]*replication.Store)
	tr := &countingTransport{Transport: transport.NewLocal(nil, nil)}
	defer tr.Close()
	for i, name := range names {
		dir := ""
		if cfg.Dir != "" {
			dir = filepath.Join(cfg.Dir, name)
		}
		st, err := kvstore.Open(kvstore.Options{Dir: dir, Durable: cfg.Durable})
		if err != nil {
			return out, err
		}
		defer st.Close()
		tab, err := st.EnsureTable(core.StateTable, kvstore.Throughput{})
		if err != nil {
			return out, err
		}
		rstore, err := replication.NewStore(replication.StoreConfig{
			Silo: name, Table: tab, Ring: ring, N: cfg.N,
		})
		if err != nil {
			return out, err
		}
		svc.Host(name, rstore)
		if i == 0 {
			locals[name] = rstore
		}
		// The first silo answers on the transport too, so a coordinator
		// that missed its Local map would show up as RPCs, not as an error.
		silo := name
		if err := tr.Register(silo, func(hctx context.Context, req transport.Request) (any, error) {
			return svc.Handle(hctx, silo, req)
		}); err != nil {
			return out, err
		}
	}
	coord, err := replication.NewCoordinator(replication.Config{
		Ring: ring, N: cfg.N, R: cfg.R, W: cfg.W,
		Transport: tr, Sender: names[0], Local: locals,
	})
	if err != nil {
		return out, err
	}
	defer coord.Close(context.Background())

	value := make([]byte, cfg.ValueSize)
	for i := range value {
		value[i] = byte(i)
	}
	versions := make(map[string]int64, cfg.Keys)
	key := func(i int) string { return fmt.Sprintf("Sensor/%04d", i%cfg.Keys) }
	// Warm every key so the measured loop is steady-state puts.
	for i := 0; i < cfg.Keys; i++ {
		v, err := coord.Store(ctx, key(i), value, versions[key(i)])
		if err != nil {
			return out, err
		}
		versions[key(i)] = v
	}
	durs := make([]time.Duration, 0, cfg.Ops)
	calls, allocs := tr.calls.Load(), mallocs()
	for i := 0; i < cfg.Ops; i++ {
		k := key(i)
		start := time.Now()
		v, err := coord.Store(ctx, k, value, versions[k])
		if err != nil {
			return out, err
		}
		durs = append(durs, time.Since(start))
		versions[k] = v
	}
	out.Allocs = float64(mallocs()-allocs) / float64(cfg.Ops)
	out.RPCs = tr.calls.Load() - calls
	out.Mean, out.P50, out.P95, out.P99 = latStats(durs)

	// Baseline: bare durable puts on a standalone table, same op count.
	bdir := ""
	if cfg.Dir != "" {
		bdir = filepath.Join(cfg.Dir, "baseline")
	}
	bst, err := kvstore.Open(kvstore.Options{Dir: bdir, Durable: cfg.Durable})
	if err != nil {
		return out, err
	}
	defer bst.Close()
	btab, err := bst.EnsureTable(core.StateTable, kvstore.Throughput{})
	if err != nil {
		return out, err
	}
	bdurs := make([]time.Duration, 0, cfg.Ops)
	allocs = mallocs()
	for i := 0; i < cfg.Ops; i++ {
		start := time.Now()
		if _, err := btab.Put(ctx, key(i), value); err != nil {
			return out, err
		}
		bdurs = append(bdurs, time.Since(start))
	}
	out.BaselineAllocs = float64(mallocs()-allocs) / float64(cfg.Ops)
	out.BaselineMean, out.BaselineP50, _, _ = latStats(bdurs)
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
	if duration <= 0 {
		duration = 3 * time.Second
	}
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

func latStats(durs []time.Duration) (mean, p50, p95, p99 time.Duration) {
	if len(durs) == 0 {
		return
	}
	sorted := make([]time.Duration, len(durs))
	copy(sorted, durs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	pct := func(p float64) time.Duration {
		idx := int(p * float64(len(sorted)-1))
		return sorted[idx]
	}
	return sum / time.Duration(len(sorted)), pct(0.50), pct(0.95), pct(0.99)
}
