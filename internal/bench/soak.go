package bench

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/cluster"
	"aodb/internal/codec"
	"aodb/internal/core"
	"aodb/internal/faults"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/replication"
	"aodb/internal/shm"
	"aodb/internal/telemetry"
	"aodb/internal/transport"
)

// The machinery every soak (RunChaos, RunChaosReplicated, RunElastic)
// shares: the ledger actor and its acked-write load, the fenced audit,
// and, for the two in-process soaks, the fault-injecting cluster with its
// crash loop and healing restart.

const (
	// defaultOpTimeout bounds one client write attempt, and defaultSeed
	// seeds a soak, where the config leaves them zero (RunElastic always).
	defaultOpTimeout = 2 * time.Second
	defaultSeed      = 42
	// auditBudget bounds a soak's whole audit, from healing to the last
	// ledger read.
	auditBudget = 30 * time.Second
	// maxUnclassified is how many unclassified errors a result keeps.
	maxUnclassified = 16
)

// ledger messages. The ledger is a write-through idempotent seq-set: a
// put is acknowledged only after its state write is durable, and
// re-sending an acked seq is a no-op — which is what makes at-least-once
// retries safe to ack exactly once.
type ledgerPut struct{ Seq uint64 }
type ledgerSeqs struct{}

type ledgerState struct {
	Seqs map[string]bool
}

func init() {
	// RunElastic runs over real TCP, so the ledger's messages and state
	// must be wire-registered.
	codec.Register(ledgerPut{})
	codec.Register(ledgerSeqs{})
	codec.Register(ledgerState{})
	codec.Register([]uint64(nil))
}

type ledgerActor struct{ state ledgerState }

func (l *ledgerActor) State() any { return &l.state }

func (l *ledgerActor) Receive(ctx *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case ledgerPut:
		if l.state.Seqs == nil {
			l.state.Seqs = make(map[string]bool)
		}
		key := strconv.FormatUint(m.Seq, 10)
		if l.state.Seqs[key] {
			return true, nil // duplicate of an acked write
		}
		l.state.Seqs[key] = true
		if err := ctx.WriteState(); err != nil {
			// Not durable: roll back so a later duplicate isn't acked for
			// free, and report the failure instead of an ack.
			delete(l.state.Seqs, key)
			return nil, err
		}
		return true, nil
	case ledgerSeqs:
		out := make([]uint64, 0, len(l.state.Seqs))
		for k := range l.state.Seqs {
			n, err := strconv.ParseUint(k, 10, 64)
			if err != nil {
				return nil, err
			}
			out = append(out, n)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out, nil
	default:
		return nil, fmt.Errorf("ledger: unknown message %T", msg)
	}
}

func registerLedger(rt *core.Runtime) error {
	return rt.RegisterKind("Ledger", func() core.Actor { return &ledgerActor{} },
		core.WithPersistence(core.PersistExplicit))
}

func ledgerID(n uint64) core.ID {
	return core.ID{Kind: "Ledger", Key: fmt.Sprintf("L%d", n)}
}

// orDefault sets *v to d when *v is zero or negative.
func orDefault[T int | time.Duration](v *T, d T) {
	if *v <= 0 {
		*v = d
	}
}

func siloNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("silo-%d", i+1)
	}
	return names
}

// classified reports whether err is inside the soak's error taxonomy:
// transient runtime failures (retried), recovered actor panics, injected
// storage errors, and the client's own attempt deadline.
func classified(err error) bool {
	return core.Transient(err) ||
		errors.Is(err, core.ErrActorPanic) ||
		errors.Is(err, faults.ErrInjectedKVWrite) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// LedgerAudit is what a soak's audit found about its acknowledged
// writes. A run passes when LostWrites and Unclassified are both empty.
type LedgerAudit struct {
	AckedWrites  int      // writes acknowledged to clients
	LostWrites   []uint64 // acked seqs missing after healing, ascending
	RetriedOps   int64    // client ops that needed more than one attempt
	Unclassified []string // errors outside the soak's taxonomy (the first 16)
}

// Failed reports whether the run violated its invariants.
func (a LedgerAudit) Failed() error {
	if len(a.LostWrites) > 0 {
		return fmt.Errorf("bench: %d acked writes lost: %v", len(a.LostWrites), a.LostWrites)
	}
	if len(a.Unclassified) > 0 {
		return fmt.Errorf("bench: %d unclassified client errors (first: %s)", len(a.Unclassified), a.Unclassified[0])
	}
	return nil
}

// ledgerLoad is the acked-write workload: writers that each retry one
// seq until it is acknowledged, the soak's taxonomy rejects its error,
// or the window ends. Only acknowledged seqs join the audit set.
type ledgerLoad struct {
	rt         *core.Runtime
	ledgers    int
	opTimeout  time.Duration
	classified func(error) bool
	// rec, when set, stamps each ack with the recorder's clock, so the
	// audit can return a lost write's timeline.
	rec *telemetry.Tracer

	seq     atomic.Uint64
	retried atomic.Int64
	clients sync.WaitGroup
	mu      sync.Mutex
	acked   []ackedWrite
	unclass []string
}

// ackedWrite is one acknowledged ledger put and the recorder's clock at
// the moment the client saw the ack.
type ackedWrite struct {
	seq, hlc uint64
}

// start runs n writers until ctx ends; l.clients.Wait waits them out.
func (l *ledgerLoad) start(ctx context.Context, n int) {
	for c := 0; c < n; c++ {
		l.clients.Add(1)
		go l.write(ctx)
	}
}

func (l *ledgerLoad) ackedCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.acked)
}

func (l *ledgerLoad) write(ctx context.Context) {
	defer l.clients.Done()
	for ctx.Err() == nil {
		seq := l.seq.Add(1)
		id := ledgerID(seq % uint64(l.ledgers))
		for attempt := 1; ctx.Err() == nil; attempt++ {
			if attempt == 2 {
				l.retried.Add(1)
			}
			opCtx, cancel := context.WithTimeout(context.Background(), l.opTimeout)
			_, err := l.rt.Call(opCtx, id, ledgerPut{Seq: seq})
			cancel()
			if err == nil {
				a := ackedWrite{seq: seq}
				if l.rec != nil {
					a.hlc = l.rec.StampHLC()
				}
				l.mu.Lock()
				l.acked = append(l.acked, a)
				l.mu.Unlock()
				break
			}
			if !l.classified(err) {
				l.mu.Lock()
				if len(l.unclass) < maxUnclassified {
					l.unclass = append(l.unclass, err.Error())
				}
				l.mu.Unlock()
				break
			}
		}
	}
}

// audit reads every ledger back once the writers have stopped and
// reports each acked seq that no ledger holds; every call it makes ends
// by deadline. With a recorder it also returns the lowest lost seq's
// ledger events around that write's ack, so a red run explains itself.
func (l *ledgerLoad) audit(ctx context.Context, deadline time.Time) (LedgerAudit, []telemetry.Event, error) {
	res := LedgerAudit{AckedWrites: len(l.acked), RetriedOps: l.retried.Load(), Unclassified: l.unclass}
	survived := make(map[uint64]bool)
	for n := 0; n < l.ledgers; n++ {
		id := ledgerID(uint64(n))
		// Fence before reading: ledgerSeqs is a pure read, and reads are
		// not version-checked, so a zombie activation (created before the
		// last failover and never written through since) would answer from
		// stale memory and misreport durable writes as lost. One write
		// forces the version-conditional state put: a zombie fails the
		// condition, self-deactivates, and the retried call reaches an
		// activation hydrated from the store. The fence seq extends the
		// client sequence, so it never collides with an audited write.
		if _, err := callUntil(ctx, l.rt, id, ledgerPut{Seq: l.seq.Add(1)}, l.opTimeout, deadline); err != nil {
			return res, nil, fmt.Errorf("bench: ledger %s unwritable after healing: %w", id, err)
		}
		v, err := callUntil(ctx, l.rt, id, ledgerSeqs{}, l.opTimeout, deadline)
		if err != nil {
			return res, nil, fmt.Errorf("bench: ledger %s unreadable after healing: %w", id, err)
		}
		for _, s := range v.([]uint64) {
			survived[s] = true
		}
	}
	// Acks are checked in seq order, so LostWrites comes out sorted.
	sort.Slice(l.acked, func(i, j int) bool { return l.acked[i].seq < l.acked[j].seq })
	var timeline []telemetry.Event
	for _, a := range l.acked {
		if survived[a.seq] {
			continue
		}
		if len(res.LostWrites) == 0 && l.rec != nil {
			timeline = eventsAround(l.rec, ledgerID(a.seq%uint64(l.ledgers)).String(), a.hlc)
		}
		res.LostWrites = append(res.LostWrites, a.seq)
	}
	return res, timeline, nil
}

// eventsAround returns actor's events nearest the instant at: the eight
// before it and the eight after, in causal order.
func eventsAround(rec *telemetry.Tracer, actor string, at uint64) []telemetry.Event {
	const each = 8
	evs := telemetry.EventFilter{Actor: actor}.Apply(telemetry.MergeEvents(rec.Events()))
	i := sort.Search(len(evs), func(i int) bool { return evs[i].HLC > at })
	return evs[max(0, i-each):min(len(evs), i+each)]
}

// callUntil retries one call every 10 ms until it succeeds or deadline
// passes, and then returns the last error.
func callUntil(ctx context.Context, rt *core.Runtime, id core.ID, msg any, opTimeout time.Duration, deadline time.Time) (any, error) {
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

// driveSHM populates sensors on platform and drives the 98/1/1 mix into
// rec in the background for d, or until ctx ends; errors are tolerated
// but counted. The returned channel closes when the load has stopped.
func driveSHM(ctx context.Context, platform *shm.Platform, sensors int, d, timeout time.Duration, seed int64, rec *Recorder) (<-chan struct{}, error) {
	pop := shm.DefaultPopulation(sensors)
	keys, err := platform.Populate(ctx, pop)
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = Drive(ctx, platform, LoadSpec{
			SensorKeys:     keys,
			Orgs:           pop.Orgs(),
			UserQueries:    true,
			RequestEvery:   time.Second,
			Warmup:         time.Millisecond, // measure ~everything
			Duration:       d,
			RequestTimeout: timeout,
			Seed:           seed,
		}, rec)
	}()
	return done, nil
}

// shmCompleted is every request the recorder counted as completed.
func shmCompleted(rec *Recorder) int64 {
	return rec.Completed(ReqInsert) + rec.Completed(ReqLive) + rec.Completed(ReqRaw)
}

// SoakFaults counts what an in-process soak did to its cluster: silo
// crashes and restarts (healing restarts included), the faults its
// injector fired, and whether any circuit breaker opened.
type SoakFaults struct {
	Crashes  int
	Restarts int
	InjectedDrops, InjectedDups, InjectedDelays,
	InjectedKVErrs, InjectedPanics uint64
	BreakerTrips bool
}

// chaosView tracks which silos the harness believes are up; the crash
// loop maintains it. Layered under cluster.FilteredView it keeps
// placement away from silos with open circuit breakers.
type chaosView struct {
	mu   sync.Mutex
	up   map[string]bool
	view *cluster.View // published by set
}

func (v *chaosView) set(name string, alive bool) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.up[name] = alive
	next := &cluster.View{Seq: v.view.Seq + 1}
	for n, alive := range v.up {
		if alive {
			next.Members = append(next.Members, n)
		}
	}
	sort.Strings(next.Members)
	v.view = next // no Ring: placement reads only Members, and no replica is homed on this view
}

func (v *chaosView) View() *cluster.View {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.view
}

func (v *chaosView) isUp(name string) bool {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.up[name]
}

// soak is the in-process cluster a chaos soak runs on. Its transport
// stack, innermost out, is in-process delivery, then the injector's
// message faults, then per-silo circuit breakers.
type soak struct {
	inj     *faults.Injector
	breaker *transport.Breaker
	view    *chaosView
	silos   []string
	rt      *core.Runtime

	crashes, restarts int
}

// newSoak builds the transport stack for silos silos, with an injector
// seeded by seed unless fc has its own. Setup (silo creation, population)
// runs fault-free: the caller enables the injector for the chaos window.
func newSoak(silos int, fc faults.Config, seed int64) *soak {
	if fc.Seed == 0 {
		fc.Seed = seed
	}
	inj := faults.New(fc)
	inj.SetEnabled(false)
	return &soak{
		inj:     inj,
		breaker: transport.NewBreaker(inj.WrapTransport(transport.NewLocal(nil, nil)), transport.BreakerOptions{}),
		view:    &chaosView{up: make(map[string]bool), view: cluster.NewStaticView()},
		silos:   siloNames(silos),
	}
}

// start boots the runtime on the soak's transport and view, with the
// injector's panic hook before every turn, registers whatever register
// adds and the Ledger kind, and brings every silo up.
func (s *soak) start(cfg core.Config, register func(*core.Runtime) error) error {
	panicHook := s.inj.PanicHook()
	cfg.Transport = s.breaker
	cfg.View = cluster.NewFilteredView(s.view, s.breaker.Open)
	// Hold activations hot; chaos churn comes from crashes, not the idle
	// collector.
	cfg.IdleAfter, cfg.CollectEvery = time.Hour, time.Hour
	cfg.BeforeTurn = func(id core.ID, msg any) { panicHook(id.String()) }
	rt, err := core.New(cfg)
	if err != nil {
		return err
	}
	s.rt = rt
	if register != nil {
		if err := register(rt); err != nil {
			return err
		}
	}
	if err := registerLedger(rt); err != nil {
		return err
	}
	for _, name := range s.silos {
		if _, err := rt.AddSilo(name, nil); err != nil {
			return err
		}
		s.view.set(name, true)
	}
	return nil
}

// close shuts the runtime down, if start got that far.
func (s *soak) close() {
	if s.rt == nil {
		return
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.rt.Shutdown(shCtx)
}

// crashLoop kills one random silo every period, abruptly, and restarts
// it half a period later, until ctx ends. A silo's storage survives a
// crash. The returned channel closes when the loop has stopped.
func (s *soak) crashLoop(ctx context.Context, every time.Duration, seed int64) <-chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(seed))
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			victim := s.silos[rng.Intn(len(s.silos))]
			if err := s.rt.CrashSilo(victim); err != nil {
				continue // already down from a previous iteration
			}
			s.view.set(victim, false)
			s.crashes++
			select {
			case <-ctx.Done():
				return
			case <-time.After(every / 2):
			}
			if _, err := s.rt.AddSilo(victim, nil); err == nil {
				s.view.set(victim, true)
				s.restarts++
			}
		}
	}()
	return done
}

// heal stops injecting and brings every silo back up. Call it once the
// crash loop has stopped.
func (s *soak) heal() error {
	s.inj.SetEnabled(false)
	for _, name := range s.silos {
		if _, ok := s.rt.Silo(name); !ok {
			if _, err := s.rt.AddSilo(name, nil); err != nil {
				return fmt.Errorf("bench: healing restart of %s: %w", name, err)
			}
			s.restarts++
		}
		s.view.set(name, true)
	}
	return nil
}

func (s *soak) allUp() bool { return len(s.view.View().Members) == len(s.silos) }

func (s *soak) faults() SoakFaults {
	return SoakFaults{
		Crashes:        s.crashes,
		Restarts:       s.restarts,
		InjectedDrops:  s.inj.Fired("drop"),
		InjectedDups:   s.inj.Fired("dup"),
		InjectedDelays: s.inj.Fired("delay"),
		InjectedKVErrs: s.inj.Fired("kvwrite"),
		InjectedPanics: s.inj.Fired("panic"),
		BreakerTrips:   s.breaker.Trips() > 0,
	}
}

// replicaSet builds per-silo replica stacks on one fixed view, all
// hosted behind one service: the replicated soak's and
// RunQuorumLatency's.
type replicaSet struct {
	svc     *replication.Service
	view    *cluster.View
	n       int
	durable bool
	reg     *metrics.Registry
}

func newReplicaSet(silos []string, n int, durable bool, reg *metrics.Registry) (*replicaSet, error) {
	view, err := replication.NewRing(silos)
	if err != nil {
		return nil, err
	}
	return &replicaSet{svc: replication.NewService(), view: view, n: n, durable: durable, reg: reg}, nil
}

// host opens silo's stack in dir (a kvstore, its state table and the
// replica store over it), hands it to ready, and only then hosts it on
// the service.
func (rs *replicaSet) host(silo, dir string, ready func(*kvstore.Store, *replication.Store)) error {
	st, err := kvstore.Open(kvstore.Options{Dir: dir, Durable: rs.durable})
	if err != nil {
		return err
	}
	tab, err := st.EnsureTable(core.StateTable, kvstore.Throughput{})
	if err == nil {
		var store *replication.Store
		store, err = replication.NewStore(replication.StoreConfig{
			Silo: silo, Table: tab, N: rs.n, Metrics: rs.reg,
		})
		if err == nil {
			ready(st, store)
			rs.svc.Host(silo, store)
			return nil
		}
	}
	st.Close()
	return err
}
