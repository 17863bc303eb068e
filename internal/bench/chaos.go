package bench

import (
	"context"
	"time"

	"aodb/internal/core"
	"aodb/internal/faults"
	"aodb/internal/kvstore"
	"aodb/internal/shm"
)

// ChaosConfig describes one chaos soak: sustained SHM load plus a stream
// of acknowledged ledger writes, while silos crash and restart and the
// fault injector drops/duplicates/delays messages, fails storage writes,
// and panics actor turns. The run's invariant is that every acknowledged
// write survives and every client-visible error is classified.
type ChaosConfig struct {
	// Silos in the cluster (default 3); one at a time is crashed and later
	// restarted.
	Silos int
	// Ledgers is how many ledger actors the acked writes spread over
	// (default 8); Clients is the number of concurrent writers (default 8).
	Ledgers int
	Clients int
	// Sensors sizes the background 98/1/1 SHM load (0 disables it).
	Sensors int
	// Duration is the chaos window (default 5s); after it the injector is
	// disabled, crashed silos restart, and the surviving state is audited.
	Duration time.Duration
	// CrashEvery is the silo-kill cadence (default Duration/4); each
	// victim rejoins CrashEvery/2 after its crash.
	CrashEvery time.Duration
	// OpTimeout bounds one client write attempt (default 2s).
	OpTimeout time.Duration
	// Faults configures the injector; its Seed defaults to Seed.
	Faults faults.Config
	Seed   int64
	// StoreDir, when non-empty, backs the soak's grain store with disk;
	// Durable additionally makes every acknowledged state write fsynced
	// (WAL group commit), so the "no acked write lost" invariant is
	// checked against real durability instead of a memory-only store.
	StoreDir string
	Durable  bool
}

func (c *ChaosConfig) fill() {
	orDefault(&c.Silos, 3)
	orDefault(&c.Ledgers, 8)
	orDefault(&c.Clients, 8)
	orDefault(&c.Duration, 5*time.Second)
	orDefault(&c.CrashEvery, c.Duration/4)
	orDefault(&c.OpTimeout, defaultOpTimeout)
	if c.Seed == 0 {
		c.Seed = defaultSeed
	}
}

// ChaosResult reports what a soak survived.
type ChaosResult struct {
	LedgerAudit
	SoakFaults
	CallRetries   int64 // runtime-internal transparent retries
	SHMCompleted  int64
	SHMErrors     int64
	VerifyElapsed time.Duration
}

// RunChaos executes one chaos soak and audits the aftermath. The error
// return is for harness failures (bad config, population errors); the
// pass/fail verdict for the run itself is in the result: LostWrites and
// Unclassified must come back empty.
func RunChaos(ctx context.Context, cfg ChaosConfig) (ChaosResult, error) {
	cfg.fill()
	var res ChaosResult

	store, err := kvstore.Open(kvstore.Options{Dir: cfg.StoreDir, Durable: cfg.Durable})
	if err != nil {
		return res, err
	}
	defer store.Close()
	s := newSoak(cfg.Silos, cfg.Faults, cfg.Seed)
	defer s.close()
	store.SetWriteFault(s.inj.KVWriteFault())
	if err := s.start(core.Config{Store: store}, nil); err != nil {
		return res, err
	}

	rec := NewRecorder()
	var shmDone <-chan struct{}
	if cfg.Sensors > 0 {
		platform, err := shm.NewPlatform(s.rt, shm.Options{})
		if err != nil {
			return res, err
		}
		if shmDone, err = driveSHM(ctx, platform, cfg.Sensors, cfg.Duration, cfg.OpTimeout, cfg.Seed, rec); err != nil {
			return res, err
		}
	}

	// Chaos window opens: faults fire from here until the audit.
	s.inj.SetEnabled(true)
	chaosCtx, stopChaos := context.WithTimeout(ctx, cfg.Duration)
	defer stopChaos()
	crashDone := s.crashLoop(chaosCtx, cfg.CrashEvery, cfg.Seed)
	load := &ledgerLoad{rt: s.rt, ledgers: cfg.Ledgers, opTimeout: cfg.OpTimeout, classified: classified}
	load.start(chaosCtx, cfg.Clients)
	load.clients.Wait()
	<-crashDone
	if shmDone != nil {
		<-shmDone
	}

	// Heal: stop injecting, bring every silo back, then audit that each
	// acknowledged write survived somewhere durable.
	verifyStart := time.Now()
	store.SetWriteFault(nil)
	if err := s.heal(); err != nil {
		return res, err
	}
	if res.LedgerAudit, _, err = load.audit(ctx, time.Now().Add(auditBudget)); err != nil {
		return res, err
	}
	res.SoakFaults = s.faults()
	res.CallRetries = s.rt.Metrics().Counter("core.call_retries").Value()
	res.SHMCompleted = shmCompleted(rec)
	res.SHMErrors = rec.Errors()
	res.VerifyElapsed = time.Since(verifyStart)
	return res, nil
}
