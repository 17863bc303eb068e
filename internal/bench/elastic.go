package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"aodb/internal/core"
	"aodb/internal/kvstore"
	"aodb/internal/replication"
	"aodb/internal/shm"
	"aodb/internal/siloboot"
)

// classifiedElastic is the growth run's error taxonomy: everything the
// replicated soak tolerates, plus a joiner's replica store answering
// before its rebuilding gate has cleared (its first clean anti-entropy
// sweep lifts it — retry).
func classifiedElastic(err error) bool {
	return classifiedRepl(err) || errors.Is(err, replication.ErrRebuilding)
}

// ElasticConfig describes an elastic scale-out run: a gossip cluster
// that starts small and grows one silo at a time while write-through
// clients keep hammering it, with every acknowledged write audited at
// the end. This is Ablation H's harness — the in-process twin of
// scripts/scale_smoke.sh, over real TCP transports.
type ElasticConfig struct {
	// StartSilos and EndSilos bound the growth (defaults 2 → 8).
	StartSilos int
	EndSilos   int
	// Ledgers and Clients shape the acked-write audit load (defaults
	// 32 / 8). Every client write is retried until acknowledged; only
	// acknowledged sequence numbers join the audit set.
	Ledgers int
	Clients int
	// Sensors adds the paper's 98/1/1 SHM mix on top of the ledger load
	// (0 = off). The sf8 demo drives 16,800/scale sensors here.
	Sensors int
	// JoinEvery is the pause between silo joins (default 2s) — also the
	// per-phase measurement window for throughput-vs-silo-count.
	JoinEvery time.Duration
	// Settle keeps the load running after the last join (default 3s), so
	// the final phase measures the fully grown cluster.
	Settle time.Duration
}

// elasticReplicas is the state replication factor, clamped to the live
// ring while the cluster is still smaller.
const elasticReplicas = 3

func (c *ElasticConfig) fill() {
	orDefault(&c.StartSilos, 2)
	if c.EndSilos < c.StartSilos {
		c.EndSilos = 8
	}
	orDefault(&c.Ledgers, 32)
	orDefault(&c.Clients, 8)
	orDefault(&c.JoinEvery, 2*time.Second)
	orDefault(&c.Settle, 3*time.Second)
}

// JoinStat records one silo's entry into the live cluster.
type JoinStat struct {
	Silo string
	// Converged is how long after the joiner's JoinCluster every member
	// (and the load client) saw the full new view.
	Converged time.Duration
}

// PhaseStat is one growth phase's throughput sample.
type PhaseStat struct {
	Silos    int
	Acked    int64
	Rate     float64 // acked ledger writes per second in this phase
	Duration time.Duration
}

// ElasticResult reports what an elastic scale-out run did and, above
// all, whether it lost anything: LostWrites and Unclassified must be
// empty.
type ElasticResult struct {
	LedgerAudit

	Joins  []JoinStat
	Phases []PhaseStat

	// Cluster-wide counters summed over every silo's registry.
	MigrationsOut, MigrationsIn, MigrationsForced int64
	MovesDone, MovesFailed                        int64
	FencedWrites                                  int64

	SHMOk, SHMErrors int64
	VerifyElapsed    time.Duration
}

// RunElastic grows a live gossip cluster from StartSilos to EndSilos
// under sustained write-through load and audits that no acknowledged
// write was lost to the churn. Every silo is a full siloboot process
// image — TCP transport, SWIM agent, rebalancer, replicated state over
// its own in-memory store — and the load enters through an observer
// client whose placement view follows the gossip, exactly like shmload.
// The error return is for harness failures; the verdict lives in the
// result.
func RunElastic(ctx context.Context, cfg ElasticConfig) (ElasticResult, error) {
	var res ElasticResult
	cfg.fill()

	names := siloNames(cfg.EndSilos)
	initial := strings.Join(names[:cfg.StartSilos], ",")

	stop := func(n *siloboot.Node) {
		shCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		_ = n.Runtime.Shutdown(shCtx)
		_ = n.Drain(shCtx)
		_ = n.TCP.Close()
	}
	var nodes []*siloboot.Node
	defer func() {
		for i := len(nodes) - 1; i >= 0; i-- {
			stop(nodes[i])
		}
	}()

	start := func(name, silos, seeds string) (*siloboot.Node, error) {
		kv, err := kvstore.Open(kvstore.Options{})
		if err != nil {
			return nil, err
		}
		node, err := siloboot.Start(siloboot.Options{
			Name:           name,
			Listen:         "127.0.0.1:0",
			Silos:          silos,
			Peers:          seeds,
			Gossip:         true,
			Seeds:          seeds,
			Rebalance:      true,
			RebalanceEvery: time.Second,
			Store:          kv,
			Replicas:       elasticReplicas,
		})
		if err != nil {
			kv.Close()
			return nil, err
		}
		if err := registerLedger(node.Runtime); err != nil {
			return nil, err
		}
		if cfg.Sensors > 0 {
			if _, err := shm.NewPlatform(node.Runtime, shm.Options{Persist: core.PersistOnDeactivate}); err != nil {
				return nil, err
			}
		}
		if _, err := node.Runtime.AddSilo(name, nil); err != nil {
			return nil, err
		}
		if err := node.JoinCluster(); err != nil {
			return nil, err
		}
		nodes = append(nodes, node)
		return node, nil
	}

	first, err := start(names[0], initial, "")
	if err != nil {
		return res, err
	}
	seedPair := names[0] + "=" + first.TCP.Addr()
	for i := 1; i < cfg.StartSilos; i++ {
		if _, err := start(names[i], initial, seedPair); err != nil {
			return res, err
		}
	}

	// The load client: an observer — never a member, never hosts actors,
	// but its placement view follows the gossip so new silos take load
	// the moment they join.
	client, err := siloboot.Start(siloboot.Options{
		Name:   "loadgen",
		Listen: "127.0.0.1:0",
		Silos:  initial,
		Peers:  seedPair,
		Gossip: true,
		Seeds:  seedPair,
	})
	if err != nil {
		return res, err
	}
	defer stop(client)
	if err := registerLedger(client.Runtime); err != nil {
		return res, err
	}
	var platform *shm.Platform
	if cfg.Sensors > 0 {
		if platform, err = shm.NewPlatform(client.Runtime, shm.Options{}); err != nil {
			return res, err
		}
	}
	if err := client.JoinCluster(); err != nil {
		return res, err
	}

	// Wait out the replica stores' rebuilding gates: the cluster serves
	// once a probe read round-trips.
	if _, err := callUntil(ctx, client.Runtime, core.ID{Kind: "Ledger", Key: "probe"}, ledgerSeqs{}, defaultOpTimeout, time.Now().Add(30*time.Second)); err != nil {
		return res, fmt.Errorf("bench: cluster never became ready: %w", err)
	}

	// Optional SHM mix on top, driven for the whole growth window.
	loadCtx, stopLoad := context.WithCancel(ctx)
	defer stopLoad()
	rec := NewRecorder()
	var shmDone <-chan struct{}
	if cfg.Sensors > 0 {
		total := cfg.JoinEvery*time.Duration(cfg.EndSilos-cfg.StartSilos) + cfg.Settle
		// stopLoad ends it; the extra 30 s only keeps Drive from ending first.
		if shmDone, err = driveSHM(loadCtx, platform, cfg.Sensors, total+30*time.Second, defaultOpTimeout, defaultSeed, rec); err != nil {
			return res, err
		}
	}

	// Ledger clients: unthrottled write-through load, the audit set.
	load := &ledgerLoad{rt: client.Runtime, ledgers: cfg.Ledgers, opTimeout: defaultOpTimeout, classified: classifiedElastic}
	load.start(loadCtx, cfg.Clients)

	// Growth loop: one join per phase, each phase a throughput sample.
	phaseStart, phaseAcked := time.Now(), load.ackedCount()
	endPhase := func(silos int) {
		d := time.Since(phaseStart)
		acked := load.ackedCount()
		a := int64(acked - phaseAcked)
		res.Phases = append(res.Phases, PhaseStat{
			Silos: silos, Acked: a, Rate: float64(a) / d.Seconds(), Duration: d,
		})
		phaseStart, phaseAcked = time.Now(), acked
	}
	for n := cfg.StartSilos + 1; n <= cfg.EndSilos; n++ {
		select {
		case <-ctx.Done():
			return res, ctx.Err()
		case <-time.After(cfg.JoinEvery):
		}
		endPhase(n - 1)
		joiner := names[n-1]
		joinStart := time.Now()
		if _, err := start(joiner, joiner, seedPair); err != nil {
			return res, fmt.Errorf("bench: joining %s: %w", joiner, err)
		}
		// Convergence: every member and the client see the full view.
		deadline := time.Now().Add(30 * time.Second)
		for {
			all := len(client.Gossip.View()) == n
			for _, node := range nodes {
				all = all && len(node.Gossip.View()) == n
			}
			if all {
				break
			}
			if time.Now().After(deadline) {
				return res, fmt.Errorf("bench: view never converged on %d silos", n)
			}
			time.Sleep(20 * time.Millisecond)
		}
		res.Joins = append(res.Joins, JoinStat{Silo: joiner, Converged: time.Since(joinStart)})
	}
	select {
	case <-ctx.Done():
		return res, ctx.Err()
	case <-time.After(cfg.Settle):
	}
	endPhase(cfg.EndSilos)

	stopLoad()
	load.clients.Wait()
	if shmDone != nil {
		<-shmDone
	}
	res.SHMOk = shmCompleted(rec)
	res.SHMErrors = rec.Errors()

	// Audit: read every ledger back through the client and check each
	// acked sequence survived the growth.
	verifyStart := time.Now()
	if res.LedgerAudit, _, err = load.audit(ctx, time.Now().Add(auditBudget)); err != nil {
		return res, err
	}
	res.VerifyElapsed = time.Since(verifyStart)

	// Cluster-wide counters: summed over every silo's own registry.
	for _, node := range nodes {
		c := node.Registry.Counters()
		res.MigrationsOut += c["core.migrations.out"]
		res.MigrationsIn += c["core.migrations.in"]
		res.MigrationsForced += c["core.migrations.forced"]
		res.FencedWrites += c["core.stale_writes_fenced"]
		res.MovesDone += c["rebalance.moves.done"]
		res.MovesFailed += c["rebalance.moves.failed"]
	}
	return res, nil
}
