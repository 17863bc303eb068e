// Command shmserver hosts one SHM silo over real TCP — the production
// deployment shape the paper's Section 5 describes, with one silo process
// per server. All silos (and the load client) share a static cluster view
// and consistent-hash placement, so every process independently agrees on
// where each actor lives without a shared directory service.
//
// With -gossip the static view becomes a live one: silos run a SWIM
// membership agent over the same TCP transport (probe, indirect
// ping-req, suspect→dead with incarnation refutation), so a new silo
// can join a running cluster with -seeds and a dead one is detected and
// evicted without any restart. Placement, the replication ring, and the
// directory all track the gossiped view; adding -rebalance makes each
// silo live-migrate its activations whose consistent-hash home moved —
// drain with a state flush, redirect markers, version fences — so the
// cluster spreads load onto a joiner within seconds (see
// scripts/scale_smoke.sh for the elastic-growth demo).
//
// A two-silo cluster on one machine:
//
//	shmserver -name silo-1 -listen 127.0.0.1:7001 \
//	    -silos silo-1,silo-2 -peers silo-2=127.0.0.1:7002 &
//	shmserver -name silo-2 -listen 127.0.0.1:7002 \
//	    -silos silo-1,silo-2 -peers silo-1=127.0.0.1:7001 &
//	shmload -silos silo-1,silo-2 \
//	    -peers silo-1=127.0.0.1:7001,silo-2=127.0.0.1:7002 -sensors 50
//
// With -store DIR the silo persists actor state through the WAL-backed
// kvstore and recovers it on restart; adding -durable makes every state
// write block until its WAL record is fsynced, group-committed across
// concurrent writers. Adding -replicas N (identical on every silo)
// replicates actor state N ways across the cluster's stores: state
// writes must reach a -write-quorum of the key's home replicas before
// they ack, reads assemble a -read-quorum of homes with read-repair, and
// a background anti-entropy sweep (-sweep-every) brings a home that
// missed writes or lost its disk back up to date — so wiping one silo's
// -store directory loses nothing that was acknowledged (see
// scripts/repl_smoke.sh). On shutdown the silo puts a final WAL sync
// barrier on the store. With -introspect ADDR the silo
// serves its runtime state over HTTP: /metrics (Prometheus text),
// /trace (recent sampled spans; ?slow=1 for slow turns), /actors
// (per-silo activation and mailbox gauges), and /obs (the mergeable
// observability snapshot the cluster aggregator and shmtop consume).
// -trace enables distributed tracing (-trace-sample N records every Nth
// request, -slow-turn D flags turns slower than D).
//
// Observability is opt-in, preserving the one-atomic-check disabled
// contract on the hot path. -trace, -profile and -journal each switch on
// one part of the silo's single recorder:
//
//   - -profile accounts per-actor CPU, turns, mailbox high-water marks,
//     and state sizes in a bounded heavy-hitter sketch, surfaced on
//     /obs, /metrics, and shmtop.
//   - -pprof mounts net/http/pprof under /debug/pprof/ on the
//     introspection port for on-demand CPU/heap profiles.
//   - -history runs the cluster aggregator in-process: the silo scrapes
//     itself (and any -obs-peers name=url endpoints), keeps a ring of
//     recent merged percentiles, and serves /cluster, /cluster/history,
//     and /cluster/prom from its introspection port. With -gossip the
//     aggregator also discovers scrape targets from the membership view
//     (peers gossip their introspection addresses), and members the view
//     declares dead have their last-good snapshots marked stale.
//   - -journal runs the causal flight recorder: a bounded per-silo ring
//     of HLC-stamped cluster events (membership transitions, migration
//     phases, quorum outcomes, breaker trips, slow turns, WAL flush
//     stalls, panics), served at /events and merged
//     across silos by /cluster/events and shmtop -trace. Anomalies — lost
//     quorums, panics, members declared dead, SLO-breaching turns —
//     freeze the ring to a capture file under -journal-capture-dir, so
//     the window around a crash survives the crash.
//
// The TCP wire path sizes itself from GOMAXPROCS: up to four frame
// streams per peer and an inbound dispatch pool of at least 64 workers.
// The transport's instruments (transport.flush.*, transport.sendq.depth)
// share the silo's /metrics page.
//
// SIGINT/SIGTERM shuts down gracefully: the introspection endpoint
// drains first, then the runtime deactivates (and persists) its actors.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"aodb/internal/core"
	"aodb/internal/kvstore"
	"aodb/internal/obs"
	"aodb/internal/shm"
	"aodb/internal/siloboot"
	"aodb/internal/telemetry"
)

func main() {
	opts := siloboot.Options{
		Name:           "silo-1",
		Listen:         "127.0.0.1:7001",
		Silos:          "silo-1",
		RebalanceEvery: 10 * time.Second,
		SweepEvery:     30 * time.Second,
		TraceSample:    1,
		SlowTurn:       250 * time.Millisecond,
		// Circuit breakers between silos: a dead peer fails fast instead
		// of stalling every call during its dial timeout.
		Breaker: true,
	}
	opts.Flags(flag.CommandLine, true)
	flag.BoolVar(&opts.Rebalance, "rebalance", false, "live-migrate actors whose placement moved after a membership change (and shed hot actors with -profile)")
	flag.DurationVar(&opts.RebalanceEvery, "rebalance-every", opts.RebalanceEvery, "background rebalance planning period with -rebalance")
	flag.DurationVar(&opts.SweepEvery, "sweep-every", opts.SweepEvery, "anti-entropy sweep period with -replicas")
	flag.StringVar(&opts.ObsAddr, "introspect", "", "HTTP introspection listen address (empty = off)")
	flag.DurationVar(&opts.SlowTurn, "slow-turn", opts.SlowTurn, "flag actor turns slower than this (10x is an SLO breach, which captures the journal)")
	flag.BoolVar(&opts.Profile, "profile", false, "account per-actor hot spots (CPU, turns, mailbox high-water) in a bounded sketch")
	flag.BoolVar(&opts.Events, "journal", false, "record HLC-stamped cluster events in the flight-recorder ring (served at /events)")
	flag.IntVar(&opts.EventCapacity, "journal-size", 0, "flight-recorder ring capacity in events (0 = 4096)")
	flag.StringVar(&opts.CaptureDir, "journal-capture-dir", "", "freeze the ring to JSON files here when an anomaly fires (empty = captures off)")
	var srv server
	flag.StringVar(&srv.storeDir, "store", "", "durability directory (empty = in-memory)")
	flag.BoolVar(&srv.durable, "durable", false, "with -store, fsync every actor-state write via WAL group commit (ack => on disk)")
	flag.BoolVar(&srv.pprof, "pprof", false, "mount /debug/pprof on the introspection port")
	flag.BoolVar(&srv.history, "history", false, "aggregate cluster metrics in-process and serve /cluster with history")
	flag.StringVar(&srv.obsPeers, "obs-peers", "", "comma-separated name=url introspection endpoints to aggregate with -history")
	flag.DurationVar(&srv.historyEvery, "history-every", 2*time.Second, "aggregator poll interval with -history")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, opts, srv); err != nil {
		log.Fatalf("shmserver: %v", err)
	}
}

// server holds the flags shmserver handles itself: storage, which it
// opens before the node exists, and the introspection endpoint's extras.
// Every other flag binds straight into siloboot.Options.
type server struct {
	storeDir       string
	durable        bool
	pprof, history bool
	obsPeers       string
	historyEvery   time.Duration
}

// walStall is how slow a WAL group flush must be to make the journal.
const walStall = time.Second

func run(ctx context.Context, opts siloboot.Options, srv server) error {
	obsPeers, err := siloboot.SplitPairs(srv.obsPeers)
	if err != nil {
		return fmt.Errorf("-obs-peers: %w", err)
	}
	// The store opens before the node that owns the recorder exists, so
	// its WAL-stall hook reads the recorder through a holder filled in
	// once siloboot.Start returns (a nil tracer records nothing).
	var recorder atomic.Pointer[telemetry.Tracer]
	if srv.storeDir != "" {
		kvOpts := kvstore.Options{Dir: srv.storeDir, Durable: srv.durable}
		if opts.Events {
			kvOpts.FlushStallAfter = walStall
			kvOpts.OnFlushStall = func(d time.Duration, records int) {
				if tr := recorder.Load(); tr.Recording() {
					tr.Record(telemetry.WALStall, "", 0, fmt.Sprintf("flush took %v (%d records)", d, records))
				}
			}
		}
		store, err := kvstore.Open(kvOpts)
		if err != nil {
			return err
		}
		defer store.Close()
		opts.Store = store
	} else if srv.durable {
		return fmt.Errorf("-durable needs -store DIR")
	}
	if opts.Replicas > 1 && srv.storeDir == "" {
		return fmt.Errorf("-replicas needs -store DIR")
	}

	node, err := siloboot.Start(opts)
	if err != nil {
		return err
	}
	recorder.Store(node.Tracer)
	rt := node.Runtime
	persist := core.PersistNone
	if opts.Store != nil {
		persist = core.PersistOnDeactivate
	}
	if _, err := shm.NewPlatform(rt, shm.Options{Persist: persist}); err != nil {
		return err
	}
	if _, err := rt.AddSilo(opts.Name, nil); err != nil {
		return err
	}
	// Join after the silo can serve: kinds registered, AddSilo done. The
	// gossip announcement is what makes peers start routing actors here.
	if err := node.JoinCluster(); err != nil {
		return err
	}
	fmt.Printf("shmserver: silo %s listening on %s (cluster: %s)\n", opts.Name, node.TCP.Addr(), opts.Silos)
	if node.Gossip != nil {
		fmt.Printf("shmserver: gossip membership on (seeds: %q, rebalance: %v)\n", opts.Seeds, opts.Rebalance)
	}
	if node.Coordinator != nil {
		r, w := node.Coordinator.Quorums()
		fmt.Printf("shmserver: replicating actor state %d-way (R=%d, W=%d, sweep every %v)\n",
			node.Coordinator.N(), r, w, opts.SweepEvery)
	}

	// The introspection endpoint shares the signal context: on SIGINT it
	// drains in-flight scrapes before the runtime goes away underneath it.
	httpDone := make(chan error, 1)
	if opts.ObsAddr != "" {
		in := node.Introspection(srv.pprof)
		if srv.history {
			// With gossip on, scrape targets come from the live membership
			// view (in.Members): peers gossip their introspection addresses,
			// so a joiner shows up on /cluster without anyone editing
			// -obs-peers. Members the view declares dead keep their last-good
			// snapshot, marked stale immediately.
			aggCfg := obs.Config{Interval: srv.historyEvery, Members: in.Members}
			for _, p := range obsPeers {
				aggCfg.Targets = append(aggCfg.Targets, obs.Target{Name: p[0], URL: obs.NormalizeURL(p[1])})
			}
			agg := obs.New(aggCfg)
			agg.AddLocal(opts.Name, in)
			go agg.Run(ctx)
			in.Extra = agg.Register
		}
		ready := make(chan string, 1)
		go func() { httpDone <- in.Serve(ctx, opts.ObsAddr, ready) }()
		select {
		case addr := <-ready:
			fmt.Printf("shmserver: introspection on http://%s\n", addr)
			if srv.history {
				fmt.Printf("shmserver: cluster aggregation on http://%s/cluster\n", addr)
			}
		case err := <-httpDone:
			return fmt.Errorf("introspection endpoint: %w", err)
		}
	} else {
		if srv.history || srv.pprof {
			return fmt.Errorf("-history and -pprof need -introspect ADDR")
		}
		httpDone <- nil
	}

	<-ctx.Done()
	fmt.Println("shmserver: shutting down")
	if err := <-httpDone; err != nil {
		log.Printf("shmserver: introspection shutdown: %v", err)
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := rt.Shutdown(shCtx); err != nil {
		return err
	}
	// Storage drain barrier: stop the anti-entropy sweeper and put a
	// final WAL sync on the store — nothing acknowledged is left in memory.
	return node.Drain(shCtx)
}
