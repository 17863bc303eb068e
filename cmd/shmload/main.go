// Command shmload is the load client for shmserver clusters — the analog
// of the paper's .NET benchmarking tool that "uses the Orleans framework
// client directly". It populates the SHM actor database over TCP, offers
// per-second sensor requests, optionally mixes in the 1%/1% live/raw user
// queries, and prints throughput and latency percentiles.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"aodb/internal/bench"
	"aodb/internal/core"
	"aodb/internal/shm"
	"aodb/internal/siloboot"
	"aodb/internal/transport"
)

func main() {
	name := flag.String("name", "loadclient", "this client's transport name")
	listen := flag.String("listen", "127.0.0.1:0", "TCP listen address for responses")
	silos := flag.String("silos", "silo-1", "comma-separated names of ALL silos (same order as servers)")
	peers := flag.String("peers", "", "comma-separated name=addr pairs for the silos")
	sensors := flag.Int("sensors", 50, "sensors to simulate")
	duration := flag.Duration("duration", 10*time.Second, "run duration")
	warmup := flag.Duration("warmup", 2*time.Second, "warmup to discard")
	queries := flag.Bool("queries", true, "issue live/raw user queries per org")
	trace := flag.Bool("trace", false, "trace requests end to end and print insert tail attribution")
	traceSample := flag.Int("trace-sample", 1, "sample every Nth request when tracing")
	stripes := flag.Int("stripes", 0, "connection stripes per silo (0 = min(4, GOMAXPROCS))")
	gossipOn := flag.Bool("gossip", false, "follow the cluster's gossip membership as an observer: placement tracks silos joining and leaving mid-run")
	seeds := flag.String("seeds", "", "comma-separated name=addr seed silos to probe for the initial view (with -gossip)")
	replicas := flag.Int("replicas", 0, "cluster's -replicas setting (accepted for a shared flag set; state replication happens on the silos)")
	readQuorum := flag.Int("read-quorum", 0, "cluster's -read-quorum setting (accepted for a shared flag set)")
	writeQuorum := flag.Int("write-quorum", 0, "cluster's -write-quorum setting (accepted for a shared flag set)")
	flag.Parse()

	opts := siloboot.Options{
		Name:          *name,
		Listen:        *listen,
		Silos:         *silos,
		Peers:         *peers,
		TCP:           transport.TCPOptions{Stripes: *stripes},
		Gossip:        *gossipOn,
		Seeds:         *seeds,
		Replicas:      *replicas,
		ReadQuorum:    *readQuorum,
		WriteQuorum:   *writeQuorum,
		Trace:         *trace,
		TraceSample:   *traceSample,
		TraceCapacity: 1 << 17,
	}
	if err := run(opts, *sensors, *duration, *warmup, *queries); err != nil {
		log.Fatalf("shmload: %v", err)
	}
}

// populateWait bounds how long Populate is retried against a cluster that
// is still booting.
const populateWait = 30 * time.Second

func run(opts siloboot.Options, sensors int, duration, warmup time.Duration, queries bool) error {
	// The client shares the silo bring-up path (transport, placement,
	// static view, tracing) but never calls AddSilo: placement only
	// selects names in the -silos view, so no actor activates here.
	node, err := siloboot.Start(opts)
	if err != nil {
		return err
	}
	rt := node.Runtime
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
		node.Drain(ctx)
	}()
	// The client registers the same kinds so the runtime can route them.
	platform, err := shm.NewPlatform(rt, shm.Options{})
	if err != nil {
		return err
	}
	// With -gossip this starts the observer agent: the client's placement
	// view then follows the live membership, so requests spread onto
	// silos that join mid-run (a no-op otherwise — the client is never a
	// member, so there is nothing to announce).
	if err := node.JoinCluster(); err != nil {
		return err
	}
	if node.Gossip != nil {
		fmt.Printf("shmload: following gossip membership (view: %v)\n", node.Gossip.View())
	}

	ctx := context.Background()
	fmt.Printf("shmload: populating %d sensors across %d orgs...\n",
		sensors, shm.DefaultPopulation(sensors).Orgs())
	pop := shm.DefaultPopulation(sensors)
	// Silos boot with their replicas read-gated and answer transient until
	// the gates clear; a client started alongside them waits that out.
	var keys []string
	for deadline := time.Now().Add(populateWait); ; time.Sleep(100 * time.Millisecond) {
		keys, err = platform.Populate(ctx, pop)
		if err == nil || !core.Transient(err) || time.Now().After(deadline) {
			break
		}
	}
	if err != nil {
		return err
	}

	fmt.Printf("shmload: driving %d req/s for %v (warmup %v)\n", sensors, duration, warmup)
	rec := bench.NewRecorder()
	err = bench.Drive(ctx, platform, bench.LoadSpec{
		SensorKeys:       keys,
		Orgs:             pop.Orgs(),
		Channels:         pop.ChannelsPerSensor,
		PointsPerChannel: 10,
		RequestEvery:     time.Second,
		UserQueries:      queries,
		Warmup:           warmup,
		Duration:         duration,
	}, rec)
	if err != nil {
		return err
	}

	measured := (duration - warmup).Seconds()
	fmt.Fprintf(os.Stdout, "\nresults over %.0fs:\n", measured)
	fmt.Printf("  insert: %.0f req/s, %s\n",
		float64(rec.Completed(bench.ReqInsert))/measured, rec.Latencies(bench.ReqInsert))
	if queries {
		fmt.Printf("  live:   %.1f req/s, %s\n",
			float64(rec.Completed(bench.ReqLive))/measured, rec.Latencies(bench.ReqLive))
		fmt.Printf("  raw:    %.1f req/s, %s\n",
			float64(rec.Completed(bench.ReqRaw))/measured, rec.Latencies(bench.ReqRaw))
	}
	if rec.Errors() > 0 {
		fmt.Printf("  errors: %d\n", rec.Errors())
	}
	if node.Tracer != nil {
		// The client only holds root spans; per-turn component data lives
		// on each silo's tracer (serve it with `shmserver -trace
		// -introspect` and read /trace). From this vantage the whole
		// request is network+remote time, so the table reports end-to-end
		// totals and what the self-healing call path absorbed.
		spans := node.Tracer.Spans()
		var retries, hops int32
		for _, sp := range spans {
			retries += sp.Retries
			hops += sp.Hops
		}
		tab := bench.TailAttribution(spans, bench.ReqInsert, []float64{50, 99, 99.9})
		fmt.Printf("\ninsert traces: %d sampled (%d retries, %d extra hops absorbed)\n%s",
			tab.Traces, retries, hops, tab.String())
	}
	return nil
}
