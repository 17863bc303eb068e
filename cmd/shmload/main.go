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
)

func main() {
	opts := siloboot.Options{
		Name:          "loadclient",
		Listen:        "127.0.0.1:0",
		Silos:         "silo-1",
		TraceSample:   1,
		TraceCapacity: 1 << 17,
	}
	opts.Flags(flag.CommandLine, false)
	sensors := flag.Int("sensors", 50, "sensors to simulate")
	duration := flag.Duration("duration", 10*time.Second, "run duration")
	warmup := flag.Duration("warmup", 2*time.Second, "warmup to discard")
	queries := flag.Bool("queries", true, "issue live/raw user queries per org")
	flag.Parse()

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
		fmt.Printf("shmload: following gossip membership (view: %v)\n", node.View.View().Members)
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
