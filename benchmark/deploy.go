package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aodb/internal/core"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/placement"
	"aodb/internal/shm"
	"aodb/internal/siloboot"
	"aodb/internal/telemetry"
	"aodb/internal/transport"
)

// spec is one workload: a deployment shape, a population and an op mix.
// The names are the contract later issues cite; README.md says why each
// exists.
type spec struct {
	name    string
	sensors int
	// mix is the percentage of inserts, LiveData and RawData ops.
	insertPct, livePct int
	// tcp boots 3 silos + 1 external client on loopback; otherwise one
	// silo on the in-process transport.
	tcp bool
	// durable gives every silo a durable kvstore and 3-way replicated
	// state with a storage write per channel insert.
	durable bool
	// churn makes the working set larger than the activation table keeps
	// hot: short idle window, sequential sweep, state flush on collection.
	churn bool
}

var specs = []spec{
	{name: "ingest_local", sensors: 2000, insertPct: 100},
	{name: "mix_tcp", sensors: 2000, insertPct: 98, livePct: 1, tcp: true},
	{name: "query_tcp", sensors: 2000, insertPct: 20, livePct: 40, tcp: true},
	{name: "durable_repl", sensors: 500, insertPct: 100, tcp: true, durable: true},
	{name: "churn_local", sensors: 20000, insertPct: 100, churn: true},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// hasRaw reports whether RawData is part of the measured mix.
func (s spec) hasRaw() bool { return s.insertPct+s.livePct < 100 }

func (s spec) population() shm.Population {
	pop := shm.DefaultPopulation(s.sensors)
	if s.durable {
		pop.WriteEveryBatch = true
		pop.WindowCap = durableWindowCap
	}
	if s.churn {
		// A window of one request keeps the stored state the same size
		// from a sensor's first visit on, so per-op costs do not depend
		// on how many sweeps the run's own throughput completes.
		pop.WindowCap = pointsPerChannel
	}
	return pop
}

const (
	// durableWindowCap is the channel window on durable_repl: a stored
	// state of about 1.8 KB, so that the run writes about 10 MB/s to the
	// three logs. The ISSUE's 128 points (7 KB, 35 MB/s) sat on the
	// reference host's disk bandwidth limit: throughput fell by a third
	// within a window and from run to run as the burst allowance ran out.
	// A sensor's window is full after four inserts, which the warm-up and
	// the window's first seconds bring; throughput per half second is flat.
	durableWindowCap = 32
	siloNames        = "silo-1,silo-2,silo-3"
	clientName       = "loadclient"
	// traceCapacity is each tracer's span ring: the last few thousand inserts
	// of the traced half-window, enough for medians, at 13 MB per tracer.
	traceCapacity = 1 << 16
)

// deployment is a booted, populated system under test.
type deployment struct {
	spec     spec
	platform *shm.Platform // the facade the load generator drives
	keys     []string      // sensor keys in creation order
	// runtimes[0] is the one the generator calls into; on TCP it is the
	// external client and the rest are the silos.
	runtimes   []*core.Runtime
	nodes      []*siloboot.Node
	registries []*metrics.Registry
	tracers    []*telemetry.Tracer
	stores     []*kvstore.Store
	storeDirs  []string
	dir        string // made by this deployment for its stores and crash copies; "" if none
}

// boot brings the workload's deployment up through the public bring-up
// path and populates it. trace installs a tracer on every runtime; store
// directories go under tmp.
func boot(ctx context.Context, s spec, trace bool, tmp string) (d *deployment, err error) {
	d = &deployment{spec: s}
	defer func() {
		if err != nil {
			d.close()
			d = nil
		}
	}()
	if s.tcp {
		err = d.bootCluster(ctx, trace, tmp)
	} else {
		err = d.bootLocal(trace)
	}
	if err != nil {
		return d, err
	}
	// The traced pass switches the tracers on for its traced half only,
	// so the span rings hold nothing from set-up or warm-up.
	setTracing(d, false)
	d.keys, err = d.platform.Populate(ctx, s.population())
	return d, err
}

func newTracer() *telemetry.Tracer {
	return telemetry.New(telemetry.Config{SampleEvery: 1, Capacity: traceCapacity})
}

func (d *deployment) bootLocal(trace bool) error {
	reg := metrics.NewRegistry()
	d.registries = append(d.registries, reg)
	hash := placement.NewConsistentHash()
	hash.PrefixSep = '@'
	cfg := core.Config{
		Transport: transport.NewLocal(nil, nil),
		Placement: hash,
		Metrics:   reg,
	}
	if trace {
		cfg.Tracer = newTracer()
		d.tracers = append(d.tracers, cfg.Tracer)
	}
	opts := shm.Options{}
	if d.spec.churn {
		store, err := kvstore.Open(kvstore.Options{Metrics: reg})
		if err != nil {
			return err
		}
		d.stores = append(d.stores, store)
		cfg.Store = store
		cfg.IdleAfter = 200 * time.Millisecond
		cfg.CollectEvery = 100 * time.Millisecond
		opts.Persist = core.PersistOnDeactivate
	}
	rt, err := core.New(cfg)
	if err != nil {
		return err
	}
	d.runtimes = append(d.runtimes, rt)
	if d.platform, err = shm.NewPlatform(rt, opts); err != nil {
		return err
	}
	_, err = rt.AddSilo("silo-1", nil)
	return err
}

func (d *deployment) bootCluster(ctx context.Context, trace bool, tmp string) error {
	opts := shm.Options{}
	if d.spec.durable {
		var err error
		if d.dir, err = os.MkdirTemp(tmp, "cluster-"); err != nil {
			return err
		}
		opts.Persist = core.PersistOnDeactivate
	}
	names := []string{clientName, "silo-1", "silo-2", "silo-3"}
	for _, name := range names {
		reg := metrics.NewRegistry()
		o := siloboot.Options{
			Name:          name,
			Listen:        "127.0.0.1:0",
			Silos:         siloNames,
			Trace:         trace,
			TraceSample:   1,
			TraceCapacity: traceCapacity,
			Metrics:       reg,
		}
		if d.spec.durable && name != clientName {
			dir := filepath.Join(d.dir, name)
			store, err := kvstore.Open(kvstore.Options{Dir: dir, Durable: true, Metrics: reg})
			if err != nil {
				return err
			}
			d.stores = append(d.stores, store)
			d.storeDirs = append(d.storeDirs, dir)
			o.Store = store
			o.Replicas = 3
			o.HintDir = filepath.Join(d.dir, name+"-hints")
		}
		node, err := siloboot.Start(o)
		if err != nil {
			return err
		}
		d.nodes = append(d.nodes, node)
		d.runtimes = append(d.runtimes, node.Runtime)
		d.registries = append(d.registries, reg)
		if node.Tracer != nil {
			d.tracers = append(d.tracers, node.Tracer)
		}
	}
	for _, a := range d.nodes {
		for _, b := range d.nodes {
			if a != b {
				a.TCP.SetPeer(b.Name, b.TCP.Addr())
			}
		}
	}
	for i, node := range d.nodes {
		// Every process registers the kinds so its runtime can route
		// them; only silos host activations.
		p, err := shm.NewPlatform(node.Runtime, opts)
		if err != nil {
			return err
		}
		if i == 0 {
			d.platform = p
			continue
		}
		if _, err := node.Runtime.AddSilo(node.Name, nil); err != nil {
			return err
		}
	}
	if d.spec.durable {
		return d.awaitReadGates(ctx)
	}
	return nil
}

// awaitReadGates waits until every replica store has passed its first
// clean anti-entropy pass: silos boot read-gated, and siloboot.Node does
// not expose the replica store, so a quorum read of a missing key is the
// public signal.
func (d *deployment) awaitReadGates(ctx context.Context) error {
	deadline := time.Now().Add(30 * time.Second)
	for _, node := range d.nodes[1:] {
		for {
			_, _, err := node.Coordinator.Load(ctx, "Sensor/bench-probe")
			if err == nil || errors.Is(err, kvstore.ErrNotFound) {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s still read-gated: %w", node.Name, err)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	return nil
}

// counters sums every registry's counters: the deployment-wide totals the
// per-layer "run" metrics take deltas of.
func (d *deployment) counters() map[string]int64 {
	sum := map[string]int64{}
	for _, reg := range d.registries {
		for name, v := range reg.Counters() {
			sum[name] += v
		}
	}
	return sum
}

// active is the number of live activations across the silos.
func (d *deployment) active() int64 {
	var n int64
	for _, reg := range d.registries {
		n += reg.Gauge("core.active").Value()
	}
	return n
}

// close shuts the deployment down and removes its temp directory. It is
// safe on a partly booted deployment.
func (d *deployment) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	// Client first, so no request is in flight when the silos drain.
	for _, rt := range d.runtimes {
		_ = rt.Shutdown(ctx) // teardown: nothing to report to
	}
	for _, node := range d.nodes {
		_ = node.Drain(ctx)
		_ = node.TCP.Close()
	}
	for _, store := range d.stores {
		_ = store.Close()
	}
	if d.dir != "" {
		_ = os.RemoveAll(d.dir)
	}
}
