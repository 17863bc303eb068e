package main

import (
	"context"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"aodb/internal/shm"
)

// Metric is one named measurement with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run of one workload.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	FirstErr  string            `json:"first_error,omitempty"`
	Metrics   map[string]Metric `json:"metrics"`
	// Samples is the sample count behind each percentile metric.
	Samples map[string]int `json:"samples,omitempty"`
	// Notes are numbers that explain a run but carry no bound: what it
	// held (actors, store bytes), drain time, p99s, the reconciliation row.
	Notes map[string]float64 `json:"notes,omitempty"`
}

func (r *Result) set(name string, v float64, unit string) {
	r.Metrics[name] = Metric{Value: v, Unit: unit}
}

type runConfig struct {
	spec   spec
	seed   int64
	window time.Duration
	warmup time.Duration
	setups int // set-ups per run; setup_s is their median
	trace  bool
	tmp    string // directory for everything the run writes
}

// usage is a point-in-time reading of the process-wide costs the
// end-to-end metrics take deltas of.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
	}
}

// liveMemory is the live heap plus goroutine stacks after a forced
// collection. HeapAlloc rather than HeapInuse: the latter counts the free
// slots of partly used spans, which made the per-actor figure vary by
// several percent from run to run.
func liveMemory() float64 {
	runtime.GC()
	runtime.GC() // the second pass frees what finalizers released
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc + ms.StackInuse)
}

// setUpOnce boots and populates the deployment and, when RawData is in
// the mix, pre-fills the sensors it will query: everything up to the point
// where the first op can be sent.
func setUpOnce(ctx context.Context, cfg runConfig) (*deployment, *generator, error) {
	d, err := boot(ctx, cfg.spec, cfg.trace, cfg.tmp)
	if err != nil {
		return nil, nil, err
	}
	g := newGenerator(d, cfg.seed)
	if cfg.spec.hasRaw() {
		if err := g.prefill(ctx); err != nil {
			d.close()
			return nil, nil, err
		}
	}
	return d, g, nil
}

// setUp sets the deployment up cfg.setups times, keeps the last, and
// reports the median set-up time and the median memory a set-up added.
func setUp(ctx context.Context, cfg runConfig, res *Result) (*deployment, *generator, error) {
	pop := cfg.spec.population()
	actors := float64(pop.Orgs() + pop.Sensors + pop.TotalChannels())
	var times, mems []float64
	for {
		before := liveMemory()
		start := time.Now()
		d, g, err := setUpOnce(ctx, cfg)
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if cfg.spec.churn {
			// Let the collector finish, so the memory reading is the
			// stored-state floor and not a race with the idle window.
			if err := awaitIdle(ctx, d); err != nil {
				d.close()
				return nil, nil, err
			}
		}
		mems = append(mems, (liveMemory()-before)/1024/actors)
		if len(times) < cfg.setups {
			d.close()
			continue
		}
		res.Notes["actors_populated"] = actors
		res.Notes["activations_after_setup"] = float64(d.active())
		if !cfg.trace {
			// The traced pass reports per-layer metrics only, and its
			// tracers' span rings would count as actor memory.
			res.set("setup_s", median(times), "s")
			res.set("mem_kb_per_actor", median(mems), "KB")
		}
		return d, g, nil
	}
}

// awaitIdle waits until every activation has been idle-collected (and its
// state flushed): the churn workload's drain barrier.
func awaitIdle(ctx context.Context, d *deployment) error {
	deadline := time.Now().Add(60 * time.Second)
	for d.active() > 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("%d activations still live after 60s", d.active())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return ctx.Err()
}

// drain returns once everything acked before it has been applied. Inserts
// fan out by one-way Tell into unbounded mailboxes, so an ack does not
// mean the work is done. Mailboxes are FIFO: when an org's LiveData
// returns, each of its channels has applied every point acked earlier,
// and the hour→day→month aggregator chain is then flushed level by level.
func drain(ctx context.Context, g *generator) error {
	if g.d.spec.churn {
		return awaitIdle(ctx, g.d)
	}
	c := g.clients[0]
	for org := 0; org < g.orgs; org++ {
		if err := c.live(ctx, org); err != nil {
			return err
		}
		for _, level := range []string{shm.LevelHour, shm.LevelDay, shm.LevelMonth} {
			if _, err := g.d.platform.Aggregates(ctx, shm.OrgKey(org), level, ""); err != nil {
				return err
			}
		}
	}
	return nil
}

// measured is one closed-loop window plus its drain barrier: the usage
// readings around them, the ops completed and the drain time.
type measured struct {
	from, to usage
	ops      float64
	drain    time.Duration
}

func (m measured) seconds() float64 { return m.to.at.Sub(m.from.at).Seconds() }

// measure runs one closed-loop window plus its drain barrier.
func measure(ctx context.Context, g *generator, window time.Duration) (measured, error) {
	var m measured
	g.resetSamples()
	runtime.GC()
	m.from = readUsage()
	g.run(ctx, window, true)
	drainStart := time.Now()
	err := drain(ctx, g)
	m.to = readUsage()
	m.ops = float64(g.ops())
	m.drain = m.to.at.Sub(drainStart)
	return m, err
}

// runWorkload is one run of one workload on its own deployment: set-up,
// warm-up, the timing or the traced pass, and the correctness checks.
func runWorkload(ctx context.Context, cfg runConfig) (*Result, error) {
	res := &Result{
		Workload: cfg.spec.name,
		Seed:     cfg.seed,
		Trace:    cfg.trace,
		Seconds:  cfg.window.Seconds(),
		Metrics:  map[string]Metric{},
		Samples:  map[string]int{},
		Notes:    map[string]float64{},
	}
	d, g, err := setUp(ctx, cfg, res)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", cfg.spec.name, err)
	}
	err = runPasses(ctx, cfg, g, res)
	d.close()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.spec.name, err)
	}
	return res, nil
}

// probeLayers completes a traced run with the probe metrics and the
// reconciliation row. The probes run once the deployment is gone, so
// nothing else allocates or competes with them.
func probeLayers(ctx context.Context, cfg runConfig, res *Result) error {
	if err := runProbes(ctx, cfg.tmp, res); err != nil {
		return fmt.Errorf("%s: %w", cfg.spec.name, err)
	}
	reconcile(cfg.spec, res)
	return nil
}

// runPasses warms the deployment up, measures it, and checks its outputs.
func runPasses(ctx context.Context, cfg runConfig, g *generator, res *Result) error {
	err := g.warmUp(ctx, cfg.warmup)
	if err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if cfg.trace {
		err = tracedPass(ctx, cfg, g, res)
	} else {
		err = timingPass(ctx, cfg, g, res)
	}
	if err != nil {
		return err
	}
	checks, err := check(ctx, g, cfg.seed, res)
	if err != nil {
		return err
	}
	res.Attempted += checks
	failed, first := g.failures()
	res.Failed = failed
	if first != nil {
		res.FirstErr = first.Error()
	}
	res.Correct = res.Failed == 0
	return nil
}

// timingPass fills the metrics a user of the system sees from one
// measured window. Throughput and per-op costs are taken over window +
// drain: an ack does not mean the work is done.
func timingPass(ctx context.Context, cfg runConfig, g *generator, res *Result) error {
	m, err := measure(ctx, g, cfg.window)
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	res.Attempted += int64(m.ops)
	res.set("ops_per_s", m.ops/m.seconds(), "1/s")
	res.set("cpu_us_per_op", float64(m.to.cpu-m.from.cpu)/1e3/m.ops, "us")
	res.set("allocs_per_op", float64(m.to.mallocs-m.from.mallocs)/m.ops, "count")
	res.Notes["drain_ms"] = float64(m.drain) / 1e6
	for k := opInsert; k < opKinds; k++ {
		s := g.samples(k)
		if len(s) == 0 {
			continue
		}
		// Only the insert median carries a bound (README says why); the
		// other latencies are printed as notes.
		if k == opInsert {
			res.set("insert_p50_us", percentileUs(s, 50), "us")
			res.Samples["insert_p50_us"] = len(s)
		} else {
			res.Notes[opNames[k]+"_p50_us"] = percentileUs(s, 50)
			res.Notes[opNames[k]+"_samples"] = float64(len(s))
		}
		res.Notes[opNames[k]+"_p99_us"] = percentileUs(s, 99)
	}
	return nil
}
