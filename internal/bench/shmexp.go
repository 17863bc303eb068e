package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"aodb/internal/capacity"
	"aodb/internal/core"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/netsim"
	"aodb/internal/placement"
	"aodb/internal/shm"
	"aodb/internal/telemetry"
	"aodb/internal/transport"
)

// SHMConfig describes one SHM benchmark run.
type SHMConfig struct {
	// Sensors is the population size at Scale 1 (divided by Scale).
	Sensors int
	// Silos and their simulated instance profile.
	Silos   int
	Profile capacity.Profile
	// Scale trades population for per-turn cost; see package docs.
	Scale int
	// Duration and Warmup of the run (wall clock).
	Duration time.Duration
	Warmup   time.Duration
	// UserQueries adds the 1 live + 1 raw query per org per second.
	UserQueries bool
	// Placement: "hash" (default, org co-location), "random",
	// "prefer-local".
	Placement string
	// Network applies the SameAZ latency model between silos.
	Network bool
	// Store, when non-nil, enables grain persistence (ablation D);
	// WriteEveryBatch selects the per-request write policy.
	Store           *kvstore.Store
	WriteEveryBatch bool
	Seed            int64
	// Tracer, when non-nil, is installed on the runtime as its recorder.
	// If it records spans, the result carries the insert-class tail
	// attribution at p50/p99/p99.9; if it profiles, the top-K hot-actor
	// table.
	Tracer *telemetry.Tracer
}

// SHMResult is one experiment data point.
type SHMResult struct {
	Config     SHMConfig
	Sensors    int // effective (scaled) population
	Orgs       int
	OfferedRPS float64
	// ThroughputRPS is completed insert requests per measured second.
	ThroughputRPS float64
	Insert        metrics.Snapshot
	Live          metrics.Snapshot
	Raw           metrics.Snapshot
	Errors        int64
	LocalCalls    int64
	RemoteCalls   int64
	Activations   int
	// Attribution is the insert-request tail-latency component table,
	// present when the run was traced (Config.Tracer recorded spans).
	Attribution *telemetry.AttributionTable
	// HotActors is the profile's top-K heavy-hitter list (Config.Tracer
	// profiled), with ProfTurns/ProfCPUNanos the totals shares are
	// computed against.
	HotActors    []metrics.TopKEntry
	ProfTurns    int64
	ProfCPUNanos int64
}

func (c *SHMConfig) fill() error {
	if c.Sensors <= 0 {
		return fmt.Errorf("bench: config needs sensors")
	}
	orDefault(&c.Silos, 1)
	if c.Profile.Workers == 0 {
		c.Profile = capacity.M5Large
	}
	orDefault(&c.Scale, 1)
	orDefault(&c.Duration, 8*time.Second)
	if c.Warmup <= 0 || c.Warmup >= c.Duration {
		c.Warmup = c.Duration / 4
	}
	if c.Placement == "" {
		c.Placement = "hash"
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	return nil
}

func placementFor(name string, seed int64) (placement.Strategy, error) {
	switch name {
	case "hash":
		ch := placement.NewConsistentHash()
		ch.PrefixSep = '@'
		return ch, nil
	case "random":
		return placement.NewRandom(seed), nil
	case "prefer-local":
		return placement.NewPreferLocal(seed), nil
	default:
		return nil, fmt.Errorf("bench: unknown placement %q", name)
	}
}

// RunSHM executes one SHM experiment and returns its data point.
func RunSHM(ctx context.Context, cfg SHMConfig) (SHMResult, error) {
	if err := cfg.fill(); err != nil {
		return SHMResult{}, err
	}
	strat, err := placementFor(cfg.Placement, cfg.Seed)
	if err != nil {
		return SHMResult{}, err
	}
	var model *netsim.Model
	if cfg.Network && cfg.Silos > 1 {
		model = netsim.NewModel(cfg.Seed, netsim.Loopback, netsim.SameAZ)
	}
	local := transport.NewLocal(model, nil)
	rt, err := core.New(core.Config{
		Transport: local,
		Placement: strat,
		Cost:      SHMCost(cfg.Scale),
		Store:     cfg.Store,
		// Collection off during the run: the paper's experiments hold all
		// grains hot in memory.
		IdleAfter:    time.Hour,
		CollectEvery: time.Hour,
		Tracer:       cfg.Tracer,
	})
	if err != nil {
		return SHMResult{}, err
	}
	defer func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = rt.Shutdown(shCtx)
	}()
	for i := 1; i <= cfg.Silos; i++ {
		limiter := capacity.NewLimiter(cfg.Profile, nil)
		if _, err := rt.AddSilo(fmt.Sprintf("silo-%d", i), limiter); err != nil {
			return SHMResult{}, err
		}
	}
	persist := core.PersistNone
	if cfg.Store != nil {
		persist = core.PersistOnDeactivate
	}
	platform, err := shm.NewPlatform(rt, shm.Options{Persist: persist})
	if err != nil {
		return SHMResult{}, err
	}

	sensors := cfg.Sensors / cfg.Scale
	if sensors < 1 {
		sensors = 1
	}
	pop := shm.DefaultPopulation(sensors)
	pop.SensorsPerOrg = 100 / cfg.Scale
	if pop.SensorsPerOrg < 1 {
		pop.SensorsPerOrg = 1
	}
	pop.WriteEveryBatch = cfg.WriteEveryBatch
	keys, err := platform.Populate(ctx, pop)
	if err != nil {
		return SHMResult{}, err
	}

	rec := NewRecorder()
	spec := LoadSpec{
		SensorKeys:       keys,
		Orgs:             pop.Orgs(),
		Channels:         pop.ChannelsPerSensor,
		PointsPerChannel: 10,
		RequestEvery:     time.Second,
		UserQueries:      cfg.UserQueries,
		Warmup:           cfg.Warmup,
		Duration:         cfg.Duration,
		Seed:             cfg.Seed,
	}
	orDefault(&spec.Channels, 2)
	if err := Drive(ctx, platform, spec, rec); err != nil {
		return SHMResult{}, err
	}

	measured := (cfg.Duration - cfg.Warmup).Seconds()
	localCalls, remoteCalls := local.Stats()
	activations := 0
	for i := 1; i <= cfg.Silos; i++ {
		if s, ok := rt.Silo(fmt.Sprintf("silo-%d", i)); ok {
			activations += s.Activations()
		}
	}
	res := SHMResult{
		Config:        cfg,
		Sensors:       sensors,
		Orgs:          pop.Orgs(),
		OfferedRPS:    float64(sensors),
		ThroughputRPS: float64(rec.Completed(ReqInsert)) / measured,
		Insert:        rec.Latencies(ReqInsert),
		Live:          rec.Latencies(ReqLive),
		Raw:           rec.Latencies(ReqRaw),
		Errors:        rec.Errors(),
		LocalCalls:    localCalls,
		RemoteCalls:   remoteCalls,
		Activations:   activations,
	}
	if spans := cfg.Tracer.Spans(); spans != nil {
		tab := TailAttribution(spans, ReqInsert, []float64{50, 99, 99.9})
		res.Attribution = &tab
	}
	res.HotActors = cfg.Tracer.HotActors()
	res.ProfTurns, res.ProfCPUNanos = cfg.Tracer.ProfileTotals()
	return res, nil
}

// HotActorExperiment profiles the paper's 98/1/1 skewed workload: the
// Figures-8/9 configuration (one m5.xlarge silo, user queries on) with
// the hot-spot profiler installed, returning the top-K hot actors. Org
// and user actors fan 100 sensors' traffic into single activations, so
// they should dominate the per-actor CPU ranking — the attribution the
// shmtop HOT ACTORS panel surfaces in production.
func HotActorExperiment(ctx context.Context, sensors int, opts FigureOptions) (SHMResult, error) {
	opts.fill()
	orDefault(&sensors, 2000)
	// The sketch's per-entry error bound is TotalCPU/slots; with thousands
	// of lightly-loaded sensor actors in the mix, the slot count must be
	// well above the inverse of the heaviest actor's CPU share or the
	// evict-min floor drowns the true ranking. A thousand counters is still
	// bounded memory — a few hundred KB against an unbounded population.
	prof := telemetry.New(telemetry.Config{Parts: telemetry.Profile, HotActors: 1024})
	return RunSHM(ctx, SHMConfig{
		Sensors:     sensors,
		Silos:       1,
		Profile:     capacity.M5XLarge,
		Scale:       opts.Scale,
		Duration:    opts.Duration,
		Warmup:      opts.Warmup,
		UserQueries: true,
		Tracer:      prof,
	})
}

// FigureOptions tune how long each data point runs.
type FigureOptions struct {
	Duration time.Duration
	Warmup   time.Duration
	// Scale for throughput-only figures on small hosts (see package doc).
	Scale int
	// Trace samples every request through a per-data-point tracer so the
	// latency-percentile figures also report component attribution.
	Trace bool
	// Durable reruns the figure with persistence *on* the hot path: each
	// data point gets a fresh disk-backed store in durable mode (ack ⇒
	// fsynced, group-committed) and sensors write state on every batch,
	// so the percentile curves show the cost of real durability instead
	// of the paper's off-path storage.
	Durable bool
}

// durablePoint opens a fresh durable store for one figure data point. The
// returned cleanup closes the store and removes its directory.
func durablePoint() (*kvstore.Store, func(), error) {
	dir, err := os.MkdirTemp("", "aodb-durable-bench-")
	if err != nil {
		return nil, nil, err
	}
	st, err := kvstore.Open(kvstore.Options{Dir: dir, Durable: true})
	if err != nil {
		os.RemoveAll(dir)
		return nil, nil, err
	}
	return st, func() { _ = st.Close(); _ = os.RemoveAll(dir) }, nil
}

// figureTracer builds the per-data-point tracer for traced figure runs:
// every request sampled, ring sized so a full data point fits without
// overwriting (overwritten turns would undercount their trace's
// components).
func figureTracer(trace bool) *telemetry.Tracer {
	if !trace {
		return nil
	}
	return telemetry.New(telemetry.Config{SampleEvery: 1, Capacity: 1 << 17})
}

func (o *FigureOptions) fill() {
	orDefault(&o.Duration, 8*time.Second)
	orDefault(&o.Warmup, o.Duration/4)
	if o.Scale < 1 {
		o.Scale = 1
	}
}

// Figure6 reproduces the single-server throughput experiment: one
// m5.large silo, sweeping the sensor count through and beyond saturation
// (~1,800 req/s in the paper).
func Figure6(ctx context.Context, opts FigureOptions) ([]SHMResult, error) {
	opts.fill()
	sweep := []int{400, 800, 1200, 1600, 1800, 2000, 2400}
	var out []SHMResult
	for _, sensors := range sweep {
		res, err := RunSHM(ctx, SHMConfig{
			Sensors:  sensors,
			Silos:    1,
			Profile:  capacity.M5Large,
			Scale:    opts.Scale,
			Duration: opts.Duration,
			Warmup:   opts.Warmup,
		})
		if err != nil {
			return out, fmt.Errorf("bench: figure 6 at %d sensors: %w", sensors, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Figure7 reproduces the scale-out experiment: scale factor 1..8, one
// m5.xlarge silo and 2,100 sensors per factor, expecting near-linear
// throughput growth.
func Figure7(ctx context.Context, opts FigureOptions) ([]SHMResult, error) {
	opts.fill()
	var out []SHMResult
	for sf := 1; sf <= 8; sf++ {
		res, err := RunSHM(ctx, SHMConfig{
			Sensors:  2100 * sf,
			Silos:    sf,
			Profile:  capacity.M5XLarge,
			Scale:    opts.Scale,
			Duration: opts.Duration,
			Warmup:   opts.Warmup,
			Network:  true,
		})
		if err != nil {
			return out, fmt.Errorf("bench: figure 7 at sf=%d: %w", sf, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Figures8And9 reproduce the latency-percentile experiments: one
// m5.xlarge silo, 98/1/1 insert/live/raw mix, sweeping sensors toward the
// 80%-utilization point (2,000 sensors). Figure 8 reads the Raw
// snapshots; Figure 9 the Live snapshots.
func Figures8And9(ctx context.Context, opts FigureOptions) ([]SHMResult, error) {
	opts.fill()
	sweep := []int{500, 1000, 1500, 2000}
	var out []SHMResult
	for _, sensors := range sweep {
		cfg := SHMConfig{
			Sensors:     sensors,
			Silos:       1,
			Profile:     capacity.M5XLarge,
			Scale:       opts.Scale,
			Duration:    opts.Duration,
			Warmup:      opts.Warmup,
			UserQueries: true,
			Tracer:      figureTracer(opts.Trace),
		}
		var cleanup func()
		if opts.Durable {
			st, cl, err := durablePoint()
			if err != nil {
				return out, fmt.Errorf("bench: figures 8/9 durable store: %w", err)
			}
			cfg.Store = st
			cfg.WriteEveryBatch = true
			cleanup = cl
		}
		res, err := RunSHM(ctx, cfg)
		if cleanup != nil {
			cleanup()
		}
		if err != nil {
			return out, fmt.Errorf("bench: figures 8/9 at %d sensors: %w", sensors, err)
		}
		out = append(out, res)
	}
	return out, nil
}
