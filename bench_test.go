package aodb

// Top-level benchmarks: one per paper figure plus the ablations, backed
// by the internal/bench harness, and micro-benchmarks for the runtime's
// hot paths. The figure benchmarks run one shortened experiment per
// invocation and report domain metrics (req/s, latency percentiles) via
// b.ReportMetric; `go run ./cmd/shmbench` runs the full-length versions.

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"aodb/internal/bench"
	"aodb/internal/capacity"
	"aodb/internal/core"
	"aodb/internal/kvstore"
	"aodb/internal/telemetry"
)

// figureOpts keeps figure benchmarks short enough for `go test -bench`.
func figureOpts() bench.FigureOptions {
	return bench.FigureOptions{Duration: 4 * time.Second, Warmup: time.Second, Scale: 4}
}

func reportSHM(b *testing.B, results []bench.SHMResult) {
	b.Helper()
	for _, r := range results {
		scale := float64(r.Config.Scale)
		b.ReportMetric(r.ThroughputRPS*scale, fmt.Sprintf("req/s@%d-sensors", r.Sensors*r.Config.Scale))
	}
}

// BenchmarkFigure6 regenerates the single-server throughput sweep.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := bench.Figure6(context.Background(), figureOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSHM(b, results)
		}
	}
}

// BenchmarkFigure7 regenerates the scale-out sweep.
func BenchmarkFigure7(b *testing.B) {
	opts := figureOpts()
	opts.Scale = 10 // 16,800 paper-sensors at sf=8 scale-modelled down
	for i := 0; i < b.N; i++ {
		results, err := bench.Figure7(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				b.ReportMetric(r.ThroughputRPS*float64(r.Config.Scale),
					fmt.Sprintf("req/s@sf%d", r.Config.Silos))
			}
		}
	}
}

// BenchmarkFigure8 regenerates raw-data latency percentiles (and
// BenchmarkFigure9 the live-data ones) from the mixed 98/1/1 workload.
func BenchmarkFigure8(b *testing.B) {
	benchmarkFigure89(b, func(r bench.SHMResult) (float64, float64) {
		s := r.Raw
		return float64(s.PercentileDuration(50)) / 1e6, float64(s.PercentileDuration(99)) / 1e6
	}, "raw")
}

// BenchmarkFigure9 regenerates live-data latency percentiles.
func BenchmarkFigure9(b *testing.B) {
	benchmarkFigure89(b, func(r bench.SHMResult) (float64, float64) {
		s := r.Live
		return float64(s.PercentileDuration(50)) / 1e6, float64(s.PercentileDuration(99)) / 1e6
	}, "live")
}

func benchmarkFigure89(b *testing.B, pick func(bench.SHMResult) (p50, p99 float64), label string) {
	opts := figureOpts()
	opts.Scale = 1 // latency figures must not be scale-modelled
	opts.Duration = 5 * time.Second
	for i := 0; i < b.N; i++ {
		results, err := bench.Figures8And9(context.Background(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				p50, p99 := pick(r)
				b.ReportMetric(p50, fmt.Sprintf("%s-p50-ms@%d", label, r.Sensors))
				b.ReportMetric(p99, fmt.Sprintf("%s-p99-ms@%d", label, r.Sensors))
			}
		}
	}
}

// BenchmarkPlacement runs the §5 placement ablation.
func BenchmarkPlacement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := bench.AblationPlacement(context.Background(), figureOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				b.ReportMetric(r.RemoteFraction(), r.Strategy+"-remote-frac")
			}
		}
	}
}

// BenchmarkDurability runs the §5 durability-policy ablation.
func BenchmarkDurability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := bench.AblationDurability(context.Background(), figureOpts())
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				b.ReportMetric(r.Throughput, r.Policy+"-req/s")
			}
		}
	}
}

// BenchmarkCattleModels runs the §4.3 actor-vs-object ablation.
func BenchmarkCattleModels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := bench.AblationCattleModels(context.Background(), 10, 10)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				name, _, _ := strings.Cut(r.Model, " ")
				b.ReportMetric(r.HopsPer, name+"-hops")
			}
		}
	}
}

// BenchmarkConstraintModes runs the §4.4 constraint-mode ablation.
func BenchmarkConstraintModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results, err := bench.AblationConstraints(context.Background(), 15, 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range results {
				b.ReportMetric(float64(r.MeanLat)/1e6, r.Mode+"-mean-ms")
			}
		}
	}
}

// --- Runtime micro-benchmarks ---

type echoActor struct{}

func (echoActor) Receive(_ *core.Context, msg any) (any, error) { return msg, nil }

func newBenchRuntime(b *testing.B, silos int) *core.Runtime {
	b.Helper()
	rt, err := core.New(core.Config{IdleAfter: time.Hour, CollectEvery: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	if err := rt.RegisterKind("Echo", func() core.Actor { return echoActor{} }); err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= silos; i++ {
		if _, err := rt.AddSilo(fmt.Sprintf("silo-%d", i), nil); err != nil {
			b.Fatal(err)
		}
	}
	return rt
}

// BenchmarkActorCallHot measures a call to an already-activated actor —
// the runtime's per-message overhead floor.
func BenchmarkActorCallHot(b *testing.B) {
	rt := newBenchRuntime(b, 1)
	ctx := context.Background()
	id := core.ID{Kind: "Echo", Key: "one"}
	if _, err := rt.Call(ctx, id, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Call(ctx, id, i); err != nil {
			b.Fatal(err)
		}
	}
}

// benchHotLoop is the shared body of the recorder-overhead benchmarks
// below: the same hot-actor call loop under each tracer configuration, so
// `go test -bench 'ActorCallHot' -count N` + benchstat quantifies what
// the subsystem costs (the disabled case must stay within 2% of the
// baseline — its hot path is one atomic load).
func benchHotLoop(b *testing.B, tracer *telemetry.Tracer) {
	rt, err := core.New(core.Config{IdleAfter: time.Hour, CollectEvery: time.Hour, Tracer: tracer})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	if err := rt.RegisterKind("Echo", func() core.Actor { return echoActor{} }); err != nil {
		b.Fatal(err)
	}
	if _, err := rt.AddSilo("silo-1", nil); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	id := core.ID{Kind: "Echo", Key: "one"}
	if _, err := rt.Call(ctx, id, 1); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Call(ctx, id, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkActorCallHotTracerDisabled: tracer installed but switched
// off — the configuration production runs idle in.
func BenchmarkActorCallHotTracerDisabled(b *testing.B) {
	tracer := telemetry.New(telemetry.Config{})
	tracer.SetEnabled(false)
	benchHotLoop(b, tracer)
}

// BenchmarkActorCallHotTraced: every request sampled end to end.
func BenchmarkActorCallHotTraced(b *testing.B) {
	benchHotLoop(b, telemetry.New(telemetry.Config{SampleEvery: 1}))
}

// BenchmarkActorCallHotJournalDisabled: a recorder with the flight
// recorder's events part installed but switched off — the configuration
// production runs idle in. One atomic load per call site, within noise of
// the bare baseline.
func BenchmarkActorCallHotJournalDisabled(b *testing.B) {
	tracer := telemetry.New(telemetry.Config{Silo: "bench", Parts: telemetry.Events})
	tracer.SetEnabled(false)
	benchHotLoop(b, tracer)
}

// BenchmarkActorCallHotJournaled: flight recorder on; fast calls record
// no event (no slow turns, no anomalies), so this measures the enabled
// check plus the per-kind turn accounting on the call path.
func BenchmarkActorCallHotJournaled(b *testing.B) {
	benchHotLoop(b, telemetry.New(telemetry.Config{Silo: "bench", Parts: telemetry.Events}))
}

// BenchmarkActorCallParallel measures many goroutines calling many actors.
func BenchmarkActorCallParallel(b *testing.B) {
	rt := newBenchRuntime(b, 2)
	ctx := context.Background()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			id := core.ID{Kind: "Echo", Key: fmt.Sprintf("k%d", i%256)}
			if _, err := rt.Call(ctx, id, i); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkActivation measures cold activation cost (new actor per call).
func BenchmarkActivation(b *testing.B) {
	rt := newBenchRuntime(b, 1)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := core.ID{Kind: "Echo", Key: fmt.Sprintf("cold-%d", i)}
		if _, err := rt.Call(ctx, id, i); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVStorePut measures the storage substrate's write path
// (memory-only, no WAL).
func BenchmarkKVStorePut(b *testing.B) {
	s, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tb, err := s.EnsureTable("bench", kvstore.Throughput{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	value := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.Put(ctx, fmt.Sprintf("k%d", i%4096), value); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKVStoreDurablePut measures the WAL-backed write path.
func BenchmarkKVStoreDurablePut(b *testing.B) {
	s, err := kvstore.Open(kvstore.Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tb, err := s.EnsureTable("bench", kvstore.Throughput{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	value := make([]byte, 256)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.Put(ctx, fmt.Sprintf("k%d", i%4096), value); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCapacityLimiter measures the simulated-CPU execution path used
// by every benchmark turn.
func BenchmarkCapacityLimiter(b *testing.B) {
	l := capacity.NewLimiter(capacity.Profile{Workers: 2, Speed: 1}, nil)
	ctx := context.Background()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := l.Execute(ctx, 0, func() error { return nil }); err != nil {
				b.Fatal(err)
			}
		}
	})
}
