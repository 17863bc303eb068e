// Command shmbench regenerates the paper's evaluation figures for the
// Structural Health Monitoring Data Platform against the simulated EC2
// capacity model, plus every ablation with a command of its own.
//
// Usage:
//
//	shmbench -fig 6              # single-server throughput sweep
//	shmbench -fig 7 -scale 10    # scale-out, scaled 10x down for 1-core hosts
//	shmbench -fig 8              # raw-data latency percentiles (also prints fig 9 data)
//	shmbench -fig 9              # live-data latency percentiles
//	shmbench -fig 8 -durable     # same, with durable (fsync-on-ack) grain storage
//	shmbench -fig all            # everything
//	shmbench -ablation objects   # §4.3: meat cuts as actors vs object versions
//	shmbench -ablation constraints  # §4.4: txn vs registry vs workflow transfers
//	shmbench -ablation placement # random vs prefer-local vs consistent-hash
//	shmbench -ablation durability
//	shmbench -ablation replication  # N/R/W quorum latency vs losses under disk wipes
//	shmbench -ablation elastic   # grow 2->8 silos live, audit zero lost acked writes
//
// Each data point runs -duration (default 8s) with the first -warmup
// (default duration/4) discarded, mirroring the paper's dropped first
// minute.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"aodb/internal/bench"
)

// The cattle ablations' sizes: cows per model and consumer traces per
// product for objects, transfers per worker and workers for constraints.
const (
	cattleCows      = 20
	cattleTraces    = 25
	cattleTransfers = 30
	cattleWorkers   = 4
)

func main() {
	fig := flag.String("fig", "", "figure to regenerate: 6, 7, 8, 9, or all")
	ablation := flag.String("ablation", "", "ablation to run: objects (cattle meat cuts), constraints (cattle transfers), placement, durability, ingest, replication (N/R/W quorum tradeoff), or elastic (live 2->8 scale-out)")
	duration := flag.Duration("duration", 8*time.Second, "measurement duration per data point")
	warmup := flag.Duration("warmup", 0, "warmup to discard (default duration/4)")
	scale := flag.Int("scale", 1, "scale-model factor (population /N, per-turn cost xN)")
	trace := flag.Bool("trace", false, "trace every request and print tail-latency attribution (figs 8/9)")
	durable := flag.Bool("durable", false, "rerun figs 8/9 with persistence on the hot path (durable group-committed store, write-every-batch)")
	hot := flag.Bool("hot", false, "profile the 98/1/1 skewed workload and print the top-K hot-actor table")
	hotK := flag.Int("hot-k", 10, "hot-actor rows with -hot")
	hotSensors := flag.Int("hot-sensors", 2000, "sensor population with -hot")
	flag.Parse()

	if *fig == "" && *ablation == "" && !*hot {
		flag.Usage()
		os.Exit(2)
	}
	opts := bench.FigureOptions{Duration: *duration, Warmup: *warmup, Scale: *scale, Trace: *trace, Durable: *durable}
	ctx := context.Background()
	if err := run(ctx, *fig, *ablation, *hot, *hotK, *hotSensors, opts); err != nil {
		fmt.Fprintln(os.Stderr, "shmbench:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, fig, ablation string, hot bool, hotK, hotSensors int, opts bench.FigureOptions) error {
	out := os.Stdout
	if hot {
		res, err := bench.HotActorExperiment(ctx, hotSensors, opts)
		if err != nil {
			return err
		}
		bench.PrintHotActors(out, res, hotK)
	}
	switch fig {
	case "":
	case "6":
		results, err := bench.Figure6(ctx, opts)
		if err != nil {
			return err
		}
		bench.PrintFigure6(out, results)
	case "7":
		results, err := bench.Figure7(ctx, opts)
		if err != nil {
			return err
		}
		bench.PrintFigure7(out, results)
	case "8", "9":
		results, err := bench.Figures8And9(ctx, opts)
		if err != nil {
			return err
		}
		if fig == "8" {
			bench.PrintFigure8(out, results)
		} else {
			bench.PrintFigure9(out, results)
		}
		if opts.Trace {
			fmt.Fprintln(out)
			bench.PrintAttribution(out, results)
		}
	case "all":
		r6, err := bench.Figure6(ctx, opts)
		if err != nil {
			return err
		}
		bench.PrintFigure6(out, r6)
		fmt.Fprintln(out)
		r7, err := bench.Figure7(ctx, opts)
		if err != nil {
			return err
		}
		bench.PrintFigure7(out, r7)
		fmt.Fprintln(out)
		r89, err := bench.Figures8And9(ctx, opts)
		if err != nil {
			return err
		}
		bench.PrintFigure8(out, r89)
		fmt.Fprintln(out)
		bench.PrintFigure9(out, r89)
	default:
		return fmt.Errorf("unknown figure %q", fig)
	}
	switch ablation {
	case "":
	case "objects":
		results, err := bench.AblationCattleModels(ctx, cattleCows, cattleTraces)
		if err != nil {
			return err
		}
		bench.PrintCattleModels(out, results)
	case "constraints":
		results, err := bench.AblationConstraints(ctx, cattleTransfers, cattleWorkers)
		if err != nil {
			return err
		}
		bench.PrintConstraints(out, results)
	case "placement":
		results, err := bench.AblationPlacement(ctx, opts)
		if err != nil {
			return err
		}
		bench.PrintPlacement(out, results)
	case "durability":
		results, err := bench.AblationDurability(ctx, opts)
		if err != nil {
			return err
		}
		bench.PrintDurability(out, results)
	case "ingest":
		results, err := bench.AblationIngest(ctx, 2000)
		if err != nil {
			return err
		}
		bench.PrintIngest(out, results)
	case "replication":
		dir, err := os.MkdirTemp("", "shmbench-repl-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		rows, err := bench.QuorumAblation(ctx, dir, opts.Duration/2, nil)
		if err != nil {
			return err
		}
		fast, err := bench.RunQuorumLatency(ctx, bench.QuorumLatencyConfig{
			Silos: 1, N: 1, R: 1, W: 1, Ops: 3000, Dir: filepath.Join(dir, "fast"), Durable: true,
		})
		if err != nil {
			return err
		}
		bench.PrintQuorum(out, rows, fast)
	case "elastic":
		// The sf8 demo shape: 2,100 sensors per final silo, scaled like
		// the figures, growing 2 -> 8 under the ledger audit load.
		res, err := bench.RunElastic(ctx, bench.ElasticConfig{
			Sensors:   2100 * 8 / opts.Scale,
			JoinEvery: opts.Duration / 4,
		})
		if err != nil {
			return err
		}
		bench.PrintElastic(out, res)
		if err := res.Failed(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown ablation %q", ablation)
	}
	return nil
}
