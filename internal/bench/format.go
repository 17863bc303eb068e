package bench

import (
	"fmt"
	"io"
	"text/tabwriter"
	"time"

	"aodb/internal/metrics"
)

// Formatting helpers that print each experiment the way the paper's
// figures present it, so EXPERIMENTS.md can be assembled directly from
// harness output.

func newTable(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
}

func ms(d time.Duration) string {
	if d < time.Millisecond {
		return fmt.Sprintf("%dµs", d.Microseconds())
	}
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// PrintFigure6 renders the single-server throughput sweep.
func PrintFigure6(w io.Writer, results []SHMResult) {
	fmt.Fprintln(w, "Figure 6 — single-server throughput (m5.large profile)")
	tw := newTable(w)
	fmt.Fprintln(tw, "sensors\toffered req/s\tthroughput req/s\tinsert p50\tinsert p99\terrors")
	for _, r := range results {
		scaledSensors := r.Sensors * r.Config.Scale
		fmt.Fprintf(tw, "%d\t%.0f\t%.0f\t%s\t%s\t%d\n",
			scaledSensors, r.OfferedRPS*float64(r.Config.Scale), r.ThroughputRPS*float64(r.Config.Scale),
			ms(r.Insert.PercentileDuration(50)), ms(r.Insert.PercentileDuration(99)), r.Errors)
	}
	tw.Flush()
	if len(results) > 0 && results[0].Config.Scale > 1 {
		fmt.Fprintf(w, "(scale %dx: population /%d, per-turn cost x%d; req/s columns rescaled to paper units)\n",
			results[0].Config.Scale, results[0].Config.Scale, results[0].Config.Scale)
	}
}

// PrintFigure7 renders the scale-out sweep.
func PrintFigure7(w io.Writer, results []SHMResult) {
	fmt.Fprintln(w, "Figure 7 — scale-out over silos (m5.xlarge profile, 2,100 sensors/silo)")
	tw := newTable(w)
	fmt.Fprintln(tw, "scale factor\tsilos\tsensors\toffered req/s\tthroughput req/s\tefficiency\terrors")
	var base float64
	for i, r := range results {
		scale := float64(r.Config.Scale)
		tput := r.ThroughputRPS * scale
		if i == 0 {
			base = tput
		}
		eff := 0.0
		if base > 0 {
			eff = tput / (base * float64(r.Config.Silos))
		}
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.0f\t%.0f\t%.2f\t%d\n",
			r.Config.Silos, r.Config.Silos, r.Sensors*r.Config.Scale,
			r.OfferedRPS*scale, tput, eff, r.Errors)
	}
	tw.Flush()
	if len(results) > 0 && results[0].Config.Scale > 1 {
		fmt.Fprintf(w, "(scale %dx; req/s columns rescaled to paper units)\n", results[0].Config.Scale)
	}
}

func printPercentileTable(w io.Writer, results []SHMResult, pick func(SHMResult) metrics.Snapshot) {
	tw := newTable(w)
	fmt.Fprintln(tw, "sensors\tn\tp50\tp90\tp95\tp99\tp99.9")
	for _, r := range results {
		s := pick(r)
		fmt.Fprintf(tw, "%d\t%d\t%s\t%s\t%s\t%s\t%s\n",
			r.Sensors*r.Config.Scale, s.Count,
			ms(s.PercentileDuration(50)), ms(s.PercentileDuration(90)),
			ms(s.PercentileDuration(95)), ms(s.PercentileDuration(99)),
			ms(s.PercentileDuration(99.9)))
	}
	tw.Flush()
}

// PrintFigure8 renders raw-data request latency percentiles.
func PrintFigure8(w io.Writer, results []SHMResult) {
	fmt.Fprintln(w, "Figure 8 — raw sensor-channel time-range request latency percentiles")
	printPercentileTable(w, results, func(r SHMResult) metrics.Snapshot { return r.Raw })
}

// PrintFigure9 renders live-data request latency percentiles.
func PrintFigure9(w io.Writer, results []SHMResult) {
	fmt.Fprintln(w, "Figure 9 — organization live-data request latency percentiles")
	printPercentileTable(w, results, func(r SHMResult) metrics.Snapshot { return r.Live })
}

// PrintHotActors renders a profiled run's top-K heavy hitters with their
// CPU share of the whole run, the attribution table shmtop shows live.
func PrintHotActors(w io.Writer, r SHMResult, k int) {
	fmt.Fprintf(w, "Hot actors — top %d of %d turns (%s CPU attributed, %d sensors, 98/1/1 mix)\n",
		k, r.ProfTurns, ms(time.Duration(r.ProfCPUNanos)), r.Sensors*r.Config.Scale)
	tw := newTable(w)
	fmt.Fprintln(tw, "actor\tcpu\terr ≤\tshare\tturns\tmailbox hwm")
	rows := r.HotActors
	if len(rows) > k {
		rows = rows[:k]
	}
	for _, e := range rows {
		share := 0.0
		if r.ProfCPUNanos > 0 {
			share = 100 * float64(e.Count) / float64(r.ProfCPUNanos)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.1f%%\t%d\t%d\n",
			e.Key, ms(time.Duration(e.Count)), ms(time.Duration(e.Err)), share, e.Turns, e.HighWater)
	}
	tw.Flush()
	fmt.Fprintln(w, "(cpu is a space-saving sketch count: an overestimate by at most its err column)")
}

// PrintPlacement renders the placement ablation.
// PrintAttribution renders the insert-class tail-latency component
// tables of a traced figure run (one table per data point).
func PrintAttribution(w io.Writer, results []SHMResult) {
	fmt.Fprintln(w, "Tail-latency attribution — insert-request components per percentile")
	for _, r := range results {
		if r.Attribution == nil {
			continue
		}
		fmt.Fprintf(w, "\n%d sensors (%d traces):\n%s", r.Sensors*r.Config.Scale,
			r.Attribution.Traces, r.Attribution.String())
	}
}

func PrintPlacement(w io.Writer, results []PlacementResult) {
	fmt.Fprintln(w, "Ablation C — activation placement (4 silos, SameAZ network)")
	tw := newTable(w)
	fmt.Fprintln(tw, "strategy\tthroughput req/s\tinsert p50\tinsert p99\tremote calls\tremote frac")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%.0f\t%s\t%s\t%d\t%.2f\n",
			r.Strategy, r.Throughput, ms(r.InsertP50), ms(r.InsertP99), r.RemoteCalls, r.RemoteFraction())
	}
	tw.Flush()
}

// PrintDurability renders the durability-policy ablation.
func PrintDurability(w io.Writer, results []DurabilityResult) {
	fmt.Fprintln(w, "Ablation D — durability policy (100 sensors / 200 channels, 200 WCU store)")
	tw := newTable(w)
	fmt.Fprintln(tw, "policy\tthroughput req/s\tinsert p50\tinsert p99\tstorage writes\terrors")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%.0f\t%s\t%s\t%d\t%d\n",
			r.Policy, r.Throughput, ms(r.InsertP50), ms(r.InsertP99), r.StorageWrites, r.Errors)
	}
	tw.Flush()
}

// PrintQuorum renders the replication N/R/W ablation: per-write quorum
// latency against what a storage-kill soak at that setting actually
// lost. The lost column is the argument for W>=2. fast is the N=1
// coordinator on one silo, whose puts take the Local-map fast path: its
// latency against a bare table put is reported here, where a timing
// belongs, and its transport calls and allocations are what
// TestQuorumLatencyN1FastPath asserts.
func PrintQuorum(w io.Writer, rows []QuorumAblationRow, fast QuorumLatencyResult) {
	fmt.Fprintln(w, "Ablation R — replicated state N/R/W tradeoff (durable quorum puts; soak = crashes + replica disk wipes)")
	tw := newTable(w)
	fmt.Fprintln(tw, "N\tR\tW\tput p50\tput p95\tbaseline p50\tacked\tlost\twipes")
	for _, r := range rows {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%s\t%s\t%s\t%d\t%d\t%d\n",
			r.Latency.N, r.Latency.R, r.Latency.W,
			ms(r.Latency.P50), ms(r.Latency.P95), ms(r.Latency.BaselineP50),
			r.Soak.AckedWrites, len(r.Soak.LostWrites), r.Soak.Wipes)
	}
	tw.Flush()
	fmt.Fprintln(w, "(baseline = bare durable single-table put; N=1/W=1 losing writes under wipes is the expected failure mode)")
	fmt.Fprintf(w, "N=1 fast path, one silo: put p50 %s against baseline %s (%.2f ×), mean %s against %s; %d transport calls in %d puts; %.1f allocations a put against %.1f\n",
		ms(fast.P50), ms(fast.BaselineP50), float64(fast.P50)/float64(fast.BaselineP50), ms(fast.Mean), ms(fast.BaselineMean),
		fast.RPCs, fast.Ops, fast.Allocs, fast.BaselineAllocs)
}

// PrintCattleModels renders the actor-vs-object trace ablation.
func PrintCattleModels(w io.Writer, results []TraceModelResult) {
	fmt.Fprintln(w, "Ablation A — meat cuts as actors (fig 3) vs non-actor object versions (fig 5)")
	tw := newTable(w)
	fmt.Fprintln(tw, "model\ttraces\thops/trace\tmean latency\tp99 latency\tactor turns")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%d\t%.1f\t%s\t%s\t%d\n",
			r.Model, r.Traces, r.HopsPer, ms(r.MeanLat), ms(r.P99Lat), r.TurnsTotal)
	}
	tw.Flush()
}

// PrintConstraints renders the constraint-mode ablation.
func PrintConstraints(w io.Writer, results []ConstraintResult) {
	fmt.Fprintln(w, "Ablation B — cross-actor constraint enforcement (§4.4 modes)")
	tw := newTable(w)
	fmt.Fprintln(tw, "mode\ttransfers ok\tfailed\tmean latency\tp99 latency\tviolations")
	for _, r := range results {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%s\t%s\t%d\n",
			r.Mode, r.Transfers, r.Failed, ms(r.MeanLat), ms(r.P99Lat), r.Violations)
	}
	tw.Flush()
}

// PrintElastic renders the elastic scale-out run: per-phase throughput
// as the cluster grows, per-join convergence, and the audit verdict.
func PrintElastic(w io.Writer, r ElasticResult) {
	fmt.Fprintln(w, "Ablation H — elastic scale-out (gossip join + live rebalancing under sustained acked writes)")
	tw := newTable(w)
	fmt.Fprintln(tw, "phase\tsilos\tacked writes\trate/s\twindow")
	for i, p := range r.Phases {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%.0f\t%s\n", i+1, p.Silos, p.Acked, p.Rate, p.Duration.Round(time.Millisecond))
	}
	tw.Flush()
	if len(r.Joins) > 0 {
		tw = newTable(w)
		fmt.Fprintln(tw, "join\tview converged")
		for _, j := range r.Joins {
			fmt.Fprintf(tw, "%s\t%s\n", j.Silo, j.Converged.Round(time.Millisecond))
		}
		tw.Flush()
	}
	fmt.Fprintf(w, "acked %d, lost %d, retried ops %d, unclassified %d (audit %s)\n",
		r.AckedWrites, len(r.LostWrites), r.RetriedOps, len(r.Unclassified), r.VerifyElapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "migrations out/in/forced %d/%d/%d, moves done/failed %d/%d, stale writes fenced %d\n",
		r.MigrationsOut, r.MigrationsIn, r.MigrationsForced, r.MovesDone, r.MovesFailed, r.FencedWrites)
	if r.SHMOk > 0 || r.SHMErrors > 0 {
		fmt.Fprintf(w, "SHM background load: %d ok, %d errors\n", r.SHMOk, r.SHMErrors)
	}
	if len(r.LostWrites) == 0 && len(r.Unclassified) == 0 {
		fmt.Fprintln(w, "PASS: zero acked writes lost across the growth")
	} else {
		fmt.Fprintln(w, "FAIL: invariant violated — see lost/unclassified above")
	}
}
