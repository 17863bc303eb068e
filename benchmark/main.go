// Command benchmark is the repository's measuring stick: five SHM
// workloads driven through the public bring-up path with the capacity
// model off, the end-to-end metrics a user of the platform would see, and
// — in a separate traced pass — per-layer metrics that show where a
// change's saving sits. README.md explains the workloads and how the
// metrics interact; BENCHMARK.json at the repository root fixes the names,
// units and regression bounds.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so that its deferred clean-up happens
// before the process exits.
func run() int {
	workload := flag.String("workload", "", "workload to run (default: all five)")
	seed := flag.Int64("seed", 1, "seed for op choice, sensor choice and point values")
	seconds := flag.Float64("seconds", 10, "measured window, seconds")
	trace := flag.Bool("trace", false, "traced pass, per-layer metrics, in place of the timing pass and its end-to-end metrics; also -trace 0|1")
	runs := flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
	out := flag.String("out", "", "write every run, with host metadata, to this JSON file")
	compare := flag.Bool("compare", false, "compare two -out files: benchmark -compare a.json b.json")
	// The default flag set exits on a usage error, so Parse returns none.
	_ = flag.CommandLine.Parse(joinTraceValue(os.Args[1:]))

	if *compare {
		if flag.NArg() != 2 {
			return fail(fmt.Errorf("-compare needs two files"))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			return fail(err)
		}
		if worse {
			return 1
		}
		return 0
	}

	selected := specs
	if *workload != "" {
		s, ok := specByName(*workload)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *workload))
		}
		selected = []spec{s}
	}
	// Everything the run writes (store directories, crash copies, probe
	// logs) lives under one directory that is removed on every way out,
	// a signal included.
	tmp, err := os.MkdirTemp("", "shmbench-")
	if err != nil {
		return fail(err)
	}
	defer os.RemoveAll(tmp)
	signals := make(chan os.Signal, 1)
	signal.Notify(signals, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-signals
		os.RemoveAll(tmp)
		os.Exit(130)
	}()
	window := time.Duration(*seconds * float64(time.Second))
	set := Set{Clients: clientCount()}
	ctx := context.Background()
	ok := true
	var last *Result
	for _, s := range selected {
		for i := 0; i < *runs; i++ {
			cfg := runConfig{
				spec:   s,
				seed:   *seed + int64(i),
				window: window,
				warmup: warmupFor(window),
				setups: setupsFor(*trace),
				trace:  *trace,
				tmp:    tmp,
			}
			res, err := runWorkload(ctx, cfg)
			if err == nil && *trace {
				err = probeLayers(ctx, cfg, res)
			}
			if err != nil {
				return fail(err)
			}
			printResult(res)
			set.Runs = append(set.Runs, res)
			ok = ok && res.Correct
			last = res
		}
	}
	if *out != "" {
		// Only a written set carries host metadata: hostInfo asks git for
		// the commit, and a driver run (no -out) starts no process at all.
		set.Host = hostInfo()
		if err := writeSet(*out, set); err != nil {
			return fail(err)
		}
	}
	if *workload != "" {
		// The driver's contract: the last line of standard output is one
		// JSON object with exactly these keys.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int64             `json:"attempted"`
			Failed    int64             `json:"failed"`
			Metrics   map[string]Metric `json:"metrics"`
		}{last.Correct, last.Attempted, last.Failed, last.Metrics})
		if err != nil {
			return fail(err)
		}
		fmt.Println(string(line))
	}
	if !ok {
		return 1
	}
	return 0
}

// joinTraceValue rewrites the driver's "--trace 0" and "--trace 1" to
// "--trace=0" and "--trace=1": -trace is a boolean flag, so that the bare
// form works too, and the flag package takes a boolean's value only after
// an equals sign.
func joinTraceValue(args []string) []string {
	var out []string
	for i := 0; i < len(args); i++ {
		out = append(out, args[i])
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) && (args[i+1] == "0" || args[i+1] == "1") {
			out[len(out)-1] += "=" + args[i+1]
			i++
		}
	}
	return out
}

// setupsFor is how many times a run sets the deployment up: setup_s is
// their median, and the traced pass does not report it.
func setupsFor(trace bool) int {
	if trace {
		return 1
	}
	return 3
}

// warmupFor scales the discarded warm-up with the window: 3 s before a
// 20 s window, never more than the window itself (smoke runs).
func warmupFor(window time.Duration) time.Duration {
	w := window * 3 / 20
	if w < time.Second {
		w = time.Second
	}
	if w > window {
		w = window
	}
	return w
}

func printResult(res *Result) {
	kind := "timing"
	if res.Trace {
		kind = "traced"
	}
	fmt.Printf("== %s  (%s pass, seed %d, window %.1fs)\n", res.Workload, kind, res.Seed, res.Seconds)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("  %-36s %14.4f %-6s", name, m.Value, m.Unit)
		if n, ok := res.Samples[name]; ok {
			fmt.Printf(" n=%d", n)
		}
		fmt.Println()
	}
	share := float64(res.Failed) / float64(res.Attempted)
	fmt.Printf("  %-36s %14.6f %-6s attempted=%d failed=%d\n", "failed_share", share, "share", res.Attempted, res.Failed)
	if res.FirstErr != "" {
		fmt.Printf("  first error: %s\n", res.FirstErr)
	}
	names = names[:0]
	for name := range res.Notes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("  note %-31s %14.1f\n", name, res.Notes[name])
	}
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}
