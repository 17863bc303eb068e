package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// Set is what -out writes and -compare reads: every run of one
// invocation, with enough about the host to tell whether two sets may be
// compared at all.
type Set struct {
	Host    Host      `json:"host"`
	Clients int       `json:"clients"`
	Runs    []*Result `json:"runs"`
}

// Host is the metadata a number is meaningless without.
type Host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	Commit     string `json:"commit"`
}

func hostInfo() Host {
	h := Host{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	// The driver's checkout is not a git repository; there the commit
	// stays unknown.
	if b, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(b))
	}
	return h
}

func writeSet(path string, set Set) error {
	b, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readSet(path string) (Set, error) {
	var set Set
	b, err := os.ReadFile(path)
	if err != nil {
		return set, err
	}
	return set, json.Unmarshal(b, &set)
}

// contract is the part of BENCHMARK.json the comparison applies.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name   string
		Unit   string
		Better string
		Bound  float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

// readContract finds BENCHMARK.json at the repository root, whether the
// command was started there or in benchmark/.
func readContract() (contract, error) {
	var c contract
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		b, err := os.ReadFile(path)
		if err != nil {
			continue
		}
		return c, json.Unmarshal(b, &c)
	}
	return c, fmt.Errorf("BENCHMARK.json not found in . or ..")
}

// quartiles are Python's statistics.quantiles(values, n=4), the method
// the driver uses, so a spread computed here matches the one it checks.
func quartiles(values []float64) (q1, q2, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n == 1 {
		return v[0], v[0], v[0]
	}
	q := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4) // after the clamp, as Python does
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// minRuns is how many runs of a workload each side of a comparison needs:
// below it the quartiles, and so the spread, say nothing.
const minRuns = 5

// sameConditions reports why two sets cannot be compared: the same commit
// measures differently on another core count, toolchain, client count or
// window.
func sameConditions(a, b Set) error {
	switch {
	case a.Host.NumCPU != b.Host.NumCPU || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS:
		return fmt.Errorf("nproc/GOMAXPROCS differ: %d/%d vs %d/%d", a.Host.NumCPU, a.Host.GOMAXPROCS, b.Host.NumCPU, b.Host.GOMAXPROCS)
	case a.Host.GoVersion != b.Host.GoVersion:
		return fmt.Errorf("Go versions differ: %s vs %s", a.Host.GoVersion, b.Host.GoVersion)
	case a.Clients != b.Clients:
		return fmt.Errorf("client counts differ: %d vs %d", a.Clients, b.Clients)
	}
	window := a.Runs[0].Seconds
	for _, set := range []Set{a, b} {
		for _, r := range set.Runs {
			if r.Seconds != window {
				return fmt.Errorf("windows differ: %gs vs %gs", window, r.Seconds)
			}
		}
	}
	return nil
}

// compareFiles applies BENCHMARK.json's bounds to two sets of timing
// runs, workload by workload and metric by metric, and reports whether
// any metric got worse by more than its bound. Every workload and metric
// BENCHMARK.json names must be in both sets.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	c, err := readContract()
	if err != nil {
		return false, err
	}
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	if len(a.Runs) == 0 || len(b.Runs) == 0 {
		return false, fmt.Errorf("a set holds no runs")
	}
	fmt.Fprintf(w, "a: %s  %+v\nb: %s  %+v\n", pathA, a.Host, pathB, b.Host)
	if err := sameConditions(a, b); err != nil {
		return false, fmt.Errorf("the sets cannot be compared: %w", err)
	}
	values := func(set Set, workload, metric string) []float64 {
		var out []float64
		for _, r := range set.Runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
				out = append(out, m.Value)
			}
		}
		return out
	}
	var unresolved int
	fmt.Fprintf(w, "%-13s %-17s %12s %12s %8s %8s %7s  %s\n", "workload", "metric", "median a", "median b", "change", "spread", "bound", "verdict")
	for _, wl := range c.Workloads {
		for _, m := range c.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s: %d runs in a, %d in b", wl.Name, m.Name, len(va), len(vb))
			}
			a1, am, a3 := quartiles(va)
			b1, bm, b3 := quartiles(vb)
			spread := (a3 - a1) / am
			if s := (b3 - b1) / bm; s > spread {
				spread = s
			}
			// change > 0 means b is worse than a.
			change := (bm - am) / am
			if m.Better == "higher" {
				change = -change
			}
			verdict := "within bound"
			switch {
			case len(va) < minRuns || len(vb) < minRuns:
				verdict = fmt.Sprintf("unresolved (n<%d)", minRuns)
				unresolved++
			case change > m.Bound && change > spread:
				// Beyond the bound and beyond the runs' own spread: worse,
				// however noisy the metric.
				verdict = "worse"
				worse = true
			case spread > m.Bound && m.Name != "setup_s":
				// The driver's contract exempts setup_s from the spread
				// rule: a run sets up three times, not thousands, and the
				// durable set-up waits on the host's disk.
				verdict = "unresolved (spread wider than bound)"
				unresolved++
			case change < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-13s %-17s %12.4f %12.4f %+7.1f%% %7.1f%% %6.1f%%  %s\n",
				wl.Name, m.Name, am, bm, 100*change, 100*spread, 100*m.Bound, verdict)
		}
	}
	if unresolved > 0 {
		fmt.Fprintf(w, "%d unresolved\n", unresolved)
	}
	for _, set := range []Set{a, b} {
		for _, r := range set.Runs {
			if !r.Correct {
				fmt.Fprintf(w, "%s seed %d: %d of %d failed: %s\n", r.Workload, r.Seed, r.Failed, r.Attempted, r.FirstErr)
				worse = true
			}
		}
	}
	return worse, nil
}
