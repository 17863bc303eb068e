package main

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs every workload small and short, in both passes, and
// checks that each metric BENCHMARK.json names is reported, finite and
// unit-tagged and that nothing failed. It asserts no timing, so it cannot
// flake. The probes do not depend on the workload, so they run once and
// every traced run is completed with their metrics.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots five deployments twice")
	}
	c, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(c.Workloads), len(specs))
	}
	ctx := context.Background()
	probes := &Result{Metrics: map[string]Metric{}}
	if err := runProbes(ctx, t.TempDir(), probes); err != nil {
		t.Fatal(err)
	}
	for _, w := range c.Workloads {
		s, ok := specByName(w.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not have", w.Name)
		}
		s.sensors = 200
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(ctx, runConfig{
				spec:   s,
				seed:   1,
				window: 300 * time.Millisecond,
				warmup: 100 * time.Millisecond,
				setups: 1,
				trace:  trace,
				tmp:    t.TempDir(),
			})
			if err != nil {
				t.Fatal(err)
			}
			if trace {
				for name, m := range probes.Metrics {
					res.Metrics[name] = m
				}
				reconcile(s, res)
			}
			if res.Failed != 0 || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s trace=%v: %d of %d failed: %s", w.Name, trace, res.Failed, res.Attempted, res.FirstErr)
			}
			want := map[string]string{}
			if trace {
				for _, m := range c.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range c.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w.Name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w.Name, trace, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: metric %s = %v", w.Name, trace, name, m.Value)
				}
			}
			for name := range res.Metrics {
				if _, ok := want[name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", w.Name, trace, name)
				}
			}
		}
	}
}

// TestQuartilesMatchPython pins the spread computation to the driver's:
// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	q1, q2, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

// syntheticSet writes a set of n timing runs per workload in which every
// end-to-end metric reads about 100·scale(workload, metric).
func syntheticSet(t *testing.T, c contract, n int, host Host, scale func(workload, metric string) float64) string {
	t.Helper()
	set := Set{Host: host, Clients: 2}
	for _, w := range c.Workloads {
		for i := 0; i < n; i++ {
			r := &Result{Workload: w.Name, Seed: int64(i), Seconds: 10, Correct: true, Attempted: 1, Metrics: map[string]Metric{}}
			for _, m := range c.EndToEnd {
				r.Metrics[m.Name] = Metric{Value: (100 + 0.1*float64(i)) * scale(w.Name, m.Name), Unit: m.Unit}
			}
			set.Runs = append(set.Runs, r)
		}
	}
	path := filepath.Join(t.TempDir(), "set.json")
	if err := writeSet(path, set); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	c, err := readContract()
	if err != nil {
		t.Fatal(err)
	}
	host := Host{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}
	same := func(string, string) float64 { return 1 }
	halfThroughput := func(workload, metric string) float64 {
		if workload == "mix_tcp" && metric == "ops_per_s" {
			return 0.5
		}
		return 1
	}
	withoutChurn := c
	withoutChurn.Workloads = c.Workloads[:len(c.Workloads)-1]
	otherHost := host
	otherHost.NumCPU = 4
	base := syntheticSet(t, c, minRuns, host, same)
	for _, tc := range []struct {
		name      string
		b         string
		wantWorse bool
		wantErr   bool
		wantText  string
	}{
		{name: "same", b: syntheticSet(t, c, minRuns, host, same)},
		{name: "regression", b: syntheticSet(t, c, minRuns, host, halfThroughput), wantWorse: true, wantText: "worse"},
		{name: "too few runs", b: syntheticSet(t, c, minRuns-1, host, halfThroughput), wantText: "unresolved (n<"},
		{name: "workload missing", b: syntheticSet(t, withoutChurn, minRuns, host, same), wantErr: true},
		{name: "other host", b: syntheticSet(t, c, minRuns, otherHost, same), wantErr: true},
	} {
		var out strings.Builder
		worse, err := compareFiles(&out, base, tc.b)
		if (err != nil) != tc.wantErr || worse != tc.wantWorse {
			t.Errorf("%s: worse=%v err=%v, want worse=%v error=%v\n%s", tc.name, worse, err, tc.wantWorse, tc.wantErr, out.String())
		}
		if !strings.Contains(out.String(), tc.wantText) {
			t.Errorf("%s: output lacks %q:\n%s", tc.name, tc.wantText, out.String())
		}
		if tc.name == "same" && (strings.Contains(out.String(), "unresolved") || strings.Contains(out.String(), "worse")) {
			t.Errorf("same sets do not compare clean:\n%s", out.String())
		}
	}
}
