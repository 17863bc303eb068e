package metrics

import (
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHistogramMergeMatchesUnion verifies the aggregator's core claim:
// merging per-silo snapshots yields the same percentiles (within
// maxRelativeError-ish tolerance) as recording the union stream into one
// histogram.
func TestHistogramMergeMatchesUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h1, h2, union := NewHistogram(), NewHistogram(), NewHistogram()
	var values []int64
	for i := 0; i < 60000; i++ {
		v := int64(math.Exp(rng.Float64()*math.Log(1e9/1e3)) * 1e3)
		values = append(values, v)
		if i%2 == 0 {
			h1.Record(v)
		} else {
			h2.Record(v)
		}
		union.Record(v)
	}
	m := h1.Snapshot().Merge(h2.Snapshot())
	u := union.Snapshot()
	if m.Count != u.Count || m.Sum != u.Sum || m.Min != u.Min || m.Max != u.Max {
		t.Fatalf("merge totals differ: merged{n=%d sum=%d min=%d max=%d} union{n=%d sum=%d min=%d max=%d}",
			m.Count, m.Sum, m.Min, m.Max, u.Count, u.Sum, u.Min, u.Max)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	for _, p := range []float64{50, 90, 99, 99.9, 99.99} {
		mp, up := m.Percentile(p), u.Percentile(p)
		if mp != up {
			t.Errorf("p%g: merged %d != union %d", p, mp, up)
		}
		exact := values[int(p/100*float64(len(values)))-1]
		if relErr := math.Abs(float64(mp-exact)) / float64(exact); relErr > 2*maxRelativeError+0.01 {
			t.Errorf("p%g merged = %d, exact %d, rel err %.4f", p, mp, exact, relErr)
		}
	}
}

func TestHistogramMergeWithEmpty(t *testing.T) {
	h := NewHistogram()
	h.Record(100)
	h.Record(1000)
	s := h.Snapshot()
	e := NewHistogram().Snapshot()
	for _, m := range []Snapshot{s.Merge(e), e.Merge(s)} {
		if m.Count != 2 || m.Min != 100 || m.Max != 1000 {
			t.Fatalf("merge with empty: %+v", m)
		}
	}
	if m := e.Merge(e); m.Count != 0 || m.Percentile(50) != 0 {
		t.Fatalf("empty+empty: %+v", m)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10000; i++ {
		h.Record(int64(rng.Intn(1 << 28)))
	}
	s := h.Snapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != s.Count || back.Sum != s.Sum || back.Min != s.Min || back.Max != s.Max {
		t.Fatalf("round trip totals differ: %+v vs %+v", back, s)
	}
	for _, p := range []float64{50, 90, 99, 99.9} {
		if back.Percentile(p) != s.Percentile(p) {
			t.Fatalf("p%g differs after round trip", p)
		}
	}
	// Round-tripped snapshots must still merge.
	if m := back.Merge(s); m.Count != 2*s.Count {
		t.Fatalf("merge after round trip: count %d", m.Count)
	}
}

func TestSnapshotJSONRejectsForeignLayout(t *testing.T) {
	var s Snapshot
	err := json.Unmarshal([]byte(`{"layout":"log-linear/5/41","count":1,"sum":1,"min":1,"max":1,"buckets":[[1,1]]}`), &s)
	if err == nil {
		t.Fatal("foreign layout accepted")
	}
	if err := json.Unmarshal([]byte(`{"layout":"log-linear/6/41","count":1,"sum":1,"min":1,"max":1,"buckets":[[99999,1]]}`), &s); err == nil {
		t.Fatal("out-of-range bucket accepted")
	}
}

// TestHistogramSnapshotDuringRecord hammers the torn-read suspect path
// from the PR audit: snapshots taken mid-record must always be
// self-consistent — Min <= Max when Count > 0, percentiles inside
// [Min, Max], and the cumulative bucket walk able to satisfy every rank.
func TestHistogramSnapshotDuringRecord(t *testing.T) {
	h := NewHistogram()
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for !stop.Load() {
				h.Record(int64(1 + rng.Intn(1<<30)))
			}
		}(int64(g))
	}
	for i := 0; i < 2000; i++ {
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		if s.Min > s.Max {
			t.Fatalf("torn snapshot: min %d > max %d (count %d)", s.Min, s.Max, s.Count)
		}
		for _, p := range []float64{0, 50, 99.9, 100} {
			v := s.Percentile(p)
			if v < s.Min || v > s.Max {
				t.Fatalf("p%g = %d outside [%d, %d]", p, v, s.Min, s.Max)
			}
		}
		var bucketSum int64
		for _, c := range s.counts {
			bucketSum += c
		}
		if bucketSum < s.Count {
			t.Fatalf("buckets hold %d records but count is %d: rank walk can fall off", bucketSum, s.Count)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestRegistryConcurrentEnumerators runs writers against the registry's
// get-or-create paths while enumerators walk Counters/Gauges/Histograms.
func TestRegistryConcurrentEnumerators(t *testing.T) {
	r := NewRegistry()
	var stop atomic.Bool
	var wg sync.WaitGroup
	names := []string{"a.lat", "b.lat", "c.count", "d.gauge", "e.lat"}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				n := names[(g+i)%len(names)]
				r.Counter(n + ".c").Inc()
				r.Gauge(n + ".g").Set(int64(i))
				r.Histogram(n).Record(int64(i%1000 + 1))
			}
		}(g)
	}
	for i := 0; i < 300; i++ {
		for name, s := range r.Histograms() {
			if s.Count > 0 && s.Min > s.Max {
				t.Fatalf("histogram %s torn: %+v", name, s)
			}
		}
		_ = r.Counters()
		_ = r.Gauges()
	}
	stop.Store(true)
	wg.Wait()
}
