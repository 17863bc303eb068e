package metrics

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero counter = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", c.Value())
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Fatalf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	s := h.Snapshot()
	if s.Count != 0 || s.Percentile(50) != 0 || s.Mean() != 0 {
		t.Fatalf("empty histogram snapshot not zeroed: %+v", s)
	}
	if s.String() != "empty" {
		t.Fatalf("empty String() = %q", s.String())
	}
}

func TestHistogramSingleValue(t *testing.T) {
	h := NewHistogram()
	h.Record(1000)
	s := h.Snapshot()
	if s.Count != 1 || s.Min != 1000 || s.Max != 1000 {
		t.Fatalf("snapshot = %+v", s)
	}
	for _, p := range []float64{0, 50, 99, 100} {
		if got := s.Percentile(p); got != 1000 {
			t.Fatalf("p%g = %d, want 1000", p, got)
		}
	}
}

func TestHistogramNegativeClampedToZeroBucket(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	s := h.Snapshot()
	if s.Count != 1 {
		t.Fatalf("count = %d, want 1", s.Count)
	}
	if got := s.Percentile(50); got != -5 {
		// min/max clamp to actual min recorded
		t.Fatalf("p50 = %d, want -5 (clamped to Min)", got)
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(1))
	var values []int64
	for i := 0; i < 100000; i++ {
		// Log-uniform values spanning 1us..1s in nanoseconds.
		v := int64(math.Exp(rng.Float64()*math.Log(1e9/1e3)) * 1e3)
		values = append(values, v)
		h.Record(v)
	}
	sort.Slice(values, func(i, j int) bool { return values[i] < values[j] })
	s := h.Snapshot()
	for _, p := range []float64{50, 90, 99, 99.9} {
		exact := values[int(p/100*float64(len(values)))-1]
		got := s.Percentile(p)
		relErr := math.Abs(float64(got-exact)) / float64(exact)
		if relErr > 0.05 {
			t.Errorf("p%g = %d, exact %d, rel err %.3f > 0.05", p, got, exact, relErr)
		}
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{100, 200, 300} {
		h.Record(v)
	}
	if m := h.Snapshot().Mean(); m != 200 {
		t.Fatalf("mean = %v, want 200", m)
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for j := 0; j < 10000; j++ {
				h.Record(int64(rng.Intn(1 << 20)))
			}
		}(int64(i))
	}
	wg.Wait()
	if h.Count() != 80000 {
		t.Fatalf("count = %d, want 80000", h.Count())
	}
}

func TestHistogramRecordDuration(t *testing.T) {
	h := NewHistogram()
	h.RecordDuration(time.Millisecond)
	if got := h.Snapshot().PercentileDuration(50); got < 900*time.Microsecond || got > 1100*time.Microsecond {
		t.Fatalf("p50 = %v, want ~1ms", got)
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for v := int64(0); v < 1<<22; v += 97 {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at v=%d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
}

func TestBucketUpperBoundsValue(t *testing.T) {
	// Property: every value falls in a bucket whose upper bound is >= the
	// value and within ~2x relative error bound of it.
	f := func(raw uint32) bool {
		v := int64(raw)
		idx := bucketIndex(v)
		u := bucketUpper(idx)
		if u < v {
			return false
		}
		if v >= 64 && float64(u-v) > float64(v)*0.05 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPercentileMonotoneProperty(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		h.Record(int64(rng.Intn(1 << 30)))
	}
	s := h.Snapshot()
	prev := int64(-1)
	for p := 0.0; p <= 100; p += 0.5 {
		v := s.Percentile(p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v: %d < %d", p, v, prev)
		}
		prev = v
	}
}

func TestPercentileDegenerateArguments(t *testing.T) {
	empty := NewHistogram().Snapshot()
	for _, p := range []float64{-10, 0, 50, 100, 250} {
		if got := empty.Percentile(p); got != 0 {
			t.Fatalf("empty p%g = %d, want 0", p, got)
		}
	}
	h := NewHistogram()
	h.Record(500)
	h.Record(1500)
	s := h.Snapshot()
	// Out-of-range percentiles clamp to the observed extremes instead of
	// indexing outside the buckets.
	if got := s.Percentile(-1); got != s.Min {
		t.Fatalf("p-1 = %d, want Min %d", got, s.Min)
	}
	if got := s.Percentile(1000); got != s.Max {
		t.Fatalf("p1000 = %d, want Max %d", got, s.Max)
	}
}

// TestHistogramConcurrentRecordSnapshot hammers Record while another
// goroutine snapshots: under -race this proves readers never see torn
// state, and every snapshot must be internally consistent.
func TestHistogramConcurrentRecordSnapshot(t *testing.T) {
	h := NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
					h.Record(int64(rng.Intn(1 << 24)))
				}
			}
		}(int64(i))
	}
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		if s.Count < 0 {
			t.Fatalf("negative count %d", s.Count)
		}
		if s.Count > 0 {
			p50, p99 := s.Percentile(50), s.Percentile(99)
			if s.Min > p50 || p50 > p99 || s.Min > s.Max {
				t.Fatalf("inconsistent snapshot: min=%d p50=%d p99=%d max=%d",
					s.Min, p50, p99, s.Max)
			}
		}
	}
	close(stop)
	wg.Wait()
	if final := h.Snapshot(); final.Count != h.Count() {
		t.Fatalf("final snapshot count %d != %d", final.Count, h.Count())
	}
}

func TestRegistryEnumeration(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Add(1)
	r.Counter("b").Add(2)
	r.Gauge("g").Set(-7)
	r.Histogram("h").Record(1000)

	cs := r.Counters()
	if len(cs) != 2 || cs["a"] != 1 || cs["b"] != 2 {
		t.Fatalf("Counters() = %+v", cs)
	}
	gs := r.Gauges()
	if len(gs) != 1 || gs["g"] != -7 {
		t.Fatalf("Gauges() = %+v", gs)
	}
	hs := r.Histograms()
	if len(hs) != 1 || hs["h"].Count != 1 {
		t.Fatalf("Histograms() = %+v", hs)
	}
	// Enumeration returns copies: mutating them must not touch the registry.
	cs["a"] = 99
	if r.Counter("a").Value() != 1 {
		t.Fatal("Counters() aliases registry state")
	}
	if got := NewRegistry().Counters(); len(got) != 0 {
		t.Fatalf("empty registry Counters() = %+v", got)
	}
}

// TestRegistryConcurrentAccess mixes instrument creation, updates, and
// enumeration across goroutines (meaningful under -race).
func TestRegistryConcurrentAccess(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.Counter("shared").Inc()
				r.Histogram("lat").Record(int64(j))
				r.Gauge("g").Set(int64(j))
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 200; j++ {
			_ = r.Counters()
			_ = r.Gauges()
			_ = r.Histograms()
		}
	}()
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 2000 {
		t.Fatalf("shared counter = %d, want 2000", got)
	}
}

func TestRegistryReusesInstruments(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("Counter not reused")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("Gauge not reused")
	}
	if r.Histogram("h") != r.Histogram("h") {
		t.Fatal("Histogram not reused")
	}
}

func TestRegistryDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("reqs").Add(3)
	r.Gauge("active").Set(2)
	r.Histogram("lat").Record(1000)
	d := r.Dump()
	for _, want := range []string{"counter reqs = 3", "gauge active = 2", "histogram lat"} {
		if !strings.Contains(d, want) {
			t.Errorf("Dump missing %q:\n%s", want, d)
		}
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.RunParallel(func(pb *testing.PB) {
		v := int64(12345)
		for pb.Next() {
			h.Record(v)
			v = v*1664525 + 1013904223
			if v < 0 {
				v = -v
			}
		}
	})
}

// TestRegistryGetOrCreateRace: goroutines racing to create the same and
// different names must each see one instrument per name, with no update
// lost to a table copy (meaningful under -race).
func TestRegistryGetOrCreateRace(t *testing.T) {
	r := NewRegistry()
	const workers, names = 8, 32
	got := make([][names]*Counter, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < names; i++ {
				name := "c" + string(rune('A'+i))
				got[w][i] = r.Counter(name)
				got[w][i].Inc()
				r.Gauge(name).Add(1)
				r.Histogram(name).Record(1)
			}
		}(w)
	}
	wg.Wait()
	for i := 0; i < names; i++ {
		for w := 1; w < workers; w++ {
			if got[w][i] != got[0][i] {
				t.Fatalf("name %d: workers 0 and %d hold different counters", i, w)
			}
		}
		if v := got[0][i].Value(); v != workers {
			t.Fatalf("name %d: counter = %d, want %d", i, v, workers)
		}
	}
	if n := len(r.Counters()); n != names {
		t.Fatalf("registry holds %d counters, want %d", n, names)
	}
	for name, h := range r.Histograms() {
		if h.Count != workers {
			t.Fatalf("histogram %s count = %d, want %d", name, h.Count, workers)
		}
	}
}

// BenchmarkRegistryCounterParallel is the by-name lookup core pays once a
// turn ("core.turns"), from every mailbox goroutine at once. It times the
// lookup alone: an Inc on the one shared counter would measure that cache
// line bouncing between CPUs, not the registry.
func BenchmarkRegistryCounterParallel(b *testing.B) {
	r := NewRegistry()
	for _, name := range []string{"core.turns", "core.activations", "core.active", "core.state_writes"} {
		r.Counter(name)
	}
	b.RunParallel(func(pb *testing.PB) {
		var c *Counter
		for pb.Next() {
			c = r.Counter("core.turns")
		}
		runtime.KeepAlive(c)
	})
}
