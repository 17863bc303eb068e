// Package metrics provides the lightweight instrumentation primitives used
// throughout the AODB runtime and the benchmark harness: atomic counters,
// gauges, HDR-style log-linear latency histograms with mergeable
// snapshots, and a space-saving top-K heavy-hitter sketch.
//
// The histogram design follows HdrHistogram's log-linear layout:
// logarithmic buckets with linear sub-buckets, giving a bounded relative
// error (MaxRelativeError, ~1.6% with 64 sub-buckets) over a huge dynamic
// range while staying allocation-free on the record path. That matters
// here because the paper's evaluation (Figures 8 and 9) reports
// 50th..99.9th percentile latencies, and the recorder sits on the
// critical path of every benchmark request. Snapshots serialize to a
// sparse JSON form and merge losslessly, so a cluster aggregator can
// combine per-silo histograms and report cluster-wide percentiles with
// the same error bound.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta to the counter. Negative deltas are rejected.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: negative delta on Counter")
	}
	c.v.Add(delta)
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

const (
	subBucketBits  = 6 // 64 linear sub-buckets per power of two
	subBucketCount = 1 << subBucketBits
	// maxExponent bounds recordable values at 2^41 ns ≈ 36 minutes, far
	// beyond any latency this repository measures.
	maxExponent = 41
	bucketCount = (maxExponent - subBucketBits + 1) * subBucketCount
)

// MaxRelativeError is the worst-case relative quantization error of a
// histogram value: each power-of-two range is split into subBucketCount
// linear sub-buckets, so a recorded value is off from its bucket's
// representative by at most one sub-bucket width.
const MaxRelativeError = 1.0 / subBucketCount

// histogramLayout names the bucket layout a serialized snapshot was
// produced under, so merging processes can refuse mismatched layouts
// instead of silently mis-binning counts.
const histogramLayout = "log-linear/6/41"

// Histogram is a concurrent log-bucketed histogram of int64 values
// (conventionally nanoseconds). The zero value is ready to use.
type Histogram struct {
	buckets  [bucketCount]atomic.Int64
	count    atomic.Int64
	sum      atomic.Int64
	min      atomic.Int64 // stores math.MaxInt64 when empty
	max      atomic.Int64
	initOnce sync.Once
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.init()
	return h
}

func (h *Histogram) init() {
	h.initOnce.Do(func() {
		h.min.Store(math.MaxInt64)
		h.max.Store(math.MinInt64)
	})
}

// bucketIndex maps a value to its bucket. Values <= 0 map to bucket 0.
func bucketIndex(v int64) int {
	if v < subBucketCount {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	// Position of the highest set bit determines the power-of-two bucket;
	// the next subBucketBits bits select the linear sub-bucket.
	msb := 63 - bits.LeadingZeros64(uint64(v))
	if msb > maxExponent {
		msb = maxExponent
		v = 1 << maxExponent
	}
	shift := msb - subBucketBits
	idx := (shift+1)*subBucketCount + int((v>>shift)&(subBucketCount-1))
	if idx >= bucketCount {
		idx = bucketCount - 1
	}
	return idx
}

// bucketUpper returns the representative (upper bound) value for bucket i.
func bucketUpper(i int) int64 {
	if i < subBucketCount {
		return int64(i)
	}
	shift := i/subBucketCount - 1
	sub := int64(i % subBucketCount)
	return (subBucketCount + sub + 1) << shift
}

// Record adds a value to the histogram.
//
// Ordering matters for snapshot consistency: the bucket, sum, min, and
// max updates all happen before the count increment. sync/atomic ops are
// sequentially consistent, so a snapshot that reads count first observes
// at least that many records' buckets and a valid min/max — Percentile
// can never walk off the end of a torn snapshot or report an unset min.
func (h *Histogram) Record(v int64) {
	h.init()
	h.buckets[bucketIndex(v)].Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.count.Add(1)
}

// RecordDuration adds a duration in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded values.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Snapshot captures a point-in-time view of a histogram.
type Snapshot struct {
	Count  int64
	Sum    int64
	Min    int64
	Max    int64
	counts []int64 // per-bucket counts, index-aligned with bucketUpper
}

// Snapshot returns a self-consistent copy for percentile queries.
// Concurrent recording during snapshotting may skew counts by the handful
// of in-flight records, which is acceptable for benchmark reporting, but
// the invariants always hold: Count <= sum of bucket counts, and
// Min <= Max whenever Count > 0.
func (h *Histogram) Snapshot() Snapshot {
	h.init()
	// Count is read before the buckets: Record publishes the bucket before
	// the count, so every counted record's bucket is visible below and
	// Percentile's cumulative walk always reaches its rank.
	s := Snapshot{
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Min:    h.min.Load(),
		Max:    h.max.Load(),
		counts: make([]int64, bucketCount),
	}
	if s.Count == 0 {
		s.Min = 0
		s.Max = 0
	}
	for i := range h.buckets {
		s.counts[i] = h.buckets[i].Load()
	}
	s.clampBounds()
	return s
}

// clampBounds repairs min/max against the bucket contents so a torn read
// (or a deserialized snapshot from an older process) can never yield a
// min above max or percentiles outside the recorded range.
func (s *Snapshot) clampBounds() {
	if s.Count == 0 {
		return
	}
	if s.Min > s.Max {
		// Derive bounds from the occupied buckets instead.
		s.Min, s.Max = 0, 0
		first := true
		for i, c := range s.counts {
			if c == 0 {
				continue
			}
			if first {
				s.Min = bucketLower(i)
				first = false
			}
			s.Max = bucketUpper(i)
		}
	}
}

// bucketLower returns the inclusive lower bound of bucket i.
func bucketLower(i int) int64 {
	if i == 0 {
		return 0
	}
	return bucketUpper(i-1) + 1
}

// Percentile returns the value at quantile p in [0,100]. Results carry the
// bucket quantization error (~3% relative).
func (s Snapshot) Percentile(p float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min
	}
	if p >= 100 {
		return s.Max
	}
	rank := int64(math.Ceil(p / 100 * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			u := bucketUpper(i)
			if u > s.Max {
				u = s.Max
			}
			if u < s.Min {
				u = s.Min
			}
			return u
		}
	}
	return s.Max
}

// Mean returns the arithmetic mean of recorded values.
func (s Snapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// PercentileDuration is Percentile for duration-valued histograms.
func (s Snapshot) PercentileDuration(p float64) time.Duration {
	return time.Duration(s.Percentile(p))
}

// String summarizes the snapshot at the conventional reporting percentiles.
func (s Snapshot) String() string {
	if s.Count == 0 {
		return "empty"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%s", s.Count, time.Duration(int64(s.Mean())))
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		fmt.Fprintf(&b, " p%g=%s", p, s.PercentileDuration(p))
	}
	fmt.Fprintf(&b, " max=%s", time.Duration(s.Max))
	return b.String()
}

// Merge returns the combination of two snapshots, as if every value
// recorded into either histogram had been recorded into one. Because the
// bucket layout is identical, merged percentiles carry the same
// MaxRelativeError bound as single-histogram percentiles.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	if o.Count == 0 && o.counts == nil {
		return s
	}
	if s.Count == 0 && s.counts == nil {
		return o
	}
	out := Snapshot{
		Count:  s.Count + o.Count,
		Sum:    s.Sum + o.Sum,
		counts: make([]int64, bucketCount),
	}
	copy(out.counts, s.counts)
	for i, c := range o.counts {
		out.counts[i] += c
	}
	switch {
	case s.Count == 0:
		out.Min, out.Max = o.Min, o.Max
	case o.Count == 0:
		out.Min, out.Max = s.Min, s.Max
	default:
		out.Min, out.Max = s.Min, s.Max
		if o.Min < out.Min {
			out.Min = o.Min
		}
		if o.Max > out.Max {
			out.Max = o.Max
		}
	}
	return out
}

// snapshotJSON is the sparse wire form of a Snapshot: only occupied
// buckets travel, as [index, count] pairs, tagged with the bucket layout
// so a receiver never mis-bins counts from an incompatible build.
type snapshotJSON struct {
	Layout  string     `json:"layout"`
	Count   int64      `json:"count"`
	Sum     int64      `json:"sum"`
	Min     int64      `json:"min"`
	Max     int64      `json:"max"`
	Buckets [][2]int64 `json:"buckets,omitempty"`
}

// MarshalJSON encodes the snapshot in sparse form.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	j := snapshotJSON{Layout: histogramLayout, Count: s.Count, Sum: s.Sum, Min: s.Min, Max: s.Max}
	for i, c := range s.counts {
		if c != 0 {
			j.Buckets = append(j.Buckets, [2]int64{int64(i), c})
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON decodes a sparse snapshot, rejecting layouts other than
// this build's.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	var j snapshotJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if j.Layout != histogramLayout {
		return fmt.Errorf("metrics: histogram layout %q incompatible with %q", j.Layout, histogramLayout)
	}
	*s = Snapshot{Count: j.Count, Sum: j.Sum, Min: j.Min, Max: j.Max, counts: make([]int64, bucketCount)}
	for _, b := range j.Buckets {
		if b[0] < 0 || b[0] >= bucketCount {
			return fmt.Errorf("metrics: bucket index %d out of range", b[0])
		}
		s.counts[b[0]] = b[1]
	}
	s.clampBounds()
	return nil
}

// Registry is a named collection of metrics, used by silos and benchmarks
// to expose their instruments. Call sites look instruments up by name on
// hot paths (once per turn, per store operation), so a lookup of an
// existing instrument is one atomic load and a map read: each table is
// copy-on-write behind an atomic pointer, and the mutex is taken only to
// add a name.
type Registry struct {
	mu         sync.Mutex // serializes creation
	counters   table[Counter]
	gauges     table[Gauge]
	histograms table[Histogram]
}

// table is one copy-on-write name -> instrument map.
type table[T any] struct {
	m atomic.Pointer[map[string]*T]
}

func (t *table[T]) load() map[string]*T {
	if m := t.m.Load(); m != nil {
		return *m
	}
	return nil
}

// get returns the instrument registered under name, creating it with mk
// under mu if needed.
func (t *table[T]) get(mu *sync.Mutex, name string, mk func() *T) *T {
	if v, ok := t.load()[name]; ok {
		return v
	}
	mu.Lock()
	defer mu.Unlock()
	old := t.load()
	if v, ok := old[name]; ok {
		return v
	}
	next := make(map[string]*T, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	v := mk()
	next[name] = v
	t.m.Store(&next)
	return v
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Counter returns the counter registered under name, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	return r.counters.get(&r.mu, name, func() *Counter { return &Counter{} })
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	return r.gauges.get(&r.mu, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the histogram registered under name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram {
	return r.histograms.get(&r.mu, name, NewHistogram)
}

// Counters returns a point-in-time copy of every counter value, keyed by
// name.
func (r *Registry) Counters() map[string]int64 {
	cs := r.counters.load()
	out := make(map[string]int64, len(cs))
	for name, c := range cs {
		out[name] = c.Value()
	}
	return out
}

// Gauges returns a point-in-time copy of every gauge value, keyed by name.
func (r *Registry) Gauges() map[string]int64 {
	gs := r.gauges.load()
	out := make(map[string]int64, len(gs))
	for name, g := range gs {
		out[name] = g.Value()
	}
	return out
}

// Histograms returns a snapshot of every histogram, keyed by name.
func (r *Registry) Histograms() map[string]Snapshot {
	hs := r.histograms.load()
	out := make(map[string]Snapshot, len(hs))
	for name, h := range hs {
		out[name] = h.Snapshot()
	}
	return out
}

// Dump renders every metric in the registry, sorted by name, one per line.
func (r *Registry) Dump() string {
	var lines []string
	for name, v := range r.Counters() {
		lines = append(lines, fmt.Sprintf("counter %s = %d", name, v))
	}
	for name, v := range r.Gauges() {
		lines = append(lines, fmt.Sprintf("gauge %s = %d", name, v))
	}
	for name, h := range r.Histograms() {
		lines = append(lines, fmt.Sprintf("histogram %s: %s", name, h))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
