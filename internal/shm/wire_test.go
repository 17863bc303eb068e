package shm

import (
	"testing"
	"time"

	"aodb/internal/codec"
	"aodb/internal/codec/codectest"
)

var wireEpoch = time.Date(2019, 3, 26, 0, 0, 0, 0, time.UTC)

// wirePoints is n points at 10 Hz, the shape of a RawData reply.
func wirePoints(n int) []DataPoint {
	ps := make([]DataPoint, n)
	for i := range ps {
		ps[i] = DataPoint{At: wireEpoch.Add(time.Duration(i) * 100 * time.Millisecond), Value: float64(i) + 0.25}
	}
	return ps
}

// wireInsert is the benchmark's insert: two channels of ten points.
func wireInsert() InsertBatch {
	m := InsertBatch{At: wireEpoch, Points: make([][]float64, 2), Interval: 100 * time.Millisecond}
	for i := range m.Points {
		for j := 0; j < 10; j++ {
			m.Points[i] = append(m.Points[i], float64(i*10+j)*1.37)
		}
	}
	return m
}

// TestWireEqualsGob: every SHM type with a binary wire form decodes to
// what a gob round trip of the same value gives: zero values, nil and
// empty slices, one element, the benchmark's shapes, and times in UTC, a
// fixed zone and Local.
func TestWireEqualsGob(t *testing.T) {
	zone := time.FixedZone("", -7*3600)
	local := time.Date(2024, 7, 1, 8, 0, 0, 5, time.Local)
	buckets := []BucketStat{
		{Bucket: wireEpoch.Truncate(time.Hour), Count: 10, Sum: 55.5, Min: -1, Max: 12},
		{Bucket: wireEpoch.In(zone), Count: 1 << 40, Sum: 1e300, Min: 1e-300, Max: 0},
	}
	for _, v := range []any{
		DataPoint{}, DataPoint{At: wireEpoch, Value: 1.5}, DataPoint{At: wireEpoch.In(zone), Value: -2}, DataPoint{At: local},
		[]DataPoint(nil), []DataPoint{}, wirePoints(1), wirePoints(600), []DataPoint{{At: local}, {At: time.Now()}, {}},
		[]BucketStat(nil), []BucketStat{}, buckets[:1], buckets,
		InsertBatch{}, InsertBatch{Points: [][]float64{}}, InsertBatch{At: local, Points: [][]float64{nil, {}, {1}}}, wireInsert(),
		InsertPoints{}, InsertPoints{Points: []DataPoint{}}, InsertPoints{Points: wirePoints(10)},
		VirtualInput{}, VirtualInput{From: "org-1@sensor-1/ch-0", Points: wirePoints(10)},
		StatUpdate{}, StatUpdate{Channel: "org-1@sensor-1/ch-0", Stats: buckets},
		RangeQuery{}, RangeQuery{From: wireEpoch, To: wireEpoch.Add(time.Minute).In(zone)},
		GetAggregates{}, GetAggregates{Channel: "org-1@sensor-1/ch-1"},
		Latest{}, GetChannels{},
	} {
		codectest.EqualsGob(t, v)
	}
}

// TestWireAllocs holds the codec's allocation rows in tier-1: what a frame
// costs to write and read back in steady state.
func TestWireAllocs(t *testing.T) {
	for _, c := range []struct {
		name  string
		frame codec.Frame
		most  float64
	}{
		{"insert request", codec.Frame{Kind: codec.FrameRequest, TargetKind: KindSensor, TargetKey: SensorKey(OrgKey(7), 42),
			Method: "call", Sender: "client", Payload: wireInsert()}, 7},
		{"600-point reply", codec.Frame{Kind: codec.FrameResponse, Payload: wirePoints(600)}, 6},
		{"latest request", codec.Frame{Kind: codec.FrameRequest, TargetKind: KindPhysicalChannel, TargetKey: ChannelKey(SensorKey(OrgKey(7), 42), 0),
			Method: "call", Sender: "client", Payload: Latest{}}, 2},
	} {
		if got := codectest.RoundTripAllocs(t, &c.frame); got > c.most {
			t.Errorf("%s: %.0f allocations a round trip, want at most %.0f", c.name, got, c.most)
		} else {
			t.Logf("%s: %.0f allocations a round trip", c.name, got)
		}
	}
}

// TestRangeQueryIsOneAllocation: a range query's reply is built in one
// allocation of exactly its size, in window order, from a window that need
// not be sorted; no match is a nil reply.
func TestRangeQueryIsOneAllocation(t *testing.T) {
	window := wirePoints(700)
	window[3], window[300] = window[300], window[3]
	from, to := window[50].At, window[649].At
	var got []DataPoint
	allocs := testing.AllocsPerRun(10, func() { got = pointsIn(window, from, to) })
	if allocs != 1 || len(got) != 600 || cap(got) != 600 {
		t.Errorf("%d points (cap %d) in %.0f allocations, want 600 (600) in 1", len(got), cap(got), allocs)
	}
	j := 0
	for _, p := range window {
		if p.At.Before(from) || p.At.After(to) {
			continue
		}
		if got[j] != p {
			t.Fatalf("point %d = %v, want %v: window order not kept", j, got[j], p)
		}
		j++
	}
	if none := pointsIn(window, to.Add(time.Hour), to.Add(2*time.Hour)); none != nil {
		t.Errorf("no match returned %#v, want nil", none)
	}
}
