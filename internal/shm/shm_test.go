package shm

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aodb/internal/core"
	"aodb/internal/kvstore"
)

func newPlatform(t *testing.T, opts Options) *Platform {
	t.Helper()
	rt, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	for i := 1; i <= 2; i++ {
		if _, err := rt.AddSilo(fmt.Sprintf("silo-%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPlatform(rt, opts)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

var t0 = time.Date(2026, 7, 5, 10, 0, 0, 0, time.UTC)

// ingestN sends n requests of 10 points per channel starting at t0, one
// simulated second apart, with deterministic values: channel c point j of
// request r has value base + r*10 + j (+c*1000).
func ingestN(t *testing.T, p *Platform, sensor string, channels, n int) {
	t.Helper()
	ctx := context.Background()
	for r := 0; r < n; r++ {
		per := make([][]float64, channels)
		for c := range per {
			pts := make([]float64, 10)
			for j := range pts {
				pts[j] = float64(c*1000 + r*10 + j)
			}
			per[c] = pts
		}
		if err := p.Ingest(ctx, sensor, t0.Add(time.Duration(r)*time.Second), per); err != nil {
			t.Fatal(err)
		}
	}
}

// drain waits until the sensor's async channel inserts are visible.
func waitLatest(t *testing.T, p *Platform, channel string, wantValue float64) DataPoint {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(3 * time.Second)
	for {
		kind := KindPhysicalChannel
		if isVirtualKey(channel) {
			kind = KindVirtualChannel
		}
		v, err := p.rt.Call(ctx, core.ID{Kind: kind, Key: channel}, Latest{})
		if err != nil {
			t.Fatal(err)
		}
		dp := v.(DataPoint)
		if dp.Value == wantValue {
			return dp
		}
		if time.Now().After(deadline) {
			t.Fatalf("channel %s latest = %+v, want value %v", channel, dp, wantValue)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPopulationMatchesPaperStructure(t *testing.T) {
	pop := DefaultPopulation(100)
	if got := pop.Orgs(); got != 1 {
		t.Fatalf("orgs = %d, want 1", got)
	}
	// The paper: 100 sensors represent 210 sensor channels (200 physical
	// + 10 virtual).
	if got := pop.TotalChannels(); got != 210 {
		t.Fatalf("channels = %d, want 210", got)
	}
	pop = DefaultPopulation(500)
	if pop.Orgs() != 5 || pop.TotalChannels() != 1050 {
		t.Fatalf("500 sensors: orgs=%d channels=%d, want 5/1050", pop.Orgs(), pop.TotalChannels())
	}
	pop = DefaultPopulation(101)
	if pop.Orgs() != 2 {
		t.Fatalf("101 sensors: orgs=%d, want 2", pop.Orgs())
	}
}

// TestPopulateCreatesStructure: a population of 120 sensors is two orgs,
// and the platform serves it as built — the sensor keys in creation
// order, each sensor its org's, and each org's channels for live queries.
func TestPopulateCreatesStructure(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ctx := context.Background()
	rt, err := core.New(core.Config{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(ctx)
	p, err := NewPlatform(rt, Options{Persist: core.PersistOnDeactivate})
	if err != nil {
		t.Fatal(err)
	}
	rt.AddSilo("silo-1", nil)
	keys, err := p.Populate(ctx, DefaultPopulation(120))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 120 {
		t.Fatalf("sensor keys = %d, want 120", len(keys))
	}
	for s, key := range keys {
		org := OrgKey(s / 100)
		if want := SensorKey(org, s%100); key != want {
			t.Fatalf("sensor key %d = %q, want %q", s, key, want)
		}
		v, err := rt.Call(ctx, core.ID{Kind: KindSensor, Key: key}, GetSensorInfo{})
		if err != nil {
			t.Fatal(err)
		}
		if info := v.(SensorInfo); info.Org != org || len(info.Channels) != 2 {
			t.Fatalf("sensor %s = %+v", key, info)
		}
	}
	// Per org: its sensors x 2 channels + a virtual channel on every
	// tenth sensor.
	for org, want := range map[string]int{OrgKey(0): 100*2 + 10, OrgKey(1): 20*2 + 2} {
		chans, err := rt.Call(ctx, core.ID{Kind: KindOrganization, Key: org}, GetChannels{})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(chans.([]string)); got != want {
			t.Errorf("%s channels = %d, want %d", org, got, want)
		}
	}
}

func TestIngestionUpdatesWindowAndLatest(t *testing.T) {
	p := newPlatform(t, Options{})
	ctx := context.Background()
	spec := SensorSpec{Org: "org-0", Key: SensorKey("org-0", 0), PhysicalChannels: 2}
	if err := p.InstallSensor(ctx, spec); err != nil {
		t.Fatal(err)
	}
	ingestN(t, p, spec.Key, 2, 3)
	// Last request r=2, last point j=9: ch0 = 29, ch1 = 1029.
	waitLatest(t, p, ChannelKey(spec.Key, 0), 29)
	dp := waitLatest(t, p, ChannelKey(spec.Key, 1), 1029)
	wantAt := t0.Add(2*time.Second + 9*100*time.Millisecond)
	if !dp.At.Equal(wantAt) {
		t.Fatalf("latest At = %v, want %v (10 Hz spacing)", dp.At, wantAt)
	}
	// Range query over the second request only.
	from := t0.Add(time.Second)
	to := t0.Add(time.Second + 950*time.Millisecond)
	pts, err := p.RawData(ctx, ChannelKey(spec.Key, 0), from, to)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 || pts[0].Value != 10 || pts[9].Value != 19 {
		t.Fatalf("range = %d points, first %v last %v", len(pts), pts[0], pts[len(pts)-1])
	}
}

func TestAccumulatedChange(t *testing.T) {
	p := newPlatform(t, Options{})
	ctx := context.Background()
	spec := SensorSpec{Org: "org-0", Key: SensorKey("org-0", 0), PhysicalChannels: 1}
	if err := p.InstallSensor(ctx, spec); err != nil {
		t.Fatal(err)
	}
	// Values 0..9 in one packet: 9 deltas of 1 each.
	if err := p.Ingest(ctx, spec.Key, t0, [][]float64{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}); err != nil {
		t.Fatal(err)
	}
	waitLatest(t, p, ChannelKey(spec.Key, 0), 9)
	acc, err := p.AccumulatedChange(ctx, ChannelKey(spec.Key, 0))
	if err != nil {
		t.Fatal(err)
	}
	if acc != 9 {
		t.Fatalf("accumulated = %v, want 9", acc)
	}
	// A second packet jumping down to 0 adds |0-9| = 9, then +1 x9.
	if err := p.Ingest(ctx, spec.Key, t0.Add(time.Second), [][]float64{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}}); err != nil {
		t.Fatal(err)
	}
	waitLatest(t, p, ChannelKey(spec.Key, 0), 9)
	deadline := time.Now().Add(2 * time.Second)
	for {
		acc, _ = p.AccumulatedChange(ctx, ChannelKey(spec.Key, 0))
		if acc == 27 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("accumulated = %v, want 27", acc)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestVirtualChannelSumsInputs(t *testing.T) {
	p := newPlatform(t, Options{})
	ctx := context.Background()
	spec := SensorSpec{Org: "org-0", Key: SensorKey("org-0", 0), PhysicalChannels: 2, WithVirtual: true}
	if err := p.InstallSensor(ctx, spec); err != nil {
		t.Fatal(err)
	}
	ingestN(t, p, spec.Key, 2, 1)
	// Virtual = ch0 + ch1 pointwise: last point = 9 + 1009 = 1018.
	dp := waitLatest(t, p, VirtualKey(spec.Key), 1018)
	if dp.Value != 1018 {
		t.Fatalf("virtual latest = %+v", dp)
	}
	// The virtual channel serves range queries like a physical one.
	pts, err := p.RawData(ctx, VirtualKey(spec.Key), t0, t0.Add(time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 || pts[0].Value != 0+1000 {
		t.Fatalf("virtual range = %v", pts)
	}
}

func TestThresholdAlerts(t *testing.T) {
	p := newPlatform(t, Options{})
	ctx := context.Background()
	spec := SensorSpec{
		Org: "org-0", Key: SensorKey("org-0", 0), PhysicalChannels: 1,
		Threshold: Threshold{Min: 0, Max: 100, Enabled: true},
	}
	if err := p.InstallSensor(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(ctx, spec.Key, t0, [][]float64{{50, 150, 60, -5, 70}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		alerts, err := p.Alerts(ctx, "org-0", 10)
		if err != nil {
			t.Fatal(err)
		}
		if len(alerts) == 2 {
			if alerts[0].Value != 150 || alerts[1].Value != -5 {
				t.Fatalf("alerts = %+v", alerts)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("alerts = %d, want 2", len(alerts))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAggregatorChain(t *testing.T) {
	p := newPlatform(t, Options{})
	ctx := context.Background()
	spec := SensorSpec{Org: "org-0", Key: SensorKey("org-0", 0), PhysicalChannels: 1}
	if err := p.InstallSensor(ctx, spec); err != nil {
		t.Fatal(err)
	}
	// Two packets in different hours of the same day.
	if err := p.Ingest(ctx, spec.Key, t0, [][]float64{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(ctx, spec.Key, t0.Add(time.Hour), [][]float64{{10, 20, 30}}); err != nil {
		t.Fatal(err)
	}
	var hours []BucketStat
	deadline := time.Now().Add(3 * time.Second)
	for {
		var err error
		hours, err = p.Aggregates(ctx, "org-0", LevelHour, "")
		if err != nil {
			t.Fatal(err)
		}
		if len(hours) == 2 && hours[0].Count == 3 && hours[1].Count == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("hour buckets = %+v", hours)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if hours[0].Sum != 6 || hours[0].Min != 1 || hours[0].Max != 3 || hours[0].Mean() != 2 {
		t.Fatalf("hour[0] = %+v", hours[0])
	}
	// The day level merges both hours.
	days, err := p.Aggregates(ctx, "org-0", LevelDay, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(days) != 1 || days[0].Count != 6 || days[0].Sum != 66 {
		t.Fatalf("day buckets = %+v", days)
	}
	months, err := p.Aggregates(ctx, "org-0", LevelMonth, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(months) != 1 || months[0].Count != 6 {
		t.Fatalf("month buckets = %+v", months)
	}
	// Per-channel narrowing works.
	byChan, err := p.Aggregates(ctx, "org-0", LevelHour, ChannelKey(spec.Key, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(byChan) != 2 {
		t.Fatalf("per-channel buckets = %+v", byChan)
	}
	if none, _ := p.Aggregates(ctx, "org-0", LevelHour, "ghost-channel"); len(none) != 0 {
		t.Fatalf("ghost channel buckets = %+v", none)
	}
}

func TestLiveDataQuery(t *testing.T) {
	p := newPlatform(t, Options{})
	ctx := context.Background()
	keys, err := p.Populate(ctx, Population{Sensors: 10, SensorsPerOrg: 100, ChannelsPerSensor: 2, VirtualEveryNth: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		ingestN(t, p, k, 2, 1)
	}
	for _, k := range keys {
		waitLatest(t, p, ChannelKey(k, 0), 9)
	}
	live, err := p.LiveData(ctx, OrgKey(0))
	if err != nil {
		t.Fatal(err)
	}
	// 10 sensors x 2 channels + 1 virtual (the 10th sensor).
	if len(live) != 21 {
		t.Fatalf("live readings = %d, want 21", len(live))
	}
	seen := map[string]bool{}
	for _, r := range live {
		seen[r.Channel] = true
	}
	if !seen[VirtualKey(keys[9])] {
		t.Fatal("virtual channel missing from live data")
	}
}

func TestWindowCapEnforced(t *testing.T) {
	p := newPlatform(t, Options{})
	ctx := context.Background()
	spec := SensorSpec{Org: "org-0", Key: SensorKey("org-0", 0), PhysicalChannels: 1, WindowCap: 25}
	if err := p.InstallSensor(ctx, spec); err != nil {
		t.Fatal(err)
	}
	ingestN(t, p, spec.Key, 1, 5) // 50 points into a 25-cap window
	waitLatest(t, p, ChannelKey(spec.Key, 0), 49)
	pts, err := p.RawData(ctx, ChannelKey(spec.Key, 0), t0.Add(-time.Hour), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 25 {
		t.Fatalf("window holds %d points, want cap 25", len(pts))
	}
	if pts[0].Value != 25 {
		t.Fatalf("oldest retained = %v, want 25 (oldest dropped first)", pts[0].Value)
	}
}

func TestMismatchedPacketRejected(t *testing.T) {
	p := newPlatform(t, Options{})
	ctx := context.Background()
	spec := SensorSpec{Org: "org-0", Key: SensorKey("org-0", 0), PhysicalChannels: 2}
	if err := p.InstallSensor(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if err := p.Ingest(ctx, spec.Key, t0, [][]float64{{1}}); err == nil {
		t.Fatal("1-channel packet for 2-channel sensor accepted")
	}
}

func TestStatePersistsAcrossRuntimeRestart(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ctx := context.Background()

	rt1, err := core.New(core.Config{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	p1, err := NewPlatform(rt1, Options{Persist: core.PersistOnDeactivate})
	if err != nil {
		t.Fatal(err)
	}
	rt1.AddSilo("silo-1", nil)
	spec := SensorSpec{Org: "org-0", Key: SensorKey("org-0", 0), PhysicalChannels: 1}
	if err := p1.InstallSensor(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if err := p1.Ingest(ctx, spec.Key, t0, [][]float64{{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	waitLatest(t, p1, ChannelKey(spec.Key, 0), 3)
	if err := rt1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	rt2, err := core.New(core.Config{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Shutdown(ctx)
	p2, err := NewPlatform(rt2, Options{Persist: core.PersistOnDeactivate})
	if err != nil {
		t.Fatal(err)
	}
	rt2.AddSilo("silo-1", nil)
	v, err := p2.rt.Call(ctx, core.ID{Kind: KindOrganization, Key: "org-0"}, GetChannels{})
	if err != nil {
		t.Fatal(err)
	}
	if chans := v.([]string); len(chans) != 1 || chans[0] != ChannelKey(spec.Key, 0) {
		t.Fatalf("org channels after restart = %v", chans)
	}
	pts, err := p2.RawData(ctx, ChannelKey(spec.Key, 0), t0.Add(-time.Hour), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("window after restart = %d points, want 3", len(pts))
	}
}

func TestKeyHelpers(t *testing.T) {
	if OrgKey(3) != "org-3" {
		t.Fatal(OrgKey(3))
	}
	s := SensorKey("org-3", 17)
	if s != "org-3@sensor-17" {
		t.Fatal(s)
	}
	if ChannelKey(s, 0) != "org-3@sensor-17/ch-0" {
		t.Fatal(ChannelKey(s, 0))
	}
	if VirtualKey(s) != "org-3@sensor-17/virt" {
		t.Fatal(VirtualKey(s))
	}
	if AggregatorKey("org-3", LevelDay) != "org-3@agg/day" {
		t.Fatal(AggregatorKey("org-3", LevelDay))
	}
	if !isVirtualKey("a/virt") || isVirtualKey("a/ch-0") {
		t.Fatal("isVirtualKey misclassifies")
	}
}

func TestTruncateToLevel(t *testing.T) {
	at := time.Date(2026, 7, 5, 13, 45, 12, 999, time.UTC)
	if got := TruncateToLevel(at, LevelHour); !got.Equal(time.Date(2026, 7, 5, 13, 0, 0, 0, time.UTC)) {
		t.Fatal(got)
	}
	if got := TruncateToLevel(at, LevelDay); !got.Equal(time.Date(2026, 7, 5, 0, 0, 0, 0, time.UTC)) {
		t.Fatal(got)
	}
	if got := TruncateToLevel(at, LevelMonth); !got.Equal(time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)) {
		t.Fatal(got)
	}
	if got := TruncateToLevel(at, "bogus"); !got.Equal(at) {
		t.Fatal(got)
	}
}

func TestThresholdViolates(t *testing.T) {
	th := Threshold{Min: -1, Max: 1, Enabled: true}
	for v, want := range map[float64]bool{0: false, 1: false, -1: false, 1.5: true, -2: true} {
		if th.Violates(v) != want {
			t.Errorf("Violates(%v) = %v", v, !want)
		}
	}
	off := Threshold{Min: -1, Max: 1}
	if off.Violates(100) {
		t.Fatal("disabled threshold fired")
	}
}

func TestBucketStatMerge(t *testing.T) {
	var s BucketStat
	s.Bucket = t0
	s.Merge(BucketStat{Count: 2, Sum: 10, Min: 3, Max: 7})
	s.Merge(BucketStat{Count: 1, Sum: 1, Min: 1, Max: 1})
	if s.Count != 3 || s.Sum != 11 || s.Min != 1 || s.Max != 7 {
		t.Fatalf("merged = %+v", s)
	}
	if !s.Bucket.Equal(t0) {
		t.Fatal("merge clobbered bucket time")
	}
	if s.Mean() != 11.0/3 {
		t.Fatalf("mean = %v", s.Mean())
	}
	if (BucketStat{}).Mean() != 0 {
		t.Fatal("empty mean != 0")
	}
}
