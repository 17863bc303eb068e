package shm

import (
	"context"
	"testing"
	"time"

	"aodb/internal/core"
	"aodb/internal/kvstore"
)

func newArchivingPlatform(t *testing.T) (*Platform, *kvstore.Store) {
	t.Helper()
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kv.Close() })
	rt, err := core.New(core.Config{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	rt.AddSilo("silo-1", nil)
	p, err := NewPlatform(rt, Options{Persist: core.PersistOnDeactivate})
	if err != nil {
		t.Fatal(err)
	}
	return p, kv
}

func installArchiving(t *testing.T, p *Platform, windowCap int) string {
	t.Helper()
	ctx := context.Background()
	spec := SensorSpec{
		Org: "org-0", Key: SensorKey("org-0", 0),
		PhysicalChannels: 1, WindowCap: windowCap, Archive: true,
	}
	if err := p.InstallSensor(ctx, spec); err != nil {
		t.Fatal(err)
	}
	return spec.Key
}

func TestHistoricalDataSpansWindowAndArchive(t *testing.T) {
	p, _ := newArchivingPlatform(t)
	ctx := context.Background()
	sensor := installArchiving(t, p, 20) // tiny window: most points archive
	ch := ChannelKey(sensor, 0)

	// 5 requests x 10 points = 50 points; window keeps 20, 30 archive.
	ingestN(t, p, sensor, 1, 5)
	waitLatest(t, p, ch, 49)

	// The live window alone only covers the recent tail.
	window, err := p.RawData(ctx, ch, t0.Add(-time.Hour), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(window) != 20 {
		t.Fatalf("window = %d points, want 20", len(window))
	}
	// The historical query recovers everything.
	all, err := p.HistoricalData(ctx, ch, t0.Add(-time.Hour), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 50 {
		t.Fatalf("historical = %d points, want 50", len(all))
	}
	for i, pt := range all {
		want := float64((i/10)*10 + i%10)
		if pt.Value != want {
			t.Fatalf("point %d = %v, want %v (ordering or loss)", i, pt.Value, want)
		}
	}
	// A range entirely inside the archived region.
	old, err := p.HistoricalData(ctx, ch, t0, t0.Add(950*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 10 || old[0].Value != 0 {
		t.Fatalf("archived range = %d points, first %v", len(old), old)
	}
}

func TestHistorySurvivesRuntimeRestart(t *testing.T) {
	p, kv := newArchivingPlatform(t)
	ctx := context.Background()
	sensor := installArchiving(t, p, 10)
	ch := ChannelKey(sensor, 0)
	ingestN(t, p, sensor, 1, 4) // 40 points, 30 archived
	waitLatest(t, p, ch, 39)
	if err := p.rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	rt2, err := core.New(core.Config{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	defer rt2.Shutdown(ctx)
	rt2.AddSilo("silo-1", nil)
	p2, err := NewPlatform(rt2, Options{Persist: core.PersistOnDeactivate})
	if err != nil {
		t.Fatal(err)
	}
	all, err := p2.HistoricalData(ctx, ch, t0.Add(-time.Hour), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 40 {
		t.Fatalf("historical after restart = %d points, want 40", len(all))
	}
}

func TestHistoryQueryWithoutArchiveEqualsWindow(t *testing.T) {
	p, _ := newArchivingPlatform(t)
	ctx := context.Background()
	spec := SensorSpec{Org: "org-1", Key: SensorKey("org-1", 0), PhysicalChannels: 1, WindowCap: 10}
	if err := p.InstallSensor(ctx, spec); err != nil {
		t.Fatal(err)
	}
	ingestN(t, p, spec.Key, 1, 3)
	ch := ChannelKey(spec.Key, 0)
	waitLatest(t, p, ch, 29)
	all, err := p.HistoricalData(ctx, ch, t0.Add(-time.Hour), t0.Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 10 {
		t.Fatalf("non-archiving historical = %d points, want window's 10", len(all))
	}
}

func TestArchiveWithoutStoreErrors(t *testing.T) {
	rt, err := core.New(core.Config{}) // no store
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())
	rt.AddSilo("silo-1", nil)
	p, err := NewPlatform(rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := p.InstallSensor(ctx, SensorSpec{
		Org: "org-0", Key: SensorKey("org-0", 0), PhysicalChannels: 1, WindowCap: 5, Archive: true,
	}); err != nil {
		t.Fatal(err)
	}
	// Inserts overflowing the window need the store; with Tell-based
	// delivery the failure is asynchronous, so assert via the window
	// staying bounded and the error counter not crashing the actor.
	for r := 0; r < 3; r++ {
		if err := p.Ingest(ctx, SensorKey("org-0", 0), t0.Add(time.Duration(r)*time.Second),
			[][]float64{{1, 2, 3, 4, 5}}); err != nil {
			t.Fatal(err)
		}
	}
	// The actor must still answer queries despite archive failures.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := p.RawData(ctx, ChannelKey(SensorKey("org-0", 0), 0), t0.Add(-time.Hour), t0.Add(time.Hour)); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("channel wedged after archive failure")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestMergeHistoryDeduplicatesBoundary(t *testing.T) {
	a := []DataPoint{{At: t0, Value: 1}, {At: t0.Add(time.Second), Value: 2}}
	w := []DataPoint{{At: t0.Add(time.Second), Value: 2}, {At: t0.Add(2 * time.Second), Value: 3}}
	got := mergeHistory(a, w)
	if len(got) != 3 || got[0].Value != 1 || got[2].Value != 3 {
		t.Fatalf("merge = %+v", got)
	}
}
