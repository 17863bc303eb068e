package shm

import (
	"context"
	"runtime"
	"testing"
	"time"

	"aodb/internal/codec/codectest"
	"aodb/internal/core"
)

// TestLatestFollowsInserts: a channel answers Latest from a reply boxed
// once per change of its window, so every append must drop the box. Each
// round reads Latest (filling the box), ingests, and reads again through
// LiveData: each reading must be the point just acknowledged — on the
// physical channels, on the virtual channel once its combine round has
// run, and from the second round on with the windows evicting past
// WindowCap. No polling: the sensor's Tells are queued before Ingest
// returns, so a channel's Latest runs after its InsertPoints (mailbox
// FIFO); and once the physical channels have answered, their inserts have
// queued the virtual channel's input ahead of its Latest.
func TestLatestFollowsInserts(t *testing.T) {
	p := newPlatform(t, Options{})
	ctx := context.Background()
	const org, capacity = "org-0", 15
	if err := p.CreateOrganization(ctx, org, "o"); err != nil {
		t.Fatal(err)
	}
	spec := SensorSpec{Org: org, Key: SensorKey(org, 0), PhysicalChannels: 2, WithVirtual: true, WindowCap: capacity}
	if err := p.InstallSensor(ctx, spec); err != nil {
		t.Fatal(err)
	}
	ch0, ch1, virt := ChannelKey(spec.Key, 0), ChannelKey(spec.Key, 1), VirtualKey(spec.Key)
	// last is the newest point of round r on a channel: ingestN's values,
	// the virtual channel their sum.
	last := func(r int, ch string) DataPoint {
		at := t0.Add(time.Duration(r)*time.Second + 900*time.Millisecond)
		v := float64(r*10 + 9)
		switch ch {
		case ch1:
			v += 1000
		case virt:
			v = 2*v + 1000
		}
		return DataPoint{At: at, Value: v}
	}
	latest := func(ch string) DataPoint {
		t.Helper()
		kind := KindPhysicalChannel
		if isVirtualKey(ch) {
			kind = KindVirtualChannel
		}
		v, err := p.rt.Call(ctx, core.ID{Kind: kind, Key: ch}, Latest{})
		if err != nil {
			t.Fatal(err)
		}
		return v.(DataPoint)
	}
	live := func() map[string]DataPoint {
		t.Helper()
		readings, err := p.LiveData(ctx, org)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string]DataPoint{}
		for _, r := range readings {
			out[r.Channel] = r.Point
		}
		return out
	}
	same := func(a, b DataPoint) bool { return a.At.Equal(b.At) && a.Value == b.Value }

	for r := 0; r < 5; r++ {
		for _, ch := range []string{ch0, ch1, virt} {
			want := DataPoint{}
			if r > 0 {
				want = last(r-1, ch)
			}
			if got := latest(ch); !same(got, want) {
				t.Fatalf("round %d, before the insert: %s Latest = %+v, want %+v", r, ch, got, want)
			}
		}
		per := [][]float64{make([]float64, 10), make([]float64, 10)}
		for c := range per {
			for j := range per[c] {
				per[c][j] = float64(c*1000 + r*10 + j)
			}
		}
		if err := p.Ingest(ctx, spec.Key, t0.Add(time.Duration(r)*time.Second), per); err != nil {
			t.Fatal(err)
		}
		got := live()
		for _, ch := range []string{ch0, ch1} {
			if !same(got[ch], last(r, ch)) {
				t.Errorf("round %d: LiveData reads %s = %+v, want the point just acked %+v", r, ch, got[ch], last(r, ch))
			}
		}
		// The physical channels' inserts have run: the combine round is
		// queued ahead of the next Latest.
		if got := live()[virt]; !same(got, last(r, virt)) {
			t.Errorf("round %d: LiveData reads %s = %+v, want %+v", r, virt, got, last(r, virt))
		}
	}
	for _, ch := range []string{ch0, virt} {
		pts, err := p.RawData(ctx, ch, t0, t0.Add(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		if len(pts) != capacity {
			t.Errorf("%s holds %d points, want the window evicted to %d", ch, len(pts), capacity)
		}
	}
}

// TestLiveDataAllocs holds the Figure 9 query's allocations in tier-1: a
// LiveData over an org of 210 channels on the in-process transport. The
// bound is the count measured once CallMany rendered its targets once and
// channels answered Latest from a memoized reply (19), plus 10 %. Before
// both it was 446; with either alone, 229.
func TestLiveDataAllocs(t *testing.T) {
	codectest.SkipUnderRace(t)
	rt, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	defer rt.Shutdown(ctx)
	p, err := NewPlatform(rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt.AddSilo("silo-1", nil)
	pop := DefaultPopulation(100)
	keys, err := p.Populate(ctx, pop)
	if err != nil {
		t.Fatal(err)
	}
	points := [][]float64{make([]float64, 10), make([]float64, 10)}
	for _, key := range keys {
		if err := p.Ingest(ctx, key, t0, points); err != nil {
			t.Fatal(err)
		}
	}
	settle(rt.Metrics().Counter("core.turns"))
	query := func() {
		readings, err := p.LiveData(ctx, OrgKey(0))
		if err != nil {
			t.Fatal(err)
		}
		if len(readings) != pop.TotalChannels() {
			t.Fatalf("LiveData read %d channels, want %d", len(readings), pop.TotalChannels())
		}
	}
	query()
	runtime.GC()
	allocs := testing.AllocsPerRun(50, query)
	const most = 20.9
	if allocs > most {
		t.Errorf("a %d-channel LiveData: %.0f allocations, want at most %.1f", pop.TotalChannels(), allocs, most)
	} else {
		t.Logf("a %d-channel LiveData: %.0f allocations", pop.TotalChannels(), allocs)
	}
}
