package shm

import (
	"context"
	"runtime"
	"testing"
	"time"

	"aodb/internal/capacity"
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

// TestLatestIsNewestByTime: Latest answers the reading with the greatest
// At, the later arrival on a tie, however the packets arrive — here out
// of time order, with two packets at one time, and with a window so small
// that the newest reading is evicted by older ones arriving after it. The
// expected readings come from a model of the window: the last WindowCap
// arrivals, searched whole.
func TestLatestIsNewestByTime(t *testing.T) {
	p := newPlatform(t, Options{})
	ctx := context.Background()
	const org, capacity = "org-0", 5
	spec := SensorSpec{Org: org, Key: SensorKey(org, 0), PhysicalChannels: 2, WithVirtual: true, WindowCap: capacity}
	if err := p.InstallSensor(ctx, spec); err != nil {
		t.Fatal(err)
	}
	ch0, ch1, virt := ChannelKey(spec.Key, 0), ChannelKey(spec.Key, 1), VirtualKey(spec.Key)
	// Two points a packet, 100 ms apart; the two packets at 3 s differ in
	// value. The 9 s packet is gone from the window three packets later.
	seconds := []int{5, 2, 9, 3, 3, 1, 0, 7, 4}
	arrived := map[string][]DataPoint{}
	newest := func(ch string) DataPoint {
		w := arrived[ch]
		w = w[max(0, len(w)-capacity):]
		best := w[0]
		for _, q := range w[1:] {
			if !q.At.Before(best.At) {
				best = q
			}
		}
		return best
	}
	for n, sec := range seconds {
		at := t0.Add(time.Duration(sec) * time.Second)
		per := [][]float64{{float64(n), float64(n) + 0.5}, {float64(100 + n), float64(100+n) + 0.5}}
		if err := p.Ingest(ctx, spec.Key, at, per); err != nil {
			t.Fatal(err)
		}
		for j := range 2 {
			pt := at.Add(time.Duration(j) * 100 * time.Millisecond)
			arrived[ch0] = append(arrived[ch0], DataPoint{At: pt, Value: per[0][j]})
			arrived[ch1] = append(arrived[ch1], DataPoint{At: pt, Value: per[1][j]})
			arrived[virt] = append(arrived[virt], DataPoint{At: pt, Value: per[0][j] + per[1][j]})
		}
		live := func() map[string]DataPoint {
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
		// The physical channels answer after their inserts (FIFO), and
		// once they have, the virtual channel's round is queued ahead of
		// the second read.
		got := live()
		got[virt] = live()[virt]
		for _, ch := range []string{ch0, ch1, virt} {
			if want := newest(ch); !got[ch].At.Equal(want.At) || got[ch].Value != want.Value {
				t.Errorf("after packet %d (%d s): %s Latest = %+v, want %+v", n, sec, ch, got[ch], want)
			}
		}
	}
}

// TestLatestRescansOnActivation: a channel's newest reading is not stored;
// an activation finds it in the window it loaded.
func TestLatestRescansOnActivation(t *testing.T) {
	window := []DataPoint{
		{At: t0.Add(2 * time.Second), Value: 1},
		{At: t0.Add(4 * time.Second), Value: 2},
		{At: t0.Add(4 * time.Second), Value: 3},
		{At: t0.Add(1 * time.Second), Value: 4},
	}
	phys := &physicalChannelActor{state: channelState{Window: window}}
	virt := &virtualChannelActor{state: virtualState{Window: window}}
	for name, a := range map[string]interface {
		core.Actor
		core.Activator
	}{"physical": phys, "virtual": virt} {
		if err := a.OnActivate(nil); err != nil {
			t.Fatal(err)
		}
		got, err := a.Receive(nil, Latest{})
		if err != nil {
			t.Fatal(err)
		}
		if want := window[2]; got != want {
			t.Errorf("%s channel activated on an unsorted window: Latest = %+v, want %+v", name, got, want)
		}
	}
}

// TestLiveDataRunsInline: a warm LiveData's Latest turns run on the
// goroutine serving each frame, counted in core.multi.inline — all 210
// of them on a silo with no capacity limiter, none on a limited silo,
// whose turns each take a worker.
func TestLiveDataRunsInline(t *testing.T) {
	for _, limited := range []bool{false, true} {
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
		var limiter *capacity.Limiter
		if limited {
			limiter = capacity.NewLimiter(capacity.M5Large, rt.Clock())
		}
		if _, err := rt.AddSilo("silo-1", limiter); err != nil {
			t.Fatal(err)
		}
		pop := DefaultPopulation(100)
		keys, err := p.Populate(ctx, pop)
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range keys {
			if err := p.Ingest(ctx, key, t0, [][]float64{{1}, {2}}); err != nil {
				t.Fatal(err)
			}
		}
		want := int64(pop.TotalChannels())
		if limited {
			want = 0
		}
		// A worker lets a mailbox go just after its turn's answer, so a
		// read may find one still owned, however long the turns have been
		// quiet; a few reads make sure of a frame that finds all idle.
		inline := rt.Metrics().Counter("core.multi.inline")
		var got int64 = -1
		for try := 0; try < 5 && got != want; try++ {
			settle(rt.Metrics().Counter("core.turns"))
			before := inline.Value()
			readings, err := p.LiveData(ctx, OrgKey(0))
			if err != nil {
				t.Fatal(err)
			}
			if len(readings) != pop.TotalChannels() {
				t.Fatalf("LiveData read %d channels, want %d", len(readings), pop.TotalChannels())
			}
			got = inline.Value() - before
		}
		if got != want {
			t.Errorf("limited=%v: a warm %d-channel LiveData ran %d turns inline, want %d", limited, pop.TotalChannels(), got, want)
		}
	}
}

// TestLiveDataAllocs holds the Figure 9 query's allocations in tier-1: a
// LiveData over an org of 210 channels on the in-process transport. The
// bound is the count measured once the awaited call to the org took its
// reply channel from a pool (15), plus 10 %. It was 17 once LiveData took
// its readings through CallManyOf, whose one-group call starts no
// goroutine and keeps its span context off the heap, 18 with the span context
// captured by reference, and 19 with CallMany, whose targets were
// rendered once and whose channels answered Latest from a memoized reply;
// before both it was 446, and with either alone 229.
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
	const most = 16.5
	if allocs > most {
		t.Errorf("a %d-channel LiveData: %.0f allocations, want at most %.1f", pop.TotalChannels(), allocs, most)
	} else {
		t.Logf("a %d-channel LiveData: %.0f allocations", pop.TotalChannels(), allocs)
	}
}
