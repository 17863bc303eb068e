package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// profTurn records one synthetic unsampled turn with the given CPU and
// mailbox depth, as the runtime would.
func profTurn(tr *Tracer, actor, kind, silo string, cpu time.Duration, depth int) {
	tn := tr.StartTurn(SpanContext{}, actor, kind, silo)
	tn.Depth = depth
	tr.EndTurn(&tn, cpu, 0, 0, nil, false)
}

func TestProfileOffAndDisabledRecordNothing(t *testing.T) {
	spansOnly := New(Config{})
	if tn := spansOnly.StartTurn(SpanContext{}, "Sensor@1", "Sensor", "silo-1"); tn.Timed {
		t.Fatal("an unsampled turn with no profile must not be timed")
	}
	profTurn(spansOnly, "Sensor@1", "Sensor", "silo-1", time.Millisecond, 1)
	spansOnly.ObserveState("Sensor@1", "Sensor", 10)
	if spansOnly.HotActors() != nil {
		t.Fatal("tracer without the Profile part returned hot actors")
	}
	if ks := spansOnly.KindStats(); len(ks) != 1 || ks[0].Turns != 1 || ks[0].CPUNanos != 0 || ks[0].MaxStateBytes != 0 {
		t.Fatalf("kind stats without profile = %+v", ks)
	}

	prof := New(Config{Parts: Profile})
	if tn := prof.StartTurn(SpanContext{}, "Sensor@1", "Sensor", "silo-1"); !tn.Timed || tn.Span != nil {
		t.Fatalf("profile-only turn = %+v, want timed and spanless", tn)
	}
	prof.SetEnabled(false)
	prof.ObserveState("Sensor@1", "Sensor", 10)
	if len(prof.HotActors()) != 0 {
		t.Fatal("disabled tracer observed state")
	}
}

func TestProfileAccounting(t *testing.T) {
	p := New(Config{Parts: Profile})
	profTurn(p, "Sensor@hot", "Sensor", "silo-1", 3*time.Millisecond, 5)
	profTurn(p, "Sensor@hot", "Sensor", "silo-1", 2*time.Millisecond, 2)
	profTurn(p, "Org@1", "Org", "silo-2", time.Millisecond, 9)
	p.ObserveState("Sensor@hot", "Sensor", 4096)

	hot := p.HotActors()
	if len(hot) != 2 {
		t.Fatalf("hot actors = %d, want 2", len(hot))
	}
	top := hot[0]
	if top.Key != "Sensor@hot" || top.Count != int64(5*time.Millisecond) ||
		top.Turns != 2 || top.HighWater != 5 || top.Bytes != 4096 || top.Label != "silo-1" {
		t.Fatalf("top hot actor = %+v", top)
	}

	kinds := map[string]KindStats{}
	for _, ks := range p.KindStats() {
		kinds[ks.Kind] = ks
	}
	s := kinds["Sensor"]
	if s.Turns != 2 || s.CPUNanos != int64(5*time.Millisecond) || s.MailboxHWM != 5 || s.MaxStateBytes != 4096 {
		t.Fatalf("Sensor kind stats = %+v", s)
	}
	if o := kinds["Org"]; o.MailboxHWM != 9 {
		t.Fatalf("Org kind stats = %+v", o)
	}
	turns, cpu := p.ProfileTotals()
	if turns != 3 || cpu != int64(6*time.Millisecond) {
		t.Fatalf("totals = %d turns, %d cpu", turns, cpu)
	}
}

func TestProfileZeroCostTurnsStillRank(t *testing.T) {
	p := New(Config{Parts: Profile})
	for i := 0; i < 100; i++ {
		profTurn(p, "Echo@busy", "Echo", "silo-1", 0, 0)
	}
	hot := p.HotActors()
	if len(hot) == 0 || hot[0].Key != "Echo@busy" || hot[0].Turns != 100 {
		t.Fatalf("zero-cost turns not ranked: %+v", hot)
	}
}

// TestProfileBoundedMemory drives 100k+ distinct actors through a small
// sketch: memory stays O(HotActors), and the heavy actor still surfaces.
func TestProfileBoundedMemory(t *testing.T) {
	const k = 32
	p := New(Config{Parts: Profile, HotActors: k})
	for i := 0; i < 110000; i++ {
		profTurn(p, fmt.Sprintf("Sensor@%d", i), "Sensor", "silo-1", time.Microsecond, 0)
		if i%100 == 0 {
			profTurn(p, "Sensor@heavy", "Sensor", "silo-1", time.Millisecond, 3)
		}
	}
	hot := p.HotActors()
	if len(hot) > k {
		t.Fatalf("sketch grew to %d entries, want <= %d", len(hot), k)
	}
	if hot[0].Key != "Sensor@heavy" {
		t.Fatalf("heavy actor not on top: %+v", hot[0])
	}
	turns, _ := p.ProfileTotals()
	if turns != 110000+1100 {
		t.Fatalf("turns = %d", turns)
	}
}

func TestProfileConcurrent(t *testing.T) {
	p := New(Config{Parts: Profile})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3000; i++ {
				profTurn(p, fmt.Sprintf("A@%d", i%64), "A", "silo-1", time.Microsecond, i%10)
				if i%50 == 0 {
					p.ObserveState(fmt.Sprintf("A@%d", i%64), "A", i)
					_ = p.HotActors()
					_ = p.KindStats()
				}
			}
		}(g)
	}
	wg.Wait()
	turns, _ := p.ProfileTotals()
	if turns != 8*3000 {
		t.Fatalf("turns = %d, want 24000", turns)
	}
}

// TestSpanRingConcurrentPushSnapshot is the span-ring half of the
// satellite race audit: concurrent Finish (push) and Spans (snapshot)
// must neither race nor tear the ring accounting.
func TestSpanRingConcurrentPushSnapshot(t *testing.T) {
	tr := New(Config{Capacity: 64})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				_, sp := tr.StartRoot(fmt.Sprintf("call Echo@%d", i))
				tr.Finish(sp, nil)
				profTurn(tr, "Echo@x", "Echo", "silo-1", time.Duration(i), 0)
			}
		}(g)
	}
	for i := 0; i < 500; i++ {
		spans := tr.Spans()
		if len(spans) > 64 {
			t.Fatalf("ring snapshot has %d spans, cap 64", len(spans))
		}
		_ = tr.SlowSpans()
		_ = tr.KindStats()
	}
	wg.Wait()
	if tr.Recorded() != 4*2000 {
		t.Fatalf("recorded = %d, want 8000", tr.Recorded())
	}
}

// TestFinishRacesWithLateFlushAttribution reproduces the torn read the
// satellite audit found: a cancelled Call/Tell returns (and finishes its
// root span) while the transport writer goroutine is still attributing
// flush wait into the same span. Finish must capture accumulators
// atomically; under -race the old plain struct copy fails this test.
func TestFinishRacesWithLateFlushAttribution(t *testing.T) {
	tr := New(Config{})
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		_, sp := tr.StartRoot("call Echo@x")
		wg.Add(1)
		go func(sp *Span) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				sp.AddFlushWait(time.Nanosecond)
				sp.AddStoreWrite(time.Nanosecond)
				sp.AddNested(time.Nanosecond)
			}
		}(sp)
		tr.Finish(sp, nil)
	}
	wg.Wait()
	if tr.Recorded() != 50 {
		t.Fatalf("recorded = %d", tr.Recorded())
	}
}
