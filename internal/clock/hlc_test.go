package clock

import (
	"sync"
	"testing"
	"time"
)

func TestHLCMonotonicUnderFrozenClock(t *testing.T) {
	fake := NewFake(time.Unix(1000, 0))
	s := NewHLC(fake)
	prev := s.Now()
	for i := 0; i < 100; i++ {
		cur := s.Now()
		if cur <= prev {
			t.Fatalf("HLC went backwards: %v then %v", prev, cur)
		}
		prev = cur
	}
	if prev.WallMillis() != 1000*1000 {
		t.Fatalf("physical component drifted: %d", prev.WallMillis())
	}
	if prev.Logical() < 100 {
		t.Fatalf("logical counter should carry ordering under a frozen clock, got %d", prev.Logical())
	}
}

func TestHLCTracksPhysicalTime(t *testing.T) {
	fake := NewFake(time.Unix(1000, 0))
	s := NewHLC(fake)
	a := s.Now()
	fake.Advance(5 * time.Second)
	b := s.Now()
	if b.WallMillis()-a.WallMillis() != 5000 {
		t.Fatalf("expected 5000ms advance, got %d", b.WallMillis()-a.WallMillis())
	}
	if b.Logical() != 0 {
		t.Fatalf("fresh physical time should reset logical, got %d", b.Logical())
	}
}

func TestHLCObserveDominatesRemote(t *testing.T) {
	fake := NewFake(time.Unix(1000, 0))
	// Remote runs far ahead of our physical clock.
	remoteSrc := NewHLC(NewFake(time.Unix(2000, 0)))
	local := NewHLC(fake)
	remote := remoteSrc.Now()
	got := local.Observe(remote)
	if got <= remote {
		t.Fatalf("receive event %v must order after remote send %v", got, remote)
	}
	// And local events after the receive stay above it.
	if n := local.Now(); n <= got {
		t.Fatalf("local event %v after receive %v must order after it", n, got)
	}
}

func TestHLCConcurrentUnique(t *testing.T) {
	s := NewHLC(Real())
	const goroutines, per = 8, 500
	out := make([][]HLC, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ts := make([]HLC, per)
			for i := range ts {
				ts[i] = s.Now()
			}
			out[g] = ts
		}(g)
	}
	wg.Wait()
	seen := make(map[HLC]bool, goroutines*per)
	for _, ts := range out {
		for _, h := range ts {
			if seen[h] {
				t.Fatalf("duplicate HLC issued: %v", h)
			}
			seen[h] = true
		}
	}
}

func TestHLCZeroAndString(t *testing.T) {
	var z HLC
	if !z.IsZero() {
		t.Fatal("zero HLC should be IsZero")
	}
	if z.String() != "hlc:0" {
		t.Fatalf("zero string: %q", z.String())
	}
}
