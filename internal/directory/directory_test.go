package directory

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"aodb/internal/codec/codectest"
)

func TestRegisterAndLookup(t *testing.T) {
	d := New()
	reg, err := d.Register("Cow/42", "silo-1")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := d.Lookup("Cow/42")
	if !ok || got != reg {
		t.Fatalf("Lookup = %+v, %v; want %+v", got, ok, reg)
	}
	if _, ok := d.Lookup("Cow/43"); ok {
		t.Fatal("Lookup of unregistered actor succeeded")
	}
}

func TestRegisterRaceHasOneWinner(t *testing.T) {
	d := New()
	const racers = 16
	var wins int
	var winners []string
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			silo := fmt.Sprintf("silo-%d", i)
			reg, err := d.Register("Sensor/7", silo)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				wins++
				winners = append(winners, reg.Silo)
			} else if !errors.Is(err, ErrAlreadyRegistered) {
				t.Errorf("unexpected error: %v", err)
			} else if reg.Silo == "" {
				t.Error("loser did not learn the winner")
			}
		}(i)
	}
	wg.Wait()
	if wins != 1 {
		t.Fatalf("winners = %d (%v), want exactly 1", wins, winners)
	}
}

func TestRegisterEmptyArgs(t *testing.T) {
	d := New()
	if _, err := d.Register("", "s"); err == nil {
		t.Fatal("empty actor accepted")
	}
	if _, err := d.Register("a", ""); err == nil {
		t.Fatal("empty silo accepted")
	}
}

func TestUnregisterGuardsBySeq(t *testing.T) {
	d := New()
	reg1, _ := d.Register("A/1", "silo-1")
	if !d.Unregister(reg1) {
		t.Fatal("Unregister of current registration failed")
	}
	reg2, _ := d.Register("A/1", "silo-2")
	// A stale deactivation on silo-1 must not evict silo-2's registration.
	if d.Unregister(reg1) {
		t.Fatal("stale Unregister succeeded")
	}
	if got, ok := d.Lookup("A/1"); !ok || got.Silo != "silo-2" {
		t.Fatalf("Lookup = %+v, %v; want silo-2 registration intact", got, ok)
	}
	if !d.Unregister(reg2) {
		t.Fatal("Unregister of fresh registration failed")
	}
}

func TestEvictSilo(t *testing.T) {
	d := New()
	for i := 0; i < 10; i++ {
		silo := "silo-1"
		if i%2 == 0 {
			silo = "silo-2"
		}
		if _, err := d.Register(fmt.Sprintf("A/%d", i), silo); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.EvictSilo("silo-2"); n != 5 {
		t.Fatalf("evicted %d, want 5", n)
	}
	if d.Len() != 5 {
		t.Fatalf("Len = %d, want 5", d.Len())
	}
	counts := map[string]int{}
	for i := 0; i < 10; i++ {
		if reg, ok := d.Lookup(fmt.Sprintf("A/%d", i)); ok {
			counts[reg.Silo]++
		}
	}
	if counts["silo-2"] != 0 || counts["silo-1"] != 5 {
		t.Fatalf("counts = %v", counts)
	}
	// Evicted actors can re-register elsewhere.
	if _, err := d.Register("A/0", "silo-3"); err != nil {
		t.Fatalf("re-register after evict: %v", err)
	}
}

func TestConcurrentMixedOps(t *testing.T) {
	d := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				actor := fmt.Sprintf("A/%d", i%50)
				if reg, err := d.Register(actor, fmt.Sprintf("silo-%d", w)); err == nil {
					d.Lookup(actor)
					d.Unregister(reg)
				} else {
					d.Lookup(actor)
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkLookup(b *testing.B) {
	d := New()
	for i := 0; i < 10000; i++ {
		d.Register(fmt.Sprintf("Sensor/%d", i), "silo-1")
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			d.Lookup(fmt.Sprintf("Sensor/%d", i%10000))
			i++
		}
	})
}

// TestLookupIDAgreesWithLookup: LookupID(kind, key) answers what
// Lookup(kind + "/" + key) answers — keys holding '/', ids longer than
// LookupID's stack buffer, and registrations removed by Unregister and by
// EvictSilo alike.
func TestLookupIDAgreesWithLookup(t *testing.T) {
	d := New()
	type id struct{ kind, key string }
	var ids []id
	for i := 0; i < 200; i++ {
		ids = append(ids, id{"PhysicalChannel", fmt.Sprintf("org-%d@sensor-%d/ch-%d", i%3, i, i%2)})
	}
	ids = append(ids,
		id{"K", "a/b/c"}, id{"K/J", "x"}, id{"K", "/"}, id{"K", ""},
		id{"K", strings.Repeat("k", idBuf-2)},   // exactly fills the buffer
		id{"K", strings.Repeat("k", idBuf-1)},   // one byte past it
		id{"Kind", strings.Repeat("long/", 40)}, // far past it
	)
	regs := map[id]Registration{}
	for i, x := range ids {
		silo := fmt.Sprintf("silo-%d", i%3)
		reg, err := d.Register(x.kind+"/"+x.key, silo)
		if err != nil {
			t.Fatal(err)
		}
		regs[x] = reg
	}
	agree := func(when string) {
		t.Helper()
		for _, x := range ids {
			want, wantOK := d.Lookup(x.kind + "/" + x.key)
			if got, ok := d.LookupID(x.kind, x.key); got != want || ok != wantOK {
				t.Errorf("%s: LookupID(%q, %q) = %+v, %v; Lookup = %+v, %v", when, x.kind, x.key, got, ok, want, wantOK)
			}
		}
		if _, ok := d.LookupID("PhysicalChannel", "never-registered"); ok {
			t.Errorf("%s: LookupID found an id never registered", when)
		}
	}
	agree("registered")
	for _, x := range ids[:50] {
		if !d.Unregister(regs[x]) {
			t.Fatalf("Unregister(%+v) failed", regs[x])
		}
	}
	agree("after Unregister")
	if d.EvictSilo("silo-1") == 0 {
		t.Fatal("EvictSilo dropped nothing")
	}
	agree("after EvictSilo")
}

// TestLookupIDAllocs: a directory hit allocates nothing.
func TestLookupIDAllocs(t *testing.T) {
	codectest.SkipUnderRace(t)
	d := New()
	if _, err := d.Register("PhysicalChannel/org-3@sensor-12/ch-0", "silo-1"); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, ok := d.LookupID("PhysicalChannel", "org-3@sensor-12/ch-0"); !ok {
			t.Fatal("miss")
		}
	}); got != 0 {
		t.Errorf("LookupID hit: %.0f allocations, want 0", got)
	}
}
