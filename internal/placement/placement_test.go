package placement

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

var silos = []string{"silo-1", "silo-2", "silo-3", "silo-4"}

func TestAllStrategiesRejectEmptySiloSet(t *testing.T) {
	for _, s := range []Strategy{NewRandom(1), NewPreferLocal(1), NewConsistentHash()} {
		if _, err := s.Place("A/1", "caller", nil); !errors.Is(err, ErrNoSilos) {
			t.Errorf("%s: err = %v, want ErrNoSilos", s.Name(), err)
		}
	}
}

func TestRandomSpreadsLoad(t *testing.T) {
	r := NewRandom(42)
	counts := map[string]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		silo, err := r.Place(fmt.Sprintf("A/%d", i), "", silos)
		if err != nil {
			t.Fatal(err)
		}
		counts[silo]++
	}
	for _, s := range silos {
		if c := counts[s]; c < n/8 || c > n/2 {
			t.Fatalf("silo %s got %d of %d placements: not uniform (%v)", s, c, n, counts)
		}
	}
}

func TestPreferLocalUsesCaller(t *testing.T) {
	p := NewPreferLocal(1)
	for i := 0; i < 100; i++ {
		silo, err := p.Place(fmt.Sprintf("A/%d", i), "silo-3", silos)
		if err != nil {
			t.Fatal(err)
		}
		if silo != "silo-3" {
			t.Fatalf("placed on %s, want caller silo-3", silo)
		}
	}
}

func TestPreferLocalFallsBackForExternalCaller(t *testing.T) {
	p := NewPreferLocal(1)
	counts := map[string]int{}
	for i := 0; i < 1000; i++ {
		silo, err := p.Place(fmt.Sprintf("A/%d", i), "client-gw", silos)
		if err != nil {
			t.Fatal(err)
		}
		counts[silo]++
	}
	if len(counts) < 2 {
		t.Fatalf("fallback not spreading: %v", counts)
	}
}

func TestConsistentHashStableAcrossCallers(t *testing.T) {
	c := NewConsistentHash()
	first, err := c.Place("Sensor/99", "silo-1", silos)
	if err != nil {
		t.Fatal(err)
	}
	for _, caller := range []string{"silo-2", "silo-3", "client"} {
		got, err := c.Place("Sensor/99", caller, silos)
		if err != nil {
			t.Fatal(err)
		}
		if got != first {
			t.Fatalf("placement varies by caller: %s vs %s", got, first)
		}
	}
}

func TestConsistentHashSpreadsActors(t *testing.T) {
	c := NewConsistentHash()
	counts := map[string]int{}
	const n = 4000
	for i := 0; i < n; i++ {
		silo, err := c.Place(fmt.Sprintf("Sensor/%d", i), "", silos)
		if err != nil {
			t.Fatal(err)
		}
		counts[silo]++
	}
	for _, s := range silos {
		if counts[s] < n/16 {
			t.Fatalf("silo %s got %d of %d: ring badly balanced (%v)", s, counts[s], n, counts)
		}
	}
}

func TestConsistentHashPrefixCoLocation(t *testing.T) {
	c := NewConsistentHash()
	c.PrefixSep = '@'
	base, err := c.Place("org-7", "", silos)
	if err != nil {
		t.Fatal(err)
	}
	// Every actor in the org-7 family must land with the org — including
	// canonical "Kind/key" ids, where the kind must be ignored so that
	// e.g. a Sensor and its PhysicalChannels co-locate.
	for _, actor := range []string{
		"org-7@sensor-1", "org-7@sensor-2/chan-1", "org-7@agg/day",
		"Sensor/org-7@sensor-1", "PhysicalChannel/org-7@sensor-1/ch-0",
		"Aggregator/org-7@agg/hour", "Organization/org-7",
	} {
		got, err := c.Place(actor, "", silos)
		if err != nil {
			t.Fatal(err)
		}
		if got != base {
			t.Fatalf("%s placed on %s, family base on %s", actor, got, base)
		}
	}
	// Different orgs should not all collapse onto one silo.
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		s, _ := c.Place(fmt.Sprintf("org-%d", i), "", silos)
		seen[s] = true
	}
	if len(seen) < 2 {
		t.Fatal("all orgs on one silo: prefix hashing broken")
	}
}

func TestConsistentHashMinimalReshuffleOnSiloLoss(t *testing.T) {
	c := NewConsistentHash()
	before := map[string]string{}
	const n = 2000
	for i := 0; i < n; i++ {
		actor := fmt.Sprintf("A/%d", i)
		s, _ := c.Place(actor, "", silos)
		before[actor] = s
	}
	smaller := silos[:3] // silo-4 dies
	moved := 0
	for i := 0; i < n; i++ {
		actor := fmt.Sprintf("A/%d", i)
		s, _ := c.Place(actor, "", smaller)
		if before[actor] == "silo-4" {
			continue // had to move
		}
		if s != before[actor] {
			moved++
		}
	}
	// Consistent hashing should move only the dead silo's actors; allow a
	// small tolerance for ring-edge effects.
	if moved > n/10 {
		t.Fatalf("%d of %d surviving actors moved; consistent hashing broken", moved, n)
	}
}

// TestConsistentHashViewChangeUnderLoad: callers that disagree on the silo
// set (a view change in flight) make the ring rebuild while another caller
// still searches the ring it took; each must get the placement of its own
// set. Run with -race: the rebuild used to reuse the old ring's array.
func TestConsistentHashViewChangeUnderLoad(t *testing.T) {
	shared := NewConsistentHash()
	views := [][]string{silos[:3], silos}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(view []string) {
			defer wg.Done()
			own := NewConsistentHash()
			for i := 0; i < 300; i++ {
				actor := fmt.Sprintf("A/%d", i)
				got, _ := shared.Place(actor, "", view)
				if want, _ := own.Place(actor, "", view); got != want {
					t.Errorf("%s over %d silos placed on %s, want %s", actor, len(view), got, want)
					return
				}
			}
		}(views[g%2])
	}
	wg.Wait()
}

func TestStrategyNames(t *testing.T) {
	for name, s := range map[string]Strategy{
		"random":          NewRandom(1),
		"prefer-local":    NewPreferLocal(1),
		"consistent-hash": NewConsistentHash(),
	} {
		if s.Name() != name {
			t.Errorf("Name() = %q, want %q", s.Name(), name)
		}
	}
}
