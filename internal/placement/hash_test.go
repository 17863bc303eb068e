package placement

import (
	"fmt"
	"testing"
	"testing/quick"
)

// TestRingBalanceSequentialKeys guards the scale-out experiment's
// load-bearing property: sequential entity keys ("org-0".."org-N") must
// spread nearly evenly over silos. Plain FNV-1a failed this (41 of 42
// orgs on one of two silos) until a bit-mixing finalizer was added.
func TestRingBalanceSequentialKeys(t *testing.T) {
	c := NewConsistentHash()
	c.PrefixSep = '@'
	for _, silos := range [][]string{
		{"silo-1", "silo-2"},
		{"silo-1", "silo-2", "silo-3", "silo-4"},
		{"silo-1", "silo-2", "silo-3", "silo-4", "silo-5", "silo-6", "silo-7", "silo-8"},
	} {
		const orgs = 168
		counts := map[string]int{}
		for i := 0; i < orgs; i++ {
			s, err := c.Place(fmt.Sprintf("Sensor/org-%d@sensor-1", i), "", silos)
			if err != nil {
				t.Fatal(err)
			}
			counts[s]++
		}
		mean := orgs / len(silos)
		for _, s := range silos {
			if counts[s] < mean/2 || counts[s] > mean*2 {
				t.Fatalf("%d silos: %s got %d of %d (mean %d): %v",
					len(silos), s, counts[s], orgs, mean, counts)
			}
		}
	}
}

// TestHash32AvalancheProperty: flipping the last byte of a key should
// change roughly half the hash bits on average — the property the ring
// depends on. We assert a weak bound per sample pair.
func TestHash32AvalancheProperty(t *testing.T) {
	f := func(s string) bool {
		a := Hash32(s + "0")
		b := Hash32(s + "1")
		diff := a ^ b
		bits := 0
		for diff != 0 {
			bits += int(diff & 1)
			diff >>= 1
		}
		// With good mixing, <4 differing bits is vanishingly rare.
		return bits >= 4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestHash32Deterministic(t *testing.T) {
	if Hash32("org-7") != Hash32("org-7") {
		t.Fatal("hash not deterministic")
	}
	if Hash32("org-7") == Hash32("org-8") {
		t.Fatal("trivial collision")
	}
}
