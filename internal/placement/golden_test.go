package placement

import (
	"fmt"
	"testing"

	"aodb/internal/codec/codectest"
)

// goldenFamilies pins where ConsistentHash (PrefixSep '@') places the
// family of each of the orgs org-0..org-167 over silo-1..silo-n: byte i
// names the silo of "Sensor/org-i@sensor-1". The table was computed
// before placement and the replica ring became one ring; a change that
// moves an actor fails here.
var goldenFamilies = map[int]string{
	2: "122221122121222112222221211212111111112121122212222112112122111121121121121112112112221211121212222212211111211222111122121221222111111122221112112112212122112122112222",
	3: "122221123121223112232323311212131111332121123212222313313322111323321121321332312113231331121212223212233331331222311322121221322111313122223332313133312332332123132223",
	4: "124221123121243412232343311212134144442121123412222413413324111343321124321334344413241434421212223244433341331222411324121221424141413142223432413143314332332123144223",
	8: "585621825621876756272348518788174156688628556416878487457624711586321124521674348468241434428668225274833365331822655376161681864677778545263837463555517376672823157223",
}

func siloSet(n int) []string {
	silos := make([]string, n)
	for i := range silos {
		silos[i] = fmt.Sprintf("silo-%d", i+1)
	}
	return silos
}

func TestConsistentHashGoldenPlacement(t *testing.T) {
	c := NewConsistentHash()
	c.PrefixSep = '@'
	for n, want := range goldenFamilies {
		silos := siloSet(n)
		for i := 0; i < len(want); i++ {
			got, err := c.Place(fmt.Sprintf("Sensor/org-%d@sensor-1", i), "", silos)
			if err != nil {
				t.Fatal(err)
			}
			if w := "silo-" + want[i:i+1]; got != w {
				t.Errorf("%d silos: org-%d placed on %s, want %s", n, i, got, w)
			}
		}
	}
}

// TestPlaceAllocs: placing over an unchanged view allocates nothing.
func TestPlaceAllocs(t *testing.T) {
	codectest.SkipUnderRace(t)
	c := NewConsistentHash()
	c.PrefixSep = '@'
	silos := siloSet(3)
	if _, err := c.Place("Sensor/org-7@sensor-1", "", silos); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(100, func() {
		if _, err := c.Place("Sensor/org-7@sensor-1", "", silos); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Place: %.0f allocations, want 0", got)
	}
}
