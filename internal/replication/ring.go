package replication

import "aodb/internal/placement"

// Ring is the placement ring, which homes replicated state keys as it
// places actor families. The alias and NewRing keep the names the
// benchmark harness calls.
type Ring = placement.Ring

// NewRing is placement.NewRing.
func NewRing(silos []string) (*Ring, error) { return placement.NewRing(silos) }
