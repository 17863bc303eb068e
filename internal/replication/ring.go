package replication

import (
	"errors"

	"aodb/internal/cluster"
)

// NewRing returns a fixed view over silos: a coordinator built on it
// homes keys on one ring for good.
func NewRing(silos []string) (*cluster.View, error) {
	v := cluster.NewStaticView(silos...)
	if v.Ring == nil {
		return nil, errors.New("replication: ring needs at least one silo")
	}
	return v, nil
}
