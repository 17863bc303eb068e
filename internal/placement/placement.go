// Package placement decides which silo activates an actor.
//
// The paper's Section 5 discusses exactly this knob: Orleans places
// activations randomly by default, "adequate for most use cases since it
// will spread load", but the SHMDP had to switch its sensor channels and
// aggregators to prefer-local placement to avoid remote calls on the
// ingestion path. All three strategies discussed there are implemented:
// random, prefer-local, and a consistent-hash strategy that keeps an
// actor's placement stable across calls regardless of caller.
package placement

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// ErrNoSilos is returned when the cluster has no active silos.
var ErrNoSilos = errors.New("placement: no active silos")

// Strategy picks the silo that should activate an actor.
type Strategy interface {
	// Place returns the target silo for actor. caller is the silo where
	// the triggering message originated; silos is the current active set
	// (non-empty, sorted). actor may be a substring of a larger rendering
	// (core.CallManyOf renders all its targets into one string): a strategy that
	// keeps it past the call pins that whole rendering, and should clone it.
	Place(actor, caller string, silos []string) (string, error)
	// Name identifies the strategy in logs and benchmark output.
	Name() string
}

// Random places activations uniformly at random, Orleans' default.
type Random struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandom returns a Random strategy seeded deterministically.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Place implements Strategy.
func (r *Random) Place(_, _ string, silos []string) (string, error) {
	if len(silos) == 0 {
		return "", ErrNoSilos
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return silos[r.rng.Intn(len(silos))], nil
}

// Name implements Strategy.
func (r *Random) Name() string { return "random" }

// PreferLocal activates actors on the calling silo, falling back to
// random when the caller is not itself an active silo (e.g. an external
// client gateway).
type PreferLocal struct {
	fallback *Random
}

// NewPreferLocal returns a PreferLocal strategy.
func NewPreferLocal(seed int64) *PreferLocal {
	return &PreferLocal{fallback: NewRandom(seed)}
}

// Place implements Strategy.
func (p *PreferLocal) Place(actor, caller string, silos []string) (string, error) {
	if len(silos) == 0 {
		return "", ErrNoSilos
	}
	for _, s := range silos {
		if s == caller {
			return s, nil
		}
	}
	return p.fallback.Place(actor, caller, silos)
}

// Name implements Strategy.
func (p *PreferLocal) Name() string { return "prefer-local" }

// ConsistentHash places each actor on a stable silo: the first home of
// the actor's id on a Ring of virtual nodes over the active silos. Actors
// that share a key prefix up to PrefixSep hash identically, which lets an
// application co-locate an actor family (an organization's sensors,
// channels and aggregators) on one silo — the property the scale-out
// experiment relies on to keep organizations independent.
type ConsistentHash struct {
	// PrefixSep, when non-zero, switches to entity-family hashing: the
	// actor's kind (everything up to and including the first '/') is
	// dropped, and the remaining key is truncated at the first PrefixSep
	// byte. With keys like "org-3@sensor-17/ch-0", every actor of org-3 —
	// regardless of kind — hashes identically and co-locates on one silo.
	PrefixSep byte

	ring atomic.Pointer[viewRing]
}

// viewRing is the ring built for one silo set, kept with a copy of that
// set so Place can tell when the view changed.
type viewRing struct {
	view []string
	ring *Ring
}

// NewConsistentHash returns a ring-based strategy.
func NewConsistentHash() *ConsistentHash {
	return &ConsistentHash{}
}

// Place implements Strategy.
func (c *ConsistentHash) Place(actor, _ string, silos []string) (string, error) {
	if len(silos) == 0 {
		return "", ErrNoSilos
	}
	key := actor
	if c.PrefixSep != 0 {
		// Drop the "Kind/" prefix of the canonical id — but only when the
		// slash precedes the separator, so separators inside keys that
		// themselves contain slashes are not misparsed.
		slash := strings.IndexByte(key, '/')
		sep := strings.IndexByte(key, c.PrefixSep)
		if slash >= 0 && (sep < 0 || slash < sep) {
			key = key[slash+1:]
		}
		if i := strings.IndexByte(key, c.PrefixSep); i >= 0 {
			key = key[:i]
		}
	}
	vr := c.ring.Load()
	if vr == nil || !slices.Equal(vr.view, silos) {
		// A view change: derive the new set's ring, reusing the old one's
		// hashed points, and swap it in. Callers still holding the old ring
		// finish their search on it untouched.
		prev := &Ring{}
		if vr != nil {
			prev = vr.ring
		}
		ring, err := prev.WithMembers(silos)
		if err != nil {
			return "", err
		}
		vr = &viewRing{view: slices.Clone(silos), ring: ring}
		c.ring.Store(vr)
	}
	return vr.ring.Owner(key), nil
}

// Name implements Strategy.
func (c *ConsistentHash) Name() string { return "consistent-hash" }
