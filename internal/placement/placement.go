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
	"fmt"
	"math/rand"
	"sort"
	"sync"
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

// ConsistentHash places each actor on a stable silo chosen by hashing the
// actor id onto a ring of virtual nodes. Actors that share a key prefix up
// to PrefixSep hash identically, which lets an application co-locate an
// actor family (an organization's sensors, channels and aggregators) on
// one silo — the property the scale-out experiment relies on to keep
// organizations independent.
type ConsistentHash struct {
	// PrefixSep, when non-zero, switches to entity-family hashing: the
	// actor's kind (everything up to and including the first '/') is
	// dropped, and the remaining key is truncated at the first PrefixSep
	// byte. With keys like "org-3@sensor-17/ch-0", every actor of org-3 —
	// regardless of kind — hashes identically and co-locates on one silo.
	PrefixSep byte

	mu       sync.Mutex
	ringFor  []string // silo set the ring was built for
	ring     []ringEntry
	replicas int
}

type ringEntry struct {
	hash uint32
	silo string
}

// NewConsistentHash returns a ring-based strategy with 256 virtual nodes
// per silo, enough to keep per-silo load within a few percent for the
// org-level entity families the SHM platform places.
func NewConsistentHash() *ConsistentHash {
	return &ConsistentHash{replicas: 256}
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
		slash := indexByte(key, '/')
		sep := indexByte(key, c.PrefixSep)
		if slash >= 0 && (sep < 0 || slash < sep) {
			key = key[slash+1:]
		}
		if i := indexByte(key, c.PrefixSep); i >= 0 {
			key = key[:i]
		}
	}
	c.mu.Lock()
	if !equalStrings(c.ringFor, silos) {
		c.rebuild(silos)
	}
	ring := c.ring
	c.mu.Unlock()
	h := hash32(key)
	i := sort.Search(len(ring), func(i int) bool { return ring[i].hash >= h })
	if i == len(ring) {
		i = 0
	}
	return ring[i].silo, nil
}

// Name implements Strategy.
func (c *ConsistentHash) Name() string { return "consistent-hash" }

func (c *ConsistentHash) rebuild(silos []string) {
	c.ringFor = append([]string(nil), silos...)
	// A fresh array: Place searches the ring it took outside the lock.
	c.ring = make([]ringEntry, 0, len(silos)*c.replicas)
	for _, s := range silos {
		for r := 0; r < c.replicas; r++ {
			c.ring = append(c.ring, ringEntry{hash: hash32(fmt.Sprintf("%s#%d", s, r)), silo: s})
		}
	}
	sort.Slice(c.ring, func(i, j int) bool { return c.ring[i].hash < c.ring[j].hash })
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func hash32(s string) uint32 {
	const (
		offset = 2166136261
		prime  = 16777619
	)
	h := uint32(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime
	}
	// FNV-1a alone has poor avalanche on short sequential keys (e.g.
	// "org-0".."org-41" cluster on one ring arc); a murmur3-style
	// finalizer fixes the bit diffusion.
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}
