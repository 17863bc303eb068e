// Package directory implements the grain directory: the cluster-wide map
// from actor identity to the silo hosting its single activation.
//
// Virtual actors are logically always present but physically activated on
// demand, so the runtime needs an authoritative answer to "where does
// Cow/42 live right now?". Registration uses compare-and-swap semantics so
// that two silos racing to activate the same actor resolve to exactly one
// winner — the single-activation guarantee Orleans provides. The loser
// drops its speculative activation and forwards to the winner.
package directory

import (
	"errors"
	"fmt"
	"sync"

	"aodb/internal/placement"
)

// ErrAlreadyRegistered reports a lost registration race; the returned
// Registration identifies the winner.
var ErrAlreadyRegistered = errors.New("directory: actor already registered")

// Registration records where an actor's activation lives.
type Registration struct {
	Actor string // canonical actor id, e.g. "Cow/42"
	Silo  string
	Seq   uint64 // unique per registration, used to guard removals
}

// Directory maps actor ids to their single activation. It is sharded to
// keep lock contention off the ingestion hot path: every insert request in
// the benchmarks performs at least one lookup.
type Directory struct {
	shards [64]shard
	seq    counter
}

type shard struct {
	mu sync.RWMutex
	m  map[string]Registration
	// peak is the most entries m has held since it was last made.
	peak int
}

// shrinkAbove is the peak past which a shard map that drains to empty is
// made afresh: a Go map never gives buckets back, so without that one
// population burst sizes the directory for the life of the silo. Below it
// the map is kept and nothing is allocated.
const shrinkAbove = 64

// drained re-makes an emptied map that has outgrown shrinkAbove. Called
// with mu held, after deletions.
func (sh *shard) drained() {
	if len(sh.m) == 0 && sh.peak > shrinkAbove {
		sh.m = make(map[string]Registration)
		sh.peak = 0
	}
}

type counter struct {
	mu sync.Mutex
	n  uint64
}

func (c *counter) next() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return c.n
}

// New returns an empty directory.
func New() *Directory {
	d := &Directory{}
	for i := range d.shards {
		d.shards[i].m = make(map[string]Registration)
	}
	return d
}

func (d *Directory) shard(actor string) *shard {
	return &d.shards[placement.Hash32(actor)%uint32(len(d.shards))]
}

// Register claims actor for silo. If another silo already holds the
// registration, it returns the winner and ErrAlreadyRegistered.
func (d *Directory) Register(actor, silo string) (Registration, error) {
	if actor == "" || silo == "" {
		return Registration{}, errors.New("directory: empty actor or silo")
	}
	sh := d.shard(actor)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if existing, ok := sh.m[actor]; ok {
		return existing, fmt.Errorf("%w: %s on %s", ErrAlreadyRegistered, actor, existing.Silo)
	}
	reg := Registration{Actor: actor, Silo: silo, Seq: d.seq.next()}
	sh.m[actor] = reg
	sh.peak = max(sh.peak, len(sh.m))
	return reg, nil
}

// Lookup returns the current registration for actor.
func (d *Directory) Lookup(actor string) (Registration, bool) {
	sh := d.shard(actor)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	reg, ok := sh.m[actor]
	return reg, ok
}

// idBuf is the longest canonical id LookupID renders on its stack; a
// longer one costs it the allocation Lookup's caller would have paid.
const idBuf = 64

// LookupID is Lookup(kind + "/" + key) without building that string. The
// canonical id is written into a stack buffer, which both the shard hash
// and the map index read: Go indexes a string-keyed map by a converted
// byte slice without allocating.
func (d *Directory) LookupID(kind, key string) (Registration, bool) {
	if len(kind)+1+len(key) > idBuf {
		return d.Lookup(kind + "/" + key)
	}
	var buf [idBuf]byte
	id := append(append(append(buf[:0], kind...), '/'), key...)
	sh := &d.shards[placement.Hash32(id)%uint32(len(d.shards))]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	reg, ok := sh.m[string(id)]
	return reg, ok
}

// Unregister removes reg if and only if it is still the current
// registration (matched by Seq). A deactivating silo must not evict a
// successor's fresh registration.
func (d *Directory) Unregister(reg Registration) bool {
	sh := d.shard(reg.Actor)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, ok := sh.m[reg.Actor]
	if !ok || cur.Seq != reg.Seq {
		return false
	}
	delete(sh.m, reg.Actor)
	sh.drained()
	return true
}

// EvictSilo removes every registration held by silo (silo death) and
// returns how many were dropped.
func (d *Directory) EvictSilo(silo string) int {
	var n int
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		for actor, reg := range sh.m {
			if reg.Silo == silo {
				delete(sh.m, actor)
				n++
			}
		}
		sh.drained()
		sh.mu.Unlock()
	}
	return n
}

// Len returns the number of live registrations.
func (d *Directory) Len() int {
	var n int
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.RLock()
		n += len(sh.m)
		sh.mu.RUnlock()
	}
	return n
}

// CountBySilo returns per-silo activation counts, useful for placement
// balance assertions in tests and benchmarks.
func (d *Directory) CountBySilo() map[string]int {
	out := make(map[string]int)
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.RLock()
		for _, reg := range sh.m {
			out[reg.Silo]++
		}
		sh.mu.RUnlock()
	}
	return out
}
