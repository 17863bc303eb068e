package placement

import (
	"fmt"
	"slices"
	"sort"
)

// Hash32 is the project's one key hash: FNV-1a with a murmur3-style
// finalizer. It picks an actor family's silo and a state key's replica
// homes on the Ring, and the directory shard, index shard and TCP stripe
// of a key, so every layer spreads keys the same way.
func Hash32[S string | []byte](s S) uint32 {
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
	// "org-0".."org-41" cluster on one ring arc); the finalizer fixes the
	// bit diffusion.
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// ringVnodes is the number of virtual nodes per silo: enough to keep
// per-silo load within a few percent for the org-level entity families
// the SHM platform places.
const ringVnodes = 256

// maxHomes sizes the stack buffer Homes walks the ring into; a larger
// home set spills to the heap.
const maxHomes = 8

// Ring is an immutable consistent-hash ring of virtual nodes. A key's
// first home is where ConsistentHash places its actor family; its first
// n distinct homes are a replicated state key's home set. The replicated
// store builds its ring over the full static membership, not the live
// view, so a key's homes stay put while a silo is down: a home that
// missed writes comes back to the same keys, and anti-entropy brings it
// up to date.
type Ring struct {
	points []ringPoint // sorted by hash, then silo
	silos  []string    // distinct members, sorted
}

type ringPoint struct {
	hash uint32
	silo int // index into silos
}

func normalizeMembers(silos []string) []string {
	uniq := make([]string, 0, len(silos))
	seen := make(map[string]bool, len(silos))
	for _, s := range silos {
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		uniq = append(uniq, s)
	}
	sort.Strings(uniq)
	return uniq
}

func siloPoints(silo string, idx int, out []ringPoint) []ringPoint {
	for v := 0; v < ringVnodes; v++ {
		out = append(out, ringPoint{hash: Hash32(fmt.Sprintf("%s#%d", silo, v)), silo: idx})
	}
	return out
}

// NewRing builds a ring over the given silos. Order and duplicates are
// normalized away; at least one silo is required.
func NewRing(silos []string) (*Ring, error) {
	return (&Ring{}).WithMembers(silos)
}

// WithMembers derives a new ring over the given membership, reusing the
// already-hashed vnode points of every silo carried over from r and
// hashing points only for silos being added. The result is identical to
// NewRing(silos): vnode hashes depend only on the silo name, so a key's
// homes move exactly as far as the consistent-hash diff demands and no
// further. r is left as it was.
func (r *Ring) WithMembers(silos []string) (*Ring, error) {
	uniq := normalizeMembers(silos)
	if len(uniq) == 0 {
		return nil, fmt.Errorf("placement: ring needs at least one silo")
	}
	idx := make(map[string]int, len(uniq))
	for i, s := range uniq {
		idx[s] = i
	}
	nr := &Ring{silos: uniq, points: make([]ringPoint, 0, len(uniq)*ringVnodes)}
	kept := make(map[string]bool, len(r.silos))
	for _, p := range r.points {
		name := r.silos[p.silo]
		if i, ok := idx[name]; ok {
			nr.points = append(nr.points, ringPoint{hash: p.hash, silo: i})
			kept[name] = true
		}
	}
	for i, s := range uniq {
		if !kept[s] {
			nr.points = siloPoints(s, i, nr.points)
		}
	}
	// Renumbering keeps the members' relative order, so a ring with no
	// new member is still sorted.
	if len(kept) < len(uniq) {
		p := nr.points
		sort.Slice(p, func(a, b int) bool {
			if p[a].hash != p[b].hash {
				return p[a].hash < p[b].hash
			}
			return p[a].silo < p[b].silo
		})
	}
	return nr, nil
}

// Equal reports whether two rings cover the same membership (and hence,
// being deterministic over names, assign every key identically).
func (r *Ring) Equal(o *Ring) bool { return o != nil && slices.Equal(r.silos, o.silos) }

// Members returns the silos the ring was built over, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.silos...) }

// Size returns the member count.
func (r *Ring) Size() int { return len(r.silos) }

// first returns the index of the first point clockwise from key's hash.
func (r *Ring) first(key string) int {
	h := Hash32(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the key's first home: the silo that owns the first
// point clockwise from the key's hash.
func (r *Ring) Owner(key string) string {
	return r.silos[r.points[r.first(key)].silo]
}

// ReplicaSet returns the n distinct silos that home the key, in
// preference order: the first owner clockwise from the key's point,
// then successive distinct silos around the ring. n is clamped to the
// member count.
func (r *Ring) ReplicaSet(key string, n int) []string {
	return r.AppendHomes(nil, key, n)
}

// AppendHomes appends the key's ReplicaSet to dst, so a caller with a
// small buffer of its own walks the ring without allocating.
func (r *Ring) AppendHomes(dst []string, key string, n int) []string {
	n = min(n, len(r.silos))
	if n <= 0 {
		return dst
	}
	idx := r.first(key)
	start := len(dst)
walk:
	for i := 0; len(dst)-start < n && i < len(r.points); i++ {
		silo := r.silos[r.points[(idx+i)%len(r.points)].silo]
		for _, s := range dst[start:] {
			if s == silo {
				continue walk
			}
		}
		dst = append(dst, silo)
	}
	return dst
}

// Homes reports whether silo is in the key's n-silo home set.
func (r *Ring) Homes(key string, n int, silo string) bool {
	var buf [maxHomes]string
	for _, s := range r.AppendHomes(buf[:0], key, n) {
		if s == silo {
			return true
		}
	}
	return false
}
