package replication

import (
	"fmt"
	"sort"
)

// fnv64 is FNV-1a over s, the same base hash the placement ring uses,
// widened to 64 bits for the replica ring and digest folding.
func fnv64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// mix64 is the splitmix64 finalizer; it scatters the structured FNV
// output so vnode points and digest buckets distribute uniformly.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func keyPoint(key string) uint64 { return mix64(fnv64(key)) }

// ringVnodes is the number of virtual nodes per silo. Matches the
// placement ring's density so replica spread stays even at small
// cluster sizes.
const ringVnodes = 256

// Ring maps keys to ordered replica sets with a consistent-hash ring of
// virtual nodes. The ring is built over the full static membership — not
// the live view — so a key's home replicas stay stable while a silo is
// down: a home that missed writes comes back to the same keys, and
// anti-entropy brings it up to date.
type Ring struct {
	points []ringPoint // sorted by hash
	silos  []string    // distinct members, stable order
}

type ringPoint struct {
	hash uint64
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
		out = append(out, ringPoint{hash: mix64(fnv64(fmt.Sprintf("%s#%d", silo, v))), silo: idx})
	}
	return out
}

// NewRing builds a ring over the given silos. Order and duplicates are
// normalized away; at least one silo is required.
func NewRing(silos []string) (*Ring, error) {
	uniq := normalizeMembers(silos)
	if len(uniq) == 0 {
		return nil, fmt.Errorf("replication: ring needs at least one silo")
	}
	r := &Ring{silos: uniq, points: make([]ringPoint, 0, len(uniq)*ringVnodes)}
	for i, s := range uniq {
		r.points = siloPoints(s, i, r.points)
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r, nil
}

// WithMembers derives a new ring over the given membership, reusing the
// already-hashed vnode points of every silo carried over from r and
// hashing points only for silos being added — an incremental rebuild
// for membership events. The result is identical to NewRing(silos):
// vnode hashes depend only on the silo name, so a key's replica set
// moves exactly as far as the consistent-hash diff demands and no
// further.
func (r *Ring) WithMembers(silos []string) (*Ring, error) {
	uniq := normalizeMembers(silos)
	if len(uniq) == 0 {
		return nil, fmt.Errorf("replication: ring needs at least one silo")
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
	added := false
	for i, s := range uniq {
		if !kept[s] {
			nr.points = siloPoints(s, i, nr.points)
			added = true
		}
	}
	if added {
		sort.Slice(nr.points, func(a, b int) bool { return nr.points[a].hash < nr.points[b].hash })
	}
	return nr, nil
}

// Equal reports whether two rings cover the same membership (and hence,
// being deterministic over names, assign every key identically).
func (r *Ring) Equal(o *Ring) bool {
	if o == nil || len(r.silos) != len(o.silos) {
		return false
	}
	for i := range r.silos {
		if r.silos[i] != o.silos[i] {
			return false
		}
	}
	return true
}

// Members returns the silos the ring was built over, sorted.
func (r *Ring) Members() []string { return append([]string(nil), r.silos...) }

// Size returns the member count.
func (r *Ring) Size() int { return len(r.silos) }

// ReplicaSet returns the n distinct silos that home the key, in
// preference order: the first owner clockwise from the key's point,
// then successive distinct silos around the ring. n is clamped to the
// member count.
func (r *Ring) ReplicaSet(key string, n int) []string {
	return r.appendHomes(nil, key, n)
}

// appendHomes appends the key's ReplicaSet to dst, so a caller with a
// small buffer of its own walks the ring without allocating.
func (r *Ring) appendHomes(dst []string, key string, n int) []string {
	if n > len(r.silos) {
		n = len(r.silos)
	}
	if n <= 0 {
		return dst
	}
	h := keyPoint(key)
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if idx == len(r.points) {
		idx = 0
	}
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

// Homes reports whether silo is in the key's N-replica home set.
func (r *Ring) Homes(key string, n int, silo string) bool {
	var buf [maxTargets]string
	for _, s := range r.appendHomes(buf[:0], key, n) {
		if s == silo {
			return true
		}
	}
	return false
}
