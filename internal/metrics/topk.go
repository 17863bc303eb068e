package metrics

import (
	"container/heap"
	"sort"
	"sync"
)

// TopKEntry is one heavy hitter reported by a TopK sketch. Count is the
// sketch's estimate of the key's total offered weight; the true total lies
// in [Count-Err, Count]. The remaining fields are an auxiliary
// observability payload the actor profiler rides along: they are exact
// for the span the key has been resident in the sketch (and reset if the
// key is evicted and later re-admitted).
type TopKEntry struct {
	Key   string `json:"key"`
	Count int64  `json:"count"`
	Err   int64  `json:"err,omitempty"`
	// Turns counts observations while resident (the profiler's turn count).
	Turns int64 `json:"turns,omitempty"`
	// HighWater is the max auxiliary gauge seen while resident (the
	// profiler's mailbox-depth high-water mark).
	HighWater int64 `json:"high_water,omitempty"`
	// Bytes is the latest size observation (the profiler's state size).
	Bytes int64 `json:"bytes,omitempty"`
	// Label carries an origin tag (the profiler's hosting silo).
	Label string `json:"label,omitempty"`
}

// topkNode is a live sketch slot; idx is its position in the min-heap.
type topkNode struct {
	TopKEntry
	idx int
}

// TopK is a space-saving heavy-hitter sketch (Metwally et al.): it
// maintains at most K counters regardless of how many distinct keys are
// offered, guaranteeing that any key with true weight above Total/K is
// present and that each reported Count overestimates the true weight by
// at most Err <= Total/K. Memory is O(K) — with millions of distinct
// actors the sketch still holds K slots. Safe for concurrent use.
type TopK struct {
	mu    sync.Mutex
	k     int
	index map[string]*topkNode
	heap  topkMinHeap
	total int64 // total weight offered, for share-of-total reporting
}

// NewTopK returns a sketch with k slots (minimum 1).
func NewTopK(k int) *TopK {
	if k < 1 {
		k = 1
	}
	return &TopK{k: k, index: make(map[string]*topkNode, k)}
}

// Offer adds weight to key's counter, possibly evicting the current
// minimum-count key to admit it.
func (t *TopK) Offer(key string, weight int64) {
	t.Observe(key, weight, TopKEntry{Bytes: -1})
}

// Observe is Offer with the auxiliary payload: aux.Turns is added,
// aux.HighWater raises the high-water mark, aux.Bytes replaces the byte
// size unless negative, and a non-empty aux.Label replaces the label.
func (t *TopK) Observe(key string, weight int64, aux TopKEntry) {
	t.mu.Lock()
	t.total += weight
	if n, ok := t.index[key]; ok {
		n.Count += weight
		t.applyAux(n, aux)
		heap.Fix(&t.heap, n.idx)
		t.mu.Unlock()
		return
	}
	if len(t.heap) < t.k {
		n := &topkNode{TopKEntry: TopKEntry{Key: key, Count: weight}}
		t.applyAux(n, aux)
		heap.Push(&t.heap, n)
		t.index[key] = n
		t.mu.Unlock()
		return
	}
	// Space-saving eviction: the minimum counter is reassigned to the new
	// key, inheriting its count as the overestimation error.
	n := t.heap[0]
	delete(t.index, n.Key)
	n.TopKEntry = TopKEntry{Key: key, Err: n.Count, Count: n.Count + weight}
	t.applyAux(n, aux)
	t.index[key] = n
	heap.Fix(&t.heap, 0)
	t.mu.Unlock()
}

func (t *TopK) applyAux(n *topkNode, aux TopKEntry) {
	n.Turns += aux.Turns
	if aux.HighWater > n.HighWater {
		n.HighWater = aux.HighWater
	}
	if aux.Bytes >= 0 {
		n.Bytes = aux.Bytes
	}
	if aux.Label != "" {
		n.Label = aux.Label
	}
}

// Total returns the total weight offered to the sketch.
func (t *TopK) Total() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Len returns the number of resident keys (at most K).
func (t *TopK) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.heap)
}

// Snapshot returns the resident entries sorted by descending count.
func (t *TopK) Snapshot() []TopKEntry {
	t.mu.Lock()
	out := make([]TopKEntry, len(t.heap))
	for i, n := range t.heap {
		out[i] = n.TopKEntry
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// MergeTopK combines per-silo sketch snapshots into one cluster-wide
// top-k list. Counts, errors, and turns sum per key; high-water marks and
// byte sizes take the max; the label follows the heaviest contribution.
// When key spaces are disjoint (the normal case — each actor activates on
// exactly one silo) the merged counts carry exactly the per-sketch error;
// for keys present in several sketches the summed Err stays a valid
// overestimation bound.
func MergeTopK(k int, lists ...[]TopKEntry) []TopKEntry {
	merged := make(map[string]*TopKEntry)
	heaviest := make(map[string]int64)
	for _, list := range lists {
		for _, e := range list {
			m, ok := merged[e.Key]
			if !ok {
				cp := e
				merged[e.Key] = &cp
				heaviest[e.Key] = e.Count
				continue
			}
			m.Count += e.Count
			m.Err += e.Err
			m.Turns += e.Turns
			if e.HighWater > m.HighWater {
				m.HighWater = e.HighWater
			}
			if e.Bytes > m.Bytes {
				m.Bytes = e.Bytes
			}
			if e.Count > heaviest[e.Key] {
				heaviest[e.Key] = e.Count
				if e.Label != "" {
					m.Label = e.Label
				}
			}
		}
	}
	out := make([]TopKEntry, 0, len(merged))
	for _, e := range merged {
		out = append(out, *e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// topkMinHeap orders nodes by ascending count so the eviction victim is
// always at the root.
type topkMinHeap []*topkNode

func (h topkMinHeap) Len() int           { return len(h) }
func (h topkMinHeap) Less(i, j int) bool { return h[i].Count < h[j].Count }
func (h topkMinHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].idx = i; h[j].idx = j }
func (h *topkMinHeap) Push(x any)        { n := x.(*topkNode); n.idx = len(*h); *h = append(*h, n) }
func (h *topkMinHeap) Pop() any          { old := *h; n := old[len(old)-1]; *h = old[:len(old)-1]; return n }
