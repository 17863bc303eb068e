package metrics

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestTopKExactWhenUnderCapacity(t *testing.T) {
	s := NewTopK(8)
	for i := 0; i < 5; i++ {
		for j := 0; j <= i; j++ {
			s.offer(fmt.Sprintf("k%d", i), 10)
		}
	}
	got := s.Snapshot()
	if len(got) != 5 {
		t.Fatalf("len = %d, want 5", len(got))
	}
	if got[0].Key != "k4" || got[0].Count != 50 || got[0].Err != 0 {
		t.Fatalf("top entry = %+v, want k4/50/err0", got[0])
	}
	if s.Total() != 150 {
		t.Fatalf("total = %d, want 150", s.Total())
	}
}

// TestTopKHeavyHittersSurface drives >=100k distinct actors with a few
// planted heavy hitters through a K=64 sketch: the hitters must surface,
// memory must stay O(K), and every reported count must respect the
// space-saving bound true <= Count <= true + Err with Err <= Total/K.
func TestTopKHeavyHittersSurface(t *testing.T) {
	const k = 64
	const distinct = 120000
	s := NewTopK(k)
	truth := make(map[string]int64)
	rng := rand.New(rand.NewSource(42))
	offer := func(key string, w int64) {
		s.offer(key, w)
		truth[key] += w
	}
	heavy := []string{"Sensor@hot-1", "Org@hot-2", "User@hot-3"}
	for i := 0; i < distinct; i++ {
		offer(fmt.Sprintf("Sensor@cold-%d", i), 1+int64(rng.Intn(3)))
		if i%10 == 0 {
			offer(heavy[i/10%len(heavy)], 500)
		}
	}
	if got := s.Len(); got > k {
		t.Fatalf("sketch holds %d keys, want <= %d (O(K) memory)", got, k)
	}
	if got := len(s.index); got > k {
		t.Fatalf("index holds %d keys, want <= %d", got, k)
	}
	snap := s.Snapshot()
	if len(snap) > k {
		t.Fatalf("snapshot has %d entries, want <= %d", len(snap), k)
	}
	top := map[string]TopKEntry{}
	for _, e := range snap {
		top[e.Key] = e
	}
	maxErr := s.Total() / k
	for _, h := range heavy {
		e, ok := top[h]
		if !ok {
			t.Fatalf("heavy hitter %s missing from sketch (counts %v...)", h, snap[:3])
		}
		if e.Count < truth[h] {
			t.Errorf("%s count %d underestimates true %d", h, e.Count, truth[h])
		}
		if e.Count-e.Err > truth[h] {
			t.Errorf("%s lower bound %d exceeds true %d", h, e.Count-e.Err, truth[h])
		}
		if e.Err > maxErr {
			t.Errorf("%s err %d exceeds Total/K = %d", h, e.Err, maxErr)
		}
	}
}

func TestTopKAuxPayload(t *testing.T) {
	s := NewTopK(4)
	s.Observe("a", 10, TopKEntry{Turns: 1, HighWater: 3, Bytes: 100, Label: "silo-1"})
	s.Observe("a", 5, TopKEntry{Turns: 1, HighWater: 2, Bytes: 120, Label: "silo-1"})
	e := s.Snapshot()[0]
	if e.Count != 15 || e.Turns != 2 || e.HighWater != 3 || e.Bytes != 120 || e.Label != "silo-1" {
		t.Fatalf("aux payload wrong: %+v", e)
	}
	// Eviction resets aux: fill the sketch, evict "a"'s slot... actually
	// evict the min slot and verify the admitted key starts fresh.
	for _, k := range []string{"b", "c", "d"} {
		s.Observe(k, 1, TopKEntry{Turns: 1, Bytes: -1})
	}
	s.Observe("e", 1, TopKEntry{Turns: 1, Bytes: -1}) // evicts one of b/c/d (count 1)
	for _, e := range s.Snapshot() {
		if e.Key == "e" {
			if e.Turns != 1 || e.Err == 0 {
				t.Fatalf("admitted key carries stale aux or no err: %+v", e)
			}
		}
	}
}

func TestMergeTopKMatchesUnionStream(t *testing.T) {
	const k = 32
	rng := rand.New(rand.NewSource(7))
	s1, s2, union := NewTopK(k), NewTopK(k), NewTopK(k)
	truth := make(map[string]int64)
	// Disjoint key spaces per "silo", as actors are silo-local.
	for i := 0; i < 50000; i++ {
		key := fmt.Sprintf("s1-actor-%d", rng.Intn(2000))
		w := int64(1 + rng.Intn(10))
		if i%7 == 0 {
			key, w = "s1-hot", 200
		}
		s1.offer(key, w)
		union.offer(key, w)
		truth[key] += w
	}
	for i := 0; i < 50000; i++ {
		key := fmt.Sprintf("s2-actor-%d", rng.Intn(2000))
		w := int64(1 + rng.Intn(10))
		if i%9 == 0 {
			key, w = "s2-hot", 300
		}
		s2.offer(key, w)
		union.offer(key, w)
		truth[key] += w
	}
	merged := MergeTopK(10, s1.Snapshot(), s2.Snapshot())
	if len(merged) != 10 {
		t.Fatalf("merged len = %d, want 10", len(merged))
	}
	// The two planted hitters dominate everything else and must lead.
	if merged[0].Key != "s2-hot" && merged[0].Key != "s1-hot" {
		t.Fatalf("merged top = %+v, want a planted hitter", merged[0])
	}
	for _, e := range merged[:2] {
		if e.Count < truth[e.Key] || e.Count-e.Err > truth[e.Key] {
			t.Errorf("%s: bound [%d,%d] misses true %d", e.Key, e.Count-e.Err, e.Count, truth[e.Key])
		}
	}
	// Merged estimates agree with a sketch over the union stream within
	// the combined error bounds.
	unionTop := map[string]TopKEntry{}
	for _, e := range union.Snapshot() {
		unionTop[e.Key] = e
	}
	for _, e := range merged[:2] {
		u, ok := unionTop[e.Key]
		if !ok {
			t.Errorf("%s in merge but not union sketch", e.Key)
			continue
		}
		if diff := e.Count - u.Count; diff > e.Err+u.Err || diff < -(e.Err+u.Err) {
			t.Errorf("%s: merged %d vs union %d beyond combined err %d", e.Key, e.Count, u.Count, e.Err+u.Err)
		}
	}
}

func TestTopKConcurrent(t *testing.T) {
	s := NewTopK(16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				s.Observe(fmt.Sprintf("k%d", i%100), 1, TopKEntry{Turns: 1, HighWater: int64(i % 50), Bytes: -1})
				if i%64 == 0 {
					_ = s.Snapshot()
					_ = s.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Total() != 8*5000 {
		t.Fatalf("total = %d, want 40000", s.Total())
	}
	if s.Len() > 16 {
		t.Fatalf("len = %d > k", s.Len())
	}
}

func TestMergeTopKOverlappingKeys(t *testing.T) {
	a := []TopKEntry{{Key: "x", Count: 100, Err: 5, Turns: 10, HighWater: 3, Bytes: 50, Label: "silo-1"}}
	b := []TopKEntry{{Key: "x", Count: 200, Err: 7, Turns: 20, HighWater: 9, Bytes: 40, Label: "silo-2"}}
	m := MergeTopK(5, a, b)
	if len(m) != 1 {
		t.Fatalf("len = %d", len(m))
	}
	e := m[0]
	if e.Count != 300 || e.Err != 12 || e.Turns != 30 || e.HighWater != 9 || e.Bytes != 50 {
		t.Fatalf("merged entry wrong: %+v", e)
	}
	if e.Label != "silo-2" {
		t.Fatalf("label should follow heaviest contribution, got %q", e.Label)
	}
}

// offer adds weight to key's counter with no auxiliary payload.
func (t *TopK) offer(key string, weight int64) {
	t.Observe(key, weight, TopKEntry{Bytes: -1})
}
