package placement

import (
	"fmt"
	"testing"
)

func TestRingReplicaSets(t *testing.T) {
	silos := []string{"s1", "s2", "s3", "s4", "s5"}
	r1, err := NewRing(silos)
	if err != nil {
		t.Fatal(err)
	}
	r2, _ := NewRing([]string{"s5", "s4", "s3", "s2", "s1"}) // order-independent
	counts := make(map[string]int)
	for i := 0; i < 2000; i++ {
		key := "actor@" + string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(rune('A'+i%20))
		set := r1.ReplicaSet(key, 3)
		if len(set) != 3 {
			t.Fatalf("want 3 replicas, got %v", set)
		}
		seen := map[string]bool{}
		for _, s := range set {
			if seen[s] {
				t.Fatalf("duplicate replica in %v", set)
			}
			seen[s] = true
		}
		set2 := r2.ReplicaSet(key, 3)
		for j := range set {
			if set[j] != set2[j] {
				t.Fatalf("ring not member-order independent: %v vs %v", set, set2)
			}
		}
		counts[set[0]]++
		// A larger n extends the same walk, and n clamps to the ring.
		all := r1.ReplicaSet(key, 9)
		if len(all) != 5 {
			t.Fatalf("replica set should clamp to 5 members, got %v", all)
		}
		for j := range set {
			if all[j] != set[j] {
				t.Fatalf("replica set %v must be a prefix of %v", set, all)
			}
		}
	}
	// Primary ownership should spread across all members (vnode balance).
	for _, s := range silos {
		if counts[s] == 0 {
			t.Fatalf("silo %s owns no keys: %v", s, counts)
		}
	}
	if _, err := NewRing(nil); err == nil {
		t.Fatal("empty ring should fail")
	}
}

func TestWithMembersMatchesNewRing(t *testing.T) {
	base, err := NewRing([]string{"s1", "s2", "s3", "s4"})
	if err != nil {
		t.Fatal(err)
	}
	for _, members := range [][]string{
		{"s1", "s2", "s3", "s4", "s5"}, // join
		{"s1", "s2", "s4"},             // leave
		{"s2", "s3", "s6", "s7"},       // churn
		{"s1", "s2", "s3", "s4"},       // no-op
	} {
		inc, err := base.WithMembers(members)
		if err != nil {
			t.Fatal(err)
		}
		full, _ := NewRing(members)
		if !inc.Equal(full) {
			t.Fatalf("membership mismatch: %v vs %v", inc.Members(), full.Members())
		}
		for i := 0; i < 500; i++ {
			key := fmt.Sprintf("dev@%d", i)
			a, b := inc.ReplicaSet(key, 3), full.ReplicaSet(key, 3)
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("members %v key %s: incremental %v vs full %v", members, key, a, b)
				}
			}
		}
	}
	if _, err := base.WithMembers(nil); err == nil {
		t.Fatal("empty membership should fail")
	}

	// Consistent-hash stability: adding one silo to four must leave most
	// primary assignments where they were.
	grown, _ := base.WithMembers([]string{"s1", "s2", "s3", "s4", "s5"})
	moved := 0
	const keys = 2000
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("dev@%d", i)
		if base.ReplicaSet(key, 1)[0] != grown.ReplicaSet(key, 1)[0] {
			moved++
		}
	}
	// Ideal churn is 1/5 of keys; allow generous slack for hash variance.
	if moved > keys/3 {
		t.Fatalf("adding one silo moved %d/%d primaries — not incremental", moved, keys)
	}
}
