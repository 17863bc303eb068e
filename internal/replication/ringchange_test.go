package replication

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"aodb/internal/clock"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/placement"
	"aodb/internal/transport"
)

// ringChangeCluster hosts five replica stores behind a Local transport;
// the coordinator starts on a ring over the first three.
type ringChangeCluster struct {
	tr     *transport.Local
	stores map[string]*Store
	coord  *Coordinator
	clk    *clock.Fake
	old    *placement.Ring // initial ring (s1-s3)
	grown  *placement.Ring // grown ring (s1-s5)
}

func newRingChangeCluster(t *testing.T) *ringChangeCluster {
	t.Helper()
	all := []string{"s1", "s2", "s3", "s4", "s5"}
	old, err := placement.NewRing(all[:3])
	if err != nil {
		t.Fatal(err)
	}
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	tr := transport.NewLocal(nil, nil)
	t.Cleanup(func() { _ = tr.Close() })
	svc := NewService()
	stores := make(map[string]*Store, len(all))
	for _, s := range all {
		st, err := NewStore(StoreConfig{Silo: s, Table: memTable(t), Ring: old, N: 3, Clock: clk})
		if err != nil {
			t.Fatal(err)
		}
		stores[s] = st
		svc.Host(s, st)
		silo := s
		if err := tr.Register(silo, func(ctx context.Context, req transport.Request) (any, error) {
			return svc.Handle(ctx, silo, req)
		}); err != nil {
			t.Fatal(err)
		}
	}
	coord, err := NewCoordinator(Config{
		Ring:      old,
		N:         3,
		R:         2,
		W:         2,
		Transport: tr,
		Clock:     clk,
		Metrics:   metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	grown, err := old.WithMembers(all)
	if err != nil {
		t.Fatal(err)
	}
	return &ringChangeCluster{tr: tr, stores: stores, coord: coord, clk: clk, old: old, grown: grown}
}

// keyMovedBy returns a key whose home set changes between the two rings
// — the interesting case for a transition.
func (c *ringChangeCluster) movedKey(t *testing.T) string {
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("dev@%d", i)
		a, b := c.old.ReplicaSet(key, 3), c.grown.ReplicaSet(key, 3)
		for j := range a {
			if a[j] != b[j] {
				return key
			}
		}
	}
	t.Fatal("no key with a moved home set")
	return ""
}

// TestQuorumDuringRingChange is the union-quorum regression: a write
// acked before the ring change stays readable through the transition
// (the new homes' "not found" answers must not outvote the old homes),
// and a write acked during the transition satisfies R+W > N against
// both the old and the new replica sets.
func TestQuorumDuringRingChange(t *testing.T) {
	ctx := context.Background()
	c := newRingChangeCluster(t)
	key := c.movedKey(t)

	v0, err := c.coord.Store(ctx, key, []byte("before"), 0)
	if err != nil {
		t.Fatal(err)
	}

	c.coord.UpdateRing(c.grown)
	if n := c.coord.N(); n != 3 {
		t.Fatalf("N on grown ring = %d, want 3", n)
	}

	// Mid-transition read must still intersect the pre-change write.
	data, _, err := c.coord.Get(ctx, key)
	if err != nil || string(data) != "before" {
		t.Fatalf("mid-transition read = %q, %v (pre-change write lost to new homes)", data, err)
	}

	// Mid-transition write: W acks against BOTH home sets.
	v1, err := c.coord.Store(ctx, key, []byte("during"), v0)
	if err != nil {
		t.Fatal(err)
	}
	newHolds := 0
	for _, s := range c.grown.ReplicaSet(key, 3) {
		if env, found, _ := c.stores[s].Fetch(ctx, key); found && string(env.Value) == "during" {
			newHolds++
		}
	}
	if newHolds < 2 {
		t.Fatalf("mid-transition write on %d/3 new homes, want >= W=2", newHolds)
	}
	oldHolds := 0
	for _, s := range c.old.ReplicaSet(key, 3) {
		if env, found, _ := c.stores[s].Fetch(ctx, key); found && string(env.Value) == "during" {
			oldHolds++
		}
	}
	if oldHolds < 2 {
		t.Fatalf("mid-transition write on %d/3 old homes, want >= W=2", oldHolds)
	}

	// Once the window lapses (no explicit SettleRing — the clock does
	// it), reads run purely against the grown ring and still see the
	// mid-transition write.
	c.clk.Advance(2 * ringTransition)
	data, gv, err := c.coord.Get(ctx, key)
	if err != nil || string(data) != "during" || gv != v1 {
		t.Fatalf("post-transition read = %q v=%v, %v", data, gv, err)
	}
}

// TestRingChangeWriteNeedsOldQuorum: while the transition window is
// open, a write that cannot reach the OLD home set must fail its quorum
// even if every new home acks — otherwise a concurrent reader holding
// the old ring could miss an acked write.
func TestRingChangeWriteNeedsOldQuorum(t *testing.T) {
	ctx := context.Background()
	c := newRingChangeCluster(t)
	key := c.movedKey(t)
	c.coord.UpdateRing(c.grown)

	// Take down every old home that is not also a new home... and then
	// some: kill all three old homes so at most the overlap acks.
	for _, s := range c.old.ReplicaSet(key, 3) {
		c.tr.Deregister(s)
	}
	if _, err := c.coord.Store(ctx, key, []byte("split"), 0); !errors.Is(err, ErrQuorum) {
		t.Fatalf("write without old-ring quorum = %v, want ErrQuorum", err)
	}
}

// TestAntiEntropyBackfillsMovedReplicas: after a ring change, a sweep
// copies each moved key from its old homes to its new ones — the old
// homes still offer keys they no longer home (scanShared honors the
// superseded ring through the transition window). Once backfilled and
// settled, the data survives losing every old-only home.
func TestAntiEntropyBackfillsMovedReplicas(t *testing.T) {
	ctx := context.Background()
	c := newRingChangeCluster(t)
	key := c.movedKey(t)
	if _, err := c.coord.Store(ctx, key, []byte("payload"), 0); err != nil {
		t.Fatal(err)
	}

	c.coord.UpdateRing(c.grown)
	for _, st := range c.stores {
		st.UpdateRing(c.grown)
	}
	if _, err := c.coord.SweepOnce(ctx, "", 64); err != nil {
		t.Fatal(err)
	}
	for _, s := range c.grown.ReplicaSet(key, 3) {
		env, found, err := c.stores[s].Fetch(ctx, key)
		if err != nil || !found || string(env.Value) != "payload" {
			t.Fatalf("new home %s not backfilled: found=%v err=%v", s, found, err)
		}
	}

	c.coord.SettleRing()
	inNew := make(map[string]bool)
	for _, s := range c.grown.ReplicaSet(key, 3) {
		inNew[s] = true
	}
	for _, s := range c.old.ReplicaSet(key, 3) {
		if !inNew[s] {
			c.tr.Deregister(s)
		}
	}
	data, _, err := c.coord.Get(ctx, key)
	if err != nil || string(data) != "payload" {
		t.Fatalf("read after settle + old-home loss = %q, %v", data, err)
	}
	if _, _, err := c.coord.Load(ctx, key); err != nil {
		if !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatal(err)
		}
		t.Fatal("backfilled key reads as missing")
	}
}
