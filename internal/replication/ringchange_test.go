package replication

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"aodb/internal/clock"
	"aodb/internal/cluster"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/placement"
	"aodb/internal/telemetry"
	"aodb/internal/transport"
)

// ringView is a membership view a test moves by publishing the next one,
// as the gossip agent does on a membership change.
type ringView struct{ v atomic.Pointer[cluster.View] }

func (r *ringView) View() *cluster.View { return r.v.Load() }

func (r *ringView) publish(members []string) { r.v.Store(r.View().Next(members)) }

// ringChangeCluster hosts five replica stores behind a Local transport;
// the coordinator starts on a view of the first three.
type ringChangeCluster struct {
	tr     *transport.Local
	svc    *Service
	stores map[string]*Store
	view   *ringView
	coord  *Coordinator
	clk    *clock.Fake
	all    []string
	old    *placement.Ring // initial ring (s1-s3)
	grown  *placement.Ring // grown ring (s1-s5)
}

func newRingChangeCluster(t *testing.T, tracer *telemetry.Tracer) *ringChangeCluster {
	t.Helper()
	all := []string{"s1", "s2", "s3", "s4", "s5"}
	view := &ringView{}
	view.publish(all[:3])
	old := view.View().Ring
	clk := clock.NewFake(time.Unix(1_700_000_000, 0))
	tr := transport.NewLocal(nil, nil)
	t.Cleanup(func() { _ = tr.Close() })
	svc := NewService()
	stores := make(map[string]*Store, len(all))
	for _, s := range all {
		st := testStore(t, s, 3)
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
		Ring:      view,
		N:         3,
		R:         2,
		W:         2,
		Transport: tr,
		Clock:     clk,
		Metrics:   metrics.NewRegistry(),
		Tracer:    tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	grown, err := old.WithMembers(all)
	if err != nil {
		t.Fatal(err)
	}
	return &ringChangeCluster{tr: tr, svc: svc, stores: stores, view: view, coord: coord, clk: clk, all: all, old: old, grown: grown}
}

// grow publishes the view over all five silos.
func (c *ringChangeCluster) grow() { c.view.publish(c.all) }

// open reports whether the coordinator's handoff is open.
func (c *ringChangeCluster) open() bool {
	return c.coord.state(false).old != nil
}

// sweepClean has the coordinator read the view, lets the handoff reach
// callTimeout's age, sweeps every pair until a sweep comes back clean,
// and checks that the clean sweep closed the handoff.
func (c *ringChangeCluster) sweepClean(t *testing.T) {
	t.Helper()
	c.coord.N()
	c.clk.Advance(callTimeout)
	for i := 0; ; i++ {
		n, err := c.coord.SweepOnce(context.Background(), "", 64)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			break
		}
		if i == 3 {
			t.Fatalf("sweep %d still repaired %d keys", i, n)
		}
	}
	if c.open() {
		t.Fatal("handoff still open after a clean sweep")
	}
}

// movedKey returns a key whose home set changes between the two rings
// — the interesting case for a handoff.
func (c *ringChangeCluster) movedKey(t *testing.T) string {
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("dev@%d", i)
		a, b := c.old.AppendHomes(nil, key, 3), c.grown.AppendHomes(nil, key, 3)
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
// acked before the ring change stays readable through the handoff (the
// new homes' "not found" answers must not outvote the old homes), and a
// write acked during the handoff satisfies R+W > N against both the old
// and the new replica sets.
func TestQuorumDuringRingChange(t *testing.T) {
	ctx := context.Background()
	c := newRingChangeCluster(t, nil)
	key := c.movedKey(t)

	v0, err := c.coord.Store(ctx, key, []byte("before"), 0)
	if err != nil {
		t.Fatal(err)
	}

	c.grow()
	if n := c.coord.N(); n != 3 {
		t.Fatalf("N on grown ring = %d, want 3", n)
	}

	// Mid-handoff read must still intersect the pre-change write.
	data, _, err := c.coord.get(ctx, key)
	if err != nil || string(data) != "before" {
		t.Fatalf("mid-transition read = %q, %v (pre-change write lost to new homes)", data, err)
	}

	// Mid-handoff write: W acks against BOTH home sets.
	v1, err := c.coord.Store(ctx, key, []byte("during"), v0)
	if err != nil {
		t.Fatal(err)
	}
	newHolds := 0
	for _, s := range c.grown.AppendHomes(nil, key, 3) {
		if env, found, _ := c.stores[s].Fetch(ctx, key); found && string(env.Value) == "during" {
			newHolds++
		}
	}
	if newHolds < 2 {
		t.Fatalf("mid-transition write on %d/3 new homes, want >= W=2", newHolds)
	}
	oldHolds := 0
	for _, s := range c.old.AppendHomes(nil, key, 3) {
		if env, found, _ := c.stores[s].Fetch(ctx, key); found && string(env.Value) == "during" {
			oldHolds++
		}
	}
	if oldHolds < 2 {
		t.Fatalf("mid-transition write on %d/3 old homes, want >= W=2", oldHolds)
	}

	// Once a clean sweep closes the handoff, reads run purely against
	// the grown ring and still see the mid-handoff write.
	c.sweepClean(t)
	data, gv, err := c.coord.get(ctx, key)
	if err != nil || string(data) != "during" || gv != v1 {
		t.Fatalf("post-transition read = %q v=%v, %v", data, gv, err)
	}
}

// TestRingChangeWriteNeedsOldQuorum: while the handoff is open, a write
// that cannot reach the OLD home set must fail its quorum even if every
// new home acks — otherwise a concurrent reader holding the old ring
// could miss an acked write.
func TestRingChangeWriteNeedsOldQuorum(t *testing.T) {
	ctx := context.Background()
	c := newRingChangeCluster(t, nil)
	key := c.movedKey(t)
	c.grow()

	// Take down every old home that is not also a new home... and then
	// some: kill all three old homes so at most the overlap acks.
	for _, s := range c.old.AppendHomes(nil, key, 3) {
		c.tr.Deregister(s)
	}
	if _, err := c.coord.Store(ctx, key, []byte("split"), 0); !errors.Is(err, ErrQuorum) {
		t.Fatalf("write without old-ring quorum = %v, want ErrQuorum", err)
	}
}

// TestAntiEntropyBackfillsMovedReplicas: after a ring change, a sweep
// copies each moved key from its old homes to its new ones — the old
// homes still offer keys they no longer home, because the sweep names
// the superseded ring while the handoff is open. Once backfilled and
// closed by a clean sweep, the data survives losing every old-only home.
func TestAntiEntropyBackfillsMovedReplicas(t *testing.T) {
	ctx := context.Background()
	c := newRingChangeCluster(t, nil)
	key := c.movedKey(t)
	if _, err := c.coord.Store(ctx, key, []byte("payload"), 0); err != nil {
		t.Fatal(err)
	}

	c.grow()
	if _, err := c.coord.SweepOnce(ctx, "", 64); err != nil {
		t.Fatal(err)
	}
	for _, s := range c.grown.AppendHomes(nil, key, 3) {
		env, found, err := c.stores[s].Fetch(ctx, key)
		if err != nil || !found || string(env.Value) != "payload" {
			t.Fatalf("new home %s not backfilled: found=%v err=%v", s, found, err)
		}
	}

	// A clean sweep of one silo's pairs is no evidence for the handoff:
	// the coordinator serves keys whose new homes may not include it.
	if n, err := c.coord.SweepOnce(ctx, "s1", 64); err != nil || n != 0 {
		t.Fatalf("s1's pairs after the backfill: %d repairs, %v", n, err)
	}
	if !c.open() {
		t.Fatal("a sweep of s1's pairs closed the handoff")
	}
	c.sweepClean(t)
	inNew := make(map[string]bool)
	for _, s := range c.grown.AppendHomes(nil, key, 3) {
		inNew[s] = true
	}
	for _, s := range c.old.AppendHomes(nil, key, 3) {
		if !inNew[s] {
			c.tr.Deregister(s)
		}
	}
	data, _, err := c.coord.get(ctx, key)
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

// TestHandoffHoldsUntilSweep: a handoff ends on a clean sweep, not on a
// clock. Write a key on s1-s3, grow the ring to s1-s5, run no sweep and
// let a minute pass, then take down the one home the old and new home
// sets share. The acked write must still be read, and the handoff must
// still be open.
func TestHandoffHoldsUntilSweep(t *testing.T) {
	ctx := context.Background()
	c := newRingChangeCluster(t, nil)
	key := c.movedKey(t)
	if _, err := c.coord.Store(ctx, key, []byte("acked"), 0); err != nil {
		t.Fatal(err)
	}

	c.grow()
	c.coord.N() // the coordinator reads the grown view
	c.clk.Advance(2 * ringTransition)
	oldHomes := c.old.AppendHomes(nil, key, 3)
	shared := ""
	for _, s := range c.grown.AppendHomes(nil, key, 3) {
		if slices.Contains(oldHomes, s) {
			shared = s
			break
		}
	}
	if shared == "" {
		t.Fatalf("%s: old and new home sets share no silo", key)
	}
	c.tr.Deregister(shared)

	data, _, err := c.coord.Load(ctx, key)
	if err != nil || string(data) != "acked" {
		t.Fatalf("Load after a minute without a sweep, %s down = %q, %v", shared, data, err)
	}
	if !c.open() {
		t.Fatal("handoff closed with no sweep")
	}
}

// TestBackfillWithoutSharedHome: a moved key reaches its new-only homes
// from its old-only homes, which home it under the other ring, even when
// every home the two sets share is down.
func TestBackfillWithoutSharedHome(t *testing.T) {
	ctx := context.Background()
	c := newRingChangeCluster(t, nil)
	key := c.movedKey(t)
	if _, err := c.coord.Store(ctx, key, []byte("payload"), 0); err != nil {
		t.Fatal(err)
	}
	c.grow()
	c.coord.N()
	oldHomes := c.old.AppendHomes(nil, key, 3)
	var newOnly []string
	for _, s := range c.grown.AppendHomes(nil, key, 3) {
		if slices.Contains(oldHomes, s) {
			c.tr.Deregister(s)
		} else {
			newOnly = append(newOnly, s)
		}
	}
	c.clk.Advance(callTimeout)
	if _, err := c.coord.SweepOnce(ctx, "", 64); err == nil {
		t.Fatal("sweep with a member down reported no error")
	}
	if !c.open() {
		t.Fatal("a sweep with errors closed the handoff")
	}
	for _, s := range newOnly {
		env, found, err := c.stores[s].Fetch(ctx, key)
		if err != nil || !found || string(env.Value) != "payload" {
			t.Fatalf("new-only home %s not backfilled: found=%v err=%v", s, found, err)
		}
	}
}

// TestHandoffShrinkClosesWithoutDepartedMember: when a member leaves the
// view, the pairs a sweep covers are the remaining members'. The departed
// member, unreachable for good, does not keep the handoff open, and its
// keys are backfilled from the homes that remain.
func TestHandoffShrinkClosesWithoutDepartedMember(t *testing.T) {
	ctx := context.Background()
	c := newRingChangeCluster(t, nil)
	c.grow()
	c.sweepClean(t)

	key := ""
	for i := 0; key == "" && i < 10000; i++ {
		if k := fmt.Sprintf("dev@%d", i); c.grown.Homes(k, 3, "s5") {
			key = k
		}
	}
	if _, err := c.coord.Store(ctx, key, []byte("kept"), 0); err != nil {
		t.Fatal(err)
	}

	c.tr.Deregister("s5")
	c.view.publish(c.all[:4])
	if !c.open() {
		t.Fatal("shrinking the view opened no handoff")
	}
	c.sweepClean(t)
	shrunk := c.coord.state(false).cur
	for _, s := range shrunk.AppendHomes(nil, key, 3) {
		env, found, err := c.stores[s].Fetch(ctx, key)
		if err != nil || !found || string(env.Value) != "kept" {
			t.Fatalf("home %s of the shrunk ring not backfilled: found=%v err=%v", s, found, err)
		}
	}
}

// TestHandoffAlarm: a handoff open past ringTransition is recorded once
// as an anomaly, and stays open.
func TestHandoffAlarm(t *testing.T) {
	rec := telemetry.New(telemetry.Config{Silo: "s1", Parts: telemetry.Events})
	c := newRingChangeCluster(t, rec)
	c.grow()
	c.coord.N()
	stalled := func() int {
		n := 0
		for _, e := range rec.Events() {
			if e.Kind == telemetry.HandoffStalled.String() {
				n++
			}
		}
		return n
	}
	if n := stalled(); n != 0 {
		t.Fatalf("%d alarms before the minute passed", n)
	}
	c.clk.Advance(2 * ringTransition)
	c.coord.N()
	c.coord.N()
	if n := stalled(); n != 1 {
		t.Fatalf("%d alarms after the minute passed, want 1", n)
	}
	if !c.open() {
		t.Fatal("the alarm closed the handoff")
	}
}

// TestSweeperClosesHandoff: the background sweeper of one silo notices a
// published ring within a resweep period and, while the handoff is open,
// sweeps every pair rather than only its own silo's, so it backfills the
// moved key and closes the handoff.
func TestSweeperClosesHandoff(t *testing.T) {
	ctx := context.Background()
	c := newRingChangeCluster(t, nil)
	key := c.movedKey(t)
	if _, err := c.coord.Store(ctx, key, []byte("payload"), 0); err != nil {
		t.Fatal(err)
	}
	sw := NewSweeper(c.coord, time.Hour, "s4", 0)
	sw.Start()
	defer sw.Stop()
	c.grow()
	for deadline := time.Now().Add(5 * time.Second); c.open(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the sweeper never closed the handoff")
		}
		c.clk.Advance(resweepEvery)
	}
	for _, s := range c.grown.AppendHomes(nil, key, 3) {
		if env, found, err := c.stores[s].Fetch(ctx, key); err != nil || !found || string(env.Value) != "payload" {
			t.Fatalf("new home %s not backfilled: found=%v err=%v", s, found, err)
		}
	}
}

// TestHandoffWaitsForOldRingWrites: a write that took the ring before the
// change and lands after a clean sweep has passed its key must still
// reach the new homes. While it runs, no sweep closes the handoff; once
// it has landed, a clean sweep backfills it, and it survives losing every
// home but the new-only ones.
func TestHandoffWaitsForOldRingWrites(t *testing.T) {
	ctx := context.Background()
	c := newRingChangeCluster(t, nil)
	key := c.movedKey(t)
	oldHomes := c.old.AppendHomes(nil, key, 3)
	release := make(chan struct{})
	held := make(chan struct{}, len(oldHomes))
	for _, s := range oldHomes {
		c.tr.Deregister(s)
		if err := c.tr.Register(s, func(ctx context.Context, req transport.Request) (any, error) {
			if _, ok := req.Payload.(rpcApply); ok {
				held <- struct{}{}
				<-release
			}
			return c.svc.Handle(ctx, s, req)
		}); err != nil {
			t.Fatal(err)
		}
	}
	acked := make(chan error, 1)
	go func() {
		_, err := c.coord.Store(ctx, key, []byte("late"), 0)
		acked <- err
	}()
	for range oldHomes {
		<-held
	}

	c.grow()
	c.coord.N()
	c.clk.Advance(callTimeout)
	if n, err := c.coord.SweepOnce(ctx, "", 64); err != nil || n != 0 {
		t.Fatalf("sweep with the write held: %d repairs, %v", n, err)
	}
	if !c.open() {
		t.Fatal("a sweep closed the handoff under a write still running on the old ring")
	}
	close(release)
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	c.sweepClean(t)
	newHomes := c.grown.AppendHomes(nil, key, 3)
	for _, s := range c.all {
		if !slices.Contains(newHomes, s) || slices.Contains(oldHomes, s) {
			c.tr.Deregister(s)
		}
	}
	if data, _, err := c.coord.Load(ctx, key); err != nil || string(data) != "late" {
		t.Fatalf("Load on the new-only homes = %q, %v", data, err)
	}
}

// TestSweepLiftsGateOnEvidence: a sweep lifts a local replica's read gate
// only when it swept a pair naming that silo and skipped none. A view
// with no peer, or a peer the alive check vetoes, leaves the gate shut.
func TestSweepLiftsGateOnEvidence(t *testing.T) {
	ctx := context.Background()
	s1, s2 := testStore(t, "s1", 3), testStore(t, "s2", 3)
	view := &ringView{}
	view.publish([]string{"s1"})
	var s2Up atomic.Bool
	coord, err := NewCoordinator(Config{
		Ring:  view,
		N:     3,
		Local: map[string]*Store{"s1": s1, "s2": s2},
		Alive: func(silo string) bool { return silo != "s2" || s2Up.Load() },
	})
	if err != nil {
		t.Fatal(err)
	}
	s1.SetRebuilding(true)
	gated := func() bool {
		_, _, err := s1.Fetch(ctx, "k")
		return errors.Is(err, ErrRebuilding)
	}
	if _, err := coord.SweepOnce(ctx, "s1", 0); err != nil || !gated() {
		t.Fatalf("one-member view: sweep %v, gated %v; want the gate kept", err, gated())
	}
	view.publish([]string{"s1", "s2"})
	if _, err := coord.SweepOnce(ctx, "s1", 0); err != nil || !gated() {
		t.Fatalf("peer vetoed: sweep %v, gated %v; want the gate kept", err, gated())
	}
	s2Up.Store(true)
	if _, err := coord.SweepOnce(ctx, "s1", 0); err != nil || gated() {
		t.Fatalf("peer swept clean: sweep %v, gated %v; want the gate lifted", err, gated())
	}
}
