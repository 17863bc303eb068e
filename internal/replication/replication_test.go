package replication

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"

	"aodb/internal/cluster"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/placement"
	"aodb/internal/transport"
)

func TestVersionPackUnpackCompare(t *testing.T) {
	cases := []Version{
		{},
		{Epoch: 0, Seq: 1},
		{Epoch: 1, Seq: 0},
		{Epoch: 7, Seq: 42},
		{Epoch: 1<<32 - 1, Seq: 1<<32 - 1},
	}
	for _, v := range cases {
		if got := Unpack(v.Packed()); got != v {
			t.Fatalf("roundtrip %v -> %v", v, got)
		}
	}
	ordered := []Version{{0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {2, 0}}
	for i := range ordered {
		for j := range ordered {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := ordered[i].Compare(ordered[j]); got != want {
				t.Fatalf("Compare(%v,%v)=%d want %d", ordered[i], ordered[j], got, want)
			}
			// Packed ordering must agree with Compare.
			pi, pj := ordered[i].Packed(), ordered[j].Packed()
			if (pi < pj) != (want < 0) || (pi > pj) != (want > 0) {
				t.Fatalf("packed order disagrees for %v vs %v", ordered[i], ordered[j])
			}
		}
	}
}

func TestEnvelopeRoundtrip(t *testing.T) {
	for _, e := range []Envelope{
		{Version: Version{3, 9}, Value: []byte("hello")},
		{Version: Version{1, 1}, Value: nil},
		{Value: []byte{0, 1, 2, 255}},
	} {
		got, err := DecodeEnvelope(e.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !got.Equal(e) {
			t.Fatalf("roundtrip %+v -> %+v", e, got)
		}
	}
	if _, err := DecodeEnvelope(nil); err == nil {
		t.Fatal("decoding empty bytes should fail")
	}
}

// TestEnvelopeLayout freezes the stored envelope's bytes: a flag byte,
// the epoch and sequence as uvarints, an expiry varint, the value. The
// flag and expiry are always zero; bytes with either set (a tombstone,
// as older code wrote them) are not an envelope.
func TestEnvelopeLayout(t *testing.T) {
	for _, c := range []struct {
		env  Envelope
		want []byte
	}{
		{Envelope{Version: Version{Epoch: 1, Seq: 2}, Value: []byte("v")}, []byte{0x00, 0x01, 0x02, 0x00, 0x76}},
		{Envelope{Version: Version{Epoch: 300, Seq: 1}}, []byte{0x00, 0xac, 0x02, 0x01, 0x00}},
	} {
		got := c.env.Encode()
		if !bytes.Equal(got, c.want) {
			t.Fatalf("%+v encodes as % x, want % x", c.env, got, c.want)
		}
		back, err := DecodeEnvelope(got)
		if err != nil || !back.Equal(c.env) {
			t.Fatalf("% x decodes as %+v, %v", got, back, err)
		}
	}
	for _, b := range [][]byte{
		{0x01, 0x01, 0x02, 0x00, 0x76},
		{0x01, 0x02, 0x05, 0xa4, 0x8b, 0xb0, 0x99, 0x09},
		{0x00, 0x01, 0x02, 0x02, 0x76},
		{0x00, 0x01, 0x02},
	} {
		if _, err := DecodeEnvelope(b); !errors.Is(err, errEnvelope) {
			t.Fatalf("% x decodes with %v, want errEnvelope", b, err)
		}
	}
}

func memTable(t *testing.T) *kvstore.Table {
	t.Helper()
	st, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = st.Close() })
	tab, err := st.EnsureTable("grains", kvstore.Throughput{})
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func testStore(t *testing.T, silo string, n int) *Store {
	t.Helper()
	st, err := NewStore(StoreConfig{Silo: silo, Table: memTable(t), N: n})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestApplyOutcomes(t *testing.T) {
	ctx := context.Background()
	st := testStore(t, "a", 1)

	v1 := Envelope{Version: Version{1, 1}, Value: []byte("x")}
	if out, err := st.Apply(ctx, "k", v1.Encode()); err != nil || out != Applied {
		t.Fatalf("first apply: %v %v", out, err)
	}
	// Idempotent duplicate.
	if out, _ := st.Apply(ctx, "k", v1.Encode()); out != Equal {
		t.Fatalf("duplicate should be Equal, got %v", out)
	}
	// Newer wins.
	v2 := Envelope{Version: Version{1, 2}, Value: []byte("y")}
	if out, _ := st.Apply(ctx, "k", v2.Encode()); out != Applied {
		t.Fatalf("newer should apply, got %v", out)
	}
	// Older is stale.
	if out, _ := st.Apply(ctx, "k", v1.Encode()); out != Stale {
		t.Fatalf("older should be Stale, got %v", out)
	}
	// Same version, different bytes: conflict, resolved by hash.
	c := Envelope{Version: Version{1, 2}, Value: []byte("z")}
	if out, _ := st.Apply(ctx, "k", c.Encode()); out != Conflict {
		t.Fatalf("want Conflict, got %v", out)
	}
	// Whatever the hash decided, both orders must converge on one value.
	env, found, err := st.Fetch(ctx, "k")
	if err != nil || !found {
		t.Fatalf("fetch: %v %v", found, err)
	}
	win := env
	st2 := testStore(t, "a", 1)
	if out, _ := st2.Apply(ctx, "k", c.Encode()); out != Applied {
		t.Fatal("fresh replica should apply")
	}
	if out, _ := st2.Apply(ctx, "k", v2.Encode()); out != Conflict {
		t.Fatal("want Conflict on second replica")
	}
	env2, _, _ := st2.Fetch(ctx, "k")
	if !env2.Equal(win) {
		t.Fatalf("conflict resolution diverged: %q vs %q", env2.Value, win.Value)
	}
}

// threeSilos is a ring of exactly N=3: every silo is a home of every
// key. fiveSilos is N+2: every key has two silos that are not its homes.
var (
	threeSilos = []string{"s1", "s2", "s3"}
	fiveSilos  = []string{"s1", "s2", "s3", "s4", "s5"}
)

// testCluster wires one replica store per silo behind a Local transport
// with a full runtime-free service loop, so coordinator tests exercise
// the real RPC path including deregistration (silo death).
type testCluster struct {
	t     *testing.T
	tr    *transport.Local
	ring  *placement.Ring
	svc   *Service
	coord *Coordinator
}

func newTestCluster(t *testing.T, silos []string, n, r, w int) *testCluster {
	t.Helper()
	view := cluster.NewStaticView(silos...)
	tr := transport.NewLocal(nil, nil)
	t.Cleanup(func() { _ = tr.Close() })
	c := &testCluster{t: t, tr: tr, ring: view.Ring, svc: NewService()}
	for _, s := range silos {
		c.svc.Host(s, testStore(t, s, n))
		c.up(s)
	}
	var err error
	c.coord, err = NewCoordinator(Config{
		Ring:      view,
		N:         n,
		R:         r,
		W:         w,
		Transport: tr,
		Metrics:   metrics.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// down makes silo unreachable; its store keeps what it holds.
func (c *testCluster) down(silo string) { c.tr.Deregister(silo) }

// up makes silo reachable again.
func (c *testCluster) up(silo string) {
	c.t.Helper()
	if err := c.tr.Register(silo, func(ctx context.Context, req transport.Request) (any, error) {
		return c.svc.Handle(ctx, silo, req)
	}); err != nil {
		c.t.Fatal(err)
	}
}

// requireTransientQuorum fails the test unless err is a transient
// ErrQuorum — never a not-found, never nil.
func requireTransientQuorum(t *testing.T, op string, err error) {
	t.Helper()
	if !errors.Is(err, ErrQuorum) || errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("%s: want ErrQuorum, got %v", op, err)
	}
	var tr interface{ TransientError() bool }
	if !errors.As(err, &tr) || !tr.TransientError() {
		t.Fatalf("%s: quorum failure must self-classify transient: %v", op, err)
	}
}

func TestQuorumWriteReadRoundtrip(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, threeSilos, 3, 2, 2)
	key := "device@42"

	// Virgin key: Load reports not found with a zero claim.
	_, ver, err := c.coord.Load(ctx, key)
	if !errors.Is(err, kvstore.ErrNotFound) || ver != 0 {
		t.Fatalf("virgin load: ver=%d err=%v", ver, err)
	}
	v1, err := c.coord.Store(ctx, key, []byte("state-1"), ver)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.coord.Store(ctx, key, []byte("state-2"), v1)
	if err != nil {
		t.Fatal(err)
	}
	if Unpack(v2).Seq != Unpack(v1).Seq+1 {
		t.Fatalf("sequence should advance: %v -> %v", Unpack(v1), Unpack(v2))
	}
	data, gv, err := c.coord.get(ctx, key)
	if err != nil || string(data) != "state-2" || gv != v2 {
		t.Fatalf("get: %q v=%v err=%v", data, Unpack(gv), err)
	}

	// A new activation loads with a bumped epoch and keeps writing.
	data, lv, err := c.coord.Load(ctx, key)
	if err != nil || string(data) != "state-2" {
		t.Fatalf("load: %q err=%v", data, err)
	}
	if Unpack(lv).Epoch != Unpack(v2).Epoch+1 {
		t.Fatalf("load must bump epoch: %v after %v", Unpack(lv), Unpack(v2))
	}
	if _, err := c.coord.Store(ctx, key, []byte("state-3"), lv); err != nil {
		t.Fatal(err)
	}
	// The zombie writing at the old version must now be fenced.
	if _, err := c.coord.Store(ctx, key, []byte("zombie"), v2); !errors.Is(err, kvstore.ErrVersionMismatch) {
		t.Fatalf("zombie write should fence, got %v", err)
	}
	if data, _, _ := c.coord.get(ctx, key); string(data) != "state-3" {
		t.Fatalf("fenced write must not be visible, got %q", data)
	}
}

// TestReadQuorumCountsHomesOnly is the fixed schedule behind strict
// quorums. On a ring of N+2 silos, a write is acked by two homes while
// the third is down; then the third returns and the two that hold the
// write become unreachable. Only one home can answer, so a read must fail
// transient. Counting a silo that is not a home toward R would pair the
// home that missed the write with a silo that never saw the key, answer
// "not found", and a Load would then claim an epoch over an empty key and
// drop the acked write.
func TestReadQuorumCountsHomesOnly(t *testing.T) {
	for _, variant := range []struct {
		name             string
		firstOtherIsDown bool
	}{
		{name: "other silos up"},
		{name: "first other silo down", firstOtherIsDown: true},
	} {
		t.Run(variant.name, func(t *testing.T) {
			ctx := context.Background()
			c := newTestCluster(t, fiveSilos, 3, 2, 2)
			key := "device@101"
			walk := c.ring.AppendHomes(nil, key, len(fiveSilos))
			homes, others := walk[:3], walk[3:]

			c.down(homes[2])
			v, err := c.coord.Store(ctx, key, []byte("acked"), 0)
			if err != nil {
				t.Fatalf("write with two of three homes up: %v", err)
			}
			c.up(homes[2])
			c.down(homes[0])
			c.down(homes[1])
			if variant.firstOtherIsDown {
				c.down(others[0])
			}

			_, _, err = c.coord.Load(ctx, key)
			requireTransientQuorum(t, "Load", err)
			_, _, err = c.coord.get(ctx, key)
			requireTransientQuorum(t, "Get", err)

			// The write was never lost: with its holders back, it reads.
			c.up(homes[0])
			c.up(homes[1])
			data, gv, err := c.coord.get(ctx, key)
			if err != nil || string(data) != "acked" || gv != v {
				t.Fatalf("read with the homes back: %q at %s, %v", data, Unpack(gv), err)
			}
		})
	}
}

// TestMissedHomeConvergesByAntiEntropy: a home that is down when a write
// lands misses it and counts as one failed home; once it returns, one
// anti-entropy sweep gives it the acked version. With a majority of homes
// down, writes and reads fail transient even though the silos that are
// not homes are alive.
func TestMissedHomeConvergesByAntiEntropy(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, fiveSilos, 3, 2, 2)
	key := "device@13"
	homes := c.ring.AppendHomes(nil, key, 3)

	// One home down: the other two ack, and no other silo takes a copy.
	missed := homes[0]
	c.down(missed)
	v, err := c.coord.Store(ctx, key, []byte("during-outage"), 0)
	if err != nil {
		t.Fatalf("write with one home down: %v", err)
	}
	for _, s := range fiveSilos {
		_, found, _ := c.svc.Store(s).Fetch(ctx, key)
		if want := s != missed && c.ring.Homes(key, 3, s); found != want {
			t.Fatalf("%s holds the write = %v, want %v", s, found, want)
		}
	}

	// The home returns: one sweep brings it to the acked version.
	c.up(missed)
	if n, err := c.coord.SweepOnce(ctx, "", 16); err != nil || n == 0 {
		t.Fatalf("sweep after the home returned: divergent=%d err=%v", n, err)
	}
	env, found, err := c.svc.Store(missed).Fetch(ctx, key)
	if err != nil || !found || string(env.Value) != "during-outage" || env.Version != Unpack(v) {
		t.Fatalf("returned home holds %q at %s (found=%v err=%v), want during-outage at %s",
			env.Value, env.Version, found, err, Unpack(v))
	}

	// A majority of homes down, every other silo alive: no quorum.
	c.down(homes[1])
	c.down(homes[2])
	_, err = c.coord.Store(ctx, key, []byte("no-quorum"), v)
	requireTransientQuorum(t, "Store", err)
	_, _, err = c.coord.Load(ctx, key)
	requireTransientQuorum(t, "Load", err)
}

func TestFailedWriteSpendsItsVersion(t *testing.T) {
	// Regression: a quorum write that FAILS spends its (epoch, seq). It
	// may sit on a minority of replicas, so a retry that reused the
	// version with different bytes would meet Conflict there and be
	// fenced. Store returns the spent version beside the error; the retry
	// writes above it and applies everywhere.
	ctx := context.Background()
	c := newTestCluster(t, threeSilos, 3, 2, 2)
	key := "device@31"
	homes := c.ring.AppendHomes(nil, key, 3)

	// Two dead homes: attempt 1 lands on one replica and fails its quorum.
	for _, dead := range homes[1:] {
		c.down(dead)
	}
	spent, err := c.coord.Store(ctx, key, []byte("failed-attempt"), 0)
	requireTransientQuorum(t, "Store", err)
	if want := (Version{Seq: 1}).Packed(); spent != want {
		t.Fatalf("failed write returned version %s, want the spent %s", Unpack(spent), Unpack(want))
	}
	if env, found, _ := c.svc.Store(homes[0]).Fetch(ctx, key); !found || string(env.Value) != "failed-attempt" {
		t.Fatalf("attempt 1 should sit on %s alone: found=%v value=%q", homes[0], found, env.Value)
	}

	// The homes come back; the retry carries different bytes.
	for _, silo := range homes[1:] {
		c.up(silo)
	}
	acked, err := c.coord.Store(ctx, key, []byte("acked-retry"), spent)
	if err != nil {
		t.Fatalf("retry above the spent version: %v", err)
	}
	for _, h := range homes {
		env, found, err := c.svc.Store(h).Fetch(ctx, key)
		if err != nil || !found || string(env.Value) != "acked-retry" || env.Version.Packed() != acked {
			t.Fatalf("%s holds %q at %s (found=%v err=%v), want acked-retry at %s",
				h, env.Value, env.Version, found, err, Unpack(acked))
		}
	}
}

func TestRebuildingReplicaDoesNotAnswerReads(t *testing.T) {
	// Regression: a replica restored onto wiped storage must not count
	// toward read quorums. Its "not found" is indistinguishable from a
	// real absence — if the only other intact copy of an acked write is
	// unreachable, a Load served by {wiped-empty, stale} would adopt a
	// stale winner, epoch-bump it, and erase the acked write.
	ctx := context.Background()
	c := newTestCluster(t, threeSilos, 3, 2, 2)
	key := "device@59"
	homes := c.ring.AppendHomes(nil, key, 3)
	if _, err := c.coord.Store(ctx, key, []byte("acked"), 0); err != nil {
		t.Fatal(err)
	}

	// One holder crashes, another is rebuilding: the remaining single
	// answer must NOT satisfy R=2 — the read fails transient instead of
	// returning something potentially stale.
	c.down(homes[0])
	rebuilding := c.svc.Store(homes[1])
	rebuilding.SetRebuilding(true)
	if _, _, err := rebuilding.Fetch(ctx, key); !errors.Is(err, ErrRebuilding) {
		t.Fatalf("gated fetch: %v", err)
	}
	if _, _, err := c.coord.get(ctx, key); !errors.Is(err, ErrQuorum) {
		t.Fatalf("read with one live answer should fail quorum, got %v", err)
	}

	// Writes and anti-entropy still flow while gated: the replica can be
	// restored, then released, and reads recover.
	if out, err := rebuilding.Apply(ctx, key, Envelope{Version: Version{Epoch: 9}, Value: []byte("restored")}.Encode()); err != nil || out != Applied {
		t.Fatalf("gated apply: %v %v", out, err)
	}
	if _, err := rebuilding.Digest(ctx, homes[2], 8, [][]string{threeSilos}); err != nil {
		t.Fatalf("gated digest: %v", err)
	}
	rebuilding.SetRebuilding(false)
	data, _, err := c.coord.get(ctx, key)
	if err != nil || string(data) != "restored" {
		t.Fatalf("read after release: %q %v", data, err)
	}
}

func TestReadRepair(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, threeSilos, 3, 3, 2)
	key := "device@5"
	v, err := c.coord.Store(ctx, key, []byte("fresh"), 0)
	if err != nil {
		t.Fatal(err)
	}
	// One home lags: a fresh replica hosted in its place never saw the
	// write.
	homes := c.ring.AppendHomes(nil, key, 3)
	lag := testStore(t, homes[2], 3)
	c.svc.Host(homes[2], lag)
	// R=3 read sees the hole and repairs it.
	data, gv, err := c.coord.get(ctx, key)
	if err != nil || string(data) != "fresh" || gv != v {
		t.Fatalf("get: %q %v %v", data, Unpack(gv), err)
	}
	env, found, err := lag.Fetch(ctx, key)
	if err != nil || !found || string(env.Value) != "fresh" {
		t.Fatalf("read repair did not restore the lagging replica: %v %+v", found, env)
	}
}

func TestAntiEntropyRestoresWipedReplica(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, threeSilos, 3, 2, 2)
	keys := []string{"d@1", "d@2", "d@3", "d@4", "d@5", "d@6", "d@7", "d@8"}
	vers := map[string]int64{}
	for _, k := range keys {
		v, err := c.coord.Store(ctx, k, []byte("payload-"+k), 0)
		if err != nil {
			t.Fatal(err)
		}
		vers[k] = v
	}
	// Wipe one silo's table outright (storage loss), then sweep.
	victim := "s2"
	wiped := testStore(t, victim, 3)
	c.svc.Host(victim, wiped)
	divergent, err := c.coord.SweepOnce(ctx, "", 16)
	if err != nil {
		t.Fatal(err)
	}
	if divergent == 0 {
		t.Fatal("sweep should have found divergent keys after a wipe")
	}
	// One more sweep must find nothing: convergence within a bounded
	// sweep count, byte-identical state.
	if d2, err := c.coord.SweepOnce(ctx, "", 16); err != nil || d2 != 0 {
		t.Fatalf("second sweep should be clean, got %d %v", d2, err)
	}
	for _, k := range keys {
		if !c.ring.Homes(k, 3, victim) {
			continue
		}
		env, found, err := wiped.Fetch(ctx, k)
		if err != nil || !found {
			t.Fatalf("wiped replica missing %s: %v %v", k, found, err)
		}
		if string(env.Value) != "payload-"+k || env.Version != Unpack(vers[k]) {
			t.Fatalf("restored %s not byte-identical: %+v", k, env)
		}
	}
}

func TestCoordinatorUnhealthy(t *testing.T) {
	ctx := context.Background()
	c := newTestCluster(t, threeSilos, 3, 1, 1)
	c.down("s3")
	for i := 0; i < unhealthyAfter; i++ {
		_, _, _ = c.coord.fetchFrom(ctx, "s3", "k")
	}
	if !c.coord.Unhealthy("s3") {
		t.Fatal("s3 should be unhealthy after consecutive failures")
	}
	if c.coord.Unhealthy("s1") {
		t.Fatal("s1 should be healthy")
	}
	// Recovery clears the suspicion.
	c.up("s3")
	_, _, _ = c.coord.fetchFrom(ctx, "s3", "k")
	if c.coord.Unhealthy("s3") {
		t.Fatal("s3 should recover after a successful call")
	}
}

// get is a plain quorum read, with no epoch claim: the visible value and
// its packed version. A missing key matches kvstore.ErrNotFound.
func (c *Coordinator) get(ctx context.Context, key string) ([]byte, int64, error) {
	env, found, err := c.readQuorum(ctx, key)
	if err != nil {
		return nil, 0, err
	}
	if !found {
		return nil, 0, fmt.Errorf("%w: %s", kvstore.ErrNotFound, key)
	}
	return env.Value, env.Version.Packed(), nil
}
