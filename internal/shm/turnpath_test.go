package shm

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"aodb/internal/codec/codectest"
	"aodb/internal/core"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
)

// TestIngestAllocs holds ingest_local's turn path in tier-1: one 2 × 10
// InsertBatch through Platform on the in-process transport, measured until
// every turn it causes has run — the sensor, its channels, a tenth of the
// time a virtual channel, and the hour→day→month aggregator chain. The
// bound is the count measured when the turn path stopped allocating what
// its owners hold (a worker's Context, chainless Tells, cached bucket
// keys), plus 10 %.
func TestIngestAllocs(t *testing.T) {
	codectest.SkipUnderRace(t)
	rt, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	defer rt.Shutdown(ctx)
	p, err := NewPlatform(rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt.AddSilo("silo-1", nil)
	keys, err := p.Populate(ctx, DefaultPopulation(10))
	if err != nil {
		t.Fatal(err)
	}
	points := [][]float64{make([]float64, 10), make([]float64, 10)}
	turns := rt.Metrics().Counter("core.turns")
	// perInsert[s] is how many turns an insert on sensor s runs; a warm-up
	// insert a sensor, left to settle, counts them.
	perInsert := make([]int64, len(keys))
	for s, key := range keys {
		before := turns.Value()
		if err := p.Ingest(ctx, key, t0, points); err != nil {
			t.Fatal(err)
		}
		perInsert[s] = settle(turns) - before
	}
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		s := i % len(keys)
		i++
		want := turns.Value() + perInsert[s]
		if err := p.Ingest(ctx, keys[s], t0.Add(time.Duration(i)*time.Second), points); err != nil {
			t.Fatal(err)
		}
		for turns.Value() < want {
			runtime.Gosched()
		}
	})
	const most = 15.4
	if allocs > most {
		t.Errorf("an insert: %.0f allocations, want at most %.1f", allocs, most)
	} else {
		t.Logf("an insert: %.0f allocations over %v turns a sensor", allocs, perInsert)
	}
}

// settle waits until c has not moved for 20 ms and returns its value.
func settle(c *metrics.Counter) int64 {
	for {
		v := c.Value()
		time.Sleep(20 * time.Millisecond)
		if c.Value() == v {
			return v
		}
	}
}

// TestStoredStateUnchanged: the stored JSON of a channel and of each
// aggregator level is byte for byte what the code before the turn-path
// cut wrote for the same history (testdata/state), and a state that code
// wrote reads back and re-encodes to the same bytes.
func TestStoredStateUnchanged(t *testing.T) {
	got := storedStates(t)
	for name, st := range map[string]any{
		"channel":   &channelState{},
		"agg-hour":  &aggState{},
		"agg-day":   &aggState{},
		"agg-month": &aggState{},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", "state", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[name], want) {
			t.Errorf("%s state:\n got %s\nwant %s", name, got[name], want)
		}
		if err := json.Unmarshal(want, st); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if again, _ := json.Marshal(st); !bytes.Equal(again, want) {
			t.Errorf("%s state re-encodes as\n%s\nnot\n%s", name, again, want)
		}
	}
}

// storedStates runs a fixed history on one silo with state written at
// deactivation — batches that straddle an hour and a day boundary, on a
// sensor with a virtual channel — and returns the stored state of its
// first channel and of the org's three aggregators.
func storedStates(t *testing.T) map[string][]byte {
	t.Helper()
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ctx := context.Background()
	rt, err := core.New(core.Config{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(rt, Options{Persist: core.PersistOnDeactivate})
	if err != nil {
		t.Fatal(err)
	}
	rt.AddSilo("silo-1", nil)
	if err := p.CreateOrganization(ctx, "org-0", "o"); err != nil {
		t.Fatal(err)
	}
	spec := SensorSpec{Org: "org-0", Key: SensorKey("org-0", 0), PhysicalChannels: 2, WithVirtual: true}
	if err := p.InstallSensor(ctx, spec); err != nil {
		t.Fatal(err)
	}
	for r, at := range []time.Time{
		t0,
		t0.Add(time.Hour - 500*time.Millisecond),
		t0.Add(90 * time.Minute),
		t0.Add(14*time.Hour - 500*time.Millisecond),
		t0.Add(30 * 24 * time.Hour),
	} {
		per := make([][]float64, 2)
		for c := range per {
			per[c] = make([]float64, 10)
			for j := range per[c] {
				per[c][j] = float64(r*10+j)*0.75 - float64(c)*3.5
			}
		}
		if err := p.Ingest(ctx, spec.Key, at, per); err != nil {
			t.Fatal(err)
		}
	}
	settle(rt.Metrics().Counter("core.turns"))
	if err := rt.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	table, err := kv.Table("grains")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for name, id := range map[string]core.ID{
		"channel":   {Kind: KindPhysicalChannel, Key: ChannelKey(spec.Key, 0)},
		"agg-hour":  {Kind: KindAggregator, Key: AggregatorKey("org-0", LevelHour)},
		"agg-day":   {Kind: KindAggregator, Key: AggregatorKey("org-0", LevelDay)},
		"agg-month": {Kind: KindAggregator, Key: AggregatorKey("org-0", LevelMonth)},
	} {
		it, err := table.Get(ctx, id.String())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out[name] = it.Value
	}
	return out
}
