package cattle

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aodb/internal/core"
	"aodb/internal/kvstore"
	"aodb/internal/spatial"
)

func newSpatialPlatform(t *testing.T) *Platform {
	t.Helper()
	rt, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	rt.AddSilo("silo-1", nil)
	p, err := NewPlatform(rt, Options{SpatialCellSize: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCowsInAreaTracksMovement(t *testing.T) {
	p := newSpatialPlatform(t)
	ctx := context.Background()
	// Three cows in the north pasture, two in the south.
	for i := 0; i < 5; i++ {
		cow := fmt.Sprintf("cow-%d", i)
		if err := p.RegisterCow(ctx, cow, "farm-1", "angus", born); err != nil {
			t.Fatal(err)
		}
		lat := 55.10
		if i < 3 {
			lat = 55.30
		}
		if err := p.Track(ctx, cow, GeoPoint{Lat: lat + float64(i)*0.001, Lon: 10.40}); err != nil {
			t.Fatal(err)
		}
	}
	north := spatial.Box{MinLat: 55.25, MaxLat: 55.35, MinLon: 10.35, MaxLon: 10.45}
	got, err := p.CowsInArea(ctx, north)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("north pasture = %v, want 3 cows", got)
	}
	// cow-0 wanders south: the spatial index must follow (requirement 2:
	// geo-fencing / pasture rotation needs current positions).
	if err := p.Track(ctx, "cow-0", GeoPoint{Lat: 55.101, Lon: 10.40}); err != nil {
		t.Fatal(err)
	}
	got, err = p.CowsInArea(ctx, north)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("north pasture after move = %v, want 2", got)
	}
	south, err := p.CowsNear(ctx, 55.10, 10.40, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(south) != 3 {
		t.Fatalf("south radius query = %v, want 3", south)
	}
}

// TestCowsInAreaSurvivesRestart: the grid shards keep their cells across
// a restart on the same store, as the cows they index keep their
// trajectories, so the index and the cows still agree afterwards.
func TestCowsInAreaSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	start := func() (*Platform, func()) {
		store, err := kvstore.Open(kvstore.Options{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := core.New(core.Config{Store: store})
		if err != nil {
			t.Fatal(err)
		}
		rt.AddSilo("silo-1", nil)
		p, err := NewPlatform(rt, Options{SpatialCellSize: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		return p, func() {
			sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
			defer cancel()
			if err := rt.Shutdown(sctx); err != nil {
				t.Fatal(err)
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	p, stop := start()
	for i := 0; i < 3; i++ {
		cow := fmt.Sprintf("cow-%d", i)
		if err := p.RegisterCow(ctx, cow, "farm-1", "angus", born); err != nil {
			t.Fatal(err)
		}
		if err := p.Track(ctx, cow, GeoPoint{Lat: 55.30 + float64(i)*0.001, Lon: 10.40}); err != nil {
			t.Fatal(err)
		}
	}
	stop()

	p, stop = start()
	defer stop()
	north := spatial.Box{MinLat: 55.25, MaxLat: 55.35, MinLon: 10.35, MaxLon: 10.45}
	got, err := p.CowsInArea(ctx, north)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("north pasture after restart = %v, want 3 cows", got)
	}
	if traj, err := p.Trajectory(ctx, "cow-0", 10); err != nil || len(traj) != 1 {
		t.Fatalf("cow-0 trajectory after restart = %v, %v", traj, err)
	}
}

func TestSpatialQueriesRequireOptIn(t *testing.T) {
	rt, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())
	rt.AddSilo("silo-1", nil)
	p, err := NewPlatform(rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.CowsInArea(context.Background(), spatial.Box{}); err == nil {
		t.Fatal("spatial query without index succeeded")
	}
	if _, err := p.CowsNear(context.Background(), 0, 0, 1); err == nil {
		t.Fatal("radius query without index succeeded")
	}
}
