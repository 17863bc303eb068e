package spatial

import (
	"context"
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"

	"aodb/internal/core"
)

func newIndex(t *testing.T, cellSize float64) *Index {
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
	if err := RegisterKind(rt); err != nil {
		t.Fatal(err)
	}
	rt.AddSilo("silo-1", nil)
	rt.AddSilo("silo-2", nil)
	ix, err := New(rt, "cows", cellSize)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestNewValidatesCellSize(t *testing.T) {
	rt, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())
	if _, err := New(rt, "x", 0); err == nil {
		t.Fatal("zero cell size accepted")
	}
}

func TestUpsertAndBoxQuery(t *testing.T) {
	ix := newIndex(t, 0.1)
	ctx := context.Background()
	// A cluster of cows near (55.3, 10.4) and one far away.
	for i := 0; i < 5; i++ {
		if err := ix.Update(ctx, fmt.Sprintf("cow-%d", i), 55.30+float64(i)*0.01, 10.40, 0, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := ix.Update(ctx, "cow-far", 57.0, 12.0, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	got, err := ix.QueryBox(ctx, Box{MinLat: 55.25, MaxLat: 55.40, MinLon: 10.35, MaxLon: 10.45})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("box query = %d positions (%v), want 5", len(got), got)
	}
	for i, p := range got {
		if p.Actor != fmt.Sprintf("cow-%d", i) {
			t.Fatalf("results unsorted: %v", got)
		}
	}
}

func TestBoxSpanningManyCells(t *testing.T) {
	ix := newIndex(t, 0.05)
	ctx := context.Background()
	// Positions laid out across a 4x4-cell region.
	n := 0
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			lat := 55.0 + float64(i)*0.05
			lon := 10.0 + float64(j)*0.05
			if err := ix.Update(ctx, fmt.Sprintf("a-%02d", n), lat+0.01, lon+0.01, 0, 0, false); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	got, err := ix.QueryBox(ctx, Box{MinLat: 55.0, MaxLat: 55.2, MinLon: 10.0, MaxLon: 10.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("query = %d, want %d", len(got), n)
	}
}

func TestUpdateMovesBetweenCells(t *testing.T) {
	ix := newIndex(t, 0.1)
	ctx := context.Background()
	if err := ix.Update(ctx, "cow-1", 55.31, 10.41, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	// Move to a different cell: the old cell must not still report it.
	if err := ix.Update(ctx, "cow-1", 55.91, 10.91, 55.31, 10.41, true); err != nil {
		t.Fatal(err)
	}
	old, err := ix.QueryBox(ctx, Box{MinLat: 55.3, MaxLat: 55.4, MinLon: 10.4, MaxLon: 10.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(old) != 0 {
		t.Fatalf("old cell still holds %v", old)
	}
	cur, err := ix.QueryBox(ctx, Box{MinLat: 55.9, MaxLat: 56.0, MinLon: 10.9, MaxLon: 11.0})
	if err != nil {
		t.Fatal(err)
	}
	if len(cur) != 1 || cur[0].Actor != "cow-1" {
		t.Fatalf("new cell = %v", cur)
	}
}

func TestUpdateWithinCellKeepsSingleEntry(t *testing.T) {
	ix := newIndex(t, 1.0)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if err := ix.Update(ctx, "cow-1", 55.1+float64(i)*0.01, 10.1, 55.1+float64(i-1)*0.01, 10.1, i > 0); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ix.QueryBox(ctx, Box{MinLat: 55, MaxLat: 56, MinLon: 10, MaxLon: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("duplicate entries after in-cell moves: %v", got)
	}
	if got[0].Lat != 55.14 {
		t.Fatalf("stale position %v", got[0])
	}
}

func TestInvertedBoxRejected(t *testing.T) {
	ix := newIndex(t, 0.1)
	if _, err := ix.QueryBox(context.Background(), Box{MinLat: 2, MaxLat: 1}); err == nil {
		t.Fatal("inverted box accepted")
	}
}

func TestQueryRadius(t *testing.T) {
	ix := newIndex(t, 0.05)
	ctx := context.Background()
	center := Position{Actor: "center", Lat: 55.3, Lon: 10.4}
	if err := ix.Update(ctx, center.Actor, center.Lat, center.Lon, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	// ~2.2 km north (0.02 deg lat).
	if err := ix.Update(ctx, "near", 55.32, 10.4, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	// ~11 km north.
	if err := ix.Update(ctx, "far", 55.40, 10.4, 0, 0, false); err != nil {
		t.Fatal(err)
	}
	got, err := ix.QueryRadius(ctx, 55.3, 10.4, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("radius query = %v, want center+near", got)
	}
	if _, err := ix.QueryRadius(ctx, 55.3, 10.4, -1); err == nil {
		t.Fatal("negative radius accepted")
	}
}

func TestBoxContainsProperty(t *testing.T) {
	// Property: QueryBox results all satisfy Box.Contains, for arbitrary
	// boxes (normalized) and points.
	f := func(aLat, aLon, bLat, bLon, pLat, pLon float64) bool {
		clamp := func(v float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0
			}
			return math.Mod(v, 80)
		}
		aLat, aLon, bLat, bLon = clamp(aLat), clamp(aLon), clamp(bLat), clamp(bLon)
		pLat, pLon = clamp(pLat), clamp(pLon)
		box := Box{
			MinLat: math.Min(aLat, bLat), MaxLat: math.Max(aLat, bLat),
			MinLon: math.Min(aLon, bLon), MaxLon: math.Max(aLon, bLon),
		}
		inside := box.Contains(pLat, pLon)
		wantInside := pLat >= box.MinLat && pLat <= box.MaxLat && pLon >= box.MinLon && pLon <= box.MaxLon
		return inside == wantInside
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCellOfConsistencyProperty(t *testing.T) {
	ixBase := Index{cellSize: 0.25}
	// Property: a point always falls inside the cell it maps to.
	f := func(rawLat, rawLon float64) bool {
		if math.IsNaN(rawLat) || math.IsInf(rawLat, 0) || math.IsNaN(rawLon) || math.IsInf(rawLon, 0) {
			return true
		}
		lat := math.Mod(rawLat, 85)
		lon := math.Mod(rawLon, 175)
		row, col := ixBase.cellOf(lat, lon)
		cellMinLat := float64(row) * ixBase.cellSize
		cellMinLon := float64(col) * ixBase.cellSize
		return lat >= cellMinLat && lat < cellMinLat+ixBase.cellSize &&
			lon >= cellMinLon && lon < cellMinLon+ixBase.cellSize
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}
