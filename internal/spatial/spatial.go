// Package spatial provides a grid-based spatial index over actors,
// supporting the "spatial queries for cow locations" the paper's §2.3
// lists among the query types an IoT data platform must serve.
//
// The index partitions the lat/lon plane into fixed-size cells; each cell
// is one posting list inside a grid-shard actor (the same actor-hosted
// index design as internal/index, so maintenance scales with the
// cluster). Box queries visit exactly the cells overlapping the query
// rectangle and then filter exact positions.
package spatial

import (
	"context"
	"fmt"
	"math"
	"sort"

	"aodb/internal/codec"
	"aodb/internal/core"
)

// Kind is the grid shard actor kind. Register once per runtime.
const Kind = "sys.spatial"

// RegisterKind installs the spatial shard actor kind on rt. A shard keeps
// its cell across activations, as the actors it indexes keep theirs: on a
// runtime with a store it loads the cell when it activates and writes it
// when it is collected or the runtime shuts down.
func RegisterKind(rt *core.Runtime) error {
	return rt.RegisterKind(Kind, func() core.Actor { return &shardActor{} }, core.WithPersistence(core.PersistOnDeactivate))
}

// Position is an indexed actor's current location.
type Position struct {
	Actor string
	Lat   float64
	Lon   float64
}

// Box is a query rectangle.
type Box struct {
	MinLat, MaxLat float64
	MinLon, MaxLon float64
}

// Contains reports whether the box contains the point.
func (b Box) Contains(lat, lon float64) bool {
	return lat >= b.MinLat && lat <= b.MaxLat && lon >= b.MinLon && lon <= b.MaxLon
}

// Messages handled by grid shard actors.
type (
	// Upsert records (or moves) an actor's position within one cell.
	Upsert struct{ Pos Position }
	// Delete removes an actor from a cell.
	Delete struct{ Actor string }
	// QueryCell returns the cell's positions inside the box.
	QueryCell struct{ Box Box }
)

type shardActor struct {
	state shardState
}

// shardState is one cell's stored posting list.
type shardState struct {
	Positions map[string]Position
}

func (s *shardActor) State() any { return &s.state }

func (s *shardActor) OnActivate(*core.Context) error {
	if s.state.Positions == nil {
		s.state.Positions = make(map[string]Position)
	}
	return nil
}

func (s *shardActor) Receive(_ *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case Upsert:
		s.state.Positions[m.Pos.Actor] = m.Pos
		return nil, nil
	case Delete:
		delete(s.state.Positions, m.Actor)
		return nil, nil
	case QueryCell:
		var out []Position
		for _, p := range s.state.Positions {
			if m.Box.Contains(p.Lat, p.Lon) {
				out = append(out, p)
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Actor < out[j].Actor })
		return out, nil
	default:
		return nil, fmt.Errorf("spatial: unknown message %T", msg)
	}
}

func init() {
	for _, v := range []any{Position{}, Box{}, Upsert{}, Delete{}, QueryCell{}, []Position{}} {
		codec.Register(v)
	}
}

// Index is a client handle over one named spatial grid.
type Index struct {
	rt       *core.Runtime
	name     string
	cellSize float64 // degrees per cell
}

// New returns a spatial index handle. cellSize is the cell edge in
// degrees (e.g. 0.05 ≈ 5 km of latitude); all handles for one name must
// agree on it.
func New(rt *core.Runtime, name string, cellSize float64) (*Index, error) {
	if cellSize <= 0 {
		return nil, fmt.Errorf("spatial: cell size must be positive, got %v", cellSize)
	}
	return &Index{rt: rt, name: name, cellSize: cellSize}, nil
}

func (ix *Index) cellOf(lat, lon float64) (int, int) {
	return int(math.Floor(lat / ix.cellSize)), int(math.Floor(lon / ix.cellSize))
}

func (ix *Index) cellID(row, col int) core.ID {
	return core.ID{Kind: Kind, Key: fmt.Sprintf("%s/%d:%d", ix.name, row, col)}
}

// Update moves actor to (lat, lon), relocating it between grid cells as
// needed. prevLat/prevLon carry the previous position; pass hasPrev=false
// on first insert.
func (ix *Index) Update(ctx context.Context, actor string, lat, lon float64, prevLat, prevLon float64, hasPrev bool) error {
	newRow, newCol := ix.cellOf(lat, lon)
	if hasPrev {
		oldRow, oldCol := ix.cellOf(prevLat, prevLon)
		if oldRow != newRow || oldCol != newCol {
			if _, err := ix.rt.Call(ctx, ix.cellID(oldRow, oldCol), Delete{Actor: actor}); err != nil {
				return err
			}
		}
	}
	_, err := ix.rt.Call(ctx, ix.cellID(newRow, newCol), Upsert{Pos: Position{Actor: actor, Lat: lat, Lon: lon}})
	return err
}

// QueryBox returns every indexed position inside the box, sorted by
// actor key. It contacts only the grid cells the box overlaps.
func (ix *Index) QueryBox(ctx context.Context, box Box) ([]Position, error) {
	if box.MinLat > box.MaxLat || box.MinLon > box.MaxLon {
		return nil, fmt.Errorf("spatial: inverted box %+v", box)
	}
	minRow, minCol := ix.cellOf(box.MinLat, box.MinLon)
	maxRow, maxCol := ix.cellOf(box.MaxLat, box.MaxLon)
	var out []Position
	for row := minRow; row <= maxRow; row++ {
		for col := minCol; col <= maxCol; col++ {
			v, err := ix.rt.Call(ctx, ix.cellID(row, col), QueryCell{Box: box})
			if err != nil {
				return nil, err
			}
			if ps, ok := v.([]Position); ok {
				out = append(out, ps...)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Actor < out[j].Actor })
	return out, nil
}

// QueryRadius returns positions within approximately radiusKm of a
// center, using an equirectangular distance — adequate at pasture scale.
func (ix *Index) QueryRadius(ctx context.Context, lat, lon, radiusKm float64) ([]Position, error) {
	if radiusKm <= 0 {
		return nil, fmt.Errorf("spatial: radius must be positive")
	}
	const kmPerDegLat = 110.574
	dLat := radiusKm / kmPerDegLat
	kmPerDegLon := 111.320 * math.Cos(lat*math.Pi/180)
	if kmPerDegLon < 1e-9 {
		kmPerDegLon = 1e-9
	}
	dLon := radiusKm / kmPerDegLon
	box := Box{MinLat: lat - dLat, MaxLat: lat + dLat, MinLon: lon - dLon, MaxLon: lon + dLon}
	candidates, err := ix.QueryBox(ctx, box)
	if err != nil {
		return nil, err
	}
	var out []Position
	for _, p := range candidates {
		dy := (p.Lat - lat) * kmPerDegLat
		dx := (p.Lon - lon) * kmPerDegLon
		if math.Sqrt(dx*dx+dy*dy) <= radiusKm {
			out = append(out, p)
		}
	}
	return out, nil
}
