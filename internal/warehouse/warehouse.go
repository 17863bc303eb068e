// Package warehouse implements the analytical side of the paper's
// three-component architecture: "data recorded in the storage system can
// be exported into a classic star schema implemented in the analytical
// database ... targeted at analytical queries over historical data".
//
// The star schema has one fact table of sensor readings and two
// dimensions:
//
//	fact_readings(time_key, channel_key, value)
//	dim_time(time_key, hour, day, month)        — derived on the fly
//	dim_channel(channel_key, org, sensor, name, kind)
//
// Facts are stored columnar (parallel slices, dictionary-encoded
// dimension keys), which keeps scans cache-friendly and the memory
// footprint small. The Exporter walks the grain-state table of the
// kvstore — the archived actor states — decoding persisted channel
// windows into facts, exactly the storage-to-warehouse path the paper
// sketches.
package warehouse

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"aodb/internal/kvstore"
)

// ChannelKind distinguishes physical from virtual channels.
type ChannelKind string

// Channel kinds.
const (
	Physical ChannelKind = "physical"
	Virtual  ChannelKind = "virtual"
)

// Channel is one dim_channel row.
type Channel struct {
	Key    int
	Org    string
	Sensor string
	Name   string // full channel actor key
	Kind   ChannelKind
}

// Warehouse is the in-memory columnar store.
type Warehouse struct {
	// Fact columns, index-aligned.
	times  []int64 // unix nanos
	chans  []int   // dim_channel keys
	values []float64

	// dim_channel, dictionary-encoded.
	channels  []Channel
	channelID map[string]int
}

// New returns an empty warehouse.
func New() *Warehouse {
	return &Warehouse{channelID: make(map[string]int)}
}

// channelKey interns a channel dimension row.
func (w *Warehouse) channelKey(org, sensor, name string, kind ChannelKind) int {
	if id, ok := w.channelID[name]; ok {
		return id
	}
	id := len(w.channels)
	w.channels = append(w.channels, Channel{Key: id, Org: org, Sensor: sensor, Name: name, Kind: kind})
	w.channelID[name] = id
	return id
}

// AddReading appends one fact row.
func (w *Warehouse) AddReading(org, sensor, channel string, kind ChannelKind, at time.Time, value float64) {
	key := w.channelKey(org, sensor, channel, kind)
	w.times = append(w.times, at.UnixNano())
	w.chans = append(w.chans, key)
	w.values = append(w.values, value)
}

// Grain is the dim_time granularity of a roll-up.
type Grain string

// Granularities.
const (
	ByHour  Grain = "hour"
	ByDay   Grain = "day"
	ByMonth Grain = "month"
)

func truncate(t time.Time, g Grain) time.Time {
	switch g {
	case ByHour:
		return t.Truncate(time.Hour)
	case ByDay:
		return time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, t.Location())
	case ByMonth:
		return time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, t.Location())
	default:
		return t
	}
}

// Filter restricts a query's fact scan to one organization; the zero
// Filter scans every fact.
type Filter struct {
	Org string
}

func (f Filter) matches(w *Warehouse, i int) bool {
	return f.Org == "" || w.channels[w.chans[i]].Org == f.Org
}

// Aggregate is one roll-up output row.
type Aggregate struct {
	Group  string // org, sensor, or channel name per GroupBy
	Bucket time.Time
	Count  int64
	Sum    float64
	Min    float64
	Max    float64
}

// Mean returns the row mean.
func (a Aggregate) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// GroupBy selects the roll-up dimension.
type GroupBy string

// Grouping dimensions.
const (
	GroupOrg     GroupBy = "org"
	GroupSensor  GroupBy = "sensor"
	GroupChannel GroupBy = "channel"
)

// RollUp scans the fact table once and aggregates matching rows by
// (group, time bucket), returning rows sorted by group then bucket.
func (w *Warehouse) RollUp(filter Filter, group GroupBy, grain Grain) ([]Aggregate, error) {
	keyOf := func(ch Channel) string {
		switch group {
		case GroupOrg:
			return ch.Org
		case GroupSensor:
			return ch.Sensor
		case GroupChannel:
			return ch.Name
		default:
			return ""
		}
	}
	if keyOf(Channel{Org: "x", Sensor: "x", Name: "x"}) == "" {
		return nil, fmt.Errorf("warehouse: unknown grouping %q", group)
	}
	type cell struct{ agg Aggregate }
	cells := map[string]*cell{}
	for i := range w.times {
		if !filter.matches(w, i) {
			continue
		}
		ch := w.channels[w.chans[i]]
		bucket := truncate(time.Unix(0, w.times[i]).UTC(), grain)
		g := keyOf(ch)
		mapKey := g + "\x00" + bucket.Format(time.RFC3339)
		c, ok := cells[mapKey]
		if !ok {
			c = &cell{agg: Aggregate{Group: g, Bucket: bucket, Min: w.values[i], Max: w.values[i]}}
			cells[mapKey] = c
		}
		v := w.values[i]
		c.agg.Count++
		c.agg.Sum += v
		if v < c.agg.Min {
			c.agg.Min = v
		}
		if v > c.agg.Max {
			c.agg.Max = v
		}
	}
	out := make([]Aggregate, 0, len(cells))
	for _, c := range cells {
		out = append(out, c.agg)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Group != out[j].Group {
			return out[i].Group < out[j].Group
		}
		return out[i].Bucket.Before(out[j].Bucket)
	})
	return out, nil
}

// persistedChannelState mirrors the JSON the SHM channel actors persist
// to the grain table (internal/shm channelState / virtualState). Only the
// window is decoded, and unknown fields are ignored, so the coupling is
// additive-safe: a channel's org and sensor are its key's own
// ("org-3@sensor-17/ch-0", "org-3@sensor-17/virt").
type persistedChannelState struct {
	Window []struct {
		At    time.Time
		Value float64
	}
}

// ExportFromStore walks the grain-state table and loads every persisted
// physical and virtual channel window as facts. It returns the number of
// facts loaded. table is the runtime's state table name (usually
// "grains").
func ExportFromStore(ctx context.Context, w *Warehouse, store *kvstore.Store, table string) (int, error) {
	tb, err := store.Table(table)
	if err != nil {
		return 0, err
	}
	loaded := 0
	export := func(prefix string, kind ChannelKind) error {
		return tb.Scan(ctx, prefix, func(it kvstore.Item) bool {
			var st persistedChannelState
			if err := json.Unmarshal(it.Value, &st); err != nil {
				return true // not a channel state; skip
			}
			name := strings.TrimPrefix(it.Key, prefix)
			org, _, _ := strings.Cut(name, "@")
			sensor := name
			if i := strings.LastIndex(name, "/"); i > 0 {
				sensor = name[:i]
			}
			for _, p := range st.Window {
				w.AddReading(org, sensor, name, kind, p.At, p.Value)
				loaded++
			}
			return true
		})
	}
	if err := export("PhysicalChannel/", Physical); err != nil {
		return loaded, err
	}
	if err := export("VirtualChannel/", Virtual); err != nil {
		return loaded, err
	}
	return loaded, nil
}
