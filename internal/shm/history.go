package shm

import (
	"context"
	"fmt"
	"sort"
	"time"

	"aodb/internal/core"
	"aodb/internal/kvstore"
)

// HistoryTable is the store table holding archived window segments. Keys
// are "<channel>/<first point unix nanos, zero padded>", values are JSON
// []DataPoint chunks — the "large amounts of historical data ... archived"
// in the paper's storage layer.
const HistoryTable = "history"

func historyKey(channel string, first time.Time) string {
	return fmt.Sprintf("%s/%020d", channel, first.UnixNano())
}

// archiveEvicted writes points falling out of the in-memory window into
// the history table. Called from the channel's turn, so chunks per
// channel are naturally ordered and non-overlapping.
func archiveEvicted(ctx *core.Context, channel string, evicted []DataPoint) error {
	if len(evicted) == 0 {
		return nil
	}
	table, err := ctx.Table(HistoryTable)
	if err != nil {
		return fmt.Errorf("shm: archive: %w", err)
	}
	data, err := marshalWindow(evicted)
	if err != nil {
		return err
	}
	_, err = table.Put(ctx, historyKey(channel, evicted[0].At), data)
	return err
}

// scanArchive returns archived points of channel within [from, to].
func scanArchive(ctx context.Context, table *kvstore.Table, channel string, from, to time.Time) ([]DataPoint, error) {
	var out []DataPoint
	var decodeErr error
	err := table.Scan(ctx, channel+"/", func(it kvstore.Item) bool {
		chunk, err := unmarshalWindow(it.Value)
		if err != nil {
			decodeErr = fmt.Errorf("shm: corrupt history chunk %q: %w", it.Key, err)
			return false
		}
		// Chunks are keyed by first-point time and scanned in order; a
		// chunk entirely after the range ends the scan.
		if len(chunk) > 0 && chunk[0].At.After(to) {
			return false
		}
		for _, p := range chunk {
			if !p.At.Before(from) && !p.At.After(to) {
				out = append(out, p)
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	return out, decodeErr
}

// HistoricalData returns a channel's points in [from, to] across both the
// archived history and the live in-memory window — the long-period query
// the paper routes at the storage/warehouse layer.
func (p *Platform) HistoricalData(ctx context.Context, channel string, from, to time.Time) ([]DataPoint, error) {
	kind := KindPhysicalChannel
	if isVirtualKey(channel) {
		kind = KindVirtualChannel
	}
	if kind == KindVirtualChannel {
		// Virtual channels do not archive; serve from the window.
		return p.RawData(ctx, channel, from, to)
	}
	v, err := p.rt.Call(ctx, core.ID{Kind: kind, Key: channel}, HistoryQuery{From: from, To: to})
	if err != nil {
		return nil, err
	}
	pts, _ := v.([]DataPoint)
	return pts, nil
}

// mergeHistory combines archive and window points, dropping overlap at
// the boundary (a point present in both is kept once).
func mergeHistory(archived, window []DataPoint) []DataPoint {
	out := append([]DataPoint(nil), archived...)
	for _, p := range window {
		dup := false
		for i := len(out) - 1; i >= 0 && !out[i].At.Before(p.At); i-- {
			if out[i].At.Equal(p.At) && out[i].Value == p.Value {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At.Before(out[j].At) })
	return out
}
