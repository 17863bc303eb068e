package shm

import (
	"time"

	"aodb/internal/codec"
)

// Binary wire forms (codec.RegisterWire) of the messages and replies the
// ingest and query paths put on a cross-silo frame; every other SHM type
// rides the codec's gob fallback. Tags 0x10–0x2f are this package's. A
// count of zero decodes as a nil slice, as a gob round trip leaves it.

// Least bytes one element can take on the wire, for Dec.Len: a time is at
// least two bytes, a float64 always eight.
const (
	minPointBytes  = 2 + 8
	minBucketBytes = 2 + 1 + 3*8
)

func encPoint(e *codec.Enc, p DataPoint) {
	e.Time(p.At)
	e.Float64(p.Value)
}

func decPoint(d *codec.Dec) DataPoint { return DataPoint{At: d.Time(), Value: d.Float64()} }

func encPoints(e *codec.Enc, ps []DataPoint) {
	e.Len(len(ps))
	for _, p := range ps {
		encPoint(e, p)
	}
}

func decPoints(d *codec.Dec) []DataPoint {
	n := d.Len(minPointBytes)
	if n == 0 {
		return nil
	}
	ps := make([]DataPoint, n)
	for i := range ps {
		ps[i] = decPoint(d)
	}
	return ps
}

func encBuckets(e *codec.Enc, bs []BucketStat) {
	e.Len(len(bs))
	for _, b := range bs {
		e.Time(b.Bucket)
		e.Varint(b.Count)
		e.Float64(b.Sum)
		e.Float64(b.Min)
		e.Float64(b.Max)
	}
}

func decBuckets(d *codec.Dec) []BucketStat {
	n := d.Len(minBucketBytes)
	if n == 0 {
		return nil
	}
	bs := make([]BucketStat, n)
	for i := range bs {
		bs[i] = BucketStat{Bucket: d.Time(), Count: d.Varint(), Sum: d.Float64(), Min: d.Float64(), Max: d.Float64()}
	}
	return bs
}

func init() {
	codec.RegisterWire(0x10, encPoint, decPoint)
	codec.RegisterWire(0x11, encPoints, decPoints)
	codec.RegisterWire(0x12, encBuckets, decBuckets)
	codec.RegisterWire(0x13,
		func(e *codec.Enc, m InsertBatch) {
			e.Time(m.At)
			e.Varint(int64(m.Interval))
			e.Len(len(m.Points))
			for _, ch := range m.Points {
				e.Len(len(ch))
				for _, v := range ch {
					e.Float64(v)
				}
			}
		},
		func(d *codec.Dec) InsertBatch {
			m := InsertBatch{At: d.Time(), Interval: time.Duration(d.Varint())}
			if n := d.Len(1); n > 0 {
				m.Points = make([][]float64, n)
			}
			for i := range m.Points {
				if n := d.Len(8); n > 0 {
					m.Points[i] = make([]float64, n)
				}
				for j := range m.Points[i] {
					m.Points[i][j] = d.Float64()
				}
			}
			return m
		})
	codec.RegisterWire(0x14,
		func(e *codec.Enc, m InsertPoints) { encPoints(e, m.Points) },
		func(d *codec.Dec) InsertPoints { return InsertPoints{Points: decPoints(d)} })
	codec.RegisterWire(0x15,
		func(e *codec.Enc, m VirtualInput) { e.String(m.From); encPoints(e, m.Points) },
		func(d *codec.Dec) VirtualInput { return VirtualInput{From: d.String(), Points: decPoints(d)} })
	codec.RegisterWire(0x16,
		func(e *codec.Enc, m StatUpdate) { e.String(m.Channel); encBuckets(e, m.Stats) },
		func(d *codec.Dec) StatUpdate { return StatUpdate{Channel: d.String(), Stats: decBuckets(d)} })
	codec.RegisterWire(0x17,
		func(e *codec.Enc, m RangeQuery) { e.Time(m.From); e.Time(m.To) },
		func(d *codec.Dec) RangeQuery { return RangeQuery{From: d.Time(), To: d.Time()} })
	codec.RegisterWire(0x18,
		func(e *codec.Enc, m GetAggregates) { e.String(m.Channel) },
		func(d *codec.Dec) GetAggregates { return GetAggregates{Channel: d.String()} })
	codec.RegisterWire(0x19, func(*codec.Enc, Latest) {}, func(*codec.Dec) Latest { return Latest{} })
	codec.RegisterWire(0x1a, func(*codec.Enc, GetChannels) {}, func(*codec.Dec) GetChannels { return GetChannels{} })
}
