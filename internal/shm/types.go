// Package shm implements the Structural Health Monitoring Data Platform
// (SHMDP) — the case study the paper prototypes on Orleans and transitions
// to SenMoS — on top of this repository's AODB runtime.
//
// The actor model follows the paper's Figure 4:
//
//   - Organization actors know every channel of their sensors, which the
//     live-data query fans out to.
//   - Sensor actors hold sensor metadata and route ingested packets to
//     their channels.
//   - PhysicalChannel actors hold a window of raw data points per sensor
//     channel, maintain the accumulated change required by functional
//     requirement 4, and raise threshold alerts (requirement 5).
//   - VirtualChannel actors compute derived streams over physical
//     channels (the paper's example: a summation of a sensor's two
//     channels).
//   - Aggregator actors maintain statistical aggregates per hour/day/
//     month, each level feeding the next (requirement 6).
//   - Alert actors collect raised alerts per organization.
//
// Actor keys embed the owning organization before an '@' separator
// ("org-3@sensor-17/ch-0") so consistent-hash placement can keep an
// organization's whole actor family on one silo — the property the
// paper's scale-out experiment relies on ("there are no dependencies
// across organizations").
package shm

import (
	"time"

	"aodb/internal/codec"
)

// DataPoint is one sensor reading.
type DataPoint struct {
	At    time.Time
	Value float64
}

// Threshold configures alerting for a channel (functional requirement 5:
// customized alerts when thresholds are met).
type Threshold struct {
	Min     float64
	Max     float64
	Enabled bool
}

// Violates reports whether v falls outside the configured band.
func (t Threshold) Violates(v float64) bool {
	return t.Enabled && (v < t.Min || v > t.Max)
}

// Alert is one threshold violation event.
type Alert struct {
	Channel string
	At      time.Time
	Value   float64
	Reason  string
}

// BucketStat is a statistical aggregate over one time bucket.
type BucketStat struct {
	Bucket time.Time
	Count  int64
	Sum    float64
	Min    float64
	Max    float64
}

// Merge folds other into s (s.Bucket wins).
func (s *BucketStat) Merge(other BucketStat) {
	if s.Count == 0 {
		b := s.Bucket
		*s = other
		s.Bucket = b
		return
	}
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Min < s.Min {
		s.Min = other.Min
	}
	if other.Max > s.Max {
		s.Max = other.Max
	}
}

// Mean returns the bucket mean.
func (s BucketStat) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Aggregation levels.
const (
	LevelHour  = "hour"
	LevelDay   = "day"
	LevelMonth = "month"
)

// TruncateToLevel maps a timestamp to its bucket at the given level.
func TruncateToLevel(t time.Time, level string) time.Time {
	switch level {
	case LevelHour:
		return t.Truncate(time.Hour)
	case LevelDay:
		return time.Date(t.Year(), t.Month(), t.Day(), 0, 0, 0, 0, t.Location())
	case LevelMonth:
		return time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, t.Location())
	default:
		return t
	}
}

// Messages exchanged between SHM actors and the platform facade. All are
// registered with the codec so they survive the TCP transport.
type (
	// AttachSensor tells the org about one of its sensors.
	AttachSensor struct{ SensorKey string }
	// GetChannels returns every channel key owned by the org's sensors.
	GetChannels struct{}

	// ConfigureSensor initializes a Sensor actor with its channels. The
	// sensor configures the channel actors itself, so that under
	// prefer-local placement the whole sensor family activates on one
	// silo (the §5 placement fix; a client-driven configuration would
	// scatter the family across random silos).
	ConfigureSensor struct {
		Org      string
		Channels []string // physical channel actor keys
		Virtual  string   // virtual channel actor key, "" if none
		// Per-channel configuration applied by the sensor.
		WindowCap       int
		Threshold       Threshold
		Aggregator      string // hour-level aggregator key, "" disables
		WriteEveryBatch bool
		Archive         bool
	}
	// InsertBatch carries one ingestion request: Points[i] is the packet
	// for the sensor's i-th physical channel. This is the hot-path message
	// of the paper's benchmark (10 points per channel, 1 request/s).
	InsertBatch struct {
		At     time.Time
		Points [][]float64
		// Interval spaces the points inside the packet (10 Hz sampling
		// means 100ms).
		Interval time.Duration
	}
	// GetSensorInfo returns a SensorInfo snapshot.
	GetSensorInfo struct{}

	// ConfigureChannel initializes a channel actor.
	ConfigureChannel struct {
		Org        string
		WindowCap  int
		VirtualOut string // virtual channel key fed by this channel
		Threshold  Threshold
		Aggregator string // hour-level aggregator key, "" to disable
		// WriteEveryBatch forces a state write to grain storage after
		// every insert — the per-request durability policy §5 warns
		// about (200 channels at 1 packet/s = 200 storage writes/s).
		WriteEveryBatch bool
		// Archive, on a runtime with a store, writes points evicted from
		// the in-memory window into the history table, so long-period
		// queries outlive the window (the paper's archived historical
		// data).
		Archive bool
	}

	// HistoryQuery returns a channel's points in [From, To], merging the
	// archived history with the live window.
	HistoryQuery struct{ From, To time.Time }
	// InsertPoints appends readings to a channel window.
	InsertPoints struct{ Points []DataPoint }
	// Latest returns the channel's newest DataPoint: the reading in its
	// window with the greatest At, the later arrival on a tie.
	Latest struct{}
	// RangeQuery returns the window's points in [From, To].
	RangeQuery struct{ From, To time.Time }
	// GetAccumulated returns the channel's accumulated change.
	GetAccumulated struct{}

	// ConfigureVirtual initializes a VirtualChannel with its inputs.
	ConfigureVirtual struct {
		Inputs    []string
		Op        string // "sum" (the paper's example) or "mean"
		WindowCap int
	}
	// VirtualInput feeds one input channel's packet to a virtual channel.
	VirtualInput struct {
		From   string
		Points []DataPoint
	}

	// StatUpdate folds per-bucket statistics into an aggregator.
	StatUpdate struct {
		Channel string
		Stats   []BucketStat
	}
	// GetAggregates returns the aggregator's buckets for one channel
	// ("" = merged across channels), sorted by bucket time.
	GetAggregates struct{ Channel string }

	// RaiseAlert records a threshold violation with the org's alert actor.
	RaiseAlert struct{ Alert Alert }
	// GetAlerts returns the most recent alerts (up to Limit, newest last).
	GetAlerts struct{ Limit int }
)

// NonBlocking marks Latest as answered from memory (core.NonBlocking), so
// a LiveData frame runs its turns on the goroutine that serves it.
func (Latest) NonBlocking() {}

// SensorInfo is the reply to GetSensorInfo.
type SensorInfo struct {
	Org      string
	Channels []string
	Virtual  string
	Packets  int64 // ingestion requests processed
}

// LiveReading pairs a channel with its most recent point, the unit of the
// live-data query (functional requirement 7 / Figure 9 workload).
type LiveReading struct {
	Channel string
	Point   DataPoint
}

func init() {
	for _, v := range []any{
		DataPoint{}, Threshold{}, Alert{}, BucketStat{},
		AttachSensor{}, GetChannels{},
		ConfigureSensor{}, InsertBatch{}, GetSensorInfo{},
		ConfigureChannel{}, InsertPoints{}, Latest{}, RangeQuery{}, GetAccumulated{}, HistoryQuery{},
		ConfigureVirtual{}, VirtualInput{},
		StatUpdate{}, GetAggregates{},
		RaiseAlert{}, GetAlerts{},
		SensorInfo{}, LiveReading{},
		[]DataPoint{}, []BucketStat{}, []LiveReading{}, []Alert{}, []string{},
		[]float64{}, [][]float64{}, map[string][]BucketStat{},
	} {
		codec.Register(v)
	}
}
