package bench

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/core"
	"aodb/internal/metrics"
	"aodb/internal/shm"
)

// RequestType classifies benchmark requests, mirroring the paper's
// benchmarking-tool log ("which request was sent: data insertion, live
// user data, or user data request").
type RequestType int

// Request types.
const (
	ReqInsert RequestType = iota
	ReqLive
	ReqRaw
	reqTypeCount
)

func (t RequestType) String() string {
	switch t {
	case ReqInsert:
		return "insert"
	case ReqLive:
		return "live"
	case ReqRaw:
		return "raw"
	default:
		return fmt.Sprintf("type-%d", int(t))
	}
}

// Recorder collects per-type latency histograms and completion counts,
// gated on a warmup flag so start-up transients are excluded the way the
// paper drops its first measurement minute.
type Recorder struct {
	hists     [reqTypeCount]*metrics.Histogram
	completed [reqTypeCount]atomic.Int64
	errors    atomic.Int64
	measuring atomic.Bool
}

// NewRecorder returns an idle recorder; call StartMeasuring after warmup.
func NewRecorder() *Recorder {
	r := &Recorder{}
	for i := range r.hists {
		r.hists[i] = metrics.NewHistogram()
	}
	return r
}

// StartMeasuring opens the measurement window.
func (r *Recorder) StartMeasuring() { r.measuring.Store(true) }

// StopMeasuring closes the measurement window.
func (r *Recorder) StopMeasuring() { r.measuring.Store(false) }

// Record logs one completed request.
func (r *Recorder) Record(t RequestType, latency time.Duration, err error) {
	if !r.measuring.Load() {
		return
	}
	if err != nil {
		r.errors.Add(1)
		return
	}
	r.hists[t].RecordDuration(latency)
	r.completed[t].Add(1)
}

// Completed returns how many requests of type t finished inside the
// measurement window.
func (r *Recorder) Completed(t RequestType) int64 { return r.completed[t].Load() }

// Errors returns the failed-request count.
func (r *Recorder) Errors() int64 { return r.errors.Load() }

// Latencies returns the latency snapshot for one request type.
func (r *Recorder) Latencies(t RequestType) metrics.Snapshot { return r.hists[t].Snapshot() }

// LoadSpec describes the offered load, following the paper's setup: every
// sensor sends one insert request per second carrying 10 points per
// physical channel; optionally each organization issues one live-data and
// one raw-data request per second (the 98/1/1 mix at 100 sensors/org).
type LoadSpec struct {
	SensorKeys []string
	Orgs       int
	// Channels per sensor (population default 2).
	Channels int
	// PointsPerChannel per request (paper: 10, i.e. 10 Hz sampling).
	PointsPerChannel int
	// RequestEvery is the per-sensor request period (paper: 1s).
	RequestEvery time.Duration
	// UserQueries adds the 1%/1% live/raw per-org query load.
	UserQueries bool
	// Warmup and Duration bound the run; only requests completing inside
	// (Warmup, Duration) are recorded.
	Warmup   time.Duration
	Duration time.Duration
	// RequestTimeout bounds one request (default 30s).
	RequestTimeout time.Duration
	Seed           int64
}

// Drive runs the open-loop load against the platform and blocks until the
// run completes. Requests are issued on schedule regardless of whether
// earlier ones finished — precisely what exposes queueing collapse beyond
// saturation.
func Drive(ctx context.Context, p *shm.Platform, spec LoadSpec, rec *Recorder) error {
	if len(spec.SensorKeys) == 0 {
		return fmt.Errorf("bench: no sensors to drive")
	}
	orDefault(&spec.Channels, 2)
	orDefault(&spec.PointsPerChannel, 10)
	orDefault(&spec.RequestEvery, time.Second)
	orDefault(&spec.RequestTimeout, 30*time.Second)
	runCtx, cancel := context.WithTimeout(ctx, spec.Duration)
	defer cancel()

	warmTimer := time.AfterFunc(spec.Warmup, rec.StartMeasuring)
	defer warmTimer.Stop()
	defer rec.StopMeasuring()

	var wg sync.WaitGroup
	var inFlight sync.WaitGroup
	for i, key := range spec.SensorKeys {
		wg.Add(1)
		go func(i int, key string) {
			defer wg.Done()
			// Stagger sensors uniformly across the request period so load
			// is smooth rather than a once-a-second thundering herd.
			offset := time.Duration(int64(i) * int64(spec.RequestEvery) / int64(len(spec.SensorKeys)))
			select {
			case <-runCtx.Done():
				return
			case <-time.After(offset):
			}
			salt := rand.New(rand.NewSource(spec.Seed + int64(i))).Int63()
			ticker := time.NewTicker(spec.RequestEvery)
			defer ticker.Stop()
			for seq := 0; ; seq++ {
				inFlight.Add(1)
				go func(seq int) {
					defer inFlight.Done()
					sendInsert(runCtx, p, spec, key, seq, salt, rec)
				}(seq)
				select {
				case <-runCtx.Done():
					return
				case <-ticker.C:
				}
			}
		}(i, key)
	}
	if spec.UserQueries {
		for org := 0; org < spec.Orgs; org++ {
			wg.Add(1)
			go func(org int) {
				defer wg.Done()
				driveOrgQueries(runCtx, p, spec, org, rec)
			}(org)
		}
	}
	wg.Wait()
	// Give stragglers a moment, then stop counting.
	done := make(chan struct{})
	go func() { inFlight.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(spec.RequestTimeout):
	}
	return nil

}

// sendInsert issues one ingestion request and records it.
func sendInsert(ctx context.Context, p *shm.Platform, spec LoadSpec, sensor string, seq int, salt int64, rec *Recorder) {
	per := make([][]float64, spec.Channels)
	for c := range per {
		pts := make([]float64, spec.PointsPerChannel)
		base := float64((salt+int64(seq))%1000) / 10
		for j := range pts {
			pts[j] = base + float64(j)*0.1
		}
		per[c] = pts
	}
	reqCtx, cancel := context.WithTimeout(ctx, spec.RequestTimeout)
	defer cancel()
	startedAt := time.Now()
	err := p.Ingest(reqCtx, sensor, startedAt, per)
	if ctx.Err() != nil && err != nil {
		return // run ended mid-request; not a measurement
	}
	rec.Record(ReqInsert, time.Since(startedAt), err)
}

// driveOrgQueries issues one live-data and one raw-data request per
// second for one organization, the paper's user-interaction model.
func driveOrgQueries(ctx context.Context, p *shm.Platform, spec LoadSpec, org int, rec *Recorder) {
	orgKey := shm.OrgKey(org)
	// Discover the org's channels once for raw-data targeting.
	var channels []string
	discoverCtx, cancel := context.WithTimeout(ctx, spec.RequestTimeout)
	v, err := p.Runtime().Call(discoverCtx,
		core.ID{Kind: shm.KindOrganization, Key: orgKey}, shm.GetChannels{})
	cancel()
	if err == nil {
		channels = v.([]string)
	}
	ticker := time.NewTicker(spec.RequestEvery)
	defer ticker.Stop()
	rng := rand.New(rand.NewSource(spec.Seed + int64(org)*7919))
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
		go func() {
			reqCtx, cancel := context.WithTimeout(ctx, spec.RequestTimeout)
			defer cancel()
			startedAt := time.Now()
			_, err := p.LiveData(reqCtx, orgKey)
			if ctx.Err() == nil || err == nil {
				rec.Record(ReqLive, time.Since(startedAt), err)
			}
		}()
		if len(channels) > 0 {
			ch := channels[rng.Intn(len(channels))]
			go func() {
				reqCtx, cancel := context.WithTimeout(ctx, spec.RequestTimeout)
				defer cancel()
				now := time.Now()
				startedAt := now
				_, err := p.RawData(reqCtx, ch, now.Add(-time.Minute), now)
				if ctx.Err() == nil || err == nil {
					rec.Record(ReqRaw, time.Since(startedAt), err)
				}
			}()
		}
	}
}
