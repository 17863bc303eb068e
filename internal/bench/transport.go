package bench

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/codec"
	"aodb/internal/metrics"
	"aodb/internal/transport"
)

// Transport microbenchmark: cross-silo request/response round trips over
// real loopback TCP, write coalescing vs the NoBatching baseline, at
// increasing caller counts. This isolates the wire path the same way the
// paper's Figure 7 isolates scale-out: if the transport ceiling moves,
// the scale-out curve has headroom.

type tbPayload struct {
	Seq  int
	Data []byte
}

type tbReply struct{ Seq int }

func init() {
	codec.Register(tbPayload{})
	codec.Register(tbReply{})
}

// TransportBenchConfig shapes one transport measurement point.
type TransportBenchConfig struct {
	Callers    int
	Duration   time.Duration
	NoBatching bool
	Payload    int // payload bytes per request; 0 = 256
}

// TransportBenchResult is one measured point.
type TransportBenchResult struct {
	Config         TransportBenchConfig
	Frames         int64   // round trips completed in Duration
	FramesPerSec   float64 // request frames/s on the caller's wire
	FramesPerFlush float64 // caller-side write coalescing factor
	Latency        metrics.Snapshot
	Errors         int64
}

func (c TransportBenchConfig) mode() string {
	if c.NoBatching {
		return "nobatch"
	}
	return "batch"
}

// TransportBench runs one point: Callers goroutines issue back-to-back
// calls to a peer silo over loopback TCP for Duration, against either
// the coalescing writer or the NoBatching baseline.
func TransportBench(ctx context.Context, cfg TransportBenchConfig) (TransportBenchResult, error) {
	if cfg.Callers <= 0 {
		cfg.Callers = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 3 * time.Second
	}
	if cfg.Payload <= 0 {
		cfg.Payload = 256
	}
	// The caller endpoint gets its own registry so frames-per-flush
	// reflects the request path, not the peer's reply flushes.
	reg := metrics.NewRegistry()
	opts := transport.TCPOptions{NoBatching: cfg.NoBatching, Metrics: reg}
	caller, err := transport.NewTCPWithOptions("bench-caller", "127.0.0.1:0", opts)
	if err != nil {
		return TransportBenchResult{}, err
	}
	defer caller.Close()
	peerOpts := transport.TCPOptions{NoBatching: cfg.NoBatching}
	peer, err := transport.NewTCPWithOptions("bench-peer", "127.0.0.1:0", peerOpts)
	if err != nil {
		return TransportBenchResult{}, err
	}
	defer peer.Close()
	caller.SetPeer("bench-peer", peer.Addr())
	if err := peer.Register("bench-peer", func(_ context.Context, req transport.Request) (any, error) {
		return tbReply{Seq: req.Payload.(tbPayload).Seq}, nil
	}); err != nil {
		return TransportBenchResult{}, err
	}
	// Warm every stripe the key set will hit so dials land outside the
	// measurement window.
	warmCtx, cancelWarm := context.WithTimeout(ctx, 5*time.Second)
	for i := 0; i < 64; i++ {
		if _, err := caller.Call(warmCtx, "bench-peer", transport.Request{
			TargetKey: fmt.Sprintf("actor-%d", i), Payload: tbPayload{Seq: i},
		}); err != nil {
			cancelWarm()
			return TransportBenchResult{}, fmt.Errorf("warmup: %w", err)
		}
	}
	cancelWarm()

	framesBase := reg.Counter("transport.frames.sent").Value()
	flushesBase := reg.Counter("transport.flushes").Value()
	lat := metrics.NewHistogram()
	data := make([]byte, cfg.Payload)

	runCtx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()
	var frames, errs atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.Callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			seq := 0
			for runCtx.Err() == nil {
				seq++
				key := fmt.Sprintf("actor-%d", (c*31+seq)%64)
				t0 := time.Now()
				_, err := caller.Call(runCtx, "bench-peer", transport.Request{
					TargetKey: key, Payload: tbPayload{Seq: seq, Data: data},
				})
				if err != nil {
					if runCtx.Err() == nil {
						errs.Add(1)
					}
					continue
				}
				lat.RecordDuration(time.Since(t0))
				frames.Add(1)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	sent := reg.Counter("transport.frames.sent").Value() - framesBase
	flushes := reg.Counter("transport.flushes").Value() - flushesBase
	res := TransportBenchResult{
		Config:       cfg,
		Frames:       frames.Load(),
		FramesPerSec: float64(frames.Load()) / elapsed.Seconds(),
		Latency:      lat.Snapshot(),
		Errors:       errs.Load(),
	}
	if flushes > 0 {
		res.FramesPerFlush = float64(sent) / float64(flushes)
	}
	return res, nil
}

// TransportSweep runs the standard grid: batch and nobatch at 1, 8, and
// 64 concurrent callers.
func TransportSweep(ctx context.Context, duration time.Duration) ([]TransportBenchResult, error) {
	var out []TransportBenchResult
	for _, noBatch := range []bool{true, false} {
		for _, callers := range []int{1, 8, 64} {
			r, err := TransportBench(ctx, TransportBenchConfig{
				Callers: callers, Duration: duration, NoBatching: noBatch,
			})
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// PrintTransportBench renders the sweep the way EXPERIMENTS.md tabulates
// it: per mode and caller count, frames/s, coalescing factor, and
// latency percentiles.
func PrintTransportBench(w io.Writer, results []TransportBenchResult) {
	fmt.Fprintln(w, "Transport microbenchmark — cross-silo calls over loopback TCP")
	tw := newTable(w)
	fmt.Fprintln(tw, "mode\tcallers\tframes/s\tframes/flush\tp50\tp99\terrors")
	for _, r := range results {
		fpf := "-"
		if r.FramesPerFlush > 0 {
			fpf = fmt.Sprintf("%.1f", r.FramesPerFlush)
		}
		fmt.Fprintf(tw, "%s\t%d\t%.0f\t%s\t%s\t%s\t%d\n",
			r.Config.mode(), r.Config.Callers, r.FramesPerSec, fpf,
			ms(r.Latency.PercentileDuration(50)), ms(r.Latency.PercentileDuration(99)), r.Errors)
	}
	tw.Flush()
}
