package transport

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aodb/internal/metrics"
)

// benchKeys spreads benchmark traffic over 64 actor keys (and thus over
// the connection stripes).
func benchKeys() []string {
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("actor-%d", i)
	}
	return keys
}

// BenchmarkTransportCall measures cross-silo request/response round
// trips over real loopback TCP, batching vs the NoBatching baseline, at
// 1, 8 and 64 concurrent callers. Throughput is the inverse of ns/op; the
// frames/flush metric shows how much write coalescing the load level
// actually buys (1.0 by construction for the baseline), and p50-µs and
// p99-µs are the round trip's latency percentiles.
func BenchmarkTransportCall(b *testing.B) {
	for _, mode := range []struct {
		name    string
		noBatch bool
	}{
		{"batch", false},
		{"nobatch", true},
	} {
		for _, callers := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/callers=%d", mode.name, callers), func(b *testing.B) {
				reg := metrics.NewRegistry() // caller side only: request-path flushes
				a, err := NewTCPWithOptions("bench-a", "127.0.0.1:0", TCPOptions{NoBatching: mode.noBatch, Metrics: reg})
				if err != nil {
					b.Fatal(err)
				}
				defer a.Close()
				peer, err := NewTCPWithOptions("bench-b", "127.0.0.1:0", TCPOptions{NoBatching: mode.noBatch})
				if err != nil {
					b.Fatal(err)
				}
				defer peer.Close()
				a.SetPeer("bench-b", peer.Addr())
				if err := peer.Register("bench-b", echoHandler); err != nil {
					b.Fatal(err)
				}
				// Warm the connections so dials don't land in the timing.
				if _, err := a.Call(context.Background(), "bench-b", Request{TargetKey: "warm", Payload: testPayload{0}}); err != nil {
					b.Fatal(err)
				}
				framesBase := reg.Counter("transport.frames.sent").Value()
				flushesBase := reg.Counter("transport.flushes").Value()
				// Key strings are precomputed so the loop measures the
				// transport, not fmt.
				keys := benchKeys()
				lat := metrics.NewHistogram()

				b.ResetTimer()
				var next atomic.Int64
				var wg sync.WaitGroup
				for c := 0; c < callers; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						ctx := context.Background()
						for {
							i := next.Add(1)
							if i > int64(b.N) {
								return
							}
							t0 := time.Now()
							if _, err := a.Call(ctx, "bench-b", Request{TargetKey: keys[i%64], Payload: testPayload{int(i)}}); err != nil {
								b.Error(err)
								return
							}
							lat.RecordDuration(time.Since(t0))
						}
					}(c)
				}
				wg.Wait()
				b.StopTimer()

				frames := reg.Counter("transport.frames.sent").Value() - framesBase
				flushes := reg.Counter("transport.flushes").Value() - flushesBase
				if flushes > 0 {
					b.ReportMetric(float64(frames)/float64(flushes), "frames/flush")
				}
				snap := lat.Snapshot()
				b.ReportMetric(float64(snap.PercentileDuration(50))/1e3, "p50-µs")
				b.ReportMetric(float64(snap.PercentileDuration(99))/1e3, "p99-µs")
			})
		}
	}
}
