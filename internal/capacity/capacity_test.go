package capacity

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNilLimiterRunsImmediately(t *testing.T) {
	var l *Limiter
	ran := false
	if err := l.execute(context.Background(), time.Hour, func() error { ran = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("fn not run")
	}
	if l.InUse() != 0 {
		t.Fatal("nil limiter InUse != 0")
	}
}

func TestExecutePropagatesError(t *testing.T) {
	l := NewLimiter(Profile{Workers: 1, Speed: 1}, nil)
	want := errors.New("boom")
	if err := l.execute(context.Background(), 0, func() error { return want }); !errors.Is(err, want) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestConcurrencyBoundedByWorkers(t *testing.T) {
	l := NewLimiter(Profile{Workers: 3, Speed: 1}, nil)
	var inFlight, peak atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.execute(context.Background(), 0, func() error {
				cur := inFlight.Add(1)
				for {
					p := peak.Load()
					if cur <= p || peak.CompareAndSwap(p, cur) {
						break
					}
				}
				time.Sleep(5 * time.Millisecond)
				inFlight.Add(-1)
				return nil
			})
		}()
	}
	wg.Wait()
	if got := peak.Load(); got > 3 {
		t.Fatalf("peak concurrency = %d, want <= 3", got)
	}
}

func TestThroughputMatchesCapacity(t *testing.T) {
	// 2 workers at speed 1 with 1ms cost -> ~2000 turns/s.
	l := NewLimiter(Profile{Workers: 2, Speed: 1}, nil)
	const n = 200
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.execute(context.Background(), time.Millisecond, func() error { return nil })
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Ideal: 100ms. Allow generous overhead but catch both "no limiting"
	// (finishes in ~1ms) and "serial execution" (~200ms+ would be fine,
	// but 10x over means workers aren't parallel).
	if elapsed < 80*time.Millisecond {
		t.Fatalf("200 turns of 1ms on 2 workers took %v, want >= ~100ms", elapsed)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("200 turns of 1ms on 2 workers took %v, workers not concurrent", elapsed)
	}
}

func TestSpeedScalesCost(t *testing.T) {
	fast := NewLimiter(Profile{Workers: 1, Speed: 4}, nil)
	start := time.Now()
	for i := 0; i < 10; i++ {
		fast.execute(context.Background(), 4*time.Millisecond, func() error { return nil })
	}
	elapsed := time.Since(start)
	// 10 turns x 4ms / speed 4 = ~10ms.
	if elapsed > 40*time.Millisecond {
		t.Fatalf("fast worker took %v, speed scaling not applied", elapsed)
	}
}

func TestExecuteCancelWhileQueued(t *testing.T) {
	l := NewLimiter(Profile{Workers: 1, Speed: 1}, nil)
	release := make(chan struct{})
	go l.execute(context.Background(), 0, func() error { <-release; return nil })
	time.Sleep(10 * time.Millisecond) // let the first turn take the slot
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	err := l.execute(ctx, 0, func() error { return nil })
	close(release)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued Execute = %v, want DeadlineExceeded", err)
	}
}

func TestExecuteCancelDuringBurn(t *testing.T) {
	l := NewLimiter(Profile{Workers: 1, Speed: 1}, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := l.execute(ctx, time.Hour, func() error { return nil })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancel during burn did not release promptly")
	}
	if l.InUse() != 0 {
		t.Fatal("slot leaked after cancelled burn")
	}
}

func TestProfileCapacity(t *testing.T) {
	// The calibration the benchmarks rely on: with a 1.1ms insert cost,
	// an m5.large sustains ~1800 req/s and an m5.xlarge 1.5x that.
	cost := 1100 * time.Microsecond
	large := M5Large.Capacity(cost)
	xlarge := M5XLarge.Capacity(cost)
	if large < 1700 || large > 1900 {
		t.Fatalf("m5.large capacity = %.0f, want ~1818", large)
	}
	ratio := xlarge / large
	if ratio < 1.45 || ratio > 1.55 {
		t.Fatalf("xlarge/large ratio = %.2f, want 1.5 (ECU ratio)", ratio)
	}
	if M5Large.Capacity(0) != 0 {
		t.Fatal("zero cost capacity should be 0 (undefined)")
	}
}

func TestDefaultsAppliedToDegenerateProfile(t *testing.T) {
	l := NewLimiter(Profile{}, nil)
	if l.Profile().Workers != 1 || l.Profile().Speed != 1 {
		t.Fatalf("profile = %+v, want defaults 1/1", l.Profile())
	}
}

// execute runs fn with no timing probe.
func (l *Limiter) execute(ctx context.Context, cost time.Duration, fn func() error) error {
	return l.ExecuteTimed(ctx, cost, fn, nil)
}
