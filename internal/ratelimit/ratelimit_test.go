package ratelimit

import (
	"context"
	"errors"
	"testing"
	"time"

	"aodb/internal/clock"
)

// tryTake takes n tokens only if the bucket holds them now: Take with a
// context that is already done refunds a reservation it would wait for.
func tryTake(b *Bucket, n float64) error {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return b.Take(ctx, n)
}

func TestNewBucketStartsFull(t *testing.T) {
	f := clock.NewFake(time.Unix(0, 0))
	b := NewBucket(f, 10, 5)
	if err := tryTake(b, 5); err != nil {
		t.Fatalf("full bucket refused its burst: %v", err)
	}
	if err := tryTake(b, 0.01); err == nil {
		t.Fatal("bucket held more than its burst")
	}
}

func TestNewBucketPanicsOnZeroRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewBucket(0 rate) did not panic")
		}
	}()
	NewBucket(nil, 0, 1)
}

func TestTryTakeDrainsThenBlocks(t *testing.T) {
	f := clock.NewFake(time.Unix(0, 0))
	b := NewBucket(f, 10, 3)
	for i := 0; i < 3; i++ {
		if err := tryTake(b, 1); err != nil {
			t.Fatalf("tryTake %d failed: %v", i, err)
		}
	}
	if err := tryTake(b, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("tryTake on empty bucket = %v, want it to refuse", err)
	}
}

func TestRefillOverTime(t *testing.T) {
	f := clock.NewFake(time.Unix(0, 0))
	b := NewBucket(f, 10, 10)
	if err := tryTake(b, 10); err != nil {
		t.Fatal(err)
	}
	f.Advance(500 * time.Millisecond) // 5 tokens back
	if err := tryTake(b, 4.99); err != nil {
		t.Fatalf("~5 tokens not back after 500ms: %v", err)
	}
	if err := tryTake(b, 0.02); err == nil {
		t.Fatal("more than ~5 tokens back after 500ms")
	}
}

func TestRefillCapsAtBurst(t *testing.T) {
	f := clock.NewFake(time.Unix(0, 0))
	b := NewBucket(f, 100, 10)
	f.Advance(time.Hour)
	if err := tryTake(b, 10); err != nil {
		t.Fatalf("burst not refilled: %v", err)
	}
	if err := tryTake(b, 0.01); err == nil {
		t.Fatal("refill exceeded the burst cap of 10")
	}
}

func TestTakeBlocksUntilRefill(t *testing.T) {
	f := clock.NewFake(time.Unix(0, 0))
	b := NewBucket(f, 10, 1)
	if err := tryTake(b, 1); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- b.Take(context.Background(), 1) }()
	select {
	case err := <-done:
		t.Fatalf("Take returned %v before refill", err)
	case <-time.After(20 * time.Millisecond):
	}
	// Advance enough fake time for one token; Take may need a couple of
	// timer rounds, so keep advancing until it completes.
	deadline := time.After(2 * time.Second)
	for {
		f.Advance(200 * time.Millisecond)
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("Take = %v", err)
			}
			return
		case <-deadline:
			t.Fatal("Take did not complete after refill")
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func TestTakeRespectsContextCancel(t *testing.T) {
	f := clock.NewFake(time.Unix(0, 0))
	b := NewBucket(f, 1, 1)
	if err := tryTake(b, 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.Take(ctx, 1) }()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Take = %v, want context.Canceled", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Take did not return on cancel")
	}
}

func TestTakeLargerThanBurst(t *testing.T) {
	// Requests above burst must still complete (balance goes negative
	// conceptually via repeated waits).
	b := NewBucket(clock.Real(), 1000, 10)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	if err := b.Take(ctx, 50); err != nil {
		t.Fatalf("Take(50) = %v", err)
	}
	if elapsed := time.Since(start); elapsed < 30*time.Millisecond {
		t.Fatalf("Take(50) returned in %v, want >=~40ms of refill wait", elapsed)
	}
}

func TestSustainedRateRealClock(t *testing.T) {
	b := NewBucket(clock.Real(), 2000, 1)
	start := time.Now()
	n := 200
	for i := 0; i < n; i++ {
		if err := b.Take(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	want := time.Duration(float64(n) / 2000 * float64(time.Second))
	if elapsed < want/2 {
		t.Fatalf("200 takes at 2000/s finished in %v, faster than the rate allows (~%v)", elapsed, want)
	}
}
