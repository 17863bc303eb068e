// Package ratelimit implements a token-bucket rate limiter.
//
// Two subsystems in this repository consume it: the kvstore's provisioned
// throughput (the DynamoDB "200 reads / 200 writes per second" analog from
// the paper's experimental setup) and the capacity package's simulated
// server CPU. The limiter is clock-driven so tests can run it against a
// fake clock.
package ratelimit

import (
	"context"
	"sync"
	"time"

	"aodb/internal/clock"
)

// Bucket is a token bucket refilled continuously at Rate tokens/second up
// to Burst tokens.
type Bucket struct {
	mu     sync.Mutex
	clk    clock.Clock
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
}

// NewBucket returns a full bucket with the given sustained rate and burst
// capacity. A zero or negative rate panics: a limiter that can never refill
// is a configuration bug, not a policy.
func NewBucket(clk clock.Clock, rate float64, burst float64) *Bucket {
	if rate <= 0 {
		panic("ratelimit: rate must be positive")
	}
	if burst <= 0 {
		burst = 1
	}
	if clk == nil {
		clk = clock.Real()
	}
	return &Bucket{clk: clk, rate: rate, burst: burst, tokens: burst, last: clk.Now()}
}

func (b *Bucket) refillLocked(now time.Time) {
	elapsed := now.Sub(b.last).Seconds()
	if elapsed <= 0 {
		return
	}
	b.tokens += elapsed * b.rate
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.last = now
}

// Take blocks until n tokens are available or ctx is done. It uses
// reservation semantics: the tokens are deducted immediately (the balance
// may go negative) and the caller waits out the deficit. This makes
// requests larger than the burst capacity complete in bounded time and
// makes concurrent callers queue fairly behind each other's reservations.
// On cancellation the reservation is returned to the bucket.
func (b *Bucket) Take(ctx context.Context, n float64) error {
	b.mu.Lock()
	b.refillLocked(b.clk.Now())
	b.tokens -= n
	var wait time.Duration
	if b.tokens < 0 {
		wait = time.Duration(-b.tokens / b.rate * float64(time.Second))
	}
	b.mu.Unlock()
	if wait <= 0 {
		return nil
	}
	timer := b.clk.NewTimer(wait)
	select {
	case <-ctx.Done():
		timer.Stop()
		b.mu.Lock()
		b.tokens += n
		b.mu.Unlock()
		return ctx.Err()
	case <-timer.C():
		return nil
	}
}
