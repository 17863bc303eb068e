// Package ingest provides a bounded buffering queue between device
// endpoints and the data platform. The paper's Section 6.1 notes that in
// a production deployment "message queues can be employed to accommodate
// for bursty behavior in sensor measurements" — this is that component:
// bursts are absorbed by the buffer and drained into the actor runtime at
// the platform's pace, with an explicit overload policy instead of
// unbounded memory growth.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"aodb/internal/metrics"
)

// ErrFull is returned by Submit under PolicyReject when the buffer is at
// capacity.
var ErrFull = errors.New("ingest: queue full")

// ErrClosed is returned by Submit after Close.
var ErrClosed = errors.New("ingest: queue closed")

// Policy selects the overload behaviour.
type Policy int

// Overload policies.
const (
	// PolicyReject fails Submit when the buffer is full (backpressure to
	// the device / gateway).
	PolicyReject Policy = iota
	// PolicyDropOldest evicts the oldest buffered item to admit the new
	// one (fresh sensor readings are usually worth more than stale ones).
	PolicyDropOldest
	// PolicyBlock blocks Submit until space frees up.
	PolicyBlock
)

// Handler drains one item into the platform.
type Handler[T any] func(ctx context.Context, item T) error

// Config tunes a Queue.
type Config struct {
	// Capacity is the buffer bound (default 1024).
	Capacity int
	// Workers is the number of concurrent drainers (default 4).
	Workers int
	// Policy is the overload policy (default PolicyReject).
	Policy Policy
	// Metrics receives queue instrumentation; nil allocates one.
	Metrics *metrics.Registry
}

// Queue is a bounded multi-producer buffer drained by worker goroutines.
type Queue[T any] struct {
	mu      sync.Mutex
	notFull *sync.Cond
	items   []T // ring buffer
	head    int
	count   int
	closed  bool

	notify  chan struct{}
	handler Handler[T]
	policy  Policy
	reg     *metrics.Registry
	wg      sync.WaitGroup
	ctx     context.Context
	cancel  context.CancelFunc
}

// New starts a queue draining into handler.
func New[T any](handler Handler[T], cfg Config) (*Queue[T], error) {
	if handler == nil {
		return nil, errors.New("ingest: nil handler")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1024
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Metrics == nil {
		cfg.Metrics = metrics.NewRegistry()
	}
	ctx, cancel := context.WithCancel(context.Background())
	q := &Queue[T]{
		items:   make([]T, cfg.Capacity),
		notify:  make(chan struct{}, 1),
		handler: handler,
		policy:  cfg.Policy,
		reg:     cfg.Metrics,
		ctx:     ctx,
		cancel:  cancel,
	}
	q.notFull = sync.NewCond(&q.mu)
	for i := 0; i < cfg.Workers; i++ {
		q.wg.Add(1)
		go q.drain()
	}
	return q, nil
}

// Submit offers one item according to the overload policy.
func (q *Queue[T]) Submit(item T) error {
	q.mu.Lock()
	for {
		if q.closed {
			q.mu.Unlock()
			return ErrClosed
		}
		if q.count < len(q.items) {
			break
		}
		switch q.policy {
		case PolicyReject:
			q.mu.Unlock()
			q.reg.Counter("ingest.rejected").Inc()
			return ErrFull
		case PolicyDropOldest:
			q.head = (q.head + 1) % len(q.items)
			q.count--
			q.reg.Counter("ingest.dropped").Inc()
		case PolicyBlock:
			q.notFull.Wait()
		default:
			q.mu.Unlock()
			return fmt.Errorf("ingest: unknown policy %d", q.policy)
		}
	}
	q.items[(q.head+q.count)%len(q.items)] = item
	q.count++
	q.reg.Counter("ingest.enqueued").Inc()
	q.reg.Gauge("ingest.depth").Set(int64(q.count))
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
	return nil
}

// pop removes the oldest item, blocking via the notify channel.
func (q *Queue[T]) pop() (T, bool) {
	var zero T
	for {
		q.mu.Lock()
		if q.count > 0 {
			item := q.items[q.head]
			q.items[q.head] = zero // release reference
			q.head = (q.head + 1) % len(q.items)
			q.count--
			q.reg.Gauge("ingest.depth").Set(int64(q.count))
			q.notFull.Signal()
			remaining := q.count
			q.mu.Unlock()
			if remaining > 0 {
				select {
				case q.notify <- struct{}{}:
				default:
				}
			}
			return item, true
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return zero, false
		}
		select {
		case <-q.notify:
		case <-q.ctx.Done():
			// Re-check: Close drains remaining items before stopping.
			q.mu.Lock()
			empty := q.count == 0
			q.mu.Unlock()
			if empty {
				return zero, false
			}
		}
	}
}

func (q *Queue[T]) drain() {
	defer q.wg.Done()
	for {
		item, ok := q.pop()
		if !ok {
			return
		}
		// The queue's own ctx only signals worker wake-up; items accepted
		// before Close still drain with a live context.
		if err := q.handler(context.Background(), item); err != nil {
			q.reg.Counter("ingest.handler_errors").Inc()
		} else {
			q.reg.Counter("ingest.drained").Inc()
		}
	}
}

// Metrics exposes the queue's registry.
func (q *Queue[T]) Metrics() *metrics.Registry { return q.reg }

// Close stops accepting items, drains the buffer, and waits for workers.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		q.wg.Wait()
		return
	}
	q.closed = true
	q.notFull.Broadcast()
	q.mu.Unlock()
	// Cancelling the queue context unblocks every worker waiting for
	// items (a closed Done channel wakes all of them, unlike the notify
	// channel); workers then drain what remains and exit.
	q.cancel()
	q.wg.Wait()
}
