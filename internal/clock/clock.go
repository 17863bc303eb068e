// Package clock abstracts time for the AODB runtime.
//
// Production code uses the wall clock; tests and deterministic simulations
// use a fake clock that only advances when told to. Every component in this
// repository that needs time (idle-activation collection, token
// buckets, latency windows) takes a Clock so its behaviour is testable
// without real sleeps.
package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock provides the time operations the runtime needs.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// After returns a channel that delivers the current time after d.
	After(d time.Duration) <-chan time.Time
	// Sleep blocks for d.
	Sleep(d time.Duration)
	// NewTimer returns a timer that fires once after d.
	NewTimer(d time.Duration) Timer
	// NewTicker returns a ticker that fires every d.
	NewTicker(d time.Duration) Ticker
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
}

// Timer is the subset of *time.Timer the runtime uses.
type Timer interface {
	C() <-chan time.Time
	Stop() bool
	Reset(d time.Duration) bool
}

// Ticker is the subset of *time.Ticker the runtime uses.
type Ticker interface {
	C() <-chan time.Time
	Stop()
}

// Real returns a Clock backed by the system clock.
func Real() Clock { return realClock{} }

type realClock struct{}

func (realClock) Now() time.Time                         { return time.Now() }
func (realClock) After(d time.Duration) <-chan time.Time { return time.After(d) }
func (realClock) Sleep(d time.Duration)                  { time.Sleep(d) }
func (realClock) Since(t time.Time) time.Duration        { return time.Since(t) }
func (realClock) NewTimer(d time.Duration) Timer         { return realTimer{time.NewTimer(d)} }
func (realClock) NewTicker(d time.Duration) Ticker       { return realTicker{time.NewTicker(d)} }

type realTimer struct{ t *time.Timer }

func (t realTimer) C() <-chan time.Time        { return t.t.C }
func (t realTimer) Stop() bool                 { return t.t.Stop() }
func (t realTimer) Reset(d time.Duration) bool { return t.t.Reset(d) }

type realTicker struct{ t *time.Ticker }

func (t realTicker) C() <-chan time.Time { return t.t.C }
func (t realTicker) Stop()               { t.t.Stop() }

// Fake is a manually advanced clock for deterministic tests.
//
// Advance moves time forward and fires, in order, every timer whose deadline
// has been reached. A Fake clock never fires timers spontaneously.
type Fake struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     int64
}

// NewFake returns a fake clock starting at start.
func NewFake(start time.Time) *Fake {
	return &Fake{now: start}
}

// Now returns the fake current time.
func (f *Fake) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

// Since returns the fake elapsed time since t.
func (f *Fake) Since(t time.Time) time.Duration { return f.Now().Sub(t) }

// Advance moves the clock forward by d, firing due timers in deadline order.
func (f *Fake) Advance(d time.Duration) {
	f.mu.Lock()
	target := f.now.Add(d)
	for len(f.waiters) > 0 && !f.waiters[0].at.After(target) {
		w := heap.Pop(&f.waiters).(*waiter)
		f.now = w.at
		if w.period > 0 {
			w.at = w.at.Add(w.period)
			w.seq = f.nextSeq()
			heap.Push(&f.waiters, w)
		} else {
			w.stopped = true
		}
		// Deliver without holding the lock ordering issues: channel is
		// buffered, so a non-blocking send suffices (ticker semantics drop
		// ticks nobody consumed).
		select {
		case w.ch <- f.now:
		default:
		}
	}
	f.now = target
	f.mu.Unlock()
}

// After returns a channel that fires once d of fake time has been advanced.
func (f *Fake) After(d time.Duration) <-chan time.Time {
	return f.NewTimer(d).C()
}

// Sleep on a fake clock blocks until the clock has been advanced past d by
// another goroutine.
func (f *Fake) Sleep(d time.Duration) { <-f.After(d) }

// NewTimer returns a fake timer firing after d of advanced time.
func (f *Fake) NewTimer(d time.Duration) Timer {
	f.mu.Lock()
	defer f.mu.Unlock()
	w := &waiter{ch: make(chan time.Time, 1), at: f.now.Add(d), seq: f.nextSeq()}
	heap.Push(&f.waiters, w)
	return &fakeTimer{f: f, w: w}
}

// NewTicker returns a fake ticker firing every d of advanced time.
func (f *Fake) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker period")
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	w := &waiter{ch: make(chan time.Time, 1), at: f.now.Add(d), period: d, seq: f.nextSeq()}
	heap.Push(&f.waiters, w)
	return &fakeTicker{f: f, w: w}
}

func (f *Fake) nextSeq() int64 {
	f.seq++
	return f.seq
}

func (f *Fake) remove(w *waiter) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if w.stopped {
		return false
	}
	w.stopped = true
	for i, o := range f.waiters {
		if o == w {
			heap.Remove(&f.waiters, i)
			break
		}
	}
	return true
}

type waiter struct {
	ch      chan time.Time
	at      time.Time
	period  time.Duration // 0 for one-shot timers
	seq     int64         // tiebreak for equal deadlines: FIFO
	stopped bool
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if h[i].at.Equal(h[j].at) {
		return h[i].seq < h[j].seq
	}
	return h[i].at.Before(h[j].at)
}
func (h waiterHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x any)   { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() any     { old := *h; n := len(old); w := old[n-1]; *h = old[:n-1]; return w }

type fakeTimer struct {
	f *Fake
	w *waiter
}

func (t *fakeTimer) C() <-chan time.Time { return t.w.ch }
func (t *fakeTimer) Stop() bool          { return t.f.remove(t.w) }

func (t *fakeTimer) Reset(d time.Duration) bool {
	active := t.f.remove(t.w)
	t.f.mu.Lock()
	t.w.stopped = false
	t.w.at = t.f.now.Add(d)
	t.w.seq = t.f.nextSeq()
	heap.Push(&t.f.waiters, t.w)
	t.f.mu.Unlock()
	return active
}

type fakeTicker struct {
	f *Fake
	w *waiter
}

func (t *fakeTicker) C() <-chan time.Time { return t.w.ch }
func (t *fakeTicker) Stop()               { t.f.remove(t.w) }
