package ingest

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSubmitAndDrain(t *testing.T) {
	var drained atomic.Int32
	q, err := New(func(_ context.Context, item int) error {
		drained.Add(1)
		return nil
	}, Config{Capacity: 16, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := q.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	if got := drained.Load(); got != 10 {
		t.Fatalf("drained = %d, want 10", got)
	}
}

func TestNilHandlerRejected(t *testing.T) {
	if _, err := New[int](nil, Config{}); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestCloseDrainsBacklog(t *testing.T) {
	release := make(chan struct{})
	var order []int
	var mu sync.Mutex
	q, err := New(func(_ context.Context, item int) error {
		<-release
		mu.Lock()
		order = append(order, item)
		mu.Unlock()
		return nil
	}, Config{Capacity: 64, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := q.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	close(release)
	q.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 20 {
		t.Fatalf("drained %d of 20 buffered items at close", len(order))
	}
	// Single worker: FIFO order must hold.
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d: FIFO violated (%v)", i, v, order)
		}
	}
}

func TestSubmitAfterClose(t *testing.T) {
	q, err := New(func(context.Context, int) error { return nil }, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q.Close()
	if err := q.Submit(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	q.Close() // idempotent
}

func TestPolicyRejectOnFull(t *testing.T) {
	block := make(chan struct{})
	q, err := New(func(_ context.Context, item int) error {
		<-block
		return nil
	}, Config{Capacity: 4, Workers: 1, Policy: PolicyReject})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { close(block); q.Close() }()
	// 1 item stuck in the worker + 4 buffered; within a few extra
	// submits we must see ErrFull.
	var full bool
	for i := 0; i < 8; i++ {
		if err := q.Submit(i); errors.Is(err, ErrFull) {
			full = true
			break
		}
	}
	if !full {
		t.Fatal("queue never reported ErrFull")
	}
	if q.Metrics().Counter("ingest.rejected").Value() == 0 {
		t.Fatal("rejections not counted")
	}
}

func TestPolicyDropOldest(t *testing.T) {
	block := make(chan struct{})
	var got []int
	var mu sync.Mutex
	q, err := New(func(_ context.Context, item int) error {
		<-block
		mu.Lock()
		got = append(got, item)
		mu.Unlock()
		return nil
	}, Config{Capacity: 3, Workers: 1, Policy: PolicyDropOldest})
	if err != nil {
		t.Fatal(err)
	}
	// Stall the worker on item 0, fill buffer with 1,2,3, then push 4,5:
	// 1 and 2 must be evicted.
	if err := q.Submit(0); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to take item 0 out of the buffer.
	deadline := time.Now().Add(time.Second)
	for q.Metrics().Gauge("ingest.depth").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up item 0")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 1; i <= 5; i++ {
		if err := q.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	close(block)
	q.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(got) != 4 || got[0] != 0 || got[1] != 3 || got[2] != 4 || got[3] != 5 {
		t.Fatalf("drained %v, want [0 3 4 5] (oldest dropped)", got)
	}
	if q.Metrics().Counter("ingest.dropped").Value() != 2 {
		t.Fatalf("dropped = %d, want 2", q.Metrics().Counter("ingest.dropped").Value())
	}
}

func TestPolicyBlockWaitsForSpace(t *testing.T) {
	release := make(chan struct{})
	q, err := New(func(_ context.Context, item int) error {
		<-release
		return nil
	}, Config{Capacity: 2, Workers: 1, Policy: PolicyBlock})
	if err != nil {
		t.Fatal(err)
	}
	// Fill: 1 in worker (after pickup) + 2 buffered.
	for i := 0; i < 3; i++ {
		if err := q.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	// Next submit must block until the worker finishes one item.
	done := make(chan error, 1)
	go func() { done <- q.Submit(99) }()
	select {
	case err := <-done:
		t.Fatalf("Submit returned %v while full", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("blocked Submit never completed")
	}
	q.Close()
}

func TestBurstAbsorption(t *testing.T) {
	// The design goal: a burst far above the drain rate is absorbed by
	// the buffer and fully processed.
	var drained atomic.Int32
	q, err := New(func(_ context.Context, item int) error {
		time.Sleep(100 * time.Microsecond) // slow platform
		drained.Add(1)
		return nil
	}, Config{Capacity: 2048, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if err := q.Submit(p*100 + i); err != nil {
					t.Errorf("burst submit: %v", err)
					return
				}
			}
		}(p)
	}
	wg.Wait()
	q.Close()
	if got := drained.Load(); got != 800 {
		t.Fatalf("drained = %d, want 800", got)
	}
}

func TestHandlerErrorsCounted(t *testing.T) {
	q, err := New(func(_ context.Context, item int) error {
		if item%2 == 0 {
			return errors.New("boom")
		}
		return nil
	}, Config{Capacity: 16, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := q.Submit(i); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	if got := q.Metrics().Counter("ingest.handler_errors").Value(); got != 5 {
		t.Fatalf("handler errors = %d, want 5", got)
	}
	if got := q.Metrics().Counter("ingest.drained").Value(); got != 5 {
		t.Fatalf("drained = %d, want 5", got)
	}
}

func TestDepthGauge(t *testing.T) {
	block := make(chan struct{})
	q, err := New(func(context.Context, int) error { <-block; return nil }, Config{Capacity: 8, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	q.Submit(0)
	deadline := time.Now().Add(time.Second)
	for q.Metrics().Gauge("ingest.depth").Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("item never picked up")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		q.Submit(i)
	}
	if d := q.Metrics().Gauge("ingest.depth").Value(); d != 3 {
		t.Fatalf("depth gauge = %d, want 3", d)
	}
	close(block)
	q.Close()
}
