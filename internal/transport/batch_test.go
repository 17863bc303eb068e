package transport

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aodb/internal/codec"
	"aodb/internal/metrics"
)

// newTCPPairOpts builds a connected a->b pair with explicit options on
// both ends.
func newTCPPairOpts(t *testing.T, opts TCPOptions) (*TCP, *TCP) {
	t.Helper()
	a, err := NewTCPWithOptions("silo-a", "127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPWithOptions("silo-b", "127.0.0.1:0", opts)
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.SetPeer("silo-b", b.Addr())
	b.SetPeer("silo-a", a.Addr())
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

// TestTCPWriteFailureEvictsConn: when a connection's socket breaks, the
// failed write must mark the conn dead and evict it immediately, so the
// very next call redials (the peer is still alive) instead of failing
// against the cached corpse until a read loop notices.
func TestTCPWriteFailureEvictsConn(t *testing.T) {
	t.Run("batching", func(t *testing.T) {
		a, b := newTCPPairOpts(t, TCPOptions{Stripes: 1})
		if err := b.Register("silo-b", echoHandler); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		if _, err := a.Call(ctx, "silo-b", Request{Payload: testPayload{1}}); err != nil {
			t.Fatal(err)
		}
		a.mu.Lock()
		c := a.conns["silo-b"][0]
		a.mu.Unlock()
		if c == nil {
			t.Fatal("no cached conn after first call")
		}
		// Break the socket under the transport: writes now fail.
		c.raw.Close()
		// The broken conn surfaces at most a couple of failures (the
		// dead-write call itself plus close/teardown races), then the
		// transport must redial and succeed — quickly, not after a
		// read-timeout.
		deadline := time.Now().Add(2 * time.Second)
		var lastErr error
		for time.Now().Before(deadline) {
			_, err := a.Call(ctx, "silo-b", Request{Payload: testPayload{2}})
			if err == nil {
				a.mu.Lock()
				cur := a.conns["silo-b"][0]
				a.mu.Unlock()
				if cur == c {
					t.Fatal("call succeeded on the broken conn pointer")
				}
				return
			}
			lastErr = err
			if !IsUnreachable(err) {
				t.Fatalf("broken-conn call failed with non-transient error: %v", err)
			}
		}
		t.Fatalf("never redialed after write failure: %v", lastErr)
	})
}

// TestTCPQueuedFramesFailFastOnConnDeath: many calls are queued or in
// flight when the peer dies; every caller must get a transient
// UnreachableError promptly (no stuck callers), and after the peer
// restarts the same transport must recover.
func TestTCPQueuedFramesFailFastOnConnDeath(t *testing.T) {
	caller, err := NewTCPWithOptions("caller", "127.0.0.1:0", TCPOptions{Stripes: 2, sendQueue: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	peer, err := NewTCPWithOptions("peer", "127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := peer.Addr()
	block := make(chan struct{})
	var inFlight atomic.Int32
	peer.Register("peer", func(context.Context, Request) (any, error) {
		inFlight.Add(1)
		<-block
		return testReply{}, nil
	})
	caller.SetPeer("peer", addr)

	const callers = 32
	errs := make(chan error, callers)
	for i := 0; i < callers; i++ {
		go func(i int) {
			_, err := caller.Call(context.Background(), "peer",
				Request{TargetKey: fmt.Sprintf("actor-%d", i), Payload: testPayload{i}})
			errs <- err
		}(i)
	}
	// Wait until a good portion of the load is inside the peer, the rest
	// queued in stripes or send queues.
	deadline := time.Now().Add(5 * time.Second)
	for inFlight.Load() < 8 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	closeDone := make(chan struct{})
	go func() { peer.Close(); close(closeDone) }()
	for i := 0; i < callers; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("queued call reported success across peer death")
			}
			if !IsUnreachable(err) {
				t.Fatalf("queued call failed with non-transient error: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("caller %d stuck after connection death", i)
		}
	}
	close(block)
	<-closeDone

	// Restart the peer on the same address; the caller must reconnect.
	var peer2 *TCP
	deadline = time.Now().Add(5 * time.Second)
	for {
		peer2, err = NewTCPWithOptions("peer", addr, TCPOptions{})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer peer2.Close()
	if err := peer2.Register("peer", echoHandler); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := caller.Call(context.Background(), "peer", Request{TargetKey: "actor-1", Payload: testPayload{21}})
		if err == nil {
			if resp.(testReply).N != 42 {
				t.Fatalf("resp = %v", resp)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reconnected under load: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestTCPStripedConnectionsConcurrent hammers a striped transport from
// many goroutines; run under -race this is the striping data-race check,
// and every call must succeed and return its own reply.
func TestTCPStripedConnectionsConcurrent(t *testing.T) {
	a, b := newTCPPairOpts(t, TCPOptions{Stripes: 4})
	b.Register("silo-b", func(_ context.Context, req Request) (any, error) {
		return testReply{N: req.Payload.(testPayload).N}, nil
	})
	const workers = 16
	const perWorker = 40
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < perWorker; i++ {
				key := fmt.Sprintf("actor-%d-%d", w, i%5)
				n := w*1000 + i
				resp, err := a.Call(ctx, "silo-b", Request{TargetKey: key, Payload: testPayload{n}})
				if err != nil {
					t.Errorf("worker %d call %d: %v", w, i, err)
					return
				}
				if resp.(testReply).N != n {
					t.Errorf("worker %d call %d: crossed response %v", w, i, resp)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// All stripes should have been dialed under this key spread.
	a.mu.Lock()
	dialed := 0
	for _, c := range a.conns["silo-b"] {
		if c != nil {
			dialed++
		}
	}
	a.mu.Unlock()
	if dialed < 2 {
		t.Fatalf("striping inactive: %d stripes dialed, want >= 2", dialed)
	}
}

// TestTCPReplyWriteErrorCounted: a response that cannot be written back
// (peer hung up between request and reply) must mark the server-side
// stream dead and count transport.reply_write_errors instead of
// vanishing silently.
func TestTCPReplyWriteErrorCounted(t *testing.T) {
	t.Run("batching", func(t *testing.T) {
		reg := metrics.NewRegistry()
		tp, err := NewTCPWithOptions("srv", "127.0.0.1:0", TCPOptions{Metrics: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer tp.Close()
		if err := tp.Register("srv", echoHandler); err != nil {
			t.Fatal(err)
		}
		// A pipe stands in for the accepted connection; closing the
		// far end makes every write fail immediately.
		here, there := net.Pipe()
		there.Close()
		w := tp.newWriter("", here, codec.NewBufferedStream(here, writeBuffer))
		tp.wg.Add(1)
		go w.run(&tp.wg)
		f := codec.GetFrame()
		f.ID = 7
		f.Kind = codec.FrameRequest
		f.Payload = testPayload{3}
		tp.dispatch(w, f)
		deadline := time.Now().Add(2 * time.Second)
		for reg.Counter("transport.reply_write_errors").Value() == 0 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := reg.Counter("transport.reply_write_errors").Value(); got != 1 {
			t.Fatalf("reply_write_errors = %d, want 1", got)
		}
		// The failed reply kills the stream (counting happens just
		// before the kill, so poll).
		select {
		case <-w.closed:
		case <-time.After(2 * time.Second):
			t.Fatal("writer not marked dead by reply write failure")
		}
		// A second reply on the dead stream is also counted, not hung.
		f2 := codec.GetFrame()
		f2.ID = 8
		f2.Kind = codec.FrameRequest
		f2.Payload = testPayload{4}
		tp.dispatch(w, f2)
		deadline = time.Now().Add(2 * time.Second)
		for reg.Counter("transport.reply_write_errors").Value() < 2 && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if got := reg.Counter("transport.reply_write_errors").Value(); got != 2 {
			t.Fatalf("reply_write_errors after dead-stream reply = %d, want 2", got)
		}
	})
}

// TestFrameWriterCoalesces pins the smart-batching contract at the unit
// level: frames that arrive while a flush is blocked ship together in
// the next flush, and the flush metrics record the batch size.
func TestFrameWriterCoalesces(t *testing.T) {
	reg := metrics.NewRegistry()
	tp, err := NewTCPWithOptions("w", "127.0.0.1:0", TCPOptions{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	here, there := net.Pipe()
	defer here.Close()
	w := tp.newWriter("peer", here, codec.NewBufferedStream(here, writeBuffer))
	// Stop the writer before tp.Close waits for it, also when a check
	// fails: a writer blocked on the pipe would hang the package.
	defer w.fail(errConnClosed)
	// Pretend several callers are active so enqueue takes the queue path
	// instead of the solo-caller inline write (which would block on the
	// unread pipe).
	w.active.Add(2)
	tp.wg.Add(1)
	go w.run(&tp.wg)

	// Enqueue the first frame; its flush blocks on the unread pipe while
	// nine more frames pile into the queue.
	const frames = 10
	for i := 0; i < frames; i++ {
		f := codec.GetFrame()
		f.ID = uint64(i + 1)
		f.Kind = codec.FrameRequest
		f.Payload = testPayload{i}
		if err := w.enqueue(context.Background(), &sendReq{frame: f}); err != nil {
			t.Fatalf("enqueue %d: %v", i, err)
		}
		if i == 0 {
			// Give the writer a moment to pick up frame 0 and block in
			// its flush before the rest arrive.
			time.Sleep(20 * time.Millisecond)
		}
	}
	// Unblock the pipe; everything drains.
	go io.Copy(io.Discard, there) //nolint:errcheck
	// A flush's latency sample is recorded after its frames count as
	// sent, so wait for the last sample too.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("transport.frames.sent").Value() < frames ||
		reg.Histogram("transport.flush.latency").Snapshot().Count < reg.Histogram("transport.flush.frames").Snapshot().Count {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d frames flushed, %d of %d flush latencies recorded",
				reg.Counter("transport.frames.sent").Value(), frames,
				reg.Histogram("transport.flush.latency").Snapshot().Count, reg.Histogram("transport.flush.frames").Snapshot().Count)
		}
		time.Sleep(time.Millisecond)
	}
	snap := reg.Histogram("transport.flush.frames").Snapshot()
	if snap.Count < 2 {
		t.Fatalf("flushes = %d, want >= 2", snap.Count)
	}
	if snap.Max < 2 {
		t.Fatalf("max frames-per-flush = %d, want coalescing (> 1)", snap.Max)
	}
	if got := reg.Counter("transport.frames.sent").Value(); got != frames {
		t.Fatalf("frames.sent = %d, want %d", got, frames)
	}
	if depth := reg.Gauge("transport.sendq.depth").Value(); depth != 0 {
		t.Fatalf("sendq.depth after drain = %d, want 0", depth)
	}
	if lat := reg.Histogram("transport.flush.latency").Snapshot(); lat.Count != snap.Count {
		t.Fatalf("flush.latency count = %d, want %d", lat.Count, snap.Count)
	}
}

// TestTCPMetricsEndToEnd: driving real traffic populates the flush
// instruments and the send queue drains back to zero.
func TestTCPMetricsEndToEnd(t *testing.T) {
	reg := metrics.NewRegistry()
	a, b := newTCPPairOpts(t, TCPOptions{Stripes: 1, Metrics: reg})
	if err := b.Register("silo-b", echoHandler); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				if _, err := a.Call(context.Background(), "silo-b", Request{TargetKey: "k", Payload: testPayload{i}}); err != nil {
					t.Errorf("call: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	// Both endpoints share the registry, so request flushes (a) and reply
	// flushes (b) both land here; the request side alone is >= 240 frames.
	if reg.Histogram("transport.flush.frames").Snapshot().Count == 0 {
		t.Fatal("no flushes recorded")
	}
	if reg.Counter("transport.frames.sent").Value() < 240 {
		t.Fatalf("frames.sent = %d, want >= 240", reg.Counter("transport.frames.sent").Value())
	}
	if depth := reg.Gauge("transport.sendq.depth").Value(); depth != 0 {
		t.Fatalf("sendq.depth idle = %d, want 0", depth)
	}
}
