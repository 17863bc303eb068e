package transport

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/codec"
	"aodb/internal/metrics"
	"aodb/internal/telemetry"
)

// tcpMetrics caches the TCP transport's instruments so the wire hot path
// never takes the registry lock.
type tcpMetrics struct {
	flushFrames  *metrics.Histogram // transport.flush.frames: frames coalesced per flush
	flushLatency *metrics.Histogram // transport.flush.latency: encode+flush wall time per batch
	sendqDepth   *metrics.Gauge     // transport.sendq.depth: frames queued or waiting to queue
	framesSent   *metrics.Counter   // transport.frames.sent
	flushes      *metrics.Counter   // transport.flushes
	replyErrors  *metrics.Counter   // transport.reply_write_errors: lost responses
	dispatchPool *metrics.Counter   // transport.dispatch.pooled: inbound frames a pool worker took
	dispatchGo   *metrics.Counter   // transport.dispatch.spawned: inbound frames that spilled to a goroutine
	evictions    *metrics.Counter   // transport.conn.evictions: connections dropped on failure
}

func newTCPMetrics(reg *metrics.Registry) *tcpMetrics {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &tcpMetrics{
		flushFrames:  reg.Histogram("transport.flush.frames"),
		flushLatency: reg.Histogram("transport.flush.latency"),
		sendqDepth:   reg.Gauge("transport.sendq.depth"),
		framesSent:   reg.Counter("transport.frames.sent"),
		flushes:      reg.Counter("transport.flushes"),
		replyErrors:  reg.Counter("transport.reply_write_errors"),
		dispatchPool: reg.Counter("transport.dispatch.pooled"),
		dispatchGo:   reg.Counter("transport.dispatch.spawned"),
		evictions:    reg.Counter("transport.conn.evictions"),
	}
}

// errConnClosed reports a connection torn down locally (peer hung up or
// the transport closed) as seen by frames still waiting to be written.
var errConnClosed = errors.New("transport: connection closed")

// maxFlushYields bounds how many scheduler yields one batch may spend
// gathering frames before it must flush (see writeBatch).
const maxFlushYields = 8

// sendReq is one frame queued for a connection's writer.
type sendReq struct {
	frame *codec.Frame
	// span is the caller's sampled trace span; the time the frame spends
	// between enqueue and wire is attributed to it as flush wait.
	span *telemetry.Span
	enq  time.Time // set when span != nil
	// reply marks server-side responses: failures feed reply_write_errors.
	reply bool
}

// sendReqs recycles the requests; finish, where every request is settled,
// puts each one back.
var sendReqs = sync.Pool{New: func() any { return new(sendReq) }}

// frameWriter owns every write on one connection. A dedicated goroutine
// (run) drains the bounded send queue through a buffered stream,
// flushing when the queue goes empty or a frame/byte cap is hit — under
// load many frames share one syscall, under light load a frame is one
// flush away. A solo caller writes inline (see enqueue).
//
// A writer dies exactly once (fail): the connection closes, the eviction
// hook runs, and every frame still queued — or mid-enqueue, guarded by
// the inflight count — is failed rather than stranded.
type frameWriter struct {
	peer   string // remote node name; "" on the serving side
	raw    net.Conn
	stream *codec.Stream
	m      *tcpMetrics
	onDead func(error) // eviction / pending-failure hook, runs once

	// active counts callers currently inside a Call (or inbound
	// dispatch) on this connection. It is the batching-worthwhile signal:
	// a solo caller writes inline — one encode and one flush on its own
	// goroutine — because nobody else's frames could share its flush, while
	// concurrent callers go through the queue where the writer coalesces
	// them. (The TCP autocorking idea: only cork when the flow is busy.)
	active atomic.Int32

	q      chan *sendReq
	closed chan struct{}

	mu       sync.Mutex
	err      error
	inflight int // senders between the liveness check and their enqueue
}

// deadErr returns the error the writer died with, or a generic closure
// error when called before death (senders racing the teardown).
func (w *frameWriter) deadErr() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	return errConnClosed
}

// fail kills the writer once: records the cause, wakes the writer
// goroutine and blocked senders, closes the connection, and runs the
// eviction hook. Safe to call from any goroutine, any number of times.
func (w *frameWriter) fail(err error) {
	w.mu.Lock()
	if w.err != nil {
		w.mu.Unlock()
		return
	}
	w.err = err
	w.mu.Unlock()
	close(w.closed)
	w.raw.Close()
	if w.onDead != nil {
		w.onDead(err)
	}
}

// enqueue hands one frame to the writer, taking ownership of it in all
// outcomes: on any failure path the frame is settled (reply errors
// counted, frame pooled) before enqueue returns. The
// returned error is for the caller's control flow only. ctx bounds the
// wait for queue space (backpressure).
func (w *frameWriter) enqueue(ctx context.Context, r *sendReq) error {
	if r.span != nil {
		r.enq = time.Now()
	}
	if w.active.Load() <= 1 {
		// Solo caller: no concurrent frames exist to coalesce with, so the
		// queue hop to the writer goroutine would only add latency. Write
		// inline — frame-level interleaving with the writer is safe (the
		// stream serializes writes, and cross-goroutine frame order is
		// unspecified), and a failed write kills the connection the same
		// way the writer would.
		return w.writeDirect(r)
	}
	w.mu.Lock()
	if w.err != nil {
		err := w.err
		w.mu.Unlock()
		w.finish(r, err)
		return err
	}
	w.inflight++
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		w.inflight--
		w.mu.Unlock()
	}()
	w.m.sendqDepth.Add(1)
	// Fast path: a non-blocking send costs no selectgo pass. Queue space
	// is the common case; death and backpressure fall through to the full
	// select. A frame landing in q after the writer died is still drained:
	// drainFail cannot finish while this sender's inflight count is held.
	select {
	case w.q <- r:
		return nil
	default:
	}
	select {
	case w.q <- r:
		return nil
	case <-w.closed:
		w.m.sendqDepth.Add(-1)
		err := w.deadErr()
		w.finish(r, err)
		return err
	case <-ctx.Done():
		w.m.sendqDepth.Add(-1)
		w.finish(r, ctx.Err())
		return ctx.Err()
	}
}

// writeDirect is the solo caller's path: encode and flush inline on the
// caller's goroutine, serialized by the stream's write mutex. A failed
// write kills the connection immediately so the next call redials
// instead of hitting a cached broken conn.
func (w *frameWriter) writeDirect(r *sendReq) error {
	start := time.Now()
	w.countFlush(1)
	err := w.stream.Write(r.frame)
	if err == nil {
		w.m.flushLatency.RecordDuration(time.Since(start))
	}
	w.finish(r, err)
	if err != nil {
		w.fail(err)
	}
	return err
}

// countFlush counts a flush of n frames before it goes to the wire: once
// it is out, a peer's reply can reach the caller, which must find its
// frame counted. A flush that then fails kills the connection, so its
// frames count as sent into a dead stream.
func (w *frameWriter) countFlush(n int) {
	w.m.flushes.Inc()
	w.m.flushFrames.Record(int64(n))
	w.m.framesSent.Add(int64(n))
}

// finish settles one frame the writer took ownership of: attributes its
// queue-to-wire time to the caller's span, counts lost replies, and
// returns the frame and its request to their pools.
func (w *frameWriter) finish(r *sendReq, err error) {
	if r.span != nil {
		r.span.AddFlushWait(time.Since(r.enq))
	}
	if err != nil && r.reply {
		w.m.replyErrors.Inc()
	}
	codec.PutFrame(r.frame)
	*r = sendReq{}
	sendReqs.Put(r)
}

// run is the connection's writer goroutine: it writes every frame that
// went through the queue.
func (w *frameWriter) run(wg *sync.WaitGroup) {
	defer wg.Done()
	batch := make([]*sendReq, 0, maxBatchFrames)
	for {
		// Under load the queue is non-empty and the non-blocking receive
		// skips the two-case select. (Frames taken this way after death
		// are fine: the write fails and writeBatch settles them.)
		var r *sendReq
		select {
		case r = <-w.q:
		default:
			select {
			case r = <-w.q:
			case <-w.closed:
				w.drainFail()
				return
			}
		}
		if !w.writeBatch(r, &batch) {
			w.drainFail()
			return
		}
	}
}

// writeBatch encodes first plus whatever else the queue holds — up to
// the frame/byte caps — then flushes once. Smart batching: the flush
// happens as soon as the queue goes empty, so idle-period latency is one
// flush, not a Nagle-style timer. Returns false when the writer died.
func (w *frameWriter) writeBatch(first *sendReq, scratch *[]*sendReq) bool {
	batch := (*scratch)[:0]
	r := first
	start := time.Now()
	yields := 0
	var werr error
	for {
		werr = w.stream.WriteNoFlush(r.frame)
		batch = append(batch, r)
		if werr != nil {
			break
		}
		if len(batch) >= maxBatchFrames || w.stream.Buffered() >= maxBatchBytes {
			break
		}
		select {
		case r = <-w.q:
			continue
		default:
		}
		// Empty queue with callers active on the connection: their next
		// frames are one scheduler pass away (on a loaded single core a
		// sender never runs while we do). Yield so runnable senders can
		// enqueue and share this flush — each Gosched that surfaces a
		// frame buys a saved syscall and earns another try; the first
		// barren one ends the batch, so an idle connection costs one
		// wasted yield (~100ns). Capped so a steady trickle can't extend
		// a batch unboundedly.
		if yields < maxFlushYields && w.active.Load() > 1 {
			yields++
			runtime.Gosched()
			select {
			case r = <-w.q:
				continue
			default:
			}
		}
		break
	}
	// The batch leaves the queue before its flush: once flushed, a peer's
	// reply can reach the caller, and it must not see these frames still
	// counted as queued, nor not yet counted as sent.
	w.m.sendqDepth.Add(-int64(len(batch)))
	if werr == nil {
		w.countFlush(len(batch))
		werr = w.stream.Flush()
	}
	if werr == nil {
		w.m.flushLatency.RecordDuration(time.Since(start))
	}
	for _, br := range batch {
		w.finish(br, werr)
	}
	for i := range batch {
		batch[i] = nil
	}
	*scratch = batch[:0]
	if werr != nil {
		w.fail(werr)
		return false
	}
	return true
}

// drainFail runs after the writer dies: it fails every frame still
// queued, waiting out senders that were mid-enqueue when the connection
// died (the inflight count) so no frame is left without an answer.
func (w *frameWriter) drainFail() {
	err := w.deadErr()
	for {
		select {
		case r := <-w.q:
			w.m.sendqDepth.Add(-1)
			w.finish(r, err)
			continue
		default:
		}
		w.mu.Lock()
		n := w.inflight
		w.mu.Unlock()
		if n == 0 && len(w.q) == 0 {
			return
		}
		runtime.Gosched()
	}
}
