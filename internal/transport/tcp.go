package transport

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"aodb/internal/codec"
	"aodb/internal/metrics"
	"aodb/internal/placement"
	"aodb/internal/telemetry"
)

// TCPOptions tunes the TCP transport's wire path. The zero value gives
// the production defaults: four connection stripes per peer and an
// inbound dispatch pool sized to GOMAXPROCS. Writes always coalesce; the
// batch and buffer bounds are constants (maxBatchFrames and its
// neighbours).
type TCPOptions struct {
	// Stripes is how many parallel connections to open per peer. Each
	// stripe is a codec.Stream of its own — write mutex, buffer, writer
	// goroutine — so frames for one peer encode in parallel instead of
	// queueing on one stream's mutex. Frames pick a stripe by target-key
	// hash (keyless frames round-robin), keeping any one actor's traffic
	// ordered on one stream. Default min(4, GOMAXPROCS): opening more
	// stripes than the machine can encode in parallel only fragments
	// write batches. It stays settable because tests outside this package
	// pin a stripe count.
	Stripes int
	// Metrics receives transport instrumentation (flush sizes and
	// latency, send-queue depth, lost replies, evictions); nil allocates
	// a private registry.
	Metrics *metrics.Registry
	// StampHLC, when set, mints a hybrid-logical-clock stamp for frames
	// leaving this process without one (req.HLC == 0). Stamping at the
	// wire boundary keeps in-process deliveries free of clock work —
	// their events already share one HLC source — while every frame that
	// actually crosses a machine carries a causal timestamp. Return 0 to
	// skip stamping (recorder disabled).
	StampHLC func() uint64

	// sendQueue overrides defaultSendQueue; tests shrink it to fill the
	// queue quickly.
	sendQueue int
}

// Wire-path bounds. Each is the one value every deployment, smoke script
// and benchmark runs with.
const (
	// maxBatchFrames caps how many frames one flush may coalesce.
	maxBatchFrames = 64
	// maxBatchBytes flushes early once the write buffer holds this many
	// encoded bytes (48 KiB).
	maxBatchBytes = 48 << 10
	// writeBuffer is the per-stream write buffer size (64 KiB).
	writeBuffer = 64 << 10
	// defaultSendQueue bounds each connection's writer queue (256 frames);
	// a full queue applies backpressure to callers, bounded by their
	// context.
	defaultSendQueue = 256
)

func (o *TCPOptions) fill() {
	if o.Stripes <= 0 {
		o.Stripes = min(runtime.GOMAXPROCS(0), 4)
	}
	if o.sendQueue <= 0 {
		o.sendQueue = defaultSendQueue
	}
}

// TCP is a transport for real multi-process deployments. Each endpoint
// hosts one silo, listens on a TCP address, and multiplexes concurrent
// calls to each peer over a small set of striped connections, each a
// codec.Stream of length-prefixed binary frames.
// Outbound frames are write-coalesced (see TCPOptions); inbound frames
// run on a bounded dispatch pool with goroutine spill.
type TCP struct {
	node     string
	listener net.Listener
	opts     TCPOptions
	m        *tcpMetrics

	// dispatchq feeds the worker pool. A frame is queued only after
	// claiming a unit of idleWorkers (CAS), which proves a worker is idle
	// and will pick the frame up without first blocking in a handler — so
	// no inbound frame is ever parked behind blocked workers (which could
	// deadlock request/response cycles). Claim failure spills to a fresh
	// goroutine. The buffer (cap = pool size) exists so a burst of reads
	// can claim many idle workers before any of them is scheduled.
	dispatchq   chan inboundFrame
	idleWorkers atomic.Int32
	stopc       chan struct{}

	rr atomic.Uint64 // round-robin stripe counter for keyless frames

	// handler is read on every inbound frame; atomic so dispatch never
	// takes t.mu on the hot path. Registration still serializes on t.mu.
	handler atomic.Value // Handler

	mu       sync.Mutex
	peers    map[string]string     // node -> address
	conns    map[string][]*tcpConn // node -> stripe -> conn (nil = undialed/evicted)
	accepted map[net.Conn]struct{}
	closed   bool
	wg       sync.WaitGroup
}

func (t *TCP) loadHandler() Handler {
	h, _ := t.handler.Load().(Handler)
	return h
}

type inboundFrame struct {
	w *frameWriter
	f *codec.Frame
}

// tcpConn is one dialed stripe to a peer: a frameWriter for the send
// side plus the pending-call table its readLoop resolves.
type tcpConn struct {
	*frameWriter
	t      *TCP
	stripe int
	nextID atomic.Uint64

	pmu     sync.Mutex
	pending map[uint64]chan *codec.Frame
	pdead   bool
}

// respChans recycles the per-call response channels. A channel may only
// be pooled after its call received the response: on the cancellation
// path a late response can still land in the (buffered) channel, and
// pooling it then would deliver a stale response to an unrelated call.
var respChans = sync.Pool{New: func() any { return make(chan *codec.Frame, 1) }}

// NewTCP starts a TCP endpoint for node listening on addr (host:port;
// use ":0" for an ephemeral port, then read Addr()) with default options.
func NewTCP(node, addr string) (*TCP, error) {
	return NewTCPWithOptions(node, addr, TCPOptions{})
}

// NewTCPWithOptions starts a TCP endpoint with explicit wire-path tuning.
func NewTCPWithOptions(node, addr string, opts TCPOptions) (*TCP, error) {
	opts.fill()
	// The inbound dispatch pool: max(4×GOMAXPROCS, maxBatchFrames)
	// workers. A frame is queued only after claiming an idle worker's slot
	// and spills to a spawned goroutine otherwise, so a slow handler can
	// never deadlock request/response cycles; the floor lets one full
	// coalesced batch of fast handlers run on warm pool stacks instead of
	// paying a goroutine spawn per frame.
	workers := max(4*runtime.GOMAXPROCS(0), maxBatchFrames)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	t := &TCP{
		node:      node,
		listener:  ln,
		opts:      opts,
		m:         newTCPMetrics(opts.Metrics),
		dispatchq: make(chan inboundFrame, workers),
		stopc:     make(chan struct{}),
		peers:     make(map[string]string),
		conns:     make(map[string][]*tcpConn),
		accepted:  make(map[net.Conn]struct{}),
	}
	for i := 0; i < workers; i++ {
		t.wg.Add(1)
		go t.dispatchWorker()
	}
	t.wg.Add(1)
	go t.acceptLoop()
	return t, nil
}

// Addr returns the listen address, useful with ":0".
func (t *TCP) Addr() string { return t.listener.Addr().String() }

// SetPeer records the address of a remote silo.
func (t *TCP) SetPeer(node, addr string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers[node] = addr
}

// Register binds the local silo's inbound handler. The node name must
// match the one given to NewTCP; a TCP endpoint hosts exactly one silo.
func (t *TCP) Register(node string, h Handler) error {
	if node != t.node {
		return fmt.Errorf("transport: endpoint %q cannot host silo %q", t.node, node)
	}
	if h == nil {
		return errors.New("transport: nil handler")
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.loadHandler() != nil {
		return fmt.Errorf("transport: node %q already registered", node)
	}
	t.handler.Store(h)
	return nil
}

func (t *TCP) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.listener.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.serveConn(conn)
			t.mu.Lock()
			delete(t.accepted, conn)
			t.mu.Unlock()
		}()
	}
}

func (t *TCP) newWriter(peer string, raw net.Conn, stream *codec.Stream) *frameWriter {
	return &frameWriter{
		peer:   peer,
		raw:    raw,
		stream: stream,
		m:      t.m,
		q:      make(chan *sendReq, t.opts.sendQueue),
		closed: make(chan struct{}),
	}
}

// dispatchWorker is one pool worker. It advertises idleness before each
// receive; the matching decrement happens in claimWorker on the frame's
// producer side, so idleWorkers counts exactly the workers that will
// reach a receive without first blocking in a handler.
func (t *TCP) dispatchWorker() {
	defer t.wg.Done()
	for {
		t.idleWorkers.Add(1)
		// Non-blocking receive first: under load a claimed frame is
		// usually already buffered, and skipping selectgo keeps the
		// dispatch hot path cheap.
		select {
		case in := <-t.dispatchq:
			t.dispatch(in.w, in.f)
			in.w.active.Add(-1)
			continue
		default:
		}
		select {
		case in := <-t.dispatchq:
			t.dispatch(in.w, in.f)
			in.w.active.Add(-1)
		case <-t.stopc:
			return
		}
	}
}

// claimWorker reserves one idle dispatch worker, or reports that none is
// free (the caller spawns instead).
func (t *TCP) claimWorker() bool {
	for {
		n := t.idleWorkers.Load()
		if n <= 0 {
			return false
		}
		if t.idleWorkers.CompareAndSwap(n, n-1) {
			return true
		}
	}
}

// serveConn handles inbound frames on an accepted connection. Responses
// go back through a frameWriter so replies coalesce too.
func (t *TCP) serveConn(conn net.Conn) {
	defer conn.Close()
	stream := codec.NewBufferedStream(conn, writeBuffer)
	w := t.newWriter("", conn, stream)
	t.wg.Add(1)
	go w.run(&t.wg)
	defer w.fail(errConnClosed)
	for {
		f, err := stream.Read()
		if err != nil {
			return
		}
		switch f.Kind {
		case codec.FrameRequest:
			in := inboundFrame{w: w, f: f}
			// Count the frame against the reply writer before anything is
			// scheduled: a burst read off the wire raises active to the
			// burst size, so the replies those dispatches produce coalesce
			// even when the dispatches themselves run one at a time.
			w.active.Add(1)
			if t.claimWorker() {
				t.m.dispatchPool.Inc()
				t.dispatchq <- in
			} else {
				t.m.dispatchGo.Inc()
				t.wg.Add(1)
				go func() {
					defer t.wg.Done()
					t.dispatch(in.w, in.f)
					in.w.active.Add(-1)
				}()
			}
		default:
			// Responses never arrive on the server side of a connection;
			// drop anything unexpected rather than crash the acceptor.
			codec.PutFrame(f)
		}
	}
}

func (t *TCP) dispatch(w *frameWriter, f *codec.Frame) {
	h := t.loadHandler()
	req := Request{
		TargetKind: f.TargetKind,
		TargetKey:  f.TargetKey,
		Method:     f.Method,
		Payload:    f.Payload,
		Sender:     f.Sender,
		Chain:      f.Chain,
		Trace: telemetry.SpanContext{
			TraceID: f.TraceID,
			SpanID:  f.ParentSpan,
			Sampled: f.TraceSampled,
		},
		HLC: f.HLC,
	}
	id := f.ID
	// The request header is done: req holds its own copies of the payload
	// and chain references, which outlive the frame's return to the pool.
	codec.PutFrame(f)
	var resp any
	var err error
	if h == nil {
		err = fmt.Errorf("transport: node %q has no handler", t.node)
	} else {
		resp, err = h(context.Background(), req)
	}
	out := codec.GetFrame()
	out.ID = id
	out.Kind = codec.FrameResponse
	out.Payload = resp
	if err != nil {
		out.Kind = codec.FrameError
		out.Err = err.Error()
		out.Payload = nil
		// Wrong-silo answers carry their redirect target as a frame field
		// so the caller can re-route instead of blind-retrying.
		var r interface{ RedirectTarget() string }
		if errors.As(err, &r) {
			out.Redirect = r.RedirectTarget()
		}
		out.Transient = Transient(err)
	}
	// A reply that cannot be written is a response the peer will never
	// see. The writer marks the stream dead (closing the connection so
	// the peer's pending calls fail over) and counts the loss in
	// transport.reply_write_errors; enqueue owns the frame either way.
	r := sendReqs.Get().(*sendReq)
	r.frame, r.reply = out, true
	_ = w.enqueue(context.Background(), r)
}

// stripeFor maps a target key onto a connection stripe. Keyed frames
// hash so one actor's traffic stays ordered on one stream; keyless
// frames round-robin.
func (t *TCP) stripeFor(key string) int {
	n := t.opts.Stripes
	if n == 1 {
		return 0
	}
	if key == "" {
		return int(t.rr.Add(1) % uint64(n))
	}
	return int(placement.Hash32(key) % uint32(n))
}

// conn returns (dialing if necessary) the striped connection to node for
// the given target key.
func (t *TCP) conn(node, key string) (*tcpConn, error) {
	stripe := t.stripeFor(key)
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	addr, known := t.peers[node]
	if !known {
		t.mu.Unlock()
		// Unreachability, same as Local: under gossip membership a peer
		// can be addressed (via a redirect or a fresh view) moments
		// before its name=addr mapping arrives, so the caller must be
		// free to retry.
		return nil, &UnreachableError{Node: node, Err: fmt.Errorf("%w: %q", ErrUnknownNode, node)}
	}
	ss := t.conns[node]
	if ss == nil {
		ss = make([]*tcpConn, t.opts.Stripes)
		t.conns[node] = ss
	}
	if c := ss[stripe]; c != nil {
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()

	raw, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, &UnreachableError{Node: node, Err: fmt.Errorf("dial %s: %w", addr, err)}
	}
	c := &tcpConn{
		frameWriter: t.newWriter(node, raw, codec.NewBufferedStream(raw, writeBuffer)),
		t:           t,
		stripe:      stripe,
		pending:     make(map[uint64]chan *codec.Frame),
	}
	// A dead connection evicts itself immediately and fails its pending
	// calls, so the next call redials instead of hitting the corpse.
	c.onDead = func(error) {
		t.evictConn(c)
		c.failPending()
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		raw.Close()
		return nil, ErrClosed
	}
	if existing := t.conns[node][stripe]; existing != nil {
		// Lost a dial race; use the winner.
		t.mu.Unlock()
		raw.Close()
		return existing, nil
	}
	t.conns[node][stripe] = c
	// Goroutine registration happens under the same lock that guards
	// closed, so Close's Wait can never race a late Add.
	t.wg.Add(2) // writer and readLoop
	t.mu.Unlock()
	go c.run(&t.wg)
	go func() {
		defer t.wg.Done()
		c.readLoop()
	}()
	return c, nil
}

// evictConn drops a dead connection from the stripe table so the next
// call redials immediately.
func (t *TCP) evictConn(c *tcpConn) {
	t.mu.Lock()
	if ss := t.conns[c.peer]; c.stripe < len(ss) && ss[c.stripe] == c {
		ss[c.stripe] = nil
		t.m.evictions.Inc()
	}
	t.mu.Unlock()
}

// failPending closes every waiting caller's channel: the connection died
// and their responses will never arrive.
func (c *tcpConn) failPending() {
	c.pmu.Lock()
	c.pdead = true
	for id, ch := range c.pending {
		close(ch)
		delete(c.pending, id)
	}
	c.pmu.Unlock()
}

// readLoop routes response frames to their waiting callers.
func (c *tcpConn) readLoop() {
	for {
		f, err := c.stream.Read()
		if err != nil {
			c.fail(err)
			return
		}
		c.pmu.Lock()
		ch, ok := c.pending[f.ID]
		if ok {
			delete(c.pending, f.ID)
		}
		c.pmu.Unlock()
		if ok {
			ch <- f
		} else {
			// Late response: the caller gave up (context cancelled).
			codec.PutFrame(f)
		}
	}
}

// requestFrame builds a pooled frame for req. The caller owns the frame
// until it hands it to a writer.
func requestFrame(id uint64, req Request) *codec.Frame {
	f := codec.GetFrame()
	f.ID = id
	f.Kind = codec.FrameRequest
	f.TargetKind = req.TargetKind
	f.TargetKey = req.TargetKey
	f.Method = req.Method
	f.Sender = req.Sender
	f.Chain = req.Chain
	f.TraceID = req.Trace.TraceID
	f.ParentSpan = req.Trace.SpanID
	f.TraceSampled = req.Trace.Sampled
	f.HLC = req.HLC
	f.Payload = req.Payload
	return f
}

// Call sends a request frame and waits for the matching response. Calls
// addressed to this endpoint's own silo bypass the network entirely.
func (t *TCP) Call(ctx context.Context, node string, req Request) (any, error) {
	if node == t.node {
		h := t.loadHandler()
		if h == nil {
			return nil, fmt.Errorf("transport: node %q has no handler", t.node)
		}
		return h(ctx, req)
	}
	c, err := t.conn(node, req.TargetKey)
	if err != nil {
		return nil, err
	}
	if req.HLC == 0 && t.opts.StampHLC != nil {
		req.HLC = t.opts.StampHLC()
	}
	// Stay counted for the whole round trip (not just the write): another
	// caller arriving while we await our response is exactly the signal
	// that frames are worth coalescing.
	c.active.Add(1)
	defer c.active.Add(-1)
	id := c.nextID.Add(1)
	ch := respChans.Get().(chan *codec.Frame)
	c.pmu.Lock()
	if c.pdead {
		c.pmu.Unlock()
		respChans.Put(ch) // never registered: nothing can deliver into it
		return nil, &UnreachableError{Node: node, Err: fmt.Errorf("connection failed: %w", c.deadErr())}
	}
	c.pending[id] = ch
	c.pmu.Unlock()

	r := sendReqs.Get().(*sendReq)
	r.frame, r.span = requestFrame(id, req), telemetry.SpanFrom(ctx)
	if err := c.enqueue(ctx, r); err != nil {
		c.pmu.Lock()
		delete(c.pending, id)
		c.pmu.Unlock()
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			return nil, err
		}
		return nil, &UnreachableError{Node: node, Err: fmt.Errorf("write: %w", err)}
	}
	var f *codec.Frame
	var ok bool
	if done := ctx.Done(); done == nil {
		// Non-cancellable context: a plain receive skips selectgo.
		f, ok = <-ch
	} else {
		select {
		case <-done:
			c.pmu.Lock()
			delete(c.pending, id)
			c.pmu.Unlock()
			// ch is not pooled: readLoop may have claimed the pending entry
			// already and still deliver into it.
			return nil, ctx.Err()
		case f, ok = <-ch:
		}
	}
	if !ok {
		// Closed channel (connection death); also not poolable.
		return nil, &UnreachableError{Node: node, Err: errors.New("connection closed mid-call")}
	}
	respChans.Put(ch)
	if f.Kind == codec.FrameError {
		msg, redirect, transient := f.Err, f.Redirect, f.Transient
		codec.PutFrame(f)
		if redirect != "" {
			return nil, &RedirectError{Node: node, Target: redirect, Msg: msg}
		}
		return nil, &RemoteError{Node: node, Msg: msg, Transient: transient}
	}
	payload := f.Payload
	codec.PutFrame(f)
	return payload, nil
}

// Close stops the listener and all connections, waiting for in-flight
// dispatches to drain.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	conns := t.conns
	t.conns = map[string][]*tcpConn{}
	accepted := make([]net.Conn, 0, len(t.accepted))
	for c := range t.accepted {
		accepted = append(accepted, c)
	}
	t.mu.Unlock()
	err := t.listener.Close()
	for _, ss := range conns {
		for _, c := range ss {
			if c != nil {
				c.fail(ErrClosed)
			}
		}
	}
	for _, c := range accepted {
		c.Close()
	}
	close(t.stopc)
	t.wg.Wait()
	return err
}
