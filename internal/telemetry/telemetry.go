// Package telemetry is the runtime's recorder: the one handle through
// which a silo records what it does and serves it. A Tracer holds up to
// three parts, fixed at construction by Config.Parts:
//
//	Spans    trace contexts that ride message envelopes across silos,
//	         per-turn spans with component sub-timings (mailbox wait,
//	         simulated-CPU wait and burn, handler execution, storage
//	         reads/writes), a bounded span store with deterministic
//	         head-based sampling, and the retained slow-turn spans
//	Events   the causal flight recorder: a bounded ring of HLC-stamped
//	         cluster events, merged across silos into one timeline, and
//	         frozen to disk when an anomaly fires (events.go)
//	Profile  per-actor hot-spot accounting in a bounded heavy-hitter
//	         sketch, plus per-kind CPU, mailbox and state-size marks
//
// With Spans or Profile, every turn — sampled or not — feeds the per-kind
// turn counters; with any part, the one slow-turn threshold. The package also holds
// the tail-latency attribution the Figure 8/9 experiments use to answer
// "where does the p99.9 come from", and the HTTP surface that serves all
// of it (http.go).
//
// The contract mirrors internal/faults: a nil *Tracer (or a disabled one)
// costs one nil-or-atomic check at each instrumentation point, so
// production hot paths pay nothing when recording is off. Sampling is
// head-based and deterministic: the root of every Nth external request is
// sampled (no RNG), so two runs over the same request sequence trace the
// same requests.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/clock"
	"aodb/internal/metrics"
)

// SpanContext is the trace identity that crosses silo boundaries inside
// message envelopes. SpanID names the sender's span — the receiver's turn
// span records it as its parent and mints its own id. The zero value
// means "not sampled, no trace".
type SpanContext struct {
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

// SpanKind distinguishes the two span shapes the runtime emits.
type SpanKind uint8

// Span kinds.
const (
	// KindRoot is the client-side span around one external Runtime.Call
	// or Tell: its Dur is the end-to-end latency the benchmark recorder
	// sees, and its Retries/Hops count the self-healing work the call
	// needed.
	KindRoot SpanKind = iota + 1
	// KindTurn is one actor turn on a silo, with component sub-timings.
	KindTurn
)

func (k SpanKind) String() string {
	switch k {
	case KindRoot:
		return "root"
	case KindTurn:
		return "turn"
	default:
		return "unknown"
	}
}

// Span is one recorded trace span. Turn spans decompose their duration
// into the components the latency-percentile experiments care about:
//
//	Mailbox    time queued in the activation's mailbox before the turn
//	CPUWait    time waiting for a capacity (simulated-CPU) worker slot
//	CPUBurn    simulated CPU service time charged by the capacity model
//	Exec       real handler execution time (includes Nested and Store*)
//	Nested     time blocked inside nested actor Calls/Tells
//	StoreRead  kvstore read time (including provisioned-throughput waits)
//	StoreWrite kvstore write time (ditto)
//	FlushWait  time blocked on batched-flush paths: the WAL group-commit
//	           flush in durable mode (ack ⇒ fsynced, inside StoreWrite)
//	           and the transport's write-coalescing queue (enqueue to
//	           wire)
//
// The accumulating fields are written with atomic adds so helpers called
// from storage or nested-call paths can never race the turn goroutine.
type Span struct {
	TraceID uint64
	SpanID  uint64
	Parent  uint64 // 0 for roots
	Kind    SpanKind
	Actor   string // actor id for turns; target id for roots
	Silo    string // hosting silo for turns; empty for client roots
	Remote  bool   // turn arrived over a cross-silo (or external) hop
	Start   time.Time
	Dur     time.Duration

	Mailbox    time.Duration
	CPUWait    time.Duration
	CPUBurn    time.Duration
	Exec       time.Duration
	Nested     time.Duration
	StoreRead  time.Duration
	StoreWrite time.Duration
	FlushWait  time.Duration

	Retries int32 // root only: transparent retries the call needed
	Hops    int32 // root: wrong-silo re-routes; turn: nested calls issued
	Err     string
}

func addDur(p *time.Duration, d time.Duration) {
	atomic.AddInt64((*int64)(p), int64(d))
}

// AddStoreRead attributes kvstore read time to the span.
func (s *Span) AddStoreRead(d time.Duration) {
	if s == nil {
		return
	}
	addDur(&s.StoreRead, d)
}

// AddStoreWrite attributes kvstore write time to the span.
func (s *Span) AddStoreWrite(d time.Duration) {
	if s == nil {
		return
	}
	addDur(&s.StoreWrite, d)
}

// AddFlushWait attributes time spent blocked on a batched flush: a
// durable-mode WAL group-commit, or the transport's write-coalescing
// queue between enqueue and wire. WAL flush waits are also part of
// StoreWrite (they happen inside a storage write), so attribution
// reports store-write net of flush waits.
func (s *Span) AddFlushWait(d time.Duration) {
	if s == nil {
		return
	}
	addDur(&s.FlushWait, d)
}

// AddNested attributes time spent blocked in a nested actor call and
// counts the hop.
func (s *Span) AddNested(d time.Duration) {
	if s == nil {
		return
	}
	addDur(&s.Nested, d)
	atomic.AddInt32(&s.Hops, 1)
}

// ChildContext returns the trace context nested calls issued from this
// span should carry: same trace, this span as parent.
func (s *Span) ChildContext() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.TraceID, SpanID: s.SpanID, Sampled: true}
}

// capture copies the span for storage, reading the accumulator fields
// atomically. Helpers on other goroutines can still be attributing into
// the span when it is finished — a cancelled Call/Tell returns to the
// caller while the transport's writer goroutine later attributes the
// frame's queue-to-wire time — so a plain struct copy would be a torn
// read. Late attributions after capture are dropped by design: the
// recorded span reflects what had been attributed when it finished.
func (s *Span) capture() Span {
	c := Span{
		TraceID: s.TraceID, SpanID: s.SpanID, Parent: s.Parent, Kind: s.Kind,
		Actor: s.Actor, Silo: s.Silo, Remote: s.Remote, Start: s.Start, Dur: s.Dur,
		Mailbox: s.Mailbox, CPUWait: s.CPUWait, CPUBurn: s.CPUBurn, Exec: s.Exec,
		Retries: s.Retries, Err: s.Err,
	}
	c.Nested = time.Duration(atomic.LoadInt64((*int64)(&s.Nested)))
	c.StoreRead = time.Duration(atomic.LoadInt64((*int64)(&s.StoreRead)))
	c.StoreWrite = time.Duration(atomic.LoadInt64((*int64)(&s.StoreWrite)))
	c.FlushWait = time.Duration(atomic.LoadInt64((*int64)(&s.FlushWait)))
	c.Hops = atomic.LoadInt32(&s.Hops)
	return c
}

// ExecSelf is handler time net of nested calls and storage — the turn's
// own computation.
func (s Span) ExecSelf() time.Duration {
	self := s.Exec - s.Nested - s.StoreRead - s.StoreWrite
	if self < 0 {
		return 0
	}
	return self
}

// Parts selects what a Tracer records (see the package comment).
type Parts uint8

// Recorder parts; combine with |.
const (
	Spans Parts = 1 << iota
	Events
	Profile
)

// Fixed sizes of the recorder. Each had one value in use.
const (
	slowCapacity = 128 // retained slow-turn spans
	captureMax   = 8   // capture files per process: a flapping anomaly cannot fill the disk
	sloFactor    = 10  // a turn this many times SlowTurn is an SLO breach and freezes the ring
)

// Config tunes a Tracer. The zero value records spans only, samples every
// root request, keeps 16384 spans, and flags turns slower than 250ms.
type Config struct {
	// Parts selects what is recorded (default Spans).
	Parts Parts
	// SampleEvery samples the root of every Nth external request
	// (default 1 = every request). Sampling is a modulo over an atomic
	// counter — deterministic, no RNG.
	SampleEvery uint64
	// Capacity bounds the span store (default 16384); the oldest spans
	// are overwritten first.
	Capacity int
	// EventCapacity bounds the event ring (default 4096 slots).
	EventCapacity int
	// HotActors sizes the heavy-hitter sketch (default 64 slots). Memory
	// is O(HotActors) whatever the actor count.
	HotActors int
	// SlowTurn is the one slow-turn threshold (default 250ms): it counts
	// a kind's slow turns, retains the sampled span, and records a
	// slow-turn event. Every turn is checked while the tracer is
	// enabled, sampled or not.
	SlowTurn time.Duration
	// Clock times spans and drives the HLC's physical component; nil
	// means the real clock. Tests use clock.Fake for deterministic
	// timings.
	Clock clock.Clock
	// Silo names the recording process: stamped on every event and
	// capture file, and salted into id generation so distinct silos mint
	// distinct span and correlation ids.
	Silo string
	// CaptureDir, when set, enables anomaly-triggered capture: quorum
	// loss, actor panics, members declared dead, and SLO-breaching turns
	// freeze a snapshot of the event ring to a JSON file in this
	// directory.
	CaptureDir string
}

// KindStats is one actor kind's accounting. Turns, SlowTurns and
// TurnNanos count every turn while a tracer with the Spans or Profile
// part is enabled; the rest are filled by the Profile part. Its JSON is
// /obs's kind_profiles row; the turn counters travel as KindTurns.
type KindStats struct {
	Kind string `json:"kind"`
	// Turns and CPUNanos are totals since the tracer started; CPUNanos
	// is simulated burn plus real handler time.
	Turns    int64 `json:"turns"`
	CPUNanos int64 `json:"cpu_nanos"`
	// MailboxHWM is the deepest backlog any activation of the kind has
	// seen at turn start.
	MailboxHWM int64 `json:"mailbox_hwm"`
	// MaxStateBytes is the largest serialized state observed for the kind.
	MaxStateBytes int64 `json:"max_state_bytes"`
	SlowTurns     int64 `json:"-"`
	TurnNanos     int64 `json:"-"` // summed turn wall time
}

type kindStat struct {
	turns, slow, nanos             atomic.Int64
	cpu, mailboxHWM, maxStateBytes atomic.Int64
}

func raise(v *atomic.Int64, to int64) {
	for {
		cur := v.Load()
		if to <= cur || v.CompareAndSwap(cur, to) {
			return
		}
	}
}

// Tracer is one silo's recorder. All methods are safe on a nil receiver
// (recording off) and safe for concurrent use.
type Tracer struct {
	cfg     Config
	enabled atomic.Bool

	seq    atomic.Uint64 // root-request counter driving head sampling
	ids    atomic.Uint64 // id counter, mixed through splitmix64
	idBase uint64

	kinds sync.Map // kind string -> *kindStat

	// Spans part.
	store *ring[Span]
	slow  *ring[Span]

	// Events part.
	hlc       *clock.HLCSource
	events    *ring[event]
	captures  atomic.Int32
	captureMu sync.Mutex // one capture writes at a time; TryLock drops extras

	// Profile part.
	hot      *metrics.TopK
	profTurn atomic.Int64
}

// New returns an enabled tracer for cfg.
func New(cfg Config) *Tracer {
	if cfg.Parts == 0 {
		cfg.Parts = Spans
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 1
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 16384
	}
	if cfg.EventCapacity <= 0 {
		cfg.EventCapacity = 4096
	}
	if cfg.HotActors <= 0 {
		cfg.HotActors = 64
	}
	if cfg.SlowTurn <= 0 {
		cfg.SlowTurn = 250 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	// FNV-1a of the silo name: ids must not collide across silos whose
	// counters all start at zero.
	salt := uint64(1)
	for i := 0; i < len(cfg.Silo); i++ {
		salt = (salt ^ uint64(cfg.Silo[i])) * 1099511628211
	}
	t := &Tracer{cfg: cfg, idBase: splitmix64(salt)}
	if t.has(Spans) {
		t.store = newRing[Span](cfg.Capacity)
		t.slow = newRing[Span](slowCapacity)
	}
	if t.has(Events) {
		t.hlc = clock.NewHLC(cfg.Clock)
		t.events = newRing[event](cfg.EventCapacity)
	}
	if t.has(Profile) {
		t.hot = metrics.NewTopK(cfg.HotActors)
	}
	t.enabled.Store(true)
	return t
}

func (t *Tracer) has(p Parts) bool { return t.cfg.Parts&p != 0 }

// Enabled reports whether instrumentation should run. This is the one
// check a disabled recorder costs on the hot path.
func (t *Tracer) Enabled() bool {
	return t != nil && t.enabled.Load()
}

// SetEnabled toggles the tracer without losing what it has recorded.
func (t *Tracer) SetEnabled(v bool) {
	if t == nil {
		return
	}
	t.enabled.Store(v)
}

// splitmix64 is the SplitMix64 finalizer: a cheap bijective mixer that
// turns a sequential counter into well-distributed ids.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (t *Tracer) nextID() uint64 {
	id := splitmix64(t.idBase + t.ids.Add(1))
	if id == 0 {
		id = 1 // 0 means "no span", "uncorrelated"
	}
	return id
}

// Tracing reports whether root requests are being sampled into spans;
// call sites that format a root's name check it first. Nil-receiver safe.
func (t *Tracer) Tracing() bool { return t.Enabled() && t.has(Spans) }

// StartRoot makes the head-based sampling decision for one external
// request against target. When sampled it returns the trace context to
// send and the live root span; otherwise span is nil and the context is
// unsampled. Callers must Finish the span.
func (t *Tracer) StartRoot(target string) (SpanContext, *Span) {
	if !t.Tracing() {
		return SpanContext{}, nil
	}
	n := t.seq.Add(1)
	if (n-1)%t.cfg.SampleEvery != 0 {
		return SpanContext{}, nil
	}
	sp := &Span{
		TraceID: t.nextID(),
		SpanID:  t.nextID(),
		Kind:    KindRoot,
		Actor:   target,
		Start:   t.cfg.Clock.Now(),
	}
	return SpanContext{TraceID: sp.TraceID, SpanID: sp.SpanID, Sampled: true}, sp
}

// Finish stamps a root span's duration and records it. Safe on nil spans
// so instrumentation can call it unconditionally on the sampled path.
func (t *Tracer) Finish(sp *Span, err error) {
	if t == nil || sp == nil {
		return
	}
	sp.Dur = t.cfg.Clock.Since(sp.Start)
	if err != nil {
		sp.Err = err.Error()
	}
	t.store.push(sp.capture())
}

// Turn is the recorder's state for one actor turn, held on the turn's
// stack between StartTurn and EndTurn. The zero value records nothing.
type Turn struct {
	// Span is the turn's span when the turn is sampled: the runtime
	// carries it in the turn's context so storage and nested calls can
	// attribute their time to it.
	Span *Span
	// Timed asks the runtime to measure the handler's execution and the
	// capacity model's timings, and to fill Depth: a span or the profile
	// wants them. Untimed turns pay two clock reads and nothing else.
	Timed bool
	// Depth is the mailbox backlog at turn start.
	Depth int

	trace uint64
	actor string
	kind  string
	silo  string
	start time.Time
}

// StartTurn begins recording one turn of actor (of kind) hosted on silo,
// caused by parent. Call it only when Enabled; whatever happens to the
// enabled flag afterwards, EndTurn completes what StartTurn began.
func (t *Tracer) StartTurn(parent SpanContext, actor, kind, silo string) Turn {
	tn := Turn{trace: parent.TraceID, actor: actor, kind: kind, silo: silo, start: t.cfg.Clock.Now()}
	if parent.Sampled && t.has(Spans) {
		tn.Span = &Span{
			TraceID: parent.TraceID,
			SpanID:  t.nextID(),
			Parent:  parent.SpanID,
			Kind:    KindTurn,
			Actor:   actor,
			Silo:    silo,
			Start:   tn.start,
		}
	}
	tn.Timed = tn.Span != nil || t.has(Profile)
	return tn
}

// EndTurn records the turn StartTurn began: the span if sampled, the
// per-kind counters (not for an events-only tracer, whose turn stays two
// clock reads and a compare), the profile's CPU
// attribution (simulated burn, dominant on capacity-limited silos, plus
// real handler time, dominant without a limiter), and the slow-turn,
// SLO-breach and panic events. A zero Turn is ignored.
func (t *Tracer) EndTurn(tn *Turn, exec, cpuWait, cpuBurn time.Duration, err error, panicked bool) {
	if t == nil || tn.start.IsZero() {
		return
	}
	dur := t.cfg.Clock.Since(tn.start)
	slow := dur >= t.cfg.SlowTurn
	if sp := tn.Span; sp != nil {
		sp.Dur, sp.Exec, sp.CPUWait, sp.CPUBurn = dur, exec, cpuWait, cpuBurn
		if err != nil {
			sp.Err = err.Error()
		}
		c := sp.capture()
		t.store.push(c)
		if slow {
			t.slow.push(c)
		}
	}
	if t.has(Spans | Profile) {
		ks := t.kind(tn.kind)
		ks.turns.Add(1)
		ks.nanos.Add(int64(dur))
		if slow {
			ks.slow.Add(1)
		}
		if t.has(Profile) {
			// A 1ns floor keeps turn-count-hot (but cheap) actors rankable:
			// zero-weight offers would never displace sketch residents.
			w := max(int64(cpuBurn+exec), 1)
			t.profTurn.Add(1)
			t.hot.Observe(tn.actor, w, metrics.TopKEntry{Turns: 1, HighWater: int64(tn.Depth), Bytes: -1, Label: tn.silo})
			ks.cpu.Add(w)
			raise(&ks.mailboxHWM, int64(tn.Depth))
		}
	}
	if t.has(Events) {
		if panicked {
			t.record(ActorPanic, tn.actor, tn.trace, "turn panicked")
		}
		if slow {
			t.record(SlowTurn, tn.actor, tn.trace, "turn took "+dur.Round(time.Microsecond).String())
			if dur >= sloFactor*t.cfg.SlowTurn {
				t.captureAsync("slo-breach")
			}
		}
	}
}

// ObserveState accounts one serialized-state observation (a load or a
// write) of the given size in the profile.
func (t *Tracer) ObserveState(actor, kind string, bytes int) {
	if !t.Enabled() || !t.has(Profile) {
		return
	}
	t.hot.Observe(actor, 0, metrics.TopKEntry{Bytes: int64(bytes)})
	raise(&t.kind(kind).maxStateBytes, int64(bytes))
}

func (t *Tracer) kind(kind string) *kindStat {
	if v, ok := t.kinds.Load(kind); ok {
		return v.(*kindStat)
	}
	v, _ := t.kinds.LoadOrStore(kind, &kindStat{})
	return v.(*kindStat)
}

// KindStats snapshots the per-kind accounting, sorted by kind name at
// the caller's leisure (map iteration order is not stable).
func (t *Tracer) KindStats() []KindStats {
	if t == nil {
		return nil
	}
	var out []KindStats
	t.kinds.Range(func(k, v any) bool {
		st := v.(*kindStat)
		out = append(out, KindStats{
			Kind:          k.(string),
			Turns:         st.turns.Load(),
			SlowTurns:     st.slow.Load(),
			TurnNanos:     st.nanos.Load(),
			CPUNanos:      st.cpu.Load(),
			MailboxHWM:    st.mailboxHWM.Load(),
			MaxStateBytes: st.maxStateBytes.Load(),
		})
		return true
	})
	return out
}

// HotActors returns the profile's resident heavy hitters, hottest first:
// Key is the actor id, Count its CPU nanos (upper bound, Err the slack),
// Turns/HighWater/Bytes the auxiliary accounting, Label the hosting silo.
// Nil without the Profile part.
func (t *Tracer) HotActors() []metrics.TopKEntry {
	if t == nil || t.hot == nil {
		return nil
	}
	return t.hot.Snapshot()
}

// ProfileTotals returns the profile-wide turn and CPU totals hot-actor
// shares are expressed against.
func (t *Tracer) ProfileTotals() (turns, cpuNanos int64) {
	if t == nil || t.hot == nil {
		return 0, 0
	}
	return t.profTurn.Load(), t.hot.Total()
}

// Spans returns the stored spans, oldest first.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	spans, _ := t.store.snapshot()
	return spans
}

// SlowSpans returns the retained slow-turn spans, oldest first.
func (t *Tracer) SlowSpans() []Span {
	if t == nil {
		return nil
	}
	spans, _ := t.slow.snapshot()
	return spans
}

// Recorded returns how many spans have been recorded (including ones the
// bounded store has since overwritten).
func (t *Tracer) Recorded() int64 {
	if t == nil {
		return 0
	}
	return t.store.pushed()
}

// SlowTurns returns how many turns exceeded the slow-turn threshold on
// the sampled path.
func (t *Tracer) SlowTurns() int64 {
	if t == nil {
		return 0
	}
	return t.slow.pushed()
}

// ring is a bounded overwrite-oldest buffer: the span store, the
// slow-turn spans and the event ring. A nil ring (its part is off) holds
// nothing.
type ring[T any] struct {
	mu   sync.Mutex
	buf  []T
	next int
	n    int64 // pushes ever
}

func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{buf: make([]T, capacity)}
}

func (r *ring[T]) push(v T) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = v
	r.next = (r.next + 1) % len(r.buf)
	r.n++
	r.mu.Unlock()
}

func (r *ring[T]) pushed() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}

// snapshot returns the held values oldest first, and the 1-based push
// sequence of the first of them.
func (r *ring[T]) snapshot() (out []T, first int64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	held := int(min(r.n, int64(len(r.buf))))
	out = make([]T, 0, held)
	start := (r.next - held + len(r.buf)) % len(r.buf)
	for i := 0; i < held; i++ {
		out = append(out, r.buf[(start+i)%len(r.buf)])
	}
	return out, r.n - int64(held) + 1
}
