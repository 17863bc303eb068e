// Package faults is a deterministic, seedable fault-injection layer for
// chaos testing the runtime. It plugs into the seams the runtime already
// exposes rather than patching internals:
//
//   - transport faults (message drop, duplicate, delay) via a
//     transport.Transport wrapper;
//   - storage faults via a kvstore.WriteFault hook;
//   - actor-handler panics via the runtime's BeforeTurn hook;
//   - silo crash/restart is driven by the chaos harness itself through
//     Runtime.CrashSilo/AddSilo (see internal/bench).
//
// Every decision is a pure function of (seed, fault point, per-point
// consultation counter), so a run with the same seed and the same
// per-point sequence of consultations injects the same faults — failures
// found by a chaos run reproduce under the same seed. A nil *Injector (or
// a disabled one) injects nothing and costs one nil/atomic check per
// consultation, keeping the production hot path clean.
package faults

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/clock"
	"aodb/internal/kvstore"
	"aodb/internal/transport"
)

// Injected-fault sentinel errors and panic values, so chaos harnesses can
// tell injected failures from organic ones.
var (
	// ErrInjectedDrop is the cause inside the UnreachableError returned for
	// a dropped message: the sender learns nothing except that the message
	// did not arrive, which is exactly a lost packet from its point of view.
	ErrInjectedDrop = errors.New("faults: injected message drop")
	// ErrInjectedKVWrite is the injected storage write failure.
	ErrInjectedKVWrite = errors.New("faults: injected kvstore write error")
)

// PanicValue is the value injected handler panics carry.
const PanicValue = "faults: injected handler panic"

// Config sets per-point fault probabilities, all in [0,1]. Zero values
// disable that point.
type Config struct {
	// Seed makes every decision reproducible. Two injectors with the same
	// Seed and the same consultation sequence make identical decisions.
	Seed int64
	// Drop is the probability a transport Call is dropped: the message
	// never reaches the target and the caller gets a transient unreachable
	// error.
	Drop float64
	// Dup is the probability a delivered message is delivered twice,
	// exercising at-least-once handling in actors.
	Dup float64
	// Delay is the probability a delivery is delayed by up to MaxDelay
	// (deterministic magnitude, uniform over (0, MaxDelay]).
	Delay    float64
	MaxDelay time.Duration
	// KVWrite is the probability a kvstore mutation fails.
	KVWrite float64
	// Panic is the probability an actor turn panics before the handler
	// runs, exercising the runtime's panic isolation.
	Panic float64
	// Wipe is the probability a WipeDecision consultation tells the
	// chaos harness to destroy a replica's storage (see StorageWipe).
	Wipe float64
	// Clock times injected delays; nil means the real clock.
	Clock clock.Clock
}

// Injector makes seeded fault decisions. All methods are safe on a nil
// receiver (no faults) and safe for concurrent use.
type Injector struct {
	cfg     Config
	clk     clock.Clock
	enabled atomic.Bool

	mu     sync.Mutex
	counts map[string]uint64 // consultations per point
	fired  map[string]uint64 // injections per point
}

// New returns an enabled injector for cfg.
func New(cfg Config) *Injector {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 10 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real()
	}
	inj := &Injector{
		cfg:    cfg,
		clk:    cfg.Clock,
		counts: make(map[string]uint64),
		fired:  make(map[string]uint64),
	}
	inj.enabled.Store(true)
	return inj
}

// SetEnabled turns injection on or off without losing counter state, so a
// harness can bracket the chaos window (e.g. stop injecting during the
// final verification pass).
func (i *Injector) SetEnabled(v bool) {
	if i == nil {
		return
	}
	i.enabled.Store(v)
}

// Fired returns how many faults have been injected at the named point
// ("drop", "dup", "delay", "kvwrite", "panic").
func (i *Injector) Fired(point string) uint64 {
	if i == nil {
		return 0
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.fired[point]
}

// decide consults the named fault point: it burns one counter tick and
// reports whether the fault fires, plus the decision hash for deriving
// deterministic magnitudes (delay durations).
func (i *Injector) decide(point string, prob float64) (bool, uint64) {
	if i == nil || prob <= 0 || !i.enabled.Load() {
		return false, 0
	}
	i.mu.Lock()
	n := i.counts[point]
	i.counts[point] = n + 1
	i.mu.Unlock()

	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(i.cfg.Seed))
	h.Write(buf[:])
	h.Write([]byte(point))
	binary.BigEndian.PutUint64(buf[:], n)
	h.Write(buf[:])
	sum := mix64(h.Sum64())
	// 53 high bits -> uniform float in [0,1).
	fire := float64(sum>>11)/(1<<53) < prob
	if fire {
		i.mu.Lock()
		i.fired[point]++
		i.mu.Unlock()
	}
	return fire, sum
}

// mix64 is the murmur3 finalizer. FNV's high bits barely change across
// sequential counter values; this avalanche step makes every bit of the
// decision hash uniform, which the probability comparison relies on.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// KVWriteFault returns a hook for kvstore.Store.SetWriteFault that fails
// mutations with ErrInjectedKVWrite at the configured probability.
func (i *Injector) KVWriteFault() kvstore.WriteFault {
	return func(table, key string) error {
		if fire, _ := i.decide("kvwrite", i.cfg.KVWrite); fire {
			return fmt.Errorf("%w: %s/%s", ErrInjectedKVWrite, table, key)
		}
		return nil
	}
}

// PanicHook returns a function for core's BeforeTurn seam that panics with
// PanicValue at the configured probability, simulating an application bug
// inside an actor turn.
func (i *Injector) PanicHook() func(actor string) {
	return func(actor string) {
		if fire, _ := i.decide("panic", i.cfg.Panic); fire {
			panic(PanicValue)
		}
	}
}

// Transport wraps an inner transport with message-level faults. Drops
// surface as transient UnreachableError (a lost message and a dead peer
// are indistinguishable to the sender), duplicates re-deliver the request
// after the first delivery returns, and delays sleep before delivery.
type Transport struct {
	inner transport.Transport
	inj   *Injector
}

// WrapTransport layers i's message faults over inner.
func (i *Injector) WrapTransport(inner transport.Transport) *Transport {
	return &Transport{inner: inner, inj: i}
}

// Register forwards to the inner transport.
func (t *Transport) Register(node string, h transport.Handler) error {
	return t.inner.Register(node, h)
}

// Deregister forwards when the inner transport supports it.
func (t *Transport) Deregister(node string) {
	if d, ok := t.inner.(transport.Deregisterer); ok {
		d.Deregister(node)
	}
}

// Call delivers a request, subject to drop, delay, and duplicate faults.
func (t *Transport) Call(ctx context.Context, node string, req transport.Request) (any, error) {
	if fire, _ := t.inj.decide("drop", t.inj.cfgDrop()); fire {
		return nil, &transport.UnreachableError{Node: node, Err: ErrInjectedDrop}
	}
	if err := t.maybeDelay(ctx); err != nil {
		return nil, err
	}
	resp, err := t.inner.Call(ctx, node, req)
	if fire, _ := t.inj.decide("dup", t.inj.cfgDup()); fire && err == nil {
		// At-least-once delivery: the target sees the message again; the
		// duplicate's outcome is discarded just as a duplicate ack would be.
		_, _ = t.inner.Call(ctx, node, req)
	}
	return resp, err
}

// Close forwards to the inner transport.
func (t *Transport) Close() error { return t.inner.Close() }

func (t *Transport) maybeDelay(ctx context.Context) error {
	fire, sum := t.inj.decide("delay", t.inj.cfgDelay())
	if !fire {
		return nil
	}
	d := time.Duration(sum%uint64(t.inj.cfg.MaxDelay)) + 1
	tm := t.inj.clk.NewTimer(d)
	defer tm.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-tm.C():
		return nil
	}
}

// nil-safe probability accessors for the transport wrapper.
func (i *Injector) cfgDrop() float64 {
	if i == nil {
		return 0
	}
	return i.cfg.Drop
}

func (i *Injector) cfgDup() float64 {
	if i == nil {
		return 0
	}
	return i.cfg.Dup
}

func (i *Injector) cfgDelay() float64 {
	if i == nil {
		return 0
	}
	return i.cfg.Delay
}
