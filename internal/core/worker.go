package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// maxParked caps the idle workers a silo keeps, and so what an idle silo
// holds in goroutine stacks; it does not bound the workers running turns.
// It is a few times the widest fan-out the platform issues (a LiveData is
// 70 turns a silo), so a steady load starts no worker: past the cap every
// hand-off starts a goroutine that ends when it finds the cache full.
const maxParked, parkShards = 256, 8

// workers is a silo's cache of parked goroutines. Whoever flips a
// mailbox's owned bit hands the activation straight to a parked worker — a
// send to one parked goroutine, which the Go scheduler runs next, ahead of
// any backlog — or starts a worker when none is parked. Busy workers are
// never bounded: a turn may block on a nested Call, a quorum write, the
// capacity limiter or a test's gate, and a turn that waited for a free
// worker could wait for one that waits for it.
//
// The parked set is sharded, so hand-offs do not share one lock, and each
// shard is last in, first out: the worker taken has the warmest stack. An
// activation's home shard, where the worker that ran it last parked, is its
// registration sequence modulo the shards.
type workers struct {
	stopped atomic.Bool
	shard   [parkShards]struct {
		mu     sync.Mutex
		parked []*worker
		_      [32]byte // a cache line to a shard
	}
}

// worker is one goroutine's handle: where it takes hand-offs while parked,
// and the Context every turn it runs is given. Handles are pooled, so a
// burst of starts allocates nothing per start.
type worker struct {
	wake chan *activation // capacity 1: a hand-off never blocks the waker
	run  func()           // w.loop, bound once: `go w.run()` allocates no closure
	ctx  Context          // reset per turn; emptied between visits
}

var handles sync.Pool // of *worker; no New, which would be an initialization cycle

// handOff gives a to a worker. The caller has just flipped a's mailbox to
// owned, so exactly one worker visits a at a time.
func (p *workers) handOff(a *activation) {
	for i := 0; i < parkShards; i++ {
		s := &p.shard[(a.reg.Seq+uint64(i))%parkShards]
		s.mu.Lock()
		if n := len(s.parked) - 1; n >= 0 {
			w := s.parked[n]
			s.parked = s.parked[:n]
			s.mu.Unlock()
			w.wake <- a
			return
		}
		s.mu.Unlock()
	}
	w, _ := handles.Get().(*worker)
	if w == nil {
		w = &worker{wake: make(chan *activation, 1)}
		w.run = w.loop
	}
	w.wake <- a
	go w.run()
}

// loop is a worker goroutine: visit what it is handed, park, repeat. pad
// keeps a parked worker using a quarter of its stack: below that every GC
// cycle would halve the stack and the worker's next turn grow it back.
func (w *worker) loop() {
	var pad [turnStack / 2]byte
	growStack(0)
	for a := <-w.wake; a != nil; a = <-w.wake {
		a.visit(&w.ctx)
		// A parked worker keeps no activation alive, and a Context kept
		// past its turn reads as context.Background, not as a nil one.
		w.ctx = Context{Context: context.Background()}
		if !a.silo.workers.park(w, a) {
			break
		}
	}
	handles.Put(w)
	runtime.KeepAlive(&pad)
}

// park leaves w in the home shard of a, which it has just visited; false
// means w should exit instead: the shard is full, or the silo has stopped.
func (p *workers) park(w *worker, a *activation) (ok bool) {
	s := &p.shard[a.reg.Seq%parkShards]
	s.mu.Lock()
	if ok = len(s.parked) < maxParked/parkShards && !p.stopped.Load(); ok {
		s.parked = append(s.parked, w)
	}
	s.mu.Unlock()
	return ok
}

// stop makes every parked worker exit, now and from here on: park reads
// stopped under the lock stop empties the shard with. Hand-offs keep
// working — teardown needs them — on workers that exit after their visit.
func (p *workers) stop() {
	p.stopped.Store(true)
	for i := range p.shard {
		s := &p.shard[i]
		s.mu.Lock()
		for _, w := range s.parked {
			w.wake <- nil // never blocks: a parked worker's channel is empty
		}
		s.parked = nil
		s.mu.Unlock()
	}
}

// turnStack is the stack a worker starts with room for. A goroutine starts
// on 2 KB and a turn of the SHM actors needs 8 or more: grown by doubling
// where the need arises, two or three copies of a stack a dozen frames deep.
const turnStack = 8 << 10

// growStack makes the calling goroutine's stack at least turnStack deep in
// one step, while it is two frames deep and the copy is next to nothing: a
// function's entry check covers its whole frame. The frame is zeroed only
// on the branch that uses it, which growStack(0) does not take.
//
//go:noinline
func growStack(i int) byte {
	if i > 0 {
		var frame [turnStack]byte
		frame[i] = 1
		return frame[i/2]
	}
	return 0
}
