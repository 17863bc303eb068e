package core

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"

	"aodb/internal/codec"
	"aodb/internal/telemetry"
	"aodb/internal/transport"
)

// MultiKind is the reserved transport target kind for multi-actor calls:
// one request frame carrying one message for many actors of one silo,
// answered by one frame of per-actor slots.
const MultiKind = "!multi"

// multiMaxTargets bounds the targets of one MultiKind frame, so a frame's
// encoded size stays bounded however large the call; bigger groups are
// split.
const multiMaxTargets = 256

// reissueWorkers bounds the goroutines that re-issue failed slots through
// the single-call path. Each of those calls may sit in retry backoff, so
// a few workers overlap the waits; the path is rare, so few are enough.
const reissueWorkers = 16

// CallResult is one target's outcome of a CallMany.
type CallResult struct {
	Actor ID
	Value any
	Err   error
}

// multiCall is the MultiKind request payload.
type multiCall struct {
	Targets []ID
	Msg     any
}

// multiSlot is one target's answer inside a multiReply: the turn's value,
// or its error as codec.Frame carries one — the message, plus what the
// caller acts on: Transient says the slot may be re-issued, Redirect names
// the silo a wrong-silo answer pointed at. err keeps the error value
// itself for in-process deliveries (it has no wire form), so a caller on
// transport.Local sees exactly the error a single Call would return.
type multiSlot struct {
	Value     any
	Err       string
	Redirect  string
	Transient bool
	err       error
}

// multiReply is the MultiKind response payload, slot i answering target i.
// A reply decoded from the run form (tag 0x42) has no Slots: run holds
// every slot's value as one []T, each slot having succeeded.
type multiReply struct {
	Slots []multiSlot
	run   any
}

// len is the reply's slot count, in either form.
func (r multiReply) len() int {
	if r.run != nil {
		return reflect.ValueOf(r.run).Len()
	}
	return len(r.Slots)
}

// Wire forms (tags 0x40–0x4f are this package's). Msg and the slots'
// values are payloads in their own right and recurse through Any. A
// target's kind goes through the stream's intern table and the keys share
// one copy (see codec.Dec.ShareStrings), so a 210-target frame decodes in
// a handful of allocations; resolveOnce clones the key it keeps. A reply
// takes the run form, 0x42, when every slot succeeded with a value of one
// type that has a form (codec.Enc.Run), and decodes into one []T instead
// of a box a slot; any other reply takes the per-slot form, 0x41.
func init() {
	codec.Register(multiCall{})
	codec.Register(multiReply{})
	codec.RegisterWire(0x40,
		func(e *codec.Enc, m multiCall) {
			e.Any(m.Msg)
			e.Len(len(m.Targets))
			for _, id := range m.Targets {
				e.String(id.Kind)
			}
			for _, id := range m.Targets {
				e.String(id.Key)
			}
		},
		func(d *codec.Dec) multiCall {
			m := multiCall{Msg: d.Any()}
			n := d.Len(2)
			if n == 0 {
				return m
			}
			m.Targets = make([]ID, n)
			for i := range m.Targets {
				m.Targets[i].Kind = d.Interned()
			}
			d.ShareStrings(n)
			for i := range m.Targets {
				m.Targets[i].Key = d.String()
			}
			return m
		})
	codec.RegisterWire(0x41,
		func(e *codec.Enc, m multiReply) {
			e.Len(len(m.Slots))
			for i := range m.Slots {
				s := &m.Slots[i]
				e.Any(s.Value)
				e.String(s.Err)
				e.String(s.Redirect)
				e.Bool(s.Transient)
			}
		},
		func(d *codec.Dec) multiReply {
			n := d.Len(4)
			if n == 0 {
				return multiReply{}
			}
			slots := make([]multiSlot, n)
			for i := range slots {
				slots[i] = multiSlot{Value: d.Any(), Err: d.String(), Redirect: d.Interned(), Transient: d.Bool()}
			}
			return multiReply{Slots: slots}
		})
	codec.RegisterWireAlt(0x42,
		func(e *codec.Enc, m multiReply) bool {
			if m.run != nil {
				run := reflect.ValueOf(m.run)
				return e.Run(run.Len(), func(i int) any { return run.Index(i).Interface() })
			}
			for i := range m.Slots {
				if s := &m.Slots[i]; s.Err != "" || s.Redirect != "" || s.Transient || s.err != nil {
					return false
				}
			}
			return e.Run(len(m.Slots), func(i int) any { return m.Slots[i].Value })
		},
		func(d *codec.Dec) multiReply { return multiReply{run: d.Run()} })
}

// CallMany sends msg to every actor in ids and returns their outcomes in
// target order. It is Call for many targets at the price of one transport
// round trip per destination silo: the targets are resolved as Call
// resolves them (directory registration, else the kind's placement, over
// one view snapshot for the whole batch), grouped by silo, and each group
// travels as one MultiKind frame that the silo fans into the targets'
// mailboxes. Turn semantics are Call's: every target runs one ordinary
// turn, in FIFO order with whatever else its mailbox holds.
//
// Failures are per target. An error a handler returned is that target's
// Err, as from Call. A slot the silo could not serve at once (a wrong-silo
// answer, a deactivating or crashed activation), and every slot of a group
// whose frame failed, is re-issued through Call's own retry loop, so
// self-healing stays in one place. When ctx ends first, every target
// still in flight reports the context's error.
func (rt *Runtime) CallMany(ctx context.Context, ids []ID, msg any) []CallResult {
	out := make([]CallResult, len(ids))
	for i, id := range ids {
		out[i].Actor = id
	}
	rt.callMany(ctx, ids, msg, results(out))
	return out
}

// CallManyOf is CallMany for a caller that knows what the targets answer:
// vals[i] is target i's value as a T. errs is nil when every target
// succeeded; otherwise errs[i] is target i's error, as CallMany reports
// it, and vals[i] is T's zero value. A value that is not a T (nil
// included, unless T is an interface) is its target's error, not a panic.
// Routing, grouping and re-issue are CallMany's own. What differs is the
// caller's cost: a group answered in the run form is copied out of one
// decoded []T, where CallMany boxes every slot.
func CallManyOf[T any](ctx context.Context, rt *Runtime, ids []ID, msg any) (vals []T, errs []error) {
	out := &typed[T]{ids: ids, vals: make([]T, len(ids))}
	rt.callMany(ctx, ids, msg, out)
	return out.vals, out.errs
}

// outcomes is where a multi-actor call files what each target answered.
// Each target is filed once, by one goroutine, and the call reads the
// outcomes only after every goroutine that files them has finished.
type outcomes interface {
	value(i int, v any)
	// run files a decoded run: target idx[j] answered element j of vs, a
	// []T.
	run(idx []int, vs any)
	fail(i int, err error)
	firstErr() error
}

// results is CallMany's outcomes.
type results []CallResult

func (r results) value(i int, v any) { r[i].Value = v }

func (r results) run(idx []int, vs any) {
	run := reflect.ValueOf(vs)
	for j, i := range idx {
		r[i].Value = run.Index(j).Interface()
	}
}

func (r results) fail(i int, err error) { r[i].Err = err }

func (r results) firstErr() error {
	for i := range r {
		if r[i].Err != nil {
			return r[i].Err
		}
	}
	return nil
}

// typed is CallManyOf's outcomes. errs is made at the first failure, so a
// call in which every target succeeds allocates none.
type typed[T any] struct {
	ids  []ID
	vals []T
	mu   sync.Mutex
	errs []error
}

func (o *typed[T]) value(i int, v any) {
	t, ok := v.(T)
	if !ok && (v != nil || reflect.TypeFor[T]().Kind() != reflect.Interface) {
		o.fail(i, fmt.Errorf("core: %s answered %T, want %v", o.ids[i], v, reflect.TypeFor[T]()))
		return
	}
	o.vals[i] = t
}

func (o *typed[T]) run(idx []int, vs any) {
	run, ok := vs.([]T)
	if !ok {
		for _, i := range idx {
			o.fail(i, fmt.Errorf("core: %s answered %v, want %v", o.ids[i], reflect.TypeOf(vs).Elem(), reflect.TypeFor[T]()))
		}
		return
	}
	for j, i := range idx {
		o.vals[i] = run[j]
	}
}

func (o *typed[T]) fail(i int, err error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.errs == nil {
		o.errs = make([]error, len(o.vals))
	}
	o.errs[i] = err
}

func (o *typed[T]) firstErr() error {
	for _, err := range o.errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// callMany is the one gather behind CallMany and CallManyOf.
func (rt *Runtime) callMany(ctx context.Context, ids []ID, msg any, out outcomes) {
	if len(ids) == 0 {
		return
	}
	if rt.isShutdown() {
		for i := range ids {
			out.fail(i, ErrShutdown)
		}
		return
	}
	var trace telemetry.SpanContext
	var root *telemetry.Span
	if rt.tracer.Tracing() {
		trace, root = rt.tracer.StartRoot(fmt.Sprintf("callmany %s +%d", ids[0], len(ids)-1))
	}

	groups := rt.groupBySilo(ids, out)
	var failed []reissue
	switch len(groups) {
	case 0:
	case 1:
		// The usual call, one org on one silo, starts no goroutine and so
		// allocates no wait group.
		failed = rt.sendGroup(ctx, groups[0], ids, msg, trace, out)
	default:
		again := make([][]reissue, len(groups))
		var wg sync.WaitGroup
		for g := 1; g < len(groups); g++ {
			wg.Add(1)
			// trace is passed, not captured: a captured trace moves to the
			// heap on every call.
			go func(g int, trace telemetry.SpanContext) {
				defer wg.Done()
				again[g] = rt.sendGroup(ctx, groups[g], ids, msg, trace, out)
			}(g, trace)
		}
		again[0] = rt.sendGroup(ctx, groups[0], ids, msg, trace, out)
		wg.Wait()
		for _, a := range again {
			failed = append(failed, a...)
		}
	}
	rt.reissueAll(ctx, failed, ids, msg, trace, out)

	if root != nil {
		root.Retries = int32(len(failed))
		rt.tracer.Finish(root, out.firstErr())
	}
}

// multiGroup is the targets of one MultiKind frame: positions in the
// caller's ids, in target order, all addressed to silo.
type multiGroup struct {
	silo string
	idx  []int
}

// groupBySilo resolves every target and groups them by destination silo,
// at most multiMaxTargets to a group. A target that cannot be addressed at
// all gets the error Call would give it and joins no group.
//
// The targets' canonical forms are rendered once, into one string, and
// each target's directory key is a substring of it: a rendering per
// target would escape into placement one allocation at a time.
func (rt *Runtime) groupBySilo(ids []ID, out outcomes) []multiGroup {
	n := 0
	for _, id := range ids {
		n += len(id.Kind) + 1 + len(id.Key)
	}
	var b strings.Builder
	b.Grow(n)
	for _, id := range ids {
		b.WriteString(id.Kind)
		b.WriteByte('/')
		b.WriteString(id.Key)
	}
	keys := b.String()

	var groups []multiGroup
	var view []string
	haveView := false
	var cfg *kindConfig
	off := 0
	for i, id := range ids {
		end := off + len(id.Kind) + 1 + len(id.Key)
		key := keys[off:end]
		off = end
		if err := id.Validate(); err != nil {
			out.fail(i, err)
			continue
		}
		if cfg == nil || cfg.kind != id.Kind {
			c, ok := rt.kind(id.Kind)
			if !ok {
				out.fail(i, fmt.Errorf("%w: %q", ErrUnknownKind, id.Kind))
				continue
			}
			cfg = c
		}
		var silo string
		if r, ok := rt.directory.Lookup(key); ok {
			silo = r.Silo
		} else {
			if !haveView {
				view, haveView = rt.view(), true
			}
			var err error
			if silo, err = place(rt.strategy(cfg), key, "", view); err != nil {
				out.fail(i, err)
				continue
			}
		}
		// A silo's open group is its newest; there are few groups, so a
		// scan from the end finds it faster than a map would.
		g := len(groups) - 1
		for g >= 0 && groups[g].silo != silo {
			g--
		}
		if g < 0 || len(groups[g].idx) == multiMaxTargets {
			g = len(groups)
			// Sized for every target left, so the usual group — the whole
			// call on one silo — is one allocation, not a doubling series.
			groups = append(groups, multiGroup{silo: silo, idx: make([]int, 0, min(len(ids)-i, multiMaxTargets))})
		}
		groups[g].idx = append(groups[g].idx, i)
	}
	return groups
}

// reissue names a target to send again through the single-call path,
// with the silo a wrong-silo slot redirected to, if it did.
type reissue struct {
	i        int
	redirect string
}

// sendGroup delivers one group as one frame and files the slots that came
// back into out. It returns the targets to re-issue: the slots the silo
// marked transient, or the whole group when the frame itself failed.
func (rt *Runtime) sendGroup(ctx context.Context, g multiGroup, ids []ID, msg any, trace telemetry.SpanContext, out outcomes) []reissue {
	// A group that holds every target — the usual case, one org on one
	// silo — is the caller's slice itself, in order.
	call := multiCall{Targets: ids, Msg: msg}
	if len(g.idx) != len(ids) {
		call.Targets = make([]ID, len(g.idx))
		for j, i := range g.idx {
			call.Targets[j] = ids[i]
		}
	}
	size := 0
	for _, id := range call.Targets {
		size += len(id.Kind) + len(id.Key) + 8
	}
	rt.metrics.Counter("core.multi.frames").Inc()
	rt.metrics.Counter("core.multi.targets").Add(int64(len(g.idx)))
	resp, err := rt.cfg.Transport.Call(ctx, g.silo, transport.Request{
		TargetKind: MultiKind,
		Method:     "call",
		Payload:    call,
		Trace:      trace,
		// The in-process transport charges serialization by size; a batch
		// is not a small control message.
		SizeHint: size,
	})
	var reply multiReply
	if err == nil {
		var ok bool
		if reply, ok = resp.(multiReply); !ok || reply.len() != len(g.idx) {
			err = fmt.Errorf("core: malformed multi reply %T from %s", resp, g.silo)
		}
	}
	if err != nil && ctx.Err() != nil {
		// The caller gave up; nothing can be re-issued under its context.
		for _, i := range g.idx {
			out.fail(i, err)
		}
		return nil
	}
	var again []reissue
	if err != nil {
		// No slot of a failed frame says whether its turn ran — exactly
		// what a failed single Call leaves its caller knowing — so every
		// target takes the single-call path, whose retry loop re-places
		// actors off a dead silo.
		for _, i := range g.idx {
			again = append(again, reissue{i: i})
		}
		return again
	}
	if reply.run != nil {
		out.run(g.idx, reply.run)
		return nil
	}
	for j, i := range g.idx {
		switch s := &reply.Slots[j]; {
		case s.Transient:
			again = append(again, reissue{i: i, redirect: s.Redirect})
		case s.err != nil:
			out.fail(i, s.err)
		case s.Err != "":
			out.fail(i, &transport.RemoteError{Node: g.silo, Msg: s.Err})
		default:
			out.value(i, s.Value)
		}
	}
	return again
}

// reissueAll sends each failed target through the single-call path.
func (rt *Runtime) reissueAll(ctx context.Context, failed []reissue, ids []ID, msg any, trace telemetry.SpanContext, out outcomes) {
	if len(failed) == 0 {
		return
	}
	rt.metrics.Counter("core.multi.reissued").Add(int64(len(failed)))
	var next atomic.Int32
	work := func() {
		for {
			j := int(next.Add(1)) - 1
			if j >= len(failed) {
				return
			}
			f := failed[j]
			if v, err := rt.call(ctx, "", nil, ids[f.i], msg, true, trace, f.redirect); err != nil {
				out.fail(f.i, err)
			} else {
				out.value(f.i, v)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < reissueWorkers && w < len(failed); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// gather collects the turns of one MultiKind frame: each target's
// envelope carries the gather and its slot number, the turn (or whatever
// fails the envelope) fills the slot, and the last one in closes done. It
// stands in for a reply channel and a waiting goroutine per target.
type gather struct {
	slots   []multiSlot
	pending atomic.Int32
	done    chan struct{}
}

// set files one target's outcome. Slots are distinct memory and the
// countdown orders every write before the close of done, so the handler
// reads the slots without a lock.
func (g *gather) set(i int, v any, err error) {
	if err != nil {
		g.slots[i] = multiSlot{
			Err:       err.Error(),
			Redirect:  redirectTarget(err),
			Transient: Transient(err),
			err:       err,
		}
	} else {
		g.slots[i].Value = v
	}
	if g.pending.Add(-1) == 0 {
		close(g.done)
	}
}

// handleMulti serves MultiKind frames (registered in New).
func (rt *Runtime) handleMulti(ctx context.Context, silo string, req transport.Request) (any, error) {
	call, ok := req.Payload.(multiCall)
	if !ok {
		return nil, fmt.Errorf("core: bad multi payload %T", req.Payload)
	}
	if len(call.Targets) == 0 {
		return multiReply{}, nil
	}
	g := &gather{slots: make([]multiSlot, len(call.Targets)), done: make(chan struct{})}
	g.pending.Store(int32(len(call.Targets)))
	if s, hosted := rt.Silo(silo); hosted {
		s.deliverMany(ctx, req, call, g)
	} else {
		// Removed or crashed after the transport accepted the frame.
		gone := fmt.Errorf("core: silo %s is gone: %w", silo, ErrTransient)
		for i := range call.Targets {
			g.set(i, nil, gone)
		}
	}
	select {
	case <-g.done:
		return multiReply{Slots: g.slots}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// deliverMany pushes one envelope per target into the targets' mailboxes,
// in target order, activating actors as a single delivery would. It never
// waits: a target that cannot take the envelope now (its mailbox is
// closing, its previous activation is mid-teardown, another silo holds
// it) has its slot filled with that error — transient, so the caller
// re-issues it — instead of holding up the batch.
func (s *Silo) deliverMany(ctx context.Context, req transport.Request, call multiCall, g *gather) {
	env := s.envelope(ctx, call.Msg, req.Chain, req.Trace, req.Sender != s.name)
	env.gather = g
	var cfg *kindConfig
	for i, id := range call.Targets {
		if cfg == nil || cfg.kind != id.Kind {
			c, ok := s.rt.kind(id.Kind)
			if !ok {
				g.set(i, nil, fmt.Errorf("%w: %q", ErrUnknownKind, id.Kind))
				continue
			}
			cfg = c
		}
		env.slot = int32(i)
		act, err := s.resolveOnce(id, cfg, true)
		if err == nil && !act.push(env) {
			err = fmt.Errorf("core: %s is deactivating: %w", id, ErrTransient)
		}
		if err != nil {
			g.set(i, nil, err)
		}
	}
}
