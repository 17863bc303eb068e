// The multi-actor call's equivalence test lives in an external test
// package because the harnesses it runs on (siloboot, faults) import
// core.
package core_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"aodb/internal/cluster"
	"aodb/internal/codec"
	"aodb/internal/core"
	"aodb/internal/faults"
	"aodb/internal/metrics"
	"aodb/internal/placement"
	"aodb/internal/siloboot"
	"aodb/internal/transport"
)

// eqGet reads an actor. The actor whose key is Fail answers with errBoom,
// the one whose key is Odd answers an int64 instead of an eqVal, and the
// one whose key is Hold ("*" is every actor) parks its turn on the test's
// gate first.
type eqGet struct{ Fail, Odd, Hold string }
type eqSet struct{ V int }
type eqVal struct {
	Kind, Key string
	V         int
}

// eqVal has a registered wire form, so a TCP reply whose slots all
// succeeded takes the run form.
func init() {
	codec.Register(eqGet{})
	codec.Register(eqSet{})
	codec.Register(eqVal{})
	codec.RegisterWire(0xe0,
		func(e *codec.Enc, v eqVal) { e.String(v.Kind); e.String(v.Key); e.Varint(int64(v.V)) },
		func(d *codec.Dec) eqVal { return eqVal{Kind: d.String(), Key: d.String(), V: int(d.Varint())} })
}

var errBoom = errors.New("boom")

// gate parks the turn eqGet.Hold names: the turn announces itself on
// entered and waits for release. Subtests run one at a time.
type gate struct {
	entered chan string
	release chan struct{}
}

var curGate atomic.Pointer[gate]

type eqActor struct {
	kind string
	v    int
}

func (a *eqActor) Receive(ctx *core.Context, msg any) (any, error) {
	key := ctx.Self().Key
	switch m := msg.(type) {
	case eqSet:
		a.v = m.V
		return nil, nil
	case eqGet:
		if m.Hold == key || m.Hold == "*" {
			g := curGate.Load()
			g.entered <- key
			<-g.release
		}
		if m.Fail == key {
			return nil, fmt.Errorf("%s/%s: %w", a.kind, key, errBoom)
		}
		if m.Odd == key {
			return int64(a.v), nil
		}
		return eqVal{Kind: a.kind, Key: key, V: a.v}, nil
	case eqPeek:
		return a.peek(ctx, m)
	}
	return nil, fmt.Errorf("eqActor: unknown message %T", msg)
}

var eqKinds = []string{"EqA", "EqB"}

func registerEq(t *testing.T, rt *core.Runtime) {
	t.Helper()
	for _, kind := range eqKinds {
		kind := kind
		if err := rt.RegisterKind(kind, func() core.Actor { return &eqActor{kind: kind} }); err != nil {
			t.Fatal(err)
		}
	}
}

var siloNames = []string{"silo-1", "silo-2", "silo-3"}

func newHash() *placement.ConsistentHash {
	h := placement.NewConsistentHash()
	h.PrefixSep = '@'
	return h
}

// hookTransport lets a test act between CallManyOf's grouping and a frame's
// delivery, and slide a fault injector under a running runtime.
type hookTransport struct {
	transport.Transport
	before atomic.Pointer[func(node string, req transport.Request)]
	faulty atomic.Pointer[faults.Transport]
}

func (h *hookTransport) Call(ctx context.Context, node string, req transport.Request) (any, error) {
	if f := h.before.Load(); f != nil {
		(*f)(node, req)
	}
	if ft := h.faulty.Load(); ft != nil {
		return ft.Call(ctx, node, req)
	}
	return h.Transport.Call(ctx, node, req)
}

func (h *hookTransport) Deregister(node string) {
	h.Transport.(transport.Deregisterer).Deregister(node)
}

// harness is one deployment the equivalence cases run on.
type harness struct {
	// tcp: the client is a separate runtime with an empty directory and a
	// static view; otherwise client and silos are one runtime.
	tcp bool
	// client is the runtime the test calls into; reg its registry.
	client *core.Runtime
	reg    *metrics.Registry
	// silos maps a silo name to the runtime hosting it.
	silos map[string]*core.Runtime
	// withFaults returns a client whose outbound calls pass through inj.
	withFaults func(inj *faults.Injector) *core.Runtime
	// crash kills a silo so that a CallManyOf issued next finds its group's
	// frame failing at the transport.
	crash func(victim string)
}

// bootLocal is one runtime with three silos on the in-process transport:
// the directory is shared, so CallManyOf groups by registration.
func bootLocal(t *testing.T) *harness {
	t.Helper()
	hook := &hookTransport{Transport: transport.NewLocal(nil, nil)}
	reg := metrics.NewRegistry()
	rt, err := core.New(core.Config{Transport: hook, Placement: newHash(), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown(rt) })
	registerEq(t, rt)
	h := &harness{tcp: false, client: rt, reg: reg, silos: map[string]*core.Runtime{}}
	for _, name := range siloNames {
		if _, err := rt.AddSilo(name, nil); err != nil {
			t.Fatal(err)
		}
		h.silos[name] = rt
	}
	h.withFaults = func(inj *faults.Injector) *core.Runtime {
		hook.faulty.Store(inj.WrapTransport(hook.Transport))
		return rt
	}
	h.crash = func(victim string) {
		// Crash the silo under the first multi frame addressed to it:
		// after CallManyOf grouped by the directory, before delivery.
		var once atomic.Bool
		f := func(node string, req transport.Request) {
			if node == victim && req.TargetKind == core.MultiKind && once.CompareAndSwap(false, true) {
				if err := rt.CrashSilo(victim); err != nil {
					t.Error(err)
				}
			}
		}
		hook.before.Store(&f)
	}
	return h
}

// bootTCP is three siloboot silos and a siloboot client on loopback TCP
// with a static view: the client's directory is empty, so CallManyOf groups
// by placement and learns of moved actors from redirect slots.
func bootTCP(t *testing.T) *harness {
	t.Helper()
	h := &harness{tcp: true, silos: map[string]*core.Runtime{}}
	var nodes []*siloboot.Node
	for _, name := range append([]string{"client"}, siloNames...) {
		node, err := siloboot.Start(siloboot.Options{
			Name:   name,
			Listen: "127.0.0.1:0",
			Silos:  strings.Join(siloNames, ","),
		})
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, node)
		t.Cleanup(func() {
			shutdown(node.Runtime)
			_ = node.TCP.Close()
		})
		registerEq(t, node.Runtime)
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if a != b {
				a.TCP.SetPeer(b.Name, b.TCP.Addr())
			}
		}
	}
	for _, node := range nodes[1:] {
		if _, err := node.Runtime.AddSilo(node.Name, nil); err != nil {
			t.Fatal(err)
		}
		h.silos[node.Name] = node.Runtime
	}
	h.client, h.reg = nodes[0].Runtime, nodes[0].Registry
	h.withFaults = func(inj *faults.Injector) *core.Runtime {
		rt, err := core.New(core.Config{
			Transport: noClose{inj.WrapTransport(nodes[0].TCP)},
			Placement: newHash(),
			View:      cluster.NewStaticView(siloNames...),
			Metrics:   h.reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { shutdown(rt) })
		registerEq(t, rt)
		return rt
	}
	h.crash = func(victim string) {
		for _, node := range nodes[1:] {
			if node.Name == victim {
				_ = node.TCP.Close()
			}
		}
	}
	return h
}

// noClose keeps a second runtime's Shutdown from closing the transport it
// shares with the harness's client.
type noClose struct{ transport.Transport }

func (noClose) Close() error { return nil }

func shutdown(rt *core.Runtime) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = rt.Shutdown(ctx)
}

// prefixOn finds, for each silo, a key prefix that consistent-hash
// placement sends there (the '@' prefix places an actor's whole family).
func prefixOn(t *testing.T) map[string]string {
	t.Helper()
	h := newHash()
	out := map[string]string{}
	for i := 0; len(out) < len(siloNames) && i < 1000; i++ {
		p := fmt.Sprintf("p%d", i)
		silo, err := h.Place("EqA/"+p+"@x", "", siloNames)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := out[silo]; !ok {
			out[silo] = p
		}
	}
	if len(out) != len(siloNames) {
		t.Fatalf("prefixes found for %d of %d silos", len(out), len(siloNames))
	}
	return out
}

// home names the silo whose runtime holds id's registration, or "".
func (h *harness) home(id core.ID) string {
	for _, rt := range h.silos {
		if reg, ok := rt.Directory().Lookup(id.String()); ok {
			return reg.Silo
		}
	}
	return ""
}

func (h *harness) counter(name string) int64 { return h.reg.Counter(name).Value() }

// batch is n targets per silo, kinds alternating, the silos interleaved.
func batch(prefixes map[string]string, n int) []core.ID {
	var ids []core.ID
	for i := 0; i < n; i++ {
		for _, silo := range siloNames {
			ids = append(ids, core.ID{Kind: eqKinds[i%2], Key: fmt.Sprintf("%s@t%d", prefixes[silo], i)})
		}
	}
	return ids
}

func warm(t *testing.T, rt *core.Runtime, ids []core.ID) {
	t.Helper()
	for i, id := range ids {
		if _, err := rt.Call(context.Background(), id, eqSet{V: i + 1}); err != nil {
			t.Fatalf("warming %s: %v", id, err)
		}
	}
}

// outcome is one target's answer to a multi-actor call: its value, or nil
// beside its error.
type outcome struct {
	Value any
	Err   error
}

// outcomes zips what CallManyOf returned into one outcome a target,
// checking the shape: a slot per target, and T's zero value beside every
// error.
func outcomes[T comparable](t *testing.T, ids []core.ID, vals []T, errs []error) []outcome {
	t.Helper()
	if len(vals) != len(ids) || errs != nil && len(errs) != len(ids) {
		t.Fatalf("CallManyOf returned %d values and %d errors for %d targets", len(vals), len(errs), len(ids))
	}
	var zero T
	out := make([]outcome, len(ids))
	for i, id := range ids {
		out[i].Value = vals[i]
		if errs != nil && errs[i] != nil {
			out[i] = outcome{Err: errs[i]}
			if vals[i] != zero {
				t.Errorf("%s: CallManyOf failed the slot and kept the value %+v", id, vals[i])
			}
		}
	}
	return out
}

// callMany runs CallManyOf[T] and returns its outcomes.
func callMany[T comparable](t *testing.T, ctx context.Context, rt *core.Runtime, ids []core.ID, msg any) []outcome {
	t.Helper()
	vals, errs := core.CallManyOf[T](ctx, rt, ids, msg)
	return outcomes(t, ids, vals, errs)
}

// sameOutcome checks one multi-actor slot against what the reference
// returned for the same target: the same value, or errors of the same
// class and message.
func sameOutcome(t *testing.T, id core.ID, got outcome, want any, wantErr error) {
	t.Helper()
	switch {
	case wantErr == nil && got.Err == nil:
		if got.Value != want {
			t.Errorf("%s: CallManyOf = %+v, want %+v", id, got.Value, want)
		}
	case wantErr == nil || got.Err == nil:
		t.Errorf("%s: CallManyOf err = %v, want err %v", id, got.Err, wantErr)
	default:
		if core.Transient(got.Err) != core.Transient(wantErr) {
			t.Errorf("%s: CallManyOf err %v and err %v differ in class", id, got.Err, wantErr)
		}
		if errors.Is(got.Err, errBoom) != errors.Is(wantErr, errBoom) {
			t.Errorf("%s: typed error kept by one path only: %v vs %v", id, got.Err, wantErr)
		}
		if strings.Contains(wantErr.Error(), "boom") != strings.Contains(got.Err.Error(), "boom") {
			t.Errorf("%s: CallManyOf err %q, want err %q", id, got.Err, wantErr)
		}
	}
}

// compare runs CallManyOf[any] and then Call per target, and checks them
// slot for slot; then CallManyOf[eqVal], checked slot for slot against
// CallManyOf[any].
func compare(t *testing.T, rt *core.Runtime, ids []core.ID, msg any) []outcome {
	t.Helper()
	ctx := context.Background()
	got := callMany[any](t, ctx, rt, ids, msg)
	for i, id := range ids {
		want, err := rt.Call(ctx, id, msg)
		sameOutcome(t, id, got[i], want, err)
	}
	sameAsAny(t, ctx, rt, ids, msg, got)
	return got
}

// sameAsAny runs CallManyOf[eqVal] over ids and checks every slot against
// what CallManyOf[any] answered for it: the same value, or an error of the
// same class.
func sameAsAny(t *testing.T, ctx context.Context, rt *core.Runtime, ids []core.ID, msg any, anys []outcome) {
	t.Helper()
	for i, r := range callMany[eqVal](t, ctx, rt, ids, msg) {
		sameOutcome(t, ids[i], r, anys[i].Value, anys[i].Err)
	}
}

// TestCallManyEquivalence: CallManyOf[any] answers every target as a
// single Call does, in process and over TCP, where a frame whose slots
// all succeeded with one type comes back as a run (tag 0x42).
func TestCallManyEquivalence(t *testing.T) {
	for _, on := range []struct {
		name string
		boot func(*testing.T) *harness
	}{{"local", bootLocal}, {"tcp", bootTCP}} {
		on := on
		// Every case gets a deployment of its own.
		run := func(sub string, f func(t *testing.T, h *harness, prefixes map[string]string)) {
			t.Run(on.name+"/"+sub, func(t *testing.T) { f(t, on.boot(t), prefixOn(t)) })
		}

		// Mixed kinds over three silos, a target never activated, a target
		// of an unregistered kind and a handler error in the middle.
		run("mixed", func(t *testing.T, h *harness, prefixes map[string]string) {
			ids := batch(prefixes, 6)
			warm(t, h.client, ids)
			cold := core.ID{Kind: "EqB", Key: prefixes["silo-2"] + "@never-activated"}
			ids = append(ids[:9:9], append([]core.ID{cold, {Kind: "Nope", Key: "x"}}, ids[9:]...)...)
			failing := ids[4].Key
			frames := h.counter("core.multi.frames")
			got := compare(t, h.client, ids, eqGet{Fail: failing})
			if d := h.counter("core.multi.frames") - frames; d != 6 {
				t.Errorf("CallManyOf[any] and CallManyOf[eqVal] sent %d frames to 3 silos, want 3 each", d)
			}
			for i, r := range got {
				switch {
				case ids[i].Key == failing:
					if r.Err == nil || !strings.Contains(r.Err.Error(), "boom") || core.Transient(r.Err) {
						t.Errorf("failing slot: %v", r.Err)
					}
					if !h.tcp && !errors.Is(r.Err, errBoom) {
						t.Errorf("in-process slot lost the typed error: %v", r.Err)
					}
				case ids[i].Kind == "Nope":
					if !errors.Is(r.Err, core.ErrUnknownKind) {
						t.Errorf("unknown kind slot: %v", r.Err)
					}
				case r.Err != nil:
					t.Errorf("%s: %v", ids[i], r.Err)
				}
			}
			if v := got[9].Value.(eqVal); v.Key != cold.Key || v.V != 0 {
				t.Errorf("cold target answered %+v", v)
			}
		})

		// No targets: no values, no errors, no frame.
		run("empty", func(t *testing.T, h *harness, prefixes map[string]string) {
			frames := h.counter("core.multi.frames")
			vals, errs := core.CallManyOf[any](context.Background(), h.client, nil, eqGet{})
			if len(vals) != 0 || errs != nil {
				t.Errorf("CallManyOf over no targets = %v, %v", vals, errs)
			}
			if d := h.counter("core.multi.frames") - frames; d != 0 {
				t.Errorf("CallManyOf over no targets sent %d frames", d)
			}
		})

		// More targets on one silo than one frame carries.
		run("split", func(t *testing.T, h *harness, prefixes map[string]string) {
			ids := make([]core.ID, 600)
			for i := range ids {
				ids[i] = core.ID{Kind: "EqA", Key: fmt.Sprintf("%s@big%d", prefixes["silo-3"], i)}
			}
			warm(t, h.client, ids[:300]) // the rest activate inside the batch
			frames := h.counter("core.multi.frames")
			wire := h.counter("transport.frames.sent")
			got := callMany[any](t, context.Background(), h.client, ids, eqGet{})
			if d := h.counter("core.multi.frames") - frames; d != 3 {
				t.Errorf("600 targets on one silo took %d frames, want 3", d)
			}
			if d := h.counter("transport.frames.sent") - wire; h.tcp && d != 3 {
				t.Errorf("client wrote %d wire frames, want 3", d)
			}
			for i, r := range got {
				want := 0
				if i < 300 {
					want = i + 1
				}
				if r.Err != nil || r.Value.(eqVal).V != want || r.Value.(eqVal).Key != ids[i].Key {
					t.Fatalf("slot %d = %+v, want V=%d", i, r, want)
				}
			}
			if home := h.home(ids[599]); home != "silo-3" {
				t.Errorf("target activated on %q", home)
			}
			frames = h.counter("core.multi.frames")
			sameAsAny(t, context.Background(), h.client, ids, eqGet{}, got)
			if d := h.counter("core.multi.frames") - frames; d != 3 {
				t.Errorf("CallManyOf[eqVal] over 600 targets on one silo took %d frames, want 3", d)
			}
		})

		// A target migrated away: over TCP the client still addresses the
		// old home, whose slot redirects; the fallback lands on the new one.
		run("migrated", func(t *testing.T, h *harness, prefixes map[string]string) {
			ids := batch(prefixes, 3)
			warm(t, h.client, ids)
			moved := ids[0] // on silo-1
			if err := h.silos["silo-1"].Migrate(context.Background(), moved, "silo-2"); err != nil {
				t.Fatal(err)
			}
			reissued := h.counter("core.multi.reissued")
			got := compare(t, h.client, ids, eqGet{})
			for i, r := range got {
				if r.Err != nil {
					t.Errorf("%s: %v", ids[i], r.Err)
				}
			}
			if home := h.home(moved); home != "silo-2" {
				t.Errorf("migrated actor lives on %q", home)
			}
			if d := h.counter("core.multi.reissued") - reissued; h.tcp && d != 2 {
				t.Errorf("%d slots re-issued by CallManyOf[any] and CallManyOf[eqVal], want the one redirect each", d)
			}
		})

		// A silo that dies between grouping and delivery: its whole group
		// falls back to single calls, the other groups are untouched.
		run("crashed", func(t *testing.T, h *harness, prefixes map[string]string) {
			ids := batch(prefixes, 5)
			warm(t, h.client, ids)
			h.crash("silo-2")
			reissued := h.counter("core.multi.reissued")
			got := callMany[any](t, context.Background(), h.client, ids, eqGet{})
			if d := h.counter("core.multi.reissued") - reissued; d != 5 {
				t.Errorf("%d slots re-issued, want silo-2's 5", d)
			}
			sameAsAny(t, context.Background(), h.client, ids, eqGet{}, got)
			for i, r := range got {
				onVictim := strings.HasPrefix(ids[i].Key, prefixes["silo-2"]+"@")
				switch {
				case !onVictim || !h.tcp:
					// The in-process view drops the crashed silo, so the
					// fallback re-places; the actors come back cold (their
					// state was volatile).
					if r.Err != nil || r.Value.(eqVal).Key != ids[i].Key {
						t.Errorf("%s: %+v", ids[i], r)
					}
					if home := h.home(ids[i]); home == "" || home == "silo-2" {
						t.Errorf("%s lives on %q after the crash", ids[i], home)
					}
				default:
					// A static view keeps placing on the dead silo; what is
					// left is Call's own classified failure.
					_, err := h.client.Call(context.Background(), ids[i], eqGet{})
					if r.Err == nil || !core.Transient(r.Err) || !core.Transient(err) {
						t.Errorf("%s: CallManyOf err = %v, Call err = %v, want both transient", ids[i], r.Err, err)
					}
				}
			}
		})

		// Seeded drops and duplicates under the client: every slot ends as
		// the right value or a classified transient failure.
		run("faults", func(t *testing.T, h *harness, prefixes map[string]string) {
			ids := batch(prefixes, 8)
			warm(t, h.client, ids)
			inj := faults.New(faults.Config{Seed: 13, Drop: 0.25, Dup: 0.2})
			rt := h.withFaults(inj)
			reissued := h.counter("core.multi.reissued")
			for round := 0; round < 80; round++ {
				results := callMany[any](t, context.Background(), rt, ids, eqGet{})
				if round%2 == 1 {
					results = callMany[eqVal](t, context.Background(), rt, ids, eqGet{})
				}
				for i, r := range results {
					if r.Err != nil {
						if !core.Transient(r.Err) {
							t.Fatalf("round %d %s: unclassified %v", round, ids[i], r.Err)
						}
						continue
					}
					if v := r.Value.(eqVal); v.Key != ids[i].Key || v.V != i+1 {
						t.Fatalf("round %d %s answered %+v", round, ids[i], v)
					}
				}
			}
			if inj.Fired("drop") == 0 || inj.Fired("dup") == 0 {
				t.Fatalf("injector fired %d drops, %d dups", inj.Fired("drop"), inj.Fired("dup"))
			}
			if h.counter("core.multi.reissued") == reissued {
				t.Error("no dropped frame fell back to single calls")
			}
		})

		// A context cancelled before or during the call ends it: slots
		// still in flight report the context's error, nothing hangs.
		run("cancelled", func(t *testing.T, h *harness, prefixes map[string]string) {
			ids := batch(prefixes, 4)
			warm(t, h.client, ids)
			dead, cancel := context.WithCancel(context.Background())
			cancel()
			for _, results := range [][]outcome{callMany[any](t, dead, h.client, ids, eqGet{}), callMany[eqVal](t, dead, h.client, ids, eqGet{})} {
				for i, r := range results {
					if r.Err != nil && !errors.Is(r.Err, context.Canceled) {
						t.Errorf("%s under a cancelled context: %v", ids[i], r.Err)
					}
					if r.Err == nil && r.Value.(eqVal).V != i+1 {
						t.Errorf("%s answered %+v", ids[i], r.Value)
					}
				}
			}

			g := &gate{entered: make(chan string, 1), release: make(chan struct{})}
			curGate.Store(g)
			ctx, cancel := context.WithCancel(context.Background())
			var vals []any
			var errs []error
			done := make(chan struct{})
			go func() {
				defer close(done)
				vals, errs = core.CallManyOf[any](ctx, h.client, ids, eqGet{Hold: ids[1].Key})
			}()
			<-g.entered // ids[1], on silo-2, is parked mid-turn
			cancel()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatal("CallManyOf outlived its context")
			}
			close(g.release)
			for i, r := range outcomes(t, ids, vals, errs) {
				onParked := strings.HasPrefix(ids[i].Key, prefixes["silo-2"]+"@")
				if onParked && !errors.Is(r.Err, context.Canceled) {
					t.Errorf("%s shares the parked frame: %+v", ids[i], r)
				}
				if !onParked && r.Err != nil && !errors.Is(r.Err, context.Canceled) {
					t.Errorf("%s: %v", ids[i], r.Err)
				}
			}
		})

		// A value of another type than the caller asked for is that slot's
		// error, not a panic, whether it came boxed or in a run.
		run("mistyped", func(t *testing.T, h *harness, prefixes map[string]string) {
			ids := batch(prefixes, 4)
			warm(t, h.client, ids)
			odd := 4 // on silo-2, whose frame alone holds two types
			ctx := context.Background()
			many := callMany[any](t, ctx, h.client, ids, eqGet{Odd: ids[odd].Key})
			if v, ok := many[odd].Value.(int64); !ok || v != int64(odd+1) {
				t.Fatalf("CallManyOf[any]'s odd slot = %+v", many[odd])
			}
			vals, errs := core.CallManyOf[eqVal](ctx, h.client, ids, eqGet{Odd: ids[odd].Key})
			if errs == nil {
				t.Fatal("CallManyOf[eqVal] reported no error for an int64 slot")
			}
			for i := range ids {
				switch {
				case i == odd:
					if errs[i] == nil || !strings.Contains(errs[i].Error(), "answered int64") || core.Transient(errs[i]) {
						t.Errorf("odd slot: value %+v, err %v", vals[i], errs[i])
					}
				case errs[i] != nil || vals[i] != many[i].Value:
					t.Errorf("%s: CallManyOf[eqVal] = %+v, %v; CallManyOf[any] = %+v", ids[i], vals[i], errs[i], many[i])
				}
			}
			ints, errs := core.CallManyOf[int64](ctx, h.client, ids, eqGet{Odd: ids[odd].Key})
			for i := range ids {
				if i == odd && (errs[i] != nil || ints[i] != int64(odd+1)) || i != odd && (errs[i] == nil || !strings.Contains(errs[i].Error(), "want int64")) {
					t.Errorf("%s as an int64: %d, %v", ids[i], ints[i], errs[i])
				}
			}
		})
	}
}

// TestCallManyHandlerCost: the silo side of a multi-actor call starts no
// goroutine of its own and makes no channel per target. A gated turn holds
// a worker, by design, so the goroutines are counted once the gate is
// released and the turns have finished: the handler leaves none behind
// beyond the silo's parked workers. And a call to N warm targets allocates
// at most 1.1 a target (measured 1.05): a reply channel made per target
// would cost two more.
func TestCallManyHandlerCost(t *testing.T) {
	h := bootLocal(t)
	prefixes := prefixOn(t)
	const n = 200
	ids := make([]core.ID, n)
	for i := range ids {
		ids[i] = core.ID{Kind: "EqA", Key: fmt.Sprintf("%s@c%d", prefixes["silo-1"], i)}
	}
	warm(t, h.client, ids)
	ctx := context.Background()

	g := &gate{entered: make(chan string, n), release: make(chan struct{})}
	curGate.Store(g)
	before := runtime.NumGoroutine()
	var vals []any
	var errs []error
	done := make(chan struct{})
	go func() {
		defer close(done)
		vals, errs = core.CallManyOf[any](ctx, h.client, ids, eqGet{Hold: "*"})
	}()
	for i := 0; i < n; i++ {
		<-g.entered
	}
	close(g.release)
	<-done
	for i, r := range outcomes(t, ids, vals, errs) {
		if r.Err != nil || r.Value.(eqVal).V != i+1 {
			t.Fatalf("slot %d = %+v", i, r)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine()-before > core.MaxParked {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines more than before a %d-target call, want at most the %d parked workers",
				runtime.NumGoroutine()-before, n, core.MaxParked)
		}
		time.Sleep(time.Millisecond)
	}

	single := testing.AllocsPerRun(200, func() {
		if _, err := h.client.Call(ctx, ids[0], eqGet{}); err != nil {
			t.Fatal(err)
		}
	})
	many := testing.AllocsPerRun(20, func() {
		if _, errs := core.CallManyOf[any](ctx, h.client, ids, eqGet{}); errs != nil {
			t.Fatal(errs)
		}
	})
	t.Logf("allocs: %.1f per single Call, %.2f per target of a %d-target CallManyOf[any]", single, many/n, n)
	if many/n > 1.1 {
		t.Errorf("CallManyOf[any] allocates %.2f per target, want at most 1.1: the per-target reply channel is back", many/n)
	}
}
