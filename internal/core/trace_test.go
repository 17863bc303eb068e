package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aodb/internal/capacity"
	"aodb/internal/kvstore"
	"aodb/internal/telemetry"
	"aodb/internal/transport"
)

// relayActor forwards a message to another actor, exercising nested-call
// trace propagation and accounting.
type relayActor struct{}

type relayMsg struct{ Target ID }

func (r *relayActor) Receive(ctx *Context, msg any) (any, error) {
	m := msg.(relayMsg)
	return ctx.Call(m.Target, addMsg{N: 1})
}

// spansByKind splits a trace's spans into the root and its turns.
func spansByKind(spans []telemetry.Span, traceID uint64) (root *telemetry.Span, turns []telemetry.Span) {
	for i := range spans {
		sp := spans[i]
		if sp.TraceID != traceID {
			continue
		}
		if sp.Kind == telemetry.KindRoot {
			root = &spans[i]
		} else {
			turns = append(turns, sp)
		}
	}
	return root, turns
}

// TestTraceEndToEndComponents drives one relayed call through a
// capacity-limited silo and checks the full span tree: root -> relay
// turn -> counter turn, with the simulated-CPU and nested-call
// components attributed.
func TestTraceEndToEndComponents(t *testing.T) {
	tracer := telemetry.New(telemetry.Config{})
	rt := newTestRuntime(t, Config{
		Tracer: tracer,
		Cost:   func(ID, any) time.Duration { return 2 * time.Millisecond },
	})
	registerCounter(t, rt)
	if err := rt.RegisterKind("Relay", func() Actor { return &relayActor{} }); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddSilo("s1", capacity.NewLimiter(capacity.M5Large, nil)); err != nil {
		t.Fatal(err)
	}

	target := ID{"Counter", "a"}
	if _, err := rt.Call(context.Background(), ID{"Relay", "r"}, relayMsg{Target: target}); err != nil {
		t.Fatal(err)
	}
	awaitTurns(t, rt, 2)

	spans := tracer.Spans()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3 (root + 2 turns): %+v", len(spans), spans)
	}
	root, turns := spansByKind(spans, spans[0].TraceID)
	if root == nil || len(turns) != 2 {
		t.Fatalf("trace shape: root=%v turns=%d", root, len(turns))
	}
	if root.Actor != "call Relay/r" || root.Dur <= 0 || root.Err != "" {
		t.Fatalf("root = %+v", root)
	}
	var relay, counter telemetry.Span
	for _, sp := range turns {
		switch sp.Actor {
		case "Relay/r":
			relay = sp
		case "Counter/a":
			counter = sp
		}
	}
	if relay.Parent != root.SpanID {
		t.Fatalf("relay turn parent = %d, want root span %d", relay.Parent, root.SpanID)
	}
	if counter.Parent != relay.SpanID {
		t.Fatalf("counter turn parent = %d, want relay span %d", counter.Parent, relay.SpanID)
	}
	for _, sp := range []telemetry.Span{relay, counter} {
		if sp.Silo != "s1" || sp.Dur <= 0 {
			t.Fatalf("turn = %+v", sp)
		}
	}
	// The limiter's overshoot credit can zero an individual turn's burn,
	// but the trace as a whole must show simulated CPU service time.
	if relay.CPUBurn+counter.CPUBurn <= 0 {
		t.Fatalf("trace CPUBurn = %v + %v, want > 0 with a cost model", relay.CPUBurn, counter.CPUBurn)
	}
	// The relay arrived from an external client (remote hop); the nested
	// counter call stayed on the same silo.
	if !relay.Remote || counter.Remote {
		t.Fatalf("remote flags: relay=%v counter=%v", relay.Remote, counter.Remote)
	}
	if relay.Nested <= 0 || relay.Hops != 1 {
		t.Fatalf("relay nested accounting: nested=%v hops=%d", relay.Nested, relay.Hops)
	}
	// ExecSelf must strip the nested counter call out of the relay turn.
	if relay.ExecSelf() >= relay.Exec {
		t.Fatalf("relay ExecSelf %v not reduced from Exec %v", relay.ExecSelf(), relay.Exec)
	}

	stats := map[string]telemetry.KindStats{}
	for _, ks := range tracer.KindStats() {
		stats[ks.Kind] = ks
	}
	if stats["Relay"].Turns != 1 || stats["Counter"].Turns != 1 {
		t.Fatalf("kind stats = %+v", stats)
	}
}

// TestTraceAttributesStorageTime: a turn that writes actor state through
// the kvstore sees that time attributed to its span's StoreWrite.
func TestTraceAttributesStorageTime(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	tracer := telemetry.New(telemetry.Config{})
	rt := newTestRuntime(t, Config{Store: kv, Tracer: tracer})
	registerCounter(t, rt, WithPersistence(PersistExplicit))
	addSilo(t, rt, "s1")
	ctx := context.Background()
	id := ID{"Counter", "a"}
	if _, err := rt.Call(ctx, id, addMsg{N: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Call(ctx, id, saveMsg{}); err != nil {
		t.Fatal(err)
	}
	awaitTurns(t, rt, 2)
	var saveTurn *telemetry.Span
	spans := tracer.Spans()
	for i := range spans {
		sp := &spans[i]
		if sp.Kind == telemetry.KindTurn && sp.StoreWrite > 0 {
			saveTurn = sp
		}
	}
	if saveTurn == nil {
		t.Fatalf("no turn span attributed StoreWrite time: %+v", spans)
	}
	if saveTurn.ExecSelf() >= saveTurn.Exec {
		t.Fatalf("store time not subtracted from ExecSelf: %+v", saveTurn)
	}
}

// TestRootSpanRecordsRetries: transient transport failures absorbed by
// the self-healing call path surface on the root span's retry count, and
// the trace still completes with a turn on the (eventually reached) silo.
func TestRootSpanRecordsRetries(t *testing.T) {
	inner := transport.NewLocal(nil, nil)
	ft := &failFirstTransport{Transport: inner}
	ft.remaining.Store(2)
	tracer := telemetry.New(telemetry.Config{})
	rt := newTestRuntime(t, Config{
		Transport: ft,
		Tracer:    tracer,
		Retry:     RetryPolicy{MaxAttempts: 4, BaseBackoff: time.Millisecond, MaxBackoff: 4 * time.Millisecond},
	})
	registerCounter(t, rt)
	addSilo(t, rt, "s1")

	if _, err := rt.Call(context.Background(), ID{"Counter", "a"}, addMsg{3}); err != nil {
		t.Fatal(err)
	}
	awaitTurns(t, rt, 1)
	spans := tracer.Spans()
	root, turns := spansByKind(spans, spans[0].TraceID)
	if root == nil || root.Retries != 2 || root.Err != "" {
		t.Fatalf("root = %+v, want 2 retries and success", root)
	}
	if len(turns) != 1 || turns[0].Silo != "s1" {
		t.Fatalf("turns = %+v, want one turn on s1", turns)
	}
}

// TestTraceSurvivesSiloCrash: after CrashSilo, a call to an actor that
// lived there is re-placed on the surviving silo and its trace completes
// there — same trace id from root to turn.
func TestTraceSurvivesSiloCrash(t *testing.T) {
	tracer := telemetry.New(telemetry.Config{})
	rt := newTestRuntime(t, Config{Tracer: tracer})
	registerCounter(t, rt)
	addSilo(t, rt, "s1")
	addSilo(t, rt, "s2")
	ctx := context.Background()

	var victim ID
	found := false
	var calls int64
	for i := 0; i < 200 && !found; i++ {
		id := ID{"Counter", fmt.Sprintf("c%d", i)}
		if _, err := rt.Call(ctx, id, addMsg{N: 1}); err != nil {
			t.Fatal(err)
		}
		calls++
		if reg, ok := rt.Directory().Lookup(id.String()); ok && reg.Silo == "s1" {
			victim, found = id, true
		}
	}
	if !found {
		t.Fatal("no actor landed on s1")
	}
	if err := rt.CrashSilo("s1"); err != nil {
		t.Fatal(err)
	}
	before := tracer.Recorded()
	if _, err := rt.Call(ctx, victim, getMsg{}); err != nil {
		t.Fatalf("call after crash: %v", err)
	}
	awaitTurns(t, rt, calls+1)
	spans := tracer.Spans()
	var root *telemetry.Span
	for i := range spans {
		sp := &spans[i]
		if sp.Kind == telemetry.KindRoot && sp.Actor == "call "+victim.String() && sp.Err == "" {
			root = sp // keep the last (post-crash) one
		}
	}
	if root == nil {
		t.Fatalf("no successful root for %s after crash (recorded %d -> %d)", victim, before, tracer.Recorded())
	}
	_, turns := spansByKind(spans, root.TraceID)
	onSurvivor := false
	for _, turn := range turns {
		if turn.Silo == "s2" {
			onSurvivor = true
		}
	}
	if !onSurvivor {
		t.Fatalf("trace %d has no turn on surviving silo: %+v", root.TraceID, turns)
	}
}

// TestDisabledTracerRecordsNothing: with the tracer off, the entire call
// path records no spans and no kind stats, and re-enabling works.
func TestDisabledTracerRecordsNothing(t *testing.T) {
	tracer := telemetry.New(telemetry.Config{})
	tracer.SetEnabled(false)
	rt := newTestRuntime(t, Config{Tracer: tracer})
	registerCounter(t, rt)
	addSilo(t, rt, "s1")
	ctx := context.Background()
	if _, err := rt.Call(ctx, ID{"Counter", "a"}, addMsg{1}); err != nil {
		t.Fatal(err)
	}
	if tracer.Recorded() != 0 || len(tracer.KindStats()) != 0 {
		t.Fatalf("disabled tracer recorded: %d spans, stats %+v", tracer.Recorded(), tracer.KindStats())
	}
	tracer.SetEnabled(true)
	if _, err := rt.Call(ctx, ID{"Counter", "a"}, addMsg{1}); err != nil {
		t.Fatal(err)
	}
	if tracer.Recorded() == 0 {
		t.Fatal("re-enabled tracer recorded nothing")
	}
}

// TestIntrospectionSnapshot: the pull-based gauges reflect live
// activations, kinds, and capacity utilization.
func TestIntrospectionSnapshot(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	registerCounter(t, rt)
	if _, err := rt.AddSilo("s1", capacity.NewLimiter(capacity.M5Large, nil)); err != nil {
		t.Fatal(err)
	}
	addSilo(t, rt, "s2")
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := rt.Call(ctx, ID{"Counter", fmt.Sprintf("c%d", i)}, addMsg{1}); err != nil {
			t.Fatal(err)
		}
	}
	awaitTurns(t, rt, 5) // the last turn still holds its limiter slot when its reply lands
	snap := rt.IntrospectionSnapshot()
	if len(snap.Silos) != 2 || snap.Silos[0].Name != "s1" || snap.Silos[1].Name != "s2" {
		t.Fatalf("snapshot silos = %+v", snap.Silos)
	}
	total := 0
	for _, s := range snap.Silos {
		total += s.Activations
		if s.Activations > 0 && s.ByKind["Counter"] != s.Activations {
			t.Fatalf("silo %s kinds = %+v", s.Name, s.ByKind)
		}
	}
	if total != 5 {
		t.Fatalf("total activations = %d, want 5", total)
	}
	// s1 has a limiter (idle: utilization 0), s2 has none (-1).
	if snap.Silos[0].Utilization != 0 || snap.Silos[1].Utilization != -1 {
		t.Fatalf("utilizations = %v / %v", snap.Silos[0].Utilization, snap.Silos[1].Utilization)
	}
}
