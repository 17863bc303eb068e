package core

import (
	"context"
	"testing"
	"time"

	"aodb/internal/clock"
	"aodb/internal/kvstore"
	"aodb/internal/telemetry"
	"aodb/internal/transport"
)

// TestMigrateJournalContinuity: one migration's flight-recorder events —
// prepare, drain, activate — must share a single correlation id and land
// in causal (HLC) order, so a merged timeline reads the hand-off as one
// operation rather than three coincidences.
func TestMigrateJournalContinuity(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	jr := telemetry.New(telemetry.Config{Silo: "proc-1", Parts: telemetry.Events})
	rt := newTestRuntime(t, Config{Store: kv, Tracer: jr})
	registerCounter(t, rt, WithPersistence(PersistOnDeactivate))
	rt.AddSilo("silo-1", nil)
	rt.AddSilo("silo-2", nil)
	ctx := context.Background()

	id := ID{"Counter", "journaled"}
	if _, err := rt.Call(ctx, id, addMsg{N: 1}); err != nil {
		t.Fatal(err)
	}
	reg, _ := rt.Directory().Lookup(id.String())
	dst := "silo-1"
	if reg.Silo == dst {
		dst = "silo-2"
	}
	if err := rt.Migrate(ctx, id, dst); err != nil {
		t.Fatalf("Migrate: %v", err)
	}

	var prepare, drain, activate *telemetry.Event
	for _, e := range jr.Events() {
		if e.Actor != id.String() {
			continue
		}
		e := e
		switch e.Kind {
		case "migrate-prepare":
			prepare = &e
		case "migrate-drain":
			drain = &e
		case "migrate-activate":
			activate = &e
		}
	}
	if prepare == nil || drain == nil || activate == nil {
		t.Fatalf("missing migration phases: prepare=%v drain=%v activate=%v", prepare, drain, activate)
	}
	if prepare.Corr == "" {
		t.Fatal("migration events must carry a correlation id")
	}
	if drain.Corr != prepare.Corr || activate.Corr != prepare.Corr {
		t.Fatalf("phases must share one correlation id: prepare=%s drain=%s activate=%s",
			prepare.Corr, drain.Corr, activate.Corr)
	}
	// Cause sorts before effect: the HLC strictly advances through the
	// phases (Record mints a fresh stamp, so equality would mean a phase
	// was recorded out of order).
	if !(prepare.HLC < drain.HLC && drain.HLC < activate.HLC) {
		t.Fatalf("phases out of causal order: prepare=%d drain=%d activate=%d",
			prepare.HLC, drain.HLC, activate.HLC)
	}
}

// TestMigrateTraceContextSurvives: a traced call before and after a
// migration must both produce spans — the tracer's context propagation
// does not break when the actor changes homes mid-stream.
func TestMigrateTraceContextSurvives(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	tracer := telemetry.New(telemetry.Config{})
	rt := newTestRuntime(t, Config{Store: kv, Tracer: tracer})
	registerCounter(t, rt, WithPersistence(PersistOnDeactivate))
	rt.AddSilo("silo-1", nil)
	rt.AddSilo("silo-2", nil)
	ctx := context.Background()

	id := ID{"Counter", "traced-mover"}
	if _, err := rt.Call(ctx, id, addMsg{N: 1}); err != nil {
		t.Fatal(err)
	}
	reg, _ := rt.Directory().Lookup(id.String())
	dst := "silo-1"
	if reg.Silo == dst {
		dst = "silo-2"
	}
	before := len(tracer.Spans())
	if err := rt.Migrate(ctx, id, dst); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if _, err := rt.Call(ctx, id, addMsg{N: 1}); err != nil {
		t.Fatal(err)
	}
	// The post-migration turn must attribute to the new home, under a
	// root span — the trace tree stays intact across the move. The turn
	// replies before it records its span, so wait for the span.
	found := func(spans []telemetry.Span) bool {
		for _, sp := range spans {
			if sp.Kind == telemetry.KindTurn && sp.Actor == id.String() && sp.Silo == dst && sp.TraceID != 0 {
				return true
			}
		}
		return false
	}
	deadline := time.Now().Add(5 * time.Second)
	for spans := tracer.Spans(); len(spans) <= before || !found(spans); spans = tracer.Spans() {
		if time.Now().After(deadline) {
			t.Fatalf("no turn span attributed to %s on %s after migration: %d spans before, %d after",
				id, dst, before, len(spans))
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestInboundHLCStampIsMerged: a request stamped by a sender whose clock
// runs an hour ahead pulls this silo's clock past the stamp before the
// delivery runs — for actor calls and service RPCs alike, since both
// enter through Silo.handle — so everything the delivery causes sorts
// after its send in a merged timeline.
func TestInboundHLCStampIsMerged(t *testing.T) {
	jr := telemetry.New(telemetry.Config{Silo: "proc-1", Parts: telemetry.Events})
	rt := newTestRuntime(t, Config{Tracer: jr})
	registerCounter(t, rt)
	served := false
	if err := rt.RegisterService("!probe", func(context.Context, string, transport.Request) (any, error) {
		served = true
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	silo, err := rt.AddSilo("silo-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	ahead := telemetry.New(telemetry.Config{Silo: "far", Parts: telemetry.Events,
		Clock: clock.NewFake(time.Now().Add(time.Hour))})
	for _, req := range []transport.Request{
		{TargetKind: "Counter", TargetKey: "a", Method: "call", Payload: addMsg{N: 1}, HLC: ahead.StampHLC()},
		{TargetKind: "!probe", TargetKey: "silo-1", Method: "call", HLC: ahead.StampHLC()},
	} {
		if _, err := silo.handle(context.Background(), req); err != nil {
			t.Fatal(err)
		}
		if local := jr.StampHLC(); local <= req.HLC {
			t.Fatalf("%s: local clock %d did not pass the inbound stamp %d", req.TargetKind, local, req.HLC)
		}
	}
	if !served {
		t.Fatal("service RPC not dispatched")
	}
}
