package core

import (
	"context"
	"testing"
	"time"

	"aodb/internal/codec/codectest"
	"aodb/internal/telemetry"
)

// toggleActor flips its runtime's recorder in the middle of a turn.
type toggleActor struct{ tr *telemetry.Tracer }

type toggleMsg struct{ To bool }

func (a *toggleActor) Receive(_ *Context, msg any) (any, error) {
	a.tr.SetEnabled(msg.(toggleMsg).To)
	time.Sleep(time.Millisecond) // a measurable Exec for the completed span
	return nil, nil
}

// recorderRuntime is a two-silo runtime with a relay on one silo and its
// counter on the other, so one relayed call crosses silos.
func recorderRuntime(t *testing.T, tr *telemetry.Tracer) (rt *Runtime, relay ID, msg relayMsg) {
	t.Helper()
	rt = newTestRuntime(t, Config{Tracer: tr})
	registerCounter(t, rt)
	if err := rt.RegisterKind("Relay", func() Actor { return &relayActor{} }); err != nil {
		t.Fatal(err)
	}
	if err := rt.RegisterKind("Toggle", func() Actor { return &toggleActor{tr: tr} }); err != nil {
		t.Fatal(err)
	}
	addSilo(t, rt, "s1")
	addSilo(t, rt, "s2")
	ctx := context.Background()
	relay, target := ID{"Relay", "r"}, ID{"Counter", "c"}
	if err := rt.Migrate(ctx, relay, "s1"); err != nil {
		t.Fatal(err)
	}
	if err := rt.Migrate(ctx, target, "s2"); err != nil {
		t.Fatal(err)
	}
	return rt, relay, relayMsg{Target: target}
}

// TestOneHandleContract: the runtime holds one recorder, and what a call
// that crosses silos leaves in it is decided by the parts the recorder was
// built with — nothing by a nil or disabled one, which also add no
// allocation to Runtime.Call.
func TestOneHandleContract(t *testing.T) {
	all := telemetry.Spans | telemetry.Events | telemetry.Profile
	cases := []struct {
		name                   string
		tracer                 func() *telemetry.Tracer
		spans, events, profile bool
	}{
		{name: "nil", tracer: func() *telemetry.Tracer { return nil }},
		{name: "disabled", tracer: func() *telemetry.Tracer {
			tr := telemetry.New(telemetry.Config{Silo: "p", Parts: all})
			tr.SetEnabled(false)
			return tr
		}},
		{name: "spans only", spans: true, tracer: func() *telemetry.Tracer {
			return telemetry.New(telemetry.Config{Silo: "p"})
		}},
		{name: "events only", events: true, tracer: func() *telemetry.Tracer {
			return telemetry.New(telemetry.Config{Silo: "p", Parts: telemetry.Events})
		}},
		{name: "profile only", profile: true, tracer: func() *telemetry.Tracer {
			return telemetry.New(telemetry.Config{Silo: "p", Parts: telemetry.Profile})
		}},
		{name: "all", spans: true, events: true, profile: true, tracer: func() *telemetry.Tracer {
			return telemetry.New(telemetry.Config{Silo: "p", Parts: all})
		}},
	}
	ctx := context.Background()
	var baseline float64 // allocations of one relayed call with no recorder at all
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := c.tracer()
			rt, relay, msg := recorderRuntime(t, tr)
			before := rt.Metrics().Counter("core.turns").Value()
			if _, err := rt.Call(ctx, relay, msg); err != nil {
				t.Fatal(err)
			}
			awaitTurns(t, rt, before+2)
			on := c.spans || c.events || c.profile

			root, turns := (*telemetry.Span)(nil), []telemetry.Span(nil)
			spans := tr.Spans()
			for _, sp := range spans {
				if sp.Kind == telemetry.KindRoot {
					root, turns = spansByKind(spans, sp.TraceID)
				}
			}
			if c.spans {
				if root == nil || len(turns) != 2 {
					t.Fatalf("want a root and two turn spans, got root=%v turns=%+v", root, turns)
				}
				silos := map[string]bool{}
				for _, turn := range turns {
					silos[turn.Silo] = true
					if turn.Dur <= 0 || turn.Parent == 0 {
						t.Fatalf("incomplete turn span %+v", turn)
					}
				}
				if !silos["s1"] || !silos["s2"] {
					t.Fatalf("trace did not cross silos: %+v", turns)
				}
			} else if len(spans) != 0 {
				t.Fatalf("recorded %d spans without the Spans part", len(spans))
			}

			kinds := map[string]telemetry.KindStats{}
			for _, ks := range tr.KindStats() {
				kinds[ks.Kind] = ks
			}
			perKind := c.spans || c.profile
			if perKind != (kinds["Relay"].Turns == 1 && kinds["Counter"].Turns == 1) || !perKind && len(kinds) != 0 {
				t.Fatalf("kind stats with spans or profile on=%v: %+v", perKind, kinds)
			}
			if got := kinds["Relay"].CPUNanos > 0; got != c.profile {
				t.Fatalf("kind CPU recorded=%v, want %v", got, c.profile)
			}

			// The set-up's two migrations are the events a cross-silo
			// placement leaves behind.
			activates := 0
			for _, e := range tr.Events() {
				if e.Kind == "migrate-activate" && e.Silo == "p" && e.Corr != "" {
					activates++
				}
			}
			if c.events && activates != 2 || !c.events && len(tr.Events()) != 0 {
				t.Fatalf("events part on=%v: %+v", c.events, tr.Events())
			}
			if got := tr.StampHLC() != 0; got != c.events {
				t.Fatalf("HLC stamped=%v, want %v", got, c.events)
			}

			hot := map[string]string{}
			for _, e := range tr.HotActors() {
				hot[e.Key] = e.Label
			}
			if c.profile && (hot["Relay/r"] != "s1" || hot["Counter/c"] != "s2") || !c.profile && len(hot) != 0 {
				t.Fatalf("profile part on=%v: %+v", c.profile, hot)
			}

			// Under -race, sync.Pool drops recycled reply channels at
			// random, so the two counts are not comparable there.
			if !on && !codectest.RaceEnabled {
				allocs := testing.AllocsPerRun(200, func() {
					if _, err := rt.Call(ctx, relay, msg); err != nil {
						t.Fatal(err)
					}
				})
				if tr == nil {
					baseline = allocs
				} else if allocs != baseline {
					t.Fatalf("a disabled recorder costs Runtime.Call %v allocations, none costs %v", allocs, baseline)
				}
			}
		})
	}
}

// TestRecorderToggledMidTurn: a turn the recorder saw begin is recorded
// whole even if the recorder is switched off under it, and a turn that
// began unseen leaves nothing behind when the recorder comes on — never a
// panic, never a half-span.
func TestRecorderToggledMidTurn(t *testing.T) {
	tr := telemetry.New(telemetry.Config{Silo: "p", Parts: telemetry.Spans | telemetry.Events | telemetry.Profile})
	rt, _, _ := recorderRuntime(t, tr)
	ctx := context.Background()
	id := ID{"Toggle", "t"}
	toggleSpans := func() (out []telemetry.Span) {
		for _, sp := range tr.Spans() {
			if sp.Kind == telemetry.KindTurn && sp.Actor == id.String() {
				out = append(out, sp)
			}
		}
		return out
	}

	turnsBefore := rt.Metrics().Counter("core.turns").Value()
	if _, err := rt.Call(ctx, id, toggleMsg{To: false}); err != nil { // on -> off mid-turn
		t.Fatal(err)
	}
	awaitTurns(t, rt, turnsBefore+1)
	spans := toggleSpans()
	if len(spans) != 1 || spans[0].Exec < time.Millisecond || spans[0].Dur < spans[0].Exec {
		t.Fatalf("turn switched off mid-flight must still be recorded whole: %+v", spans)
	}

	if _, err := rt.Call(ctx, id, toggleMsg{To: true}); err != nil { // off -> on mid-turn
		t.Fatal(err)
	}
	awaitTurns(t, rt, turnsBefore+2)
	if spans := toggleSpans(); len(spans) != 1 {
		t.Fatalf("turn that began unseen left spans behind: %+v", spans)
	}
	for _, ks := range tr.KindStats() {
		if ks.Kind == "Toggle" && ks.Turns != 1 {
			t.Fatalf("Toggle turns = %d, want 1 (the second began with the recorder off)", ks.Turns)
		}
	}

	if _, err := rt.Call(ctx, id, toggleMsg{To: true}); err != nil { // and it records again
		t.Fatal(err)
	}
	awaitTurns(t, rt, turnsBefore+3)
	if spans := toggleSpans(); len(spans) != 2 {
		t.Fatalf("re-enabled recorder recorded %d Toggle turns, want 2", len(spans))
	}
}
