package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"aodb/internal/metrics"
)

type fakeRuntime struct{ snap RuntimeSnapshot }

func (f fakeRuntime) IntrospectionSnapshot() RuntimeSnapshot { return f.snap }

func testIntrospection() *Introspection {
	reg := metrics.NewRegistry()
	reg.Counter("core.turns").Add(42)
	reg.Gauge("core.active").Add(7)
	reg.Histogram("latency.insert").Record(1000)

	tr := New(Config{})
	for i := 0; i < 3; i++ {
		_, sp := tr.StartRoot("call Sensor/1")
		tr.Finish(sp, nil)
	}
	profTurn(tr, "Sensor/1", "Sensor", "silo-1", 5*time.Millisecond, 0)

	return &Introspection{
		Registry: reg,
		Tracer:   tr,
		Runtime: fakeRuntime{snap: RuntimeSnapshot{Silos: []SiloStats{{
			Name: "silo-1", Activations: 3, ByKind: map[string]int{"Sensor": 3},
			MailboxDepth: 5, MailboxMax: 4, Utilization: 0.5,
		}}}},
		Breakers: func() []BreakerState {
			return []BreakerState{{Node: "silo-2", State: "open", Failures: 5, Trips: 1}}
		},
	}
}

func get(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d", path, rec.Code)
	}
	return rec.Body.String()
}

func TestMetricsEndpoint(t *testing.T) {
	h := testIntrospection().Handler()
	body := get(t, h, "/metrics")
	for _, want := range []string{
		"aodb_core_turns 42",
		"aodb_core_active 7",
		`aodb_latency_insert{quantile="0.5"}`,
		"aodb_trace_spans_recorded 3",
		`aodb_kind_turns{kind="Sensor"} 1`,
		`aodb_silo_activations{silo="silo_1"} 3`,
		`aodb_silo_mailbox_depth{silo="silo_1"} 5`,
		`aodb_silo_utilization{silo="silo_1"} 0.5`,
		`aodb_silo_kind_activations{silo="silo_1",kind="Sensor"} 3`,
		`aodb_breaker_state{node="silo_2"} 1`,
		`aodb_breaker_trips{node="silo_2"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

func TestTraceEndpoint(t *testing.T) {
	in := testIntrospection()
	h := in.Handler()
	var spans []Span
	if err := json.Unmarshal([]byte(get(t, h, "/trace")), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 3 {
		t.Fatalf("/trace returned %d spans", len(spans))
	}
	if err := json.Unmarshal([]byte(get(t, h, "/trace?limit=2")), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("/trace?limit=2 returned %d spans", len(spans))
	}
	if err := json.Unmarshal([]byte(get(t, h, "/trace?slow=1")), &spans); err != nil {
		t.Fatal(err)
	}
	if len(spans) != 0 {
		t.Fatalf("/trace?slow=1 returned %d spans, want 0", len(spans))
	}
}

func TestActorsEndpoint(t *testing.T) {
	h := testIntrospection().Handler()
	var snap RuntimeSnapshot
	if err := json.Unmarshal([]byte(get(t, h, "/actors")), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Silos) != 1 || snap.Silos[0].Name != "silo-1" || snap.Silos[0].Activations != 3 {
		t.Fatalf("/actors = %+v", snap)
	}
}

func TestEmptyIntrospectionServes(t *testing.T) {
	h := (&Introspection{}).Handler()
	get(t, h, "/metrics")
	if body := get(t, h, "/trace"); strings.TrimSpace(body) != "[]" {
		t.Fatalf("/trace = %q", body)
	}
	if body := get(t, h, "/actors"); strings.TrimSpace(body) != "{}" {
		t.Fatalf("/actors = %q", body)
	}
	for _, path := range []string{"/events", "/members"} {
		if body := get(t, h, path); strings.TrimSpace(body) != "[]" {
			t.Fatalf("%s = %q", path, body)
		}
	}
}

func TestServeGracefulShutdown(t *testing.T) {
	in := testIntrospection()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	done := make(chan error, 1)
	go func() { done <- in.Serve(ctx, "127.0.0.1:0", ready) }()
	addr := <-ready

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "aodb_core_turns") {
		t.Fatalf("live /metrics: status %d body %q", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v after graceful shutdown", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after context cancellation")
	}
}

// jsonShape reduces decoded JSON to its structure: objects keep their keys,
// arrays collapse to the union of their elements' shapes, scalars to their
// type.
func jsonShape(v any) any {
	switch v := v.(type) {
	case map[string]any:
		out := map[string]any{}
		for k, e := range v {
			out[k] = jsonShape(e)
		}
		return out
	case []any:
		union := map[string]any{}
		for _, e := range v {
			m, ok := jsonShape(e).(map[string]any)
			if !ok {
				return []any{jsonShape(e)}
			}
			for k, s := range m {
				union[k] = s
			}
		}
		return []any{union}
	default:
		return fmt.Sprintf("%T", v)
	}
}

// TestObsWireShapeMatchesParent pins /obs against a document the commit
// before the one-recorder change served (testdata/obs.parent.json, a silo
// with a tracer, a profiler and a breaker): the same state served now has
// the same keys at every level — kind_stats with its untagged field names
// beside kind_profiles included — and the old document decodes into
// today's ObsSnapshot with nothing lost, which is what a mixed-version
// aggregator does.
func TestObsWireShapeMatchesParent(t *testing.T) {
	raw, err := os.ReadFile("testdata/obs.parent.json")
	if err != nil {
		t.Fatal(err)
	}
	var parent any
	if err := json.Unmarshal(raw, &parent); err != nil {
		t.Fatal(err)
	}

	reg := metrics.NewRegistry()
	reg.Counter("core.turns").Add(3)
	reg.Gauge("core.active").Set(2)
	reg.Histogram("shm.call_latency").Record(int64(time.Millisecond))
	tr := New(Config{Parts: Spans | Profile})
	profTurn(tr, "Sensor/1", "Sensor", "silo-1", 2*time.Millisecond, 4)
	profTurn(tr, "Org/1", "Org", "silo-1", 50*time.Microsecond, 0)
	tr.ObserveState("Sensor/1", "Sensor", 512)
	in := &Introspection{Registry: reg, Tracer: tr, Name: "silo-1", Breakers: func() []BreakerState {
		return []BreakerState{{Node: "silo-2", State: "open", Failures: 5, Trips: 1}}
	}}
	var now any
	if err := json.Unmarshal([]byte(get(t, in.Handler(), "/obs")), &now); err != nil {
		t.Fatal(err)
	}
	if want, got := jsonShape(parent), jsonShape(now); !reflect.DeepEqual(want, got) {
		t.Fatalf("/obs shape changed:\nparent %v\nnow    %v", want, got)
	}

	var snap ObsSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Kinds) != 2 || snap.Kinds[1] != (KindStats{Kind: "Sensor", Turns: 2, CPUNanos: 2100000, MailboxHWM: 4, MaxStateBytes: 512}) {
		t.Fatalf("parent kind_profiles decoded to %+v", snap.Kinds)
	}
	if len(snap.KindTurns) != 2 || snap.KindTurns[1] != (KindTurns{Kind: "Sensor", Turns: 2, SlowTurns: 1, TurnNanos: 2100000}) {
		t.Fatalf("parent kind_stats decoded to %+v", snap.KindTurns)
	}
	if len(snap.HotActors) != 2 || snap.ProfTurns != 3 || len(snap.Breakers) != 1 {
		t.Fatalf("parent snapshot decoded to %+v", snap)
	}
}
