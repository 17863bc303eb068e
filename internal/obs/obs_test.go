package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aodb/internal/metrics"
	"aodb/internal/telemetry"
)

// buildSilo fabricates one silo's introspection state: a registry with a
// shared-name latency histogram, a recorder with silo-local hot actors and
// one flight-recorder event.
func buildSilo(name string, latencies []time.Duration, hot map[string]time.Duration) *telemetry.Introspection {
	reg := metrics.NewRegistry()
	h := reg.Histogram("shm.call_latency")
	for _, d := range latencies {
		h.Record(int64(d))
	}
	reg.Counter("core.turns").Add(int64(len(latencies)))
	tr := telemetry.New(telemetry.Config{Silo: name, Parts: telemetry.Profile | telemetry.Events})
	for actor, cpu := range hot {
		tn := tr.StartTurn(telemetry.SpanContext{}, actor, "Sensor", name)
		tn.Depth = 1
		tr.EndTurn(&tn, cpu, 0, 0, nil, false)
	}
	tr.Record(telemetry.MemberJoin, "", 0, "member="+name)
	return &telemetry.Introspection{Registry: reg, Tracer: tr, Name: name}
}

// TestAggregatorMergesSilos is the acceptance-criteria check at unit
// scale: three real HTTP introspection endpoints, a merged /cluster view
// whose histogram percentiles equal the union of the per-silo streams
// (HDR merge is lossless) and whose top-K list matches per-silo ground
// truth.
func TestAggregatorMergesSilos(t *testing.T) {
	perSilo := [][]time.Duration{
		{1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond},
		{10 * time.Millisecond, 20 * time.Millisecond},
		{100 * time.Millisecond},
	}
	hot := []map[string]time.Duration{
		{"Sensor/a": 50 * time.Millisecond, "Sensor/b": 10 * time.Millisecond},
		{"Sensor/c": 80 * time.Millisecond},
		{"Sensor/d": 5 * time.Millisecond},
	}
	var targets []Target
	union := metrics.NewRegistry().Histogram("union")
	for i := range perSilo {
		in := buildSilo(fmt.Sprintf("silo-%d", i+1), perSilo[i], hot[i])
		srv := httptest.NewServer(in.Handler())
		defer srv.Close()
		targets = append(targets, Target{Name: fmt.Sprintf("silo-%d", i+1), URL: srv.URL})
		for _, d := range perSilo[i] {
			union.Record(int64(d))
		}
	}
	agg := New(Config{Targets: targets})
	snap := agg.PollOnce(context.Background())

	if snap.Partial {
		t.Fatalf("snapshot marked partial with all silos up: %+v", snap.Silos)
	}
	if len(snap.Silos) != 3 {
		t.Fatalf("silos = %d, want 3", len(snap.Silos))
	}
	merged, ok := snap.Hists["shm.call_latency"]
	if !ok {
		t.Fatalf("merged histogram missing: %v", snap.Hists)
	}
	want := union.Snapshot()
	if merged.Count != want.Count || merged.Sum != want.Sum {
		t.Fatalf("merged count/sum = %d/%d, want %d/%d", merged.Count, merged.Sum, want.Count, want.Sum)
	}
	for _, q := range []float64{50, 99, 99.9} {
		if got, exp := merged.Percentile(q), want.Percentile(q); got != exp {
			t.Fatalf("p%g = %d, want %d (union ground truth)", q, got, exp)
		}
	}
	if snap.Counters["core.turns"] != 6 {
		t.Fatalf("summed counter = %d, want 6", snap.Counters["core.turns"])
	}
	// Top-K ground truth: actors are silo-local, so the merged ranking is
	// the concatenation sorted by CPU.
	if len(snap.HotActors) != 4 {
		t.Fatalf("hot actors = %+v, want 4", snap.HotActors)
	}
	if snap.HotActors[0].Key != "Sensor/c" || snap.HotActors[1].Key != "Sensor/a" {
		t.Fatalf("merged ranking wrong: %+v", snap.HotActors)
	}
	if snap.HotActors[0].Label != "silo-2" {
		t.Fatalf("hot actor label = %q, want silo-2", snap.HotActors[0].Label)
	}
	// Kind profiles sum across silos.
	if len(snap.Kinds) != 1 || snap.Kinds[0].Turns != 4 {
		t.Fatalf("kind profiles = %+v", snap.Kinds)
	}
	// So do the turn counters served as kind_stats.
	if len(snap.KindTurns) != 1 || snap.KindTurns[0].Kind != "Sensor" || snap.KindTurns[0].Turns != 4 || snap.KindTurns[0].TurnNanos <= 0 {
		t.Fatalf("kind stats = %+v", snap.KindTurns)
	}
}

// TestConcurrentRoundsWithMovingMembers: a metrics round and a timeline
// round run at once in shmserver -history (the Run loop and a
// /cluster/events request) while the membership view re-announces, and
// sometimes moves, every member's address. Meaningful under -race.
func TestConcurrentRoundsWithMovingMembers(t *testing.T) {
	in := buildSilo("silo-1", []time.Duration{time.Millisecond}, nil)
	a, b := httptest.NewServer(in.Handler()), httptest.NewServer(in.Handler())
	defer a.Close()
	defer b.Close()
	var polls atomic.Int64
	agg := New(Config{Members: func() []telemetry.MemberInfo {
		addr := a.URL
		if polls.Add(1)%2 == 0 {
			addr = b.URL
		}
		return []telemetry.MemberInfo{{Name: "silo-1", ObsAddr: addr, State: "alive"}}
	}})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if w%2 == 0 {
					if snap := agg.PollOnce(context.Background()); len(snap.Silos) != 1 || !snap.Silos[0].Ok {
						t.Errorf("round saw %+v", snap.Silos)
					}
				} else if events, err := agg.EventsOnce(context.Background()); err != nil || len(events) != 1 {
					t.Errorf("timeline round: %d events, %v", len(events), err)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestAggregatorSiloDownIsPartialNotHung: a dead target must not stall
// the round; the snapshot comes back partial with the dead silo marked.
func TestAggregatorSiloDownIsPartialNotHung(t *testing.T) {
	in := buildSilo("silo-1", []time.Duration{time.Millisecond}, nil)
	srv := httptest.NewServer(in.Handler())
	defer srv.Close()
	agg := New(Config{
		Targets: []Target{
			{Name: "silo-1", URL: srv.URL},
			{Name: "silo-dead", URL: "http://127.0.0.1:1"}, // connection refused
		},
		Timeout: 500 * time.Millisecond,
	})
	start := time.Now()
	snap := agg.PollOnce(context.Background())
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("PollOnce took %v with a dead silo", elapsed)
	}
	if !snap.Partial {
		t.Fatal("snapshot not marked partial with a dead silo")
	}
	var live, dead *SiloView
	for i := range snap.Silos {
		switch snap.Silos[i].Name {
		case "silo-1":
			live = &snap.Silos[i]
		case "silo-dead":
			dead = &snap.Silos[i]
		}
	}
	if live == nil || !live.Ok {
		t.Fatalf("live silo not ok: %+v", snap.Silos)
	}
	if dead == nil || dead.Ok || dead.Error == "" {
		t.Fatalf("dead silo not marked: %+v", dead)
	}
	// The live silo's data still merged.
	if snap.Hists["shm.call_latency"].Count != 1 {
		t.Fatalf("live silo data missing from partial merge: %+v", snap.Hists)
	}
}

// TestAggregatorSlowSiloGoesStale: a silo that answers once and then
// hangs keeps contributing its last good snapshot, marked stale.
func TestAggregatorSlowSiloGoesStale(t *testing.T) {
	in := buildSilo("silo-1", []time.Duration{time.Millisecond}, nil)
	healthy := in.Handler()
	hang := make(chan struct{})
	defer close(hang)
	mode := make(chan bool, 1) // true = hang
	hanging := false
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case hanging = <-mode:
		default:
		}
		if hanging {
			select {
			case <-hang:
			case <-r.Context().Done():
			}
			return
		}
		healthy.ServeHTTP(w, r)
	}))
	defer srv.Close()

	agg := New(Config{
		Targets:    []Target{{Name: "silo-1", URL: srv.URL}},
		Timeout:    300 * time.Millisecond,
		staleAfter: time.Nanosecond, // any re-merged old data counts as stale
	})
	first := agg.PollOnce(context.Background())
	if first.Partial || first.Hists["shm.call_latency"].Count != 1 {
		t.Fatalf("healthy first poll wrong: %+v", first)
	}

	mode <- true // silo now hangs
	start := time.Now()
	second := agg.PollOnce(context.Background())
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("PollOnce took %v with a hanging silo", elapsed)
	}
	if !second.Partial {
		t.Fatal("snapshot not partial with a hanging silo")
	}
	sv := second.Silos[0]
	if sv.Ok || !sv.Stale || sv.Error == "" {
		t.Fatalf("hanging silo view = %+v, want stale with error", sv)
	}
	// Last good data still present.
	if second.Hists["shm.call_latency"].Count != 1 {
		t.Fatalf("stale data dropped: %+v", second.Hists)
	}
}

func TestAggregatorHistoryRing(t *testing.T) {
	in := buildSilo("silo-1", []time.Duration{time.Millisecond}, nil)
	agg := New(Config{})
	agg.AddLocal("silo-1", in)
	for i := 0; i < historyLen+5; i++ {
		agg.PollOnce(context.Background())
	}
	hist := agg.History()
	if len(hist) != historyLen {
		t.Fatalf("history len = %d, want %d (bounded ring)", len(hist), historyLen)
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Time.Before(hist[i-1].Time) {
			t.Fatal("history out of order")
		}
	}
	q, ok := hist[historyLen-1].Quantiles["shm.call_latency"]
	if !ok || q[0] <= 0 {
		t.Fatalf("history sample quantiles missing: %+v", hist[historyLen-1])
	}
}

// TestClusterEndpoint drives the HTTP surface end to end: local source in,
// JSON out, including on-demand polling when Run is not active.
func TestClusterEndpoint(t *testing.T) {
	in := buildSilo("silo-1", []time.Duration{time.Millisecond, 2 * time.Millisecond},
		map[string]time.Duration{"Sensor/x": time.Millisecond})
	agg := New(Config{})
	agg.AddLocal("silo-1", in)
	srv := httptest.NewServer(clusterMux(agg))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/cluster")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	// The merged view's fields sit flat beside now/silos, as they always
	// have on the wire.
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"now", "silos", "counters", "histograms", "hot_actors", "kind_profiles", "kind_stats", "prof_turns", "prof_cpu_nanos"} {
		if _, ok := keys[k]; !ok {
			t.Fatalf("/cluster JSON has no %q key: %s", k, raw)
		}
	}
	if len(keys) != 9 {
		t.Fatalf("/cluster JSON has unexpected keys: %s", raw)
	}
	var snap ClusterSnapshot
	if err := json.Unmarshal(raw, &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Silos) != 1 || !snap.Silos[0].Ok {
		t.Fatalf("cluster silos = %+v", snap.Silos)
	}
	if snap.Hists["shm.call_latency"].Count != 2 {
		t.Fatalf("cluster hist = %+v", snap.Hists)
	}
	if len(snap.HotActors) != 1 || snap.HotActors[0].Key != "Sensor/x" {
		t.Fatalf("cluster hot actors = %+v", snap.HotActors)
	}

	promResp, err := http.Get(srv.URL + "/cluster/prom")
	if err != nil {
		t.Fatal(err)
	}
	defer promResp.Body.Close()
	promBody, err := io.ReadAll(promResp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(promBody)
	for _, want := range []string{
		"aodb_cluster_silos_up 1",
		`aodb_cluster_silo_up{silo="silo-1"} 1`,
		"aodb_cluster_core_turns 2",
		`aodb_cluster_shm_call_latency{quantile="0.99"}`,
		`aodb_cluster_hot_actor_cpu_nanos{actor="Sensor/x",silo="silo-1"} 1000000`,
		`aodb_cluster_kind_turns{kind="Sensor"} 1`,
		`aodb_cluster_kind_cpu_nanos{kind="Sensor"} 1000000`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prom output missing %q:\n%s", want, body)
		}
	}
}

// TestClusterEventsMergesLocalAndRemote: /cluster/events reads in-process
// and remote rings through the one scrape path, merges them by HLC, and
// honors the per-silo endpoint's filters; an unreachable silo contributes
// nothing rather than failing the timeline.
func TestClusterEventsMergesLocalAndRemote(t *testing.T) {
	local := buildSilo("silo-1", nil, nil)
	remote := buildSilo("silo-2", nil, nil)
	remote.Tracer.ObserveHLC(local.Tracer.StampHLC())
	remote.Tracer.Record(telemetry.MemberDead, "", 0, "member=silo-3")
	srv := httptest.NewServer(remote.Handler())
	defer srv.Close()
	agg := New(Config{
		Targets: []Target{{Name: "silo-2", URL: srv.URL}, {Name: "ghost", URL: "http://127.0.0.1:1"}},
		Timeout: 500 * time.Millisecond,
	})
	agg.AddLocal("silo-1", local)

	events, err := agg.EventsOnce(context.Background())
	if err == nil || !strings.Contains(err.Error(), "ghost unreachable") || strings.Contains(err.Error(), "silo-2") {
		t.Fatalf("EventsOnce error = %v, want only ghost named", err)
	}
	if len(events) != 3 {
		t.Fatalf("merged %d events, want 3: %+v", len(events), events)
	}
	for i := 1; i < len(events); i++ {
		if events[i].HLC < events[i-1].HLC {
			t.Fatalf("timeline not HLC-ordered: %+v", events)
		}
	}
	if last := events[2]; last.Kind != "member-dead" || last.Silo != "silo-2" {
		t.Fatalf("the event caused last must sort last: %+v", events)
	}

	api := httptest.NewServer(clusterMux(agg))
	defer api.Close()
	resp, err := http.Get(api.URL + "/cluster/events?kind=member-join&n=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var filtered []telemetry.Event
	if err := json.NewDecoder(resp.Body).Decode(&filtered); err != nil {
		t.Fatal(err)
	}
	if len(filtered) != 1 || filtered[0].Kind != "member-join" {
		t.Fatalf("filtered timeline = %+v", filtered)
	}
}

func clusterMux(agg *Aggregator) http.Handler {
	mux := http.NewServeMux()
	agg.Register(mux)
	return mux
}
