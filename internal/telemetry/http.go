package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"aodb/internal/metrics"
)

// RuntimeSnapshot is a point-in-time view of a runtime's silos and
// activations, produced on demand by core.Runtime.IntrospectionSnapshot
// so live gauges cost nothing on the message hot path.
type RuntimeSnapshot struct {
	Silos []SiloStats `json:"silos"`
}

// SiloStats describes one silo's live state.
type SiloStats struct {
	Name        string         `json:"name"`
	Activations int            `json:"activations"`
	ByKind      map[string]int `json:"by_kind,omitempty"`
	// MailboxDepth is the total queued-message backlog across the
	// silo's activations; MailboxMax the deepest single mailbox.
	MailboxDepth int `json:"mailbox_depth"`
	MailboxMax   int `json:"mailbox_max"`
	// Utilization is busy-capacity-slots / total-slots, in [0,1];
	// -1 when the silo has no capacity limiter.
	Utilization float64 `json:"utilization"`
}

// BreakerState is one per-target circuit breaker's operator view,
// produced by transport.Breaker.States.
type BreakerState struct {
	Node     string `json:"node"`
	State    string `json:"state"` // "closed", "open", "half-open"
	Failures int    `json:"failures"`
	Trips    int64  `json:"trips"`
}

// RuntimeSource is implemented by core.Runtime.
type RuntimeSource interface {
	IntrospectionSnapshot() RuntimeSnapshot
}

// MemberInfo is one row of the membership view served at /members: the
// member's name, its advertised observability endpoint (empty if it did
// not advertise one), and its SWIM state ("alive", "suspect", "dead",
// "left").
type MemberInfo struct {
	Name    string `json:"name"`
	ObsAddr string `json:"obs,omitempty"`
	State   string `json:"state"`
}

// Introspection serves the runtime-observability HTTP surface:
//
//	/metrics  Prometheus text format: registry counters/gauges/histogram
//	          quantiles, per-kind turn stats, silo gauges, breaker states,
//	          hot-actor attribution
//	/trace    recent sampled spans as JSON (?limit=N, ?slow=1)
//	/actors   the activation catalog snapshot as JSON
//	/obs      the full mergeable observability snapshot as JSON — sparse
//	          histogram buckets, heavy-hitter sketch entries, per-kind
//	          profiles — the scrape surface the cluster aggregator merges
//	/events   the flight-recorder ring as a JSON array of Event, oldest
//	          first (empty without the Events part); filters ?actor=,
//	          ?corr=, ?kind=, ?n= (see EventFilter)
//	/members  the live membership view, when Members is set
//	/debug/pprof/...  net/http/pprof, only when Pprof is set
//
// Every field is optional; nil sources simply do not contribute.
type Introspection struct {
	Registry *metrics.Registry
	Tracer   *Tracer
	Runtime  RuntimeSource
	// Breakers supplies circuit-breaker states (transport.Breaker.States
	// fits; a func field keeps telemetry free of a transport dependency).
	Breakers func() []BreakerState
	// Members, when set, serves the live membership view at /members —
	// enough for an observer process (shmtop) to discover every silo's
	// scrape endpoint and dead/alive status from any one seed silo,
	// without joining gossip itself. A func field keeps telemetry free of
	// a gossip dependency.
	Members func() []MemberInfo
	// Name tags /obs snapshots with the process's silo name so aggregated
	// views can attribute them.
	Name string
	// Pprof mounts net/http/pprof under /debug/pprof/ for on-demand CPU
	// and heap profiling of an individual silo. Off by default: profiling
	// endpoints on a production port are an operator opt-in.
	Pprof bool
	// Extra, when set, registers additional routes on the introspection
	// mux (the in-process cluster aggregator mounts /cluster here).
	Extra func(mux *http.ServeMux)
}

// Handler returns the introspection mux.
func (in *Introspection) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", in.serveMetrics)
	mux.HandleFunc("/trace", in.serveTrace)
	mux.HandleFunc("/actors", in.serveActors)
	mux.HandleFunc("/obs", in.serveObs)
	mux.HandleFunc("/events", in.serveEvents)
	mux.HandleFunc("/members", in.serveMembers)
	if in.Pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	if in.Extra != nil {
		in.Extra(mux)
	}
	return mux
}

// ObsSnapshot is the mergeable wire form of one process's observability
// state, served at /obs and consumed by the cluster aggregator. Histogram
// snapshots serialize sparsely and merge losslessly; hot actors are
// space-saving sketch entries that merge with bounded error.
type ObsSnapshot struct {
	Silo  string    `json:"silo,omitempty"`
	Now   time.Time `json:"now"`
	Pprof bool      `json:"pprof,omitempty"`

	Runtime  *RuntimeSnapshot            `json:"runtime,omitempty"`
	Counters map[string]int64            `json:"counters,omitempty"`
	Gauges   map[string]int64            `json:"gauges,omitempty"`
	Hists    map[string]metrics.Snapshot `json:"histograms,omitempty"`

	// HotActors, Kinds and the totals are present with the Profile part.
	HotActors []metrics.TopKEntry `json:"hot_actors,omitempty"`
	Kinds     []KindStats         `json:"kind_profiles,omitempty"`
	// ProfTurns/ProfCPUNanos are the profile-wide totals hot-actor
	// shares are computed against.
	ProfTurns    int64 `json:"prof_turns,omitempty"`
	ProfCPUNanos int64 `json:"prof_cpu_nanos,omitempty"`

	KindTurns []KindTurns    `json:"kind_stats,omitempty"`
	Breakers  []BreakerState `json:"breakers,omitempty"`
}

// KindTurns is one kind's turn counters as /obs has always served them
// under kind_stats (hence the untagged field names): the same table as
// KindStats, whichever parts feed it.
type KindTurns struct {
	Kind      string
	Turns     int64
	SlowTurns int64
	TurnNanos int64 // summed turn wall time
}

// Obs assembles the process's current ObsSnapshot (also used in-process
// by the benchmark harness, bypassing HTTP).
func (in *Introspection) Obs() ObsSnapshot {
	snap := ObsSnapshot{Silo: in.Name, Now: time.Now(), Pprof: in.Pprof}
	if in.Registry != nil {
		snap.Counters = in.Registry.Counters()
		snap.Gauges = in.Registry.Gauges()
		snap.Hists = in.Registry.Histograms()
	}
	if in.Runtime != nil {
		rs := in.Runtime.IntrospectionSnapshot()
		snap.Runtime = &rs
	}
	kinds := in.Tracer.KindStats()
	sort.Slice(kinds, func(i, j int) bool { return kinds[i].Kind < kinds[j].Kind })
	for _, ks := range kinds {
		snap.KindTurns = append(snap.KindTurns, KindTurns{ks.Kind, ks.Turns, ks.SlowTurns, ks.TurnNanos})
	}
	if hot := in.Tracer.HotActors(); hot != nil { // the Profile part is on
		snap.HotActors, snap.Kinds = hot, kinds
		snap.ProfTurns, snap.ProfCPUNanos = in.Tracer.ProfileTotals()
	}
	if in.Breakers != nil {
		snap.Breakers = in.Breakers()
		sort.Slice(snap.Breakers, func(i, j int) bool { return snap.Breakers[i].Node < snap.Breakers[j].Node })
	}
	return snap
}

func (in *Introspection) serveObs(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, in.Obs())
}

// Serve listens on addr and serves the introspection surface until ctx
// is cancelled, then drains in-flight requests gracefully (5s bound).
// It returns once shutdown completes. ready, when non-nil, receives the
// bound address (useful with ":0") before serving starts.
func (in *Introspection) Serve(ctx context.Context, addr string, ready chan<- string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	srv := &http.Server{Handler: in.Handler()}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shCtx); err != nil {
			srv.Close()
			return err
		}
		<-done // Serve has returned http.ErrServerClosed
		return nil
	case err := <-done:
		return err
	}
}

// promName sanitizes a metric name into the Prometheus charset.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9' && i > 0:
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WriteProm renders the snapshot in Prometheus text format, every series
// named prefix + the sanitized metric name, label values passed through
// label. It is the one renderer: /metrics renders a silo's own snapshot
// under "aodb_" with sanitized label values, the aggregator's
// /cluster/prom the merged one under "aodb_cluster_" with raw ones, as
// each always has.
func (s *ObsSnapshot) WriteProm(w io.Writer, prefix string, label func(string) string) {
	for _, name := range sortedKeys(s.Counters) {
		n := prefix + promName(name)
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", n, n, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		n := prefix + promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", n, n, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Hists) {
		h := s.Hists[name]
		n := prefix + promName(name)
		fmt.Fprintf(w, "# TYPE %s summary\n", n)
		for _, q := range []float64{50, 90, 99, 99.9} {
			fmt.Fprintf(w, "%s{quantile=\"%g\"} %d\n", n, q/100, h.Percentile(q))
		}
		fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", n, h.Sum, n, h.Count)
	}
	for _, kt := range s.KindTurns {
		k := label(kt.Kind)
		fmt.Fprintf(w, "%skind_turns{kind=%q} %d\n", prefix, k, kt.Turns)
		fmt.Fprintf(w, "%skind_slow_turns{kind=%q} %d\n", prefix, k, kt.SlowTurns)
		fmt.Fprintf(w, "%skind_turn_nanos{kind=%q} %d\n", prefix, k, kt.TurnNanos)
	}
	for _, ks := range s.Kinds {
		k := label(ks.Kind)
		fmt.Fprintf(w, "%skind_cpu_nanos{kind=%q} %d\n", prefix, k, ks.CPUNanos)
		fmt.Fprintf(w, "%skind_mailbox_hwm{kind=%q} %d\n", prefix, k, ks.MailboxHWM)
		fmt.Fprintf(w, "%skind_max_state_bytes{kind=%q} %d\n", prefix, k, ks.MaxStateBytes)
	}
	if s.Runtime != nil {
		for _, st := range s.Runtime.Silos {
			n := label(st.Name)
			fmt.Fprintf(w, "%ssilo_activations{silo=%q} %d\n", prefix, n, st.Activations)
			fmt.Fprintf(w, "%ssilo_mailbox_depth{silo=%q} %d\n", prefix, n, st.MailboxDepth)
			fmt.Fprintf(w, "%ssilo_mailbox_max{silo=%q} %d\n", prefix, n, st.MailboxMax)
			if st.Utilization >= 0 {
				fmt.Fprintf(w, "%ssilo_utilization{silo=%q} %g\n", prefix, n, st.Utilization)
			}
			for _, kind := range sortedKeys(st.ByKind) {
				fmt.Fprintf(w, "%ssilo_kind_activations{silo=%q,kind=%q} %d\n",
					prefix, n, label(kind), st.ByKind[kind])
			}
		}
	}
	if len(s.HotActors) > 0 {
		fmt.Fprintf(w, "# TYPE %shot_actor_cpu_nanos gauge\n", prefix)
	}
	for _, e := range s.HotActors {
		l := label(e.Label)
		fmt.Fprintf(w, "%shot_actor_cpu_nanos{actor=%q,silo=%q} %d\n", prefix, e.Key, l, e.Count)
		fmt.Fprintf(w, "%shot_actor_turns{actor=%q,silo=%q} %d\n", prefix, e.Key, l, e.Turns)
		fmt.Fprintf(w, "%shot_actor_mailbox_hwm{actor=%q,silo=%q} %d\n", prefix, e.Key, l, e.HighWater)
	}
	for _, st := range s.Breakers {
		// closed=0 open=1 half-open=2 for alertable gauges.
		code := 0
		switch st.State {
		case "open":
			code = 1
		case "half-open":
			code = 2
		}
		n := label(st.Node)
		fmt.Fprintf(w, "%sbreaker_state{node=%q} %d\n", prefix, n, code)
		fmt.Fprintf(w, "%sbreaker_failures{node=%q} %d\n", prefix, n, st.Failures)
		fmt.Fprintf(w, "%sbreaker_trips{node=%q} %d\n", prefix, n, st.Trips)
	}
}

func (in *Introspection) serveMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	snap := in.Obs()
	snap.WriteProm(&b, "aodb_", promName)
	if in.Tracer != nil {
		fmt.Fprintf(&b, "# TYPE aodb_trace_spans_recorded counter\naodb_trace_spans_recorded %d\n", in.Tracer.Recorded())
		fmt.Fprintf(&b, "# TYPE aodb_trace_slow_turns counter\naodb_trace_slow_turns %d\n", in.Tracer.SlowTurns())
	}
	_, _ = w.Write([]byte(b.String()))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (in *Introspection) serveTrace(w http.ResponseWriter, r *http.Request) {
	spans := in.Tracer.Spans()
	if r.URL.Query().Get("slow") != "" {
		spans = in.Tracer.SlowSpans()
	}
	if limStr := r.URL.Query().Get("limit"); limStr != "" {
		if lim, err := strconv.Atoi(limStr); err == nil && lim >= 0 && lim < len(spans) {
			spans = spans[len(spans)-lim:] // newest spans live at the end
		}
	}
	if spans == nil {
		spans = []Span{}
	}
	WriteJSON(w, spans)
}

func (in *Introspection) serveEvents(w http.ResponseWriter, r *http.Request) {
	ServeEvents(w, r, in.Tracer.Events())
}

// ServeEvents serves a timeline (oldest first) as a JSON array, "[]" when
// empty, narrowed by the request's ?actor=, ?corr=, ?kind= and ?n= (the
// newest n of what matched; n=0 is none, as it has always been here).
func ServeEvents(w http.ResponseWriter, r *http.Request, events []Event) {
	q := r.URL.Query()
	n, err := strconv.Atoi(q.Get("n"))
	events = EventFilter{Actor: q.Get("actor"), Corr: q.Get("corr"), Kind: q.Get("kind"), N: n}.Apply(events)
	if events == nil || (err == nil && n == 0) {
		events = []Event{}
	}
	WriteJSON(w, events)
}

func (in *Introspection) serveMembers(w http.ResponseWriter, _ *http.Request) {
	var members []MemberInfo
	if in.Members != nil {
		members = in.Members()
	}
	if members == nil {
		members = []MemberInfo{}
	}
	WriteJSON(w, members)
}

func (in *Introspection) serveActors(w http.ResponseWriter, _ *http.Request) {
	if in.Runtime == nil {
		WriteJSON(w, struct{}{})
		return
	}
	WriteJSON(w, in.Runtime.IntrospectionSnapshot())
}

// WriteJSON serves v as indented JSON, as every endpoint here and the
// cluster aggregator's do.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}
