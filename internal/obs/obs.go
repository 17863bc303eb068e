// Package obs is the cluster-wide observability aggregator: it scrapes
// every silo's /obs introspection endpoint (or reads in-process sources
// directly), merges the HDR histogram snapshots losslessly and the
// heavy-hitter sketches with bounded error, keeps a bounded ring of
// recent per-metric history, and re-exports the merged view as JSON
// (/cluster, /cluster/history) and Prometheus text (/cluster/prom).
//
// The aggregator never hangs on a down or slow silo: every scrape runs
// under its own timeout, failures surface as a per-silo status with the
// last good snapshot marked stale, and the merged view is always the
// freshest partial truth available.
package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"aodb/internal/metrics"
	"aodb/internal/telemetry"
)

// Target names one silo's scrape endpoint. URL is the introspection base
// (e.g. "http://10.0.0.1:9180"); the aggregator appends /obs or /events.
type Target struct {
	Name string `json:"name"`
	URL  string `json:"url"`
}

// NormalizeURL accepts a bare host:port or a full URL for a scrape base.
func NormalizeURL(u string) string {
	u = strings.TrimSuffix(u, "/")
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return u
}

const (
	historyLen = 120 // poll rounds of per-metric history: four minutes at the default interval
	topK       = 32  // size of the merged hot-actor list
)

// Config tunes an Aggregator. The zero value is usable for in-process
// sources; add Targets for remote silos.
type Config struct {
	// Targets are the remote silos to scrape.
	Targets []Target
	// Interval is the Run poll period (default 2s).
	Interval time.Duration
	// Timeout bounds each individual scrape (default 2s) so one slow or
	// dead silo can never stall the poll round.
	Timeout time.Duration
	// StaleAfter marks a silo's last-known snapshot stale once it is this
	// old (default 3 poll intervals).
	StaleAfter time.Duration
	// Client overrides the scrape HTTP client (tests; default a client
	// with the scrape timeout).
	Client *http.Client
	// Members, when set, is consulted at the start of every round for the
	// membership view (a gossip agent's, or a seed silo's /members), so
	// the aggregator follows joins and departures with no static list:
	// every member advertising an observability endpoint is a scrape
	// target, unioned with Targets, and a member the view declares dead
	// or left has its last-good snapshot marked stale immediately rather
	// than waiting out StaleAfter. A member that drops out of the view
	// keeps its last-good snapshot. Nil or empty views change nothing.
	Members func() []telemetry.MemberInfo
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = 3 * c.Interval
	}
	return c
}

// SiloView is one silo's contribution to a cluster snapshot: its scrape
// status plus the snapshot that was merged (the last good one when the
// silo is currently unreachable).
type SiloView struct {
	Name string `json:"name"`
	URL  string `json:"url,omitempty"`
	// Ok reports whether the most recent scrape succeeded.
	Ok bool `json:"ok"`
	// Stale marks a silo whose data is from an earlier round because the
	// latest scrape failed; AgeSeconds says how old.
	Stale      bool    `json:"stale,omitempty"`
	AgeSeconds float64 `json:"age_seconds,omitempty"`
	// Dead marks a member the membership view currently declares dead or
	// left — its snapshot (if any) is last-known, not live.
	Dead  bool   `json:"dead,omitempty"`
	Error string `json:"error,omitempty"`

	Snapshot *telemetry.ObsSnapshot `json:"snapshot,omitempty"`
}

// ClusterSnapshot is the merged cluster-wide view: the per-silo views,
// and every silo's freshest snapshot folded into one ObsSnapshot —
// counters and gauges sum across silos, histograms merge losslessly
// (identical log-linear layout on every silo), per-kind accounting sums
// its totals and maxes its high-water marks, and the hot actors are the
// cluster-wide merged top-K heavy-hitter list. Its JSON is flat: the
// merged fields sit beside now, partial and silos.
type ClusterSnapshot struct {
	Now time.Time `json:"now"`
	// Partial is set when at least one silo's data is stale or missing.
	Partial bool       `json:"partial,omitempty"`
	Silos   []SiloView `json:"silos"`

	telemetry.ObsSnapshot
}

// Sample is one history-ring entry: the merged percentiles of every
// histogram plus the cluster turn total at one poll instant.
type Sample struct {
	Time time.Time `json:"time"`
	// Quantiles maps histogram name -> [p50, p99, p99.9].
	Quantiles map[string][3]int64 `json:"quantiles,omitempty"`
	Turns     int64               `json:"turns"`
	CPUNanos  int64               `json:"cpu_nanos"`
}

// siloState is the aggregator's memory of one silo between rounds.
type siloState struct {
	target Target
	local  *telemetry.Introspection // non-nil for in-process silos: no HTTP hop
	last   *telemetry.ObsSnapshot
	lastAt time.Time
	err    string
}

// Aggregator merges per-silo observability snapshots into a cluster view.
type Aggregator struct {
	cfg    Config
	client *http.Client

	mu      sync.Mutex
	silos   []*siloState
	dead    map[string]bool // members the view last declared dead or left
	latest  ClusterSnapshot
	history []Sample // ring, oldest first once full
}

// New creates an aggregator over cfg.Targets.
func New(cfg Config) *Aggregator {
	cfg = cfg.withDefaults()
	a := &Aggregator{cfg: cfg, client: cfg.Client}
	if a.client == nil {
		a.client = &http.Client{Timeout: cfg.Timeout}
	}
	for _, t := range cfg.Targets {
		a.silos = append(a.silos, &siloState{target: t})
	}
	return a
}

// AddLocal registers an in-process silo (no HTTP hop), used by a silo
// process that aggregates itself alongside remote peers.
func (a *Aggregator) AddLocal(name string, in *telemetry.Introspection) {
	a.mu.Lock()
	a.silos = append(a.silos, &siloState{target: Target{Name: name}, local: in})
	a.mu.Unlock()
}

// round starts one scrape round: it folds the membership view into the
// silo list and the dead set, and returns the silos to scrape, each with
// the address to scrape it at (a copy: rounds run concurrently, and a
// later one may move the silo's). New names are added, and a known silo
// adopts a changed address. Nothing is ever removed — a departed member's
// last-good snapshot stays, marked stale.
func (a *Aggregator) round() ([]*siloState, []Target) {
	var members []telemetry.MemberInfo
	if a.cfg.Members != nil {
		members = a.cfg.Members()
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if len(members) > 0 {
		known := make(map[string]*siloState, len(a.silos))
		for _, s := range a.silos {
			known[s.target.Name] = s
		}
		a.dead = make(map[string]bool)
		for _, m := range members {
			a.dead[m.Name] = m.State == "dead" || m.State == "left"
			if m.ObsAddr == "" {
				continue
			}
			if s, ok := known[m.Name]; ok {
				s.target.URL = NormalizeURL(m.ObsAddr)
			} else {
				a.silos = append(a.silos, &siloState{target: Target{Name: m.Name, URL: NormalizeURL(m.ObsAddr)}})
			}
		}
	}
	targets := make([]Target, len(a.silos))
	for i, s := range a.silos {
		targets[i] = s.target
	}
	return append([]*siloState(nil), a.silos...), targets
}

// FetchJSON GETs url and decodes its JSON body into out.
func FetchJSON(ctx context.Context, client *http.Client, url string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s returned %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("decoding %s: %w", url, err)
	}
	return nil
}

// scrapeAll starts a round and reads one endpoint of every silo
// concurrently, each under the per-scrape timeout: in-process silos
// through local, remote ones with a GET of path. It is the one scrape
// path; a silo that fails to answer leaves its slot zero and its error set.
func scrapeAll[T any](ctx context.Context, a *Aggregator, path string, local func(*telemetry.Introspection) T) ([]*siloState, []T, []error) {
	silos, targets := a.round()
	out := make([]T, len(silos))
	errs := make([]error, len(silos))
	var wg sync.WaitGroup
	for i, s := range silos {
		if s.local != nil {
			out[i] = local(s.local)
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t := targets[i]
			if t.URL == "" {
				errs[i] = fmt.Errorf("obs: no scrape url for %s", t.Name)
				return
			}
			cctx, cancel := context.WithTimeout(ctx, a.cfg.Timeout)
			defer cancel()
			errs[i] = FetchJSON(cctx, a.client, strings.TrimSuffix(t.URL, "/")+path, &out[i])
		}(i)
	}
	wg.Wait()
	return silos, out, errs
}

// PollOnce scrapes every silo's /obs, merges what answered, and returns
// the resulting cluster snapshot. A down or slow silo contributes its last
// good snapshot, marked stale; a silo that has never answered contributes
// only an error entry. PollOnce never blocks longer than the scrape
// timeout.
func (a *Aggregator) PollOnce(ctx context.Context) ClusterSnapshot {
	silos, snaps, errs := scrapeAll(ctx, a, "/obs", (*telemetry.Introspection).Obs)
	now := time.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, s := range silos {
		if errs[i] != nil {
			s.err = errs[i].Error()
			continue
		}
		if snaps[i].Silo == "" {
			snaps[i].Silo = s.target.Name
		}
		s.last, s.lastAt, s.err = &snaps[i], now, ""
	}
	snap := a.mergeLocked(now)
	a.latest = snap
	a.appendHistoryLocked(snap)
	return snap
}

// EventsOnce scrapes every silo's flight-recorder ring (/events) and
// merges them into one causally ordered, HLC-sorted timeline. Silos that
// fail to answer contribute nothing and are named in the error — the
// merged timeline is the freshest partial truth, same contract as
// PollOnce.
func (a *Aggregator) EventsOnce(ctx context.Context) ([]telemetry.Event, error) {
	silos, sets, errs := scrapeAll(ctx, a, "/events", func(in *telemetry.Introspection) []telemetry.Event {
		return in.Tracer.Events()
	})
	for i, err := range errs {
		if err != nil {
			errs[i] = fmt.Errorf("%s unreachable (%w)", silos[i].target.Name, err) // names never change
		}
	}
	return telemetry.MergeEvents(sets...), errors.Join(errs...)
}

// mergeLocked folds every silo's freshest snapshot into one cluster view.
func (a *Aggregator) mergeLocked(now time.Time) ClusterSnapshot {
	out := ClusterSnapshot{Now: now}
	out.Counters = map[string]int64{}
	out.Gauges = map[string]int64{}
	out.Hists = map[string]metrics.Snapshot{}
	kinds := map[string]*telemetry.KindStats{}
	turns := map[string]*telemetry.KindTurns{}
	var hotLists [][]metrics.TopKEntry
	for _, s := range a.silos {
		view := SiloView{Name: s.target.Name, URL: s.target.URL, Ok: s.err == "", Error: s.err}
		dead := a.dead[s.target.Name]
		view.Dead = dead
		if s.last == nil {
			view.Ok = false
			out.Partial = true
			out.Silos = append(out.Silos, view)
			continue
		}
		age := now.Sub(s.lastAt)
		view.AgeSeconds = age.Seconds()
		if s.err != "" || dead || age > a.cfg.StaleAfter {
			view.Ok = false
			view.Stale = true
			out.Partial = true
		}
		view.Snapshot = s.last
		out.Silos = append(out.Silos, view)

		for k, v := range s.last.Counters {
			out.Counters[k] += v
		}
		for k, v := range s.last.Gauges {
			out.Gauges[k] += v
		}
		for k, h := range s.last.Hists {
			out.Hists[k] = out.Hists[k].Merge(h)
		}
		hotLists = append(hotLists, s.last.HotActors)
		for _, ks := range s.last.Kinds {
			m, ok := kinds[ks.Kind]
			if !ok {
				cp := ks
				kinds[ks.Kind] = &cp
				continue
			}
			m.Turns += ks.Turns
			m.CPUNanos += ks.CPUNanos
			m.MailboxHWM = max(m.MailboxHWM, ks.MailboxHWM)
			m.MaxStateBytes = max(m.MaxStateBytes, ks.MaxStateBytes)
		}
		for _, kt := range s.last.KindTurns {
			m, ok := turns[kt.Kind]
			if !ok {
				m = &telemetry.KindTurns{Kind: kt.Kind}
				turns[kt.Kind] = m
			}
			m.Turns += kt.Turns
			m.SlowTurns += kt.SlowTurns
			m.TurnNanos += kt.TurnNanos
		}
		out.ProfTurns += s.last.ProfTurns
		out.ProfCPUNanos += s.last.ProfCPUNanos
	}
	out.HotActors = metrics.MergeTopK(topK, hotLists...)
	for _, ks := range kinds {
		out.Kinds = append(out.Kinds, *ks)
	}
	sort.Slice(out.Kinds, func(i, j int) bool { return out.Kinds[i].Kind < out.Kinds[j].Kind })
	for _, kt := range turns {
		out.KindTurns = append(out.KindTurns, *kt)
	}
	sort.Slice(out.KindTurns, func(i, j int) bool { return out.KindTurns[i].Kind < out.KindTurns[j].Kind })
	return out
}

func (a *Aggregator) appendHistoryLocked(snap ClusterSnapshot) {
	s := Sample{Time: snap.Now, Turns: snap.ProfTurns, CPUNanos: snap.ProfCPUNanos}
	if len(snap.Hists) > 0 {
		s.Quantiles = make(map[string][3]int64, len(snap.Hists))
		for name, h := range snap.Hists {
			s.Quantiles[name] = [3]int64{h.Percentile(50), h.Percentile(99), h.Percentile(99.9)}
		}
	}
	a.history = append(a.history, s)
	if over := len(a.history) - historyLen; over > 0 {
		a.history = a.history[over:]
	}
}

// Latest returns the most recent merged snapshot without scraping.
func (a *Aggregator) Latest() (ClusterSnapshot, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.latest, !a.latest.Now.IsZero()
}

// History returns the retained poll-round samples, oldest first.
func (a *Aggregator) History() []Sample {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Sample(nil), a.history...)
}

// Run polls on the configured interval until ctx is cancelled. The first
// poll happens immediately so /cluster is live as soon as Run starts.
func (a *Aggregator) Run(ctx context.Context) {
	a.PollOnce(ctx)
	t := time.NewTicker(a.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			a.PollOnce(ctx)
		}
	}
}

// Register mounts the merged cluster view on a mux, letting a silo process
// serve it from its own introspection endpoint:
//
//	/cluster          merged snapshot as JSON (scrapes on demand if Run
//	                  is not polling yet)
//	/cluster/history  the per-metric history ring as JSON
//	/cluster/prom     the merged view in Prometheus text format
//	/cluster/events   the HLC-merged flight-recorder timeline as JSON
func (a *Aggregator) Register(mux *http.ServeMux) {
	mux.HandleFunc("/cluster", a.serveCluster)
	mux.HandleFunc("/cluster/history", a.serveHistory)
	mux.HandleFunc("/cluster/prom", a.serveProm)
	mux.HandleFunc("/cluster/events", a.serveEvents)
}

// serveEvents serves the cluster-merged flight-recorder timeline. It
// scrapes on every request (event rings move faster than metric polls)
// and honors the same filters as the per-silo /events endpoint.
func (a *Aggregator) serveEvents(w http.ResponseWriter, r *http.Request) {
	events, _ := a.EventsOnce(r.Context())
	telemetry.ServeEvents(w, r, events)
}

func (a *Aggregator) serveCluster(w http.ResponseWriter, r *http.Request) {
	snap, ok := a.Latest()
	if !ok || r.URL.Query().Get("refresh") != "" {
		snap = a.PollOnce(r.Context())
	}
	telemetry.WriteJSON(w, snap)
}

func (a *Aggregator) serveHistory(w http.ResponseWriter, _ *http.Request) {
	telemetry.WriteJSON(w, a.History())
}

// serveProm renders the merged view through the silos' own /metrics
// renderer, under the aodb_cluster_ prefix, after the scrape-health rows.
func (a *Aggregator) serveProm(w http.ResponseWriter, r *http.Request) {
	snap, ok := a.Latest()
	if !ok {
		snap = a.PollOnce(r.Context())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b strings.Builder
	up := 0
	for _, s := range snap.Silos {
		state := 0
		if s.Ok {
			state = 1
			up++
		}
		fmt.Fprintf(&b, "aodb_cluster_silo_up{silo=%q} %d\n", s.Name, state)
	}
	fmt.Fprintf(&b, "aodb_cluster_silos %d\naodb_cluster_silos_up %d\n", len(snap.Silos), up)
	snap.WriteProm(&b, "aodb_cluster_", func(v string) string { return v })
	_, _ = w.Write([]byte(b.String()))
}
