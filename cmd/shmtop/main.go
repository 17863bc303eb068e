// Command shmtop is the one observer tool for an SHM cluster — top(1) for
// virtual actors, and the reader of their flight recorders. Each frame
// shows per-silo load (activations, mailbox backlog, capacity
// utilization, scrape health), cluster-wide tail latency percentiles from
// the merged HDR histograms, and the K hottest actors with CPU-share,
// turn, and queue attribution from the merged heavy-hitter sketches.
//
// Point it at silo introspection endpoints directly (it embeds the
// cluster aggregator):
//
//	shmtop -silos silo-1=127.0.0.1:9101,silo-2=127.0.0.1:9102
//
// or at a silo already aggregating with `shmserver -history`:
//
//	shmtop -cluster http://127.0.0.1:9101
//
// or, when the cluster gossips, at any one seed silo — every other silo
// (including ones that join later) is discovered from the membership
// view it serves at /members, and members the view declares dead are
// shown DEAD with their last-good numbers marked stale:
//
//	shmtop -discover 127.0.0.1:9101
//
// When silos run with -journal, each frame ends with a TIMELINE panel:
// the newest flight-recorder events across the cluster, HLC-merged into
// causal order. -events sets the row count (0 hides the panel).
//
// -once renders a single frame and exits (scriptable; the CI smoke test
// uses it), -interval sets the refresh period, -k the hot-actor rows.
//
// -trace prints the whole merged timeline instead of frames: what the
// cluster did, and in what causal order. Every event carries a hybrid
// logical clock stamp that travels on the wire with actor calls,
// migrations, and replica writes, so merging the per-silo rings by HLC
// yields one timeline where cause sorts before effect even across
// machines with skewed wall clocks. It reads the same three sources, or,
// after a crash, the capture files the anomaly froze to disk (they
// survive the process that wrote them):
//
//	shmtop -trace -capture '/data/silo-2/captures/flight-*.json'
//
// Filters narrow the timeline to one incident: -actor an actor id, -corr
// a correlation id (16 hex digits, printed in every line — one migration
// or quorum write shares one id across every silo it touched), -kind a
// wire kind name like migrate-drain or quorum-write-fail, -n the newest N
// events. -json emits the merged Event array instead of the table.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"syscall"
	"text/tabwriter"
	"time"

	"aodb/internal/obs"
	"aodb/internal/siloboot"
	"aodb/internal/telemetry"
)

func main() {
	cluster := flag.String("cluster", "", "URL of an aggregating silo (shmserver -history); reads its /cluster and /cluster/events")
	silos := flag.String("silos", "", "comma-separated name=url silo introspection endpoints to scrape directly")
	discover := flag.String("discover", "", "URL of any one gossiping silo; the rest are discovered live from its /members view")
	interval := flag.Duration("interval", 2*time.Second, "refresh period")
	k := flag.Int("k", 10, "hot-actor rows to show")
	events := flag.Int("events", 12, "TIMELINE rows: newest flight-recorder events, HLC-merged (0 = off)")
	once := flag.Bool("once", false, "render one frame and exit")
	timeout := flag.Duration("timeout", 2*time.Second, "per-scrape timeout")
	trace := flag.Bool("trace", false, "print the merged flight-recorder timeline and exit")
	capture := flag.String("capture", "", "with -trace: comma-separated capture file paths or globs (flight-*.json) to merge instead of scraping")
	var filter telemetry.EventFilter
	flag.StringVar(&filter.Actor, "actor", "", "with -trace: only events for this actor id")
	flag.StringVar(&filter.Corr, "corr", "", "with -trace: only events with this correlation id (16 hex digits)")
	flag.StringVar(&filter.Kind, "kind", "", "with -trace: only events of this kind (e.g. migrate-drain, quorum-write-fail)")
	flag.IntVar(&filter.N, "n", 0, "with -trace: newest N events after filtering (0 = all)")
	asJSON := flag.Bool("json", false, "with -trace: emit the merged timeline as JSON instead of a table")
	flag.Parse()

	modes := 0
	for _, m := range []string{*cluster, *silos, *discover, *capture} {
		if m != "" {
			modes++
		}
	}
	if modes != 1 || (*capture != "" && !*trace) {
		fmt.Fprintln(os.Stderr, "shmtop: need exactly one of -cluster URL, -silos name=url,..., -discover URL, or (with -trace) -capture files")
		os.Exit(2)
	}
	if filter.Kind != "" && telemetry.ParseEventKind(filter.Kind) == 0 {
		fmt.Fprintf(os.Stderr, "shmtop: -kind %q is not an event kind\n", filter.Kind)
		os.Exit(2)
	}
	targets, err := siloboot.SplitPairs(*silos)
	if err != nil {
		fmt.Fprintf(os.Stderr, "shmtop: -silos: %v\n", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *capture != "" {
		timeline, err := mergeCaptures(*capture, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shmtop: %v\n", err)
			os.Exit(1)
		}
		printTrace(os.Stdout, filter.Apply(timeline), *asJSON)
		return
	}
	fetch, fetchEvents := newFetcher(*cluster, targets, *discover, *timeout)
	if *trace {
		// Silos that fail to answer are reported and skipped — after a
		// crash, the survivors' rings are exactly the point. A source that
		// cannot be read at all is an error.
		timeline, err := fetchEvents(ctx, 0, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "shmtop: %v\n", err)
			os.Exit(1)
		}
		printTrace(os.Stdout, filter.Apply(timeline), *asJSON)
		return
	}
	for {
		snap, err := fetch(ctx)
		if err != nil {
			if *once {
				fmt.Fprintf(os.Stderr, "shmtop: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("shmtop: %v (retrying)\n", err)
		} else {
			var timeline []telemetry.Event
			if *events > 0 {
				// The panel is best-effort: the silo table above already
				// shows who is down.
				timeline, _ = fetchEvents(ctx, *events, io.Discard)
			}
			frame := render(snap, *k, timeline)
			if *once {
				fmt.Print(frame)
				return
			}
			// Clear screen + home, like top(1).
			fmt.Print("\x1b[2J\x1b[H" + frame)
		}
		select {
		case <-ctx.Done():
			fmt.Println()
			return
		case <-time.After(*interval):
		}
	}
}

// newFetcher returns the snapshot and timeline sources: a remote
// aggregator's /cluster + /cluster/events endpoints, or an embedded
// aggregator over the given silos — listed statically with -silos, or
// discovered live from a gossiping seed's /members view with -discover.
// The timeline source takes the newest n events (0 = all), names the
// silos it had to merge without on warn, and fails when the source itself
// (the aggregator, the seed) cannot be read.
func newFetcher(cluster string, silos [][2]string, discover string, timeout time.Duration) (func(context.Context) (obs.ClusterSnapshot, error), func(context.Context, int, io.Writer) ([]telemetry.Event, error)) {
	client := &http.Client{Timeout: timeout}
	if cluster != "" {
		base := obs.NormalizeURL(cluster)
		fetch := func(ctx context.Context) (obs.ClusterSnapshot, error) {
			var snap obs.ClusterSnapshot
			err := obs.FetchJSON(ctx, client, base+"/cluster", &snap)
			return snap, err
		}
		fetchEvents := func(ctx context.Context, n int, _ io.Writer) ([]telemetry.Event, error) {
			url := base + "/cluster/events"
			if n > 0 {
				url += fmt.Sprintf("?n=%d", n)
			}
			var events []telemetry.Event
			err := obs.FetchJSON(ctx, client, url, &events)
			return events, err
		}
		return fetch, fetchEvents
	}

	aggCfg := obs.Config{Timeout: timeout}
	var mv *memberView
	if discover != "" {
		mv = &memberView{client: client, seed: obs.NormalizeURL(discover)}
		aggCfg.Members = mv.members
	} else {
		for _, p := range silos {
			aggCfg.Targets = append(aggCfg.Targets, obs.Target{Name: p[0], URL: obs.NormalizeURL(p[1])})
		}
	}
	agg := obs.New(aggCfg)
	fetch := func(ctx context.Context) (obs.ClusterSnapshot, error) {
		return agg.PollOnce(ctx), nil
	}
	fetchEvents := func(ctx context.Context, n int, warn io.Writer) ([]telemetry.Event, error) {
		events, err := agg.EventsOnce(ctx)
		if err != nil {
			fmt.Fprintf(warn, "shmtop: merging without:\n%v\n", err)
		}
		return telemetry.EventFilter{N: n}.Apply(events), mv.failure()
	}
	return fetch, fetchEvents
}

// mergeCaptures reads flight-recorder capture files (comma-separated
// paths or globs) and merges their rings, noting each file on log.
func mergeCaptures(spec string, log io.Writer) ([]telemetry.Event, error) {
	var sets [][]telemetry.Event
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		paths, err := filepath.Glob(part)
		if err != nil {
			return nil, fmt.Errorf("bad glob %q: %w", part, err)
		}
		if len(paths) == 0 {
			return nil, fmt.Errorf("no capture files match %q", part)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			// Capture files wrap the ring in metadata; raw /events dumps
			// are bare arrays. Accept both.
			var cf telemetry.Capture
			if err := json.Unmarshal(data, &cf); err != nil {
				if jerr := json.Unmarshal(data, &cf.Events); jerr != nil {
					return nil, fmt.Errorf("%s: %w", path, err)
				}
			} else {
				fmt.Fprintf(log, "shmtop: %s: %d events from %s (captured: %s)\n", filepath.Base(path), len(cf.Events), cf.Silo, cf.Reason)
			}
			sets = append(sets, cf.Events)
		}
	}
	return telemetry.MergeEvents(sets...), nil
}

// printTrace writes -trace's output: the timeline as a table, one event
// per line in causal order, or as a JSON array.
func printTrace(w io.Writer, events []telemetry.Event, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		_ = enc.Encode(events)
		return
	}
	if len(events) == 0 {
		fmt.Fprintln(w, "shmtop: no events (recorders empty, off, or filtered out)")
		return
	}
	writeTimeline(w, events)
	fmt.Fprintf(w, "— %d events, causally ordered (HLC, ties by silo/seq) —\n", len(events))
}

// writeTimeline tabulates events, oldest first. The correlation id column
// is what ties one logical operation's lines together across silos.
func writeTimeline(w io.Writer, events []telemetry.Event) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "TIME\tSILO\tKIND\tACTOR\tCORR\tDETAIL")
	for _, e := range events {
		ts := e.Time
		if t, err := time.Parse(time.RFC3339Nano, e.Time); err == nil {
			ts = t.Format("15:04:05.000")
		}
		actor, corr := e.Actor, e.Corr
		if actor == "" {
			actor = "-"
		}
		if corr == "" {
			corr = "-"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", ts, e.Silo, e.Kind, actor, corr, e.Detail)
	}
	tw.Flush()
}

// memberView is shmtop's observer-mode window onto the cluster: it
// polls one seed silo's /members (the gossip view, with each member's
// advertised scrape endpoint), which the aggregator turns into scrape
// targets and a dead-set. The last good view is kept across seed hiccups
// so a frame during a seed restart still shows the known members.
type memberView struct {
	client *http.Client
	seed   string

	mu   sync.Mutex
	last []telemetry.MemberInfo
	err  error // the latest poll's
}

func (mv *memberView) members() []telemetry.MemberInfo {
	ctx, cancel := context.WithTimeout(context.Background(), mv.client.Timeout)
	defer cancel()
	var members []telemetry.MemberInfo
	err := obs.FetchJSON(ctx, mv.client, mv.seed+"/members", &members)
	mv.mu.Lock()
	defer mv.mu.Unlock()
	if err == nil && len(members) == 0 {
		err = fmt.Errorf("%s/members lists no members (silos need -gossip)", mv.seed)
	}
	if err == nil {
		mv.last = members
	}
	mv.err = err
	return mv.last
}

// failure reports why the seed has never served a view; nil once it has,
// and for a nil receiver (static targets).
func (mv *memberView) failure() error {
	if mv == nil {
		return nil
	}
	mv.mu.Lock()
	defer mv.mu.Unlock()
	if mv.last != nil {
		return nil
	}
	return mv.err
}

func render(snap obs.ClusterSnapshot, k int, timeline []telemetry.Event) string {
	var b strings.Builder
	up := 0
	for _, s := range snap.Silos {
		if s.Ok {
			up++
		}
	}
	fmt.Fprintf(&b, "shmtop — %s — %d/%d silos up", snap.Now.Format("15:04:05"), up, len(snap.Silos))
	if snap.Partial {
		b.WriteString("  [PARTIAL: stale or missing silos]")
	}
	b.WriteString("\n\n")

	// Per-silo load.
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SILO\tSTATE\tACTORS\tMAILBOX\tMAXBOX\tUTIL\tAGE")
	for _, s := range snap.Silos {
		state := "up"
		switch {
		case s.Dead:
			// The membership view declared it dead: numbers below are its
			// last-good snapshot, not live.
			state = "DEAD"
		case s.Stale:
			state = "STALE"
		case !s.Ok:
			state = "DOWN"
		}
		actors, depth, maxbox, util := "-", "-", "-", "-"
		if s.Snapshot != nil && s.Snapshot.Runtime != nil {
			var a, d, m int
			u := -1.0
			for _, ss := range s.Snapshot.Runtime.Silos {
				a += ss.Activations
				d += ss.MailboxDepth
				if ss.MailboxMax > m {
					m = ss.MailboxMax
				}
				if ss.Utilization > u {
					u = ss.Utilization
				}
			}
			actors, depth, maxbox = fmt.Sprint(a), fmt.Sprint(d), fmt.Sprint(m)
			if u >= 0 {
				util = fmt.Sprintf("%.0f%%", u*100)
			}
		}
		age := "-"
		if s.AgeSeconds > 0 {
			age = fmt.Sprintf("%.0fs", s.AgeSeconds)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\n", s.Name, state, actors, depth, maxbox, util, age)
	}
	tw.Flush()

	// Gossip membership: per-silo view of the SWIM state machine plus
	// live-migration counters. Gauges here must come from the per-silo
	// snapshots — the cluster aggregate SUMS gauges, and every member
	// reports the whole view, so the summed alive count is meaningless.
	if gossiping(snap) {
		b.WriteString("\nMEMBERSHIP (SWIM gossip)\n")
		tw = tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "SILO\tALIVE\tSUSPECT\tDEAD\tINCARN\tLASTCHANGE\tMIG OUT/IN\tFORCED\tFENCED")
		for _, s := range snap.Silos {
			if s.Snapshot == nil || s.Snapshot.Gauges == nil {
				continue
			}
			g, c := s.Snapshot.Gauges, s.Snapshot.Counters
			if _, ok := g["gossip.members.alive"]; !ok {
				continue
			}
			lastChange := "-"
			if ts := g["gossip.last_change_unix"]; ts > 0 {
				lastChange = fmt.Sprintf("%.0fs", snap.Now.Sub(time.Unix(ts, 0)).Seconds())
			}
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%s\t%d/%d\t%d\t%d\n",
				s.Name,
				g["gossip.members.alive"], g["gossip.members.suspect"], g["gossip.members.dead"],
				g["gossip.incarnation"], lastChange,
				c["core.migrations.out"], c["core.migrations.in"],
				c["core.migrations.forced"], c["core.stale_writes_fenced"])
		}
		tw.Flush()
	}

	// Replica health: summed replication counters across the cluster
	// (divergent keys count anti-entropy repairs). Shown only when the
	// cluster replicates.
	if replicating(snap) {
		fmt.Fprintf(&b, "\nREPLICATION  read-repairs=%d  anti-entropy: divergent=%d sweeps=%d\n",
			snap.Counters["replication.readrepair.count"],
			snap.Counters["replication.antientropy.divergent_keys"],
			snap.Counters["replication.antientropy.sweeps"])
	}

	// Merged tail percentiles, busiest histograms first.
	names := make([]string, 0, len(snap.Hists))
	for name, h := range snap.Hists {
		if h.Count > 0 {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool {
		if snap.Hists[names[i]].Count != snap.Hists[names[j]].Count {
			return snap.Hists[names[i]].Count > snap.Hists[names[j]].Count
		}
		return names[i] < names[j]
	})
	if len(names) > 0 {
		b.WriteString("\nTAIL LATENCY (merged HDR histograms)\n")
		tw = tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "METRIC\tCOUNT\tP50\tP90\tP99\tP99.9\tMAX")
		const maxRows = 8
		for i, name := range names {
			if i == maxRows {
				fmt.Fprintf(tw, "… %d more\t\t\t\t\t\t\n", len(names)-maxRows)
				break
			}
			h := snap.Hists[name]
			fmt.Fprintf(tw, "%s\t%d\t%s\t%s\t%s\t%s\t%s\n", name, h.Count,
				dur(h.Percentile(50)), dur(h.Percentile(90)), dur(h.Percentile(99)),
				dur(h.Percentile(99.9)), dur(h.Max))
		}
		tw.Flush()
	}

	// Hot actors.
	if len(snap.HotActors) > 0 {
		b.WriteString("\nHOT ACTORS (cluster-wide top-K, space-saving sketch)\n")
		tw = tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "ACTOR\tSILO\tCPU\tSHARE\tTURNS\tMAXBOX\tSTATE")
		rows := snap.HotActors
		if len(rows) > k {
			rows = rows[:k]
		}
		for _, e := range rows {
			share := "-"
			if snap.ProfCPUNanos > 0 {
				share = fmt.Sprintf("%.1f%%", 100*float64(e.Count)/float64(snap.ProfCPUNanos))
			}
			state := "-"
			if e.Bytes > 0 {
				state = bytesStr(e.Bytes)
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%d\t%d\t%s\n",
				e.Key, e.Label, dur(e.Count), share, e.Turns, e.HighWater, state)
		}
		tw.Flush()
	}

	// Per-kind aggregates.
	if len(snap.Kinds) > 0 {
		b.WriteString("\nKINDS\n")
		tw = tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "KIND\tTURNS\tCPU\tMAXBOX\tMAXSTATE")
		for _, kp := range snap.Kinds {
			fmt.Fprintf(tw, "%s\t%d\t%s\t%d\t%s\n",
				kp.Kind, kp.Turns, dur(kp.CPUNanos), kp.MailboxHWM, bytesStr(kp.MaxStateBytes))
		}
		tw.Flush()
	}

	// Flight-recorder timeline: the newest cluster events, HLC-merged
	// into causal order. -trace is the full-depth version of this view.
	if len(timeline) > 0 {
		b.WriteString("\nTIMELINE (flight recorder, causal order; newest last)\n")
		writeTimeline(&b, timeline)
	}
	return b.String()
}

// gossiping reports whether any silo exported gossip membership gauges.
func gossiping(snap obs.ClusterSnapshot) bool {
	for _, s := range snap.Silos {
		if s.Snapshot != nil && s.Snapshot.Gauges != nil {
			if _, ok := s.Snapshot.Gauges["gossip.members.alive"]; ok {
				return true
			}
		}
	}
	return false
}

// replicating reports whether any silo exported replication metrics.
func replicating(snap obs.ClusterSnapshot) bool {
	for name := range snap.Counters {
		if strings.HasPrefix(name, "replication.") {
			return true
		}
	}
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "replication.") {
			return true
		}
	}
	return false
}

// dur renders nanoseconds compactly.
func dur(ns int64) string {
	if ns <= 0 {
		return "0"
	}
	d := time.Duration(ns)
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", ns)
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

func bytesStr(n int64) string {
	switch {
	case n <= 0:
		return "-"
	case n < 1<<10:
		return fmt.Sprintf("%dB", n)
	case n < 1<<20:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	}
}
