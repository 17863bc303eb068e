package main

import (
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/telemetry"
)

// tracedPass measures the same closed loop twice on one deployment — with
// the installed tracer disabled, then enabled — and fills the per-layer
// "run" metrics from the traced half: deltas of the program's own public
// registries and the tracer's spans. The difference between the halves is
// the tracing overhead, which bounds how far the tracer rows can be
// trusted.
func tracedPass(ctx context.Context, cfg runConfig, g *generator, res *Result) error {
	d := g.d
	half := cfg.window / 2
	first, err := measure(ctx, g, half)
	if err != nil {
		return fmt.Errorf("untraced half: drain: %w", err)
	}
	untraced := first.ops / first.seconds()

	setTracing(d, true)
	before := d.counters()
	histBefore := d.histograms()
	diskBefore, err := dirBytes(d.storeDirs)
	if err != nil {
		return err
	}
	walBefore, err := dirBytes(walDirs(d.storeDirs))
	if err != nil {
		return err
	}
	second, err := measure(ctx, g, half)
	setTracing(d, false)
	if err != nil {
		return fmt.Errorf("traced half: drain: %w", err)
	}
	after := d.counters()
	histAfter := d.histograms()
	diskAfter, err := dirBytes(d.storeDirs)
	if err != nil {
		return err
	}
	walAfter, err := dirBytes(walDirs(d.storeDirs))
	if err != nil {
		return err
	}
	ops := second.ops
	res.Attempted += int64(ops)
	traced := ops / second.seconds()
	res.set("obs.trace_overhead_pct", 100*(untraced-traced)/untraced, "%")

	delta := func(name string) float64 { return float64(after[name] - before[name]) }
	perOp := func(metric, counter string) { res.set(metric, delta(counter)/ops, "count") }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	frames := delta("transport.frames.sent")
	res.set("transport.frames_per_op", frames/ops, "count")
	res.set("transport.frames_per_flush_run", ratio(frames, delta("transport.flushes")), "count")
	spawned := delta("transport.dispatch.spawned")
	res.set("transport.dispatch_spawned_share", ratio(spawned, spawned+delta("transport.dispatch.pooled")), "share")
	res.set("transport.conn_evictions", delta("transport.conn.evictions"), "count")

	perOp("core.turns_per_op", "core.turns")
	perOp("core.activations_per_op", "core.activations")
	perOp("core.deactivations_per_op", "core.deactivations")
	res.set("core.call_retries", delta("core.call_retries"), "count")
	res.set("core.backlog_drain_ms", float64(second.drain)/1e6, "ms")

	inserts := float64(g.count(opInsert))
	disk := float64(diskAfter - diskBefore)
	perOp("kvstore.writes_per_op", "kvstore.writes")
	perOp("kvstore.reads_per_op", "kvstore.reads")
	flushWait, err := deltaP50Us(histBefore, histAfter, "kvstore.flush_wait")
	if err != nil {
		return err
	}
	res.set("kvstore.flush_wait_us_p50", flushWait, "us")
	// 16 B of user data per point: a timestamp and a float64.
	res.set("kvstore.disk_bytes_per_user_byte", ratio(disk, 16*pointsPerChannel*channelsPerSens*inserts), "ratio")
	perOp("wal.appends_per_op", "wal.appends")
	perOp("wal.fsyncs_per_op", "wal.flushes")
	flushLatency, err := deltaP50Us(histBefore, histAfter, "wal.flush.latency")
	if err != nil {
		return err
	}
	res.set("wal.flush_latency_us_p50", flushLatency, "us")
	// Growth of the stores' WAL directories alone; the kvstore row above
	// also counts snapshot files. A snapshot compaction inside the half
	// truncates the log and would show as a negative value (none happens
	// at these sizes: the default is one per 100,000 records).
	res.set("wal.bytes_per_op", float64(walAfter-walBefore)/ops, "B")

	var applies float64
	for name := range after {
		if strings.HasPrefix(name, "replication.apply.") {
			applies += delta(name)
		}
	}
	res.set("replication.applies_per_write", ratio(applies, delta("core.state_writes")), "count")
	res.set("replication.sloppy_writes", delta("replication.writes.sloppy"), "count")
	res.set("replication.hints_recorded", delta("replication.hints.recorded"), "count")
	res.set("replication.readrepairs", delta("replication.readrepair.count"), "count")

	stateBytes, err := stateBytesMean(ctx, d.stores)
	if err != nil {
		return err
	}
	res.set("shm.state_bytes_mean", stateBytes, "B")
	if len(d.storeDirs) > 0 {
		res.Notes["store_dir_bytes"] = float64(diskAfter)
	}

	// The in-window latencies of the traced half are what the tracer rows
	// explain; live_*/raw_* p99 ride along here because their run-to-run
	// spread is too wide for a regression bound.
	for k := opInsert; k < opKinds; k++ {
		s := g.samples(k)
		res.Samples["traced."+opNames[k]+"_p50_us"] = len(s)
		res.set("traced."+opNames[k]+"_p50_us", percentileUs(s, 50), "us")
		res.set("traced."+opNames[k]+"_p99_us", percentileUs(s, 99), "us")
	}
	tracerRows(d, res)
	return nil
}

func setTracing(d *deployment, on bool) {
	for _, t := range d.tracers {
		t.SetEnabled(on)
	}
}

// histograms merges every registry's histograms by name: the
// deployment-wide distributions since boot.
func (d *deployment) histograms() map[string]metrics.Snapshot {
	merged := map[string]metrics.Snapshot{}
	for _, reg := range d.registries {
		for name, snap := range reg.Histograms() {
			merged[name] = merged[name].Merge(snap)
		}
	}
	return merged
}

// deltaP50Us is the median, in µs, of what one histogram recorded between
// two readings (the histograms record nanoseconds). A Snapshot keeps its
// buckets private and can only merge, so the subtraction goes through its
// public wire form, the sparse JSON the /obs endpoint serves.
func deltaP50Us(before, after map[string]metrics.Snapshot, name string) (float64, error) {
	type wire struct {
		Layout  string     `json:"layout"`
		Count   int64      `json:"count"`
		Sum     int64      `json:"sum"`
		Min     int64      `json:"min"`
		Max     int64      `json:"max"`
		Buckets [][2]int64 `json:"buckets,omitempty"`
	}
	decode := func(s metrics.Snapshot) (w wire, err error) {
		b, err := json.Marshal(s)
		if err != nil {
			return w, err
		}
		return w, json.Unmarshal(b, &w)
	}
	from, err := decode(before[name])
	if err != nil {
		return 0, err
	}
	to, err := decode(after[name])
	if err != nil {
		return 0, err
	}
	if to.Count == from.Count {
		return 0, nil
	}
	earlier := map[int64]int64{}
	for _, b := range from.Buckets {
		earlier[b[0]] = b[1]
	}
	// Min and Max stay those since boot: they only clamp the answer to
	// the recorded range.
	diff := wire{Layout: to.Layout, Count: to.Count - from.Count, Sum: to.Sum - from.Sum, Min: to.Min, Max: to.Max}
	for _, b := range to.Buckets {
		if n := b[1] - earlier[b[0]]; n > 0 {
			diff.Buckets = append(diff.Buckets, [2]int64{b[0], n})
		}
	}
	b, err := json.Marshal(diff)
	if err != nil {
		return 0, err
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return 0, err
	}
	return float64(snap.Percentile(50)) / 1e3, nil
}

// walDirs are the write-ahead-log directories inside the store
// directories.
func walDirs(storeDirs []string) []string {
	var dirs []string
	for _, dir := range storeDirs {
		dirs = append(dirs, filepath.Join(dir, "wal"))
	}
	return dirs
}

// stateBytesMean is the mean value size in the actor-state tables.
func stateBytesMean(ctx context.Context, stores []*kvstore.Store) (float64, error) {
	var n, bytes float64
	for _, store := range stores {
		table, err := store.Table("grains")
		if err != nil {
			return 0, err
		}
		err = table.Scan(ctx, "", func(item kvstore.Item) bool {
			n++
			bytes += float64(len(item.Value))
			return true
		})
		if err != nil {
			return 0, err
		}
	}
	if n == 0 {
		return 0, nil
	}
	return bytes / n, nil
}

// tracerRows splits each traced insert's ack latency with the program's
// existing spans: the time inside the sensor's turn (mailbox wait and
// handler) and the rest ("hops": routing, wire, codec, dispatch, reply
// wake-up), which no span inside the program covers yet. Storage time is
// summed over every turn the insert caused, because the channel writes
// happen after the ack.
func tracerRows(d *deployment, res *Result) {
	var spans []telemetry.Span
	for _, t := range d.tracers {
		spans = append(spans, t.Spans()...)
	}
	// The turn an insert's ack waits for is the one whose parent is the
	// root span.
	syncTurn := map[[2]uint64]*telemetry.Span{}
	for i := range spans {
		if sp := &spans[i]; sp.Kind == telemetry.KindTurn {
			syncTurn[[2]uint64{sp.TraceID, sp.Parent}] = sp
		}
	}
	var mailbox, exec, hops, read, write, flush []float64
	for _, b := range telemetry.BreakdownTraces(spans) {
		if !strings.HasPrefix(b.Target, "call Sensor/") {
			continue
		}
		read = append(read, us(b.StoreRead))
		write = append(write, us(b.StoreWrite))
		flush = append(flush, us(b.FlushWait))
	}
	for i := range spans {
		root := &spans[i]
		if root.Kind != telemetry.KindRoot || root.Err != "" || !strings.HasPrefix(root.Actor, "call Sensor/") {
			continue
		}
		turn := syncTurn[[2]uint64{root.TraceID, root.SpanID}]
		if turn == nil {
			continue // overwritten in the silo's span ring
		}
		mailbox = append(mailbox, us(turn.Mailbox))
		exec = append(exec, us(turn.Exec))
		hops = append(hops, us(root.Dur-turn.Mailbox-turn.Exec))
	}
	res.Notes["traced_inserts"] = float64(len(hops))
	res.set("core.mailbox_wait_us_p50", median(mailbox), "us")
	res.set("core.exec_us_p50", median(exec), "us")
	res.set("core.hops_us_p50", median(hops), "us")
	res.set("core.store_read_us_p50", median(read), "us")
	res.set("core.store_write_us_p50", median(write), "us")
	res.set("core.flush_wait_us_p50", median(flush), "us")
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	return v[len(v)/2]
}

// reconcile writes the reconciliation row: the traced insert latency,
// the part the tracer sees inside the turn, the part it does not (hops),
// and what the probes of the layers on that path say the hops should
// cost. What is left is core.unattributed_pct; above 15 % there is a layer
// (or a queue) nobody measures.
func reconcile(s spec, res *Result) {
	m := func(name string) float64 { return res.Metrics[name].Value }
	model := m("core.call_ns") / 1e3
	if s.tcp {
		model += m("transport.rtt_us_c1")
	}
	insert := m("traced.insert_p50_us")
	res.Notes["reconcile.insert_p50_us"] = insert
	res.Notes["reconcile.tracer_in_turn_us"] = m("core.mailbox_wait_us_p50") + m("core.exec_us_p50")
	res.Notes["reconcile.tracer_hops_us"] = m("core.hops_us_p50")
	res.Notes["reconcile.probes_hops_us"] = model
	var pct float64
	if insert > 0 {
		pct = 100 * (m("core.hops_us_p50") - model) / insert
	}
	res.set("core.unattributed_pct", pct, "%")
}
