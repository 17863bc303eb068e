package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"aodb/internal/codec"
	"aodb/internal/core"
	"aodb/internal/directory"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/placement"
	"aodb/internal/replication"
	"aodb/internal/shm"
	"aodb/internal/transport"
	"aodb/internal/wal"
)

// The probes call each layer's public functions directly, in one process,
// with inputs shaped like the workload generator's, so a later change can
// show which layer its saving sits in. They run after the workload's
// deployment is closed, so nothing else allocates or competes.

// manyWriters is the concurrency of the "_wN" storage probes: enough
// writers for group commit to batch.
const manyWriters = 8

// firstError keeps the first error the callers of a probe report, from any
// goroutine.
type firstError struct {
	mu  sync.Mutex
	err error
}

func (f *firstError) note(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.err == nil {
		f.err = err
	}
}

// timed runs fn n times per round and returns the median round's mean
// time per call in ns and mallocs per call.
func timed(rounds, n int, fn func(i int)) (ns, allocs float64) {
	var nss, allocss []float64
	for r := 0; r < rounds; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < n; i++ {
			fn(r*n + i)
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		nss = append(nss, float64(elapsed)/float64(n))
		allocss = append(allocss, float64(after.Mallocs-before.Mallocs)/float64(n))
	}
	return median(nss), median(allocss)
}

// timedParallel is timed with the n calls of a round split over workers
// goroutines; fn gets the worker's index. It returns the mean latency of
// one call as a worker sees it.
func timedParallel(rounds, n, workers int, fn func(worker, i int)) float64 {
	var nss []float64
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < n/workers; i++ {
					fn(w, r*n+i)
				}
			}(w)
		}
		wg.Wait()
		nss = append(nss, float64(time.Since(start))/float64(n/workers))
	}
	return median(nss)
}

// probeInputs are generator-shaped payloads shared by the probes.
type probeInputs struct {
	insert shm.InsertBatch
	reply  []shm.DataPoint // a full-minute RawData reply
	state  []byte          // replication envelope of a full durable_repl channel state
}

func newProbeInputs(ctx context.Context) (probeInputs, error) {
	var in probeInputs
	in.insert = shm.InsertBatch{At: epoch, Points: make([][]float64, channelsPerSens)}
	for i := range in.insert.Points {
		for j := 0; j < pointsPerChannel; j++ {
			in.insert.Points[i] = append(in.insert.Points[i], float64(i*pointsPerChannel+j)+0.5)
		}
	}
	for i := 0; i < rawSpan*pointsPerChannel; i++ {
		in.reply = append(in.reply, shm.DataPoint{At: epoch.Add(time.Duration(i) * 100 * time.Millisecond), Value: float64(i) + 0.25})
	}
	state, err := captureChannelState(ctx)
	if err != nil {
		return in, err
	}
	in.state = replication.Envelope{Version: replication.Version{Epoch: 1, Seq: 1}, Value: state}.Encode()
	return in, nil
}

// captureChannelState runs the durable workload's channel configuration
// (durableWindowCap-point window, write per batch) on an in-memory store until the
// window is full and returns the stored state bytes: the value the
// storage layers handle on durable_repl.
func captureChannelState(ctx context.Context) ([]byte, error) {
	store, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	rt, err := core.New(core.Config{Store: store})
	if err != nil {
		return nil, err
	}
	defer rt.Shutdown(ctx)
	p, err := shm.NewPlatform(rt, shm.Options{Persist: core.PersistOnDeactivate})
	if err != nil {
		return nil, err
	}
	if _, err := rt.AddSilo("silo-1", nil); err != nil {
		return nil, err
	}
	pop := shm.DefaultPopulation(1)
	pop.WriteEveryBatch = true
	pop.WindowCap = durableWindowCap
	keys, err := p.Populate(ctx, pop)
	if err != nil {
		return nil, err
	}
	points := [][]float64{make([]float64, pointsPerChannel), make([]float64, pointsPerChannel)}
	for i := 0; i*pointsPerChannel < durableWindowCap+pointsPerChannel; i++ {
		for j := range points[0] {
			points[0][j] = float64(i*pointsPerChannel+j) * 1.37
		}
		if err := p.Ingest(ctx, keys[0], epoch.Add(time.Duration(i)*time.Second), points); err != nil {
			return nil, err
		}
	}
	channel := shm.ChannelKey(keys[0], 0)
	if _, err := p.RawData(ctx, channel, epoch, epoch); err != nil { // FIFO barrier behind the inserts
		return nil, err
	}
	table, err := store.Table("grains")
	if err != nil {
		return nil, err
	}
	item, err := table.Get(ctx, core.ID{Kind: shm.KindPhysicalChannel, Key: channel}.String())
	if err != nil {
		return nil, err
	}
	var state struct{ Window []shm.DataPoint }
	if err := json.Unmarshal(item.Value, &state); err != nil || len(state.Window) != durableWindowCap {
		return nil, fmt.Errorf("captured channel state holds %d points, want %d (%v)", len(state.Window), durableWindowCap, err)
	}
	return item.Value, nil
}

// runProbes fills every "probe" metric.
func runProbes(ctx context.Context, tmpRoot string, res *Result) error {
	in, err := newProbeInputs(ctx)
	if err != nil {
		return fmt.Errorf("probe inputs: %w", err)
	}
	tmp, err := os.MkdirTemp(tmpRoot, "probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	probes := []struct {
		layer string
		fn    func() error
	}{
		{"codec", func() error { return probeCodec(in, res) }},
		{"transport", func() error { return probeTransport(ctx, in, res) }},
		{"core", func() error { return probeCore(ctx, res) }},
		{"directory", func() error { return probeDirectory(res) }},
		{"query", func() error { return probeQuery(ctx, res) }},
		{"wal", func() error { return probeWAL(filepath.Join(tmp, "wal"), in, res) }},
		{"kvstore", func() error { return probeKVStore(ctx, filepath.Join(tmp, "kv"), in, res) }},
		{"replication", func() error { return probeReplication(ctx, filepath.Join(tmp, "repl"), in, res) }},
	}
	for _, p := range probes {
		runtime.GC()
		if err := p.fn(); err != nil {
			return fmt.Errorf("%s probe: %w", p.layer, err)
		}
	}
	return nil
}

// probeCodec times steady-state encode and decode of three frames on one
// long-lived buffered stream: an insert request, a full-minute RawData
// reply, and a replica write carrying a full channel state.
func probeCodec(in probeInputs, res *Result) error {
	frames := []struct {
		name  string
		frame codec.Frame
		n     int
	}{
		{"insert", codec.Frame{Kind: codec.FrameRequest, TargetKind: shm.KindSensor, TargetKey: shm.SensorKey(shm.OrgKey(7), 42), Method: "call", Sender: clientName, Payload: in.insert}, 2000},
		{"range_reply", codec.Frame{Kind: codec.FrameResponse, Payload: in.reply}, 200},
		{"replica_env", codec.Frame{Kind: codec.FrameRequest, TargetKind: replication.TargetKind, TargetKey: "silo-2", Method: "call", Sender: "silo-1", Payload: in.state}, 1000},
	}
	for _, f := range frames {
		var wire bytes.Buffer
		stream := codec.NewBufferedStream(&wire, 0)
		var encode, decode time.Duration
		var size int
		var failed error
		roundTrip := func(int) {
			f.frame.ID++
			t0 := time.Now()
			if err := stream.WriteNoFlush(&f.frame); err != nil {
				failed = err
				return
			}
			if err := stream.Flush(); err != nil {
				failed = err
				return
			}
			t1 := time.Now()
			size = wire.Len()
			got, err := stream.Read()
			if err != nil {
				failed = err
				return
			}
			decode += time.Since(t1)
			encode += t1.Sub(t0)
			codec.PutFrame(got)
		}
		roundTrip(0) // the first frame carries gob's type descriptors
		encode, decode = 0, 0
		_, allocs := timed(1, f.n, roundTrip)
		if failed != nil {
			return failed
		}
		prefix := "codec." + f.name
		res.set(prefix+".encode_ns", float64(encode)/float64(f.n), "ns")
		res.set(prefix+".decode_ns", float64(decode)/float64(f.n), "ns")
		res.set(prefix+".bytes", float64(size), "B")
		res.set(prefix+".allocs", allocs, "count")
	}
	return nil
}

// probeTransport times an echo of an insert-sized payload between two
// TCP endpoints on loopback, with one caller (the solo inline write path)
// and with one caller per client (write coalescing).
func probeTransport(ctx context.Context, in probeInputs, res *Result) error {
	reg := metrics.NewRegistry()
	opts := transport.TCPOptions{Metrics: reg}
	a, err := transport.NewTCPWithOptions("probe-a", "127.0.0.1:0", opts)
	if err != nil {
		return err
	}
	defer a.Close()
	b, err := transport.NewTCPWithOptions("probe-b", "127.0.0.1:0", opts)
	if err != nil {
		return err
	}
	defer b.Close()
	if err := b.Register("probe-b", func(_ context.Context, req transport.Request) (any, error) {
		return req.Payload, nil
	}); err != nil {
		return err
	}
	a.SetPeer("probe-b", b.Addr())
	var failed firstError
	call := func(worker, i int) {
		req := transport.Request{TargetKind: shm.KindSensor, TargetKey: shm.SensorKey(shm.OrgKey(worker), i%100), Method: "call", Payload: in.insert, Sender: "probe-a"}
		_, err := a.Call(ctx, "probe-b", req)
		failed.note(err)
	}
	call(0, 0) // dial
	ns, allocs := timed(5, 1000, func(i int) { call(0, i) })
	res.set("transport.rtt_us_c1", ns/1e3, "us")
	res.set("transport.call_allocs", allocs, "count")
	before := reg.Counters()
	workers := clientCount()
	res.set("transport.rtt_us_cN", timedParallel(5, 1000*workers, workers, call)/1e3, "us")
	after := reg.Counters()
	flushes := float64(after["transport.flushes"] - before["transport.flushes"])
	var perFlush float64
	if flushes > 0 {
		perFlush = float64(after["transport.frames.sent"]-before["transport.frames.sent"]) / flushes
	}
	res.set("transport.frames_per_flush_cN", perFlush, "count")
	return failed.err
}

// noop is the hot actor of the core probes: its turns cost nothing, so
// what is measured is the runtime.
type noop struct{ state struct{ N int } }

func (a *noop) State() any { return &a.state }

func (a *noop) Receive(ctx *core.Context, msg any) (any, error) {
	a.state.N++
	if msg == "cycle" {
		ctx.DeactivateOnIdle()
	}
	return nil, nil
}

// idleActors is how many idle activations core.mem_kb_per_idle_actor
// holds at once.
const idleActors = 20000

func probeCore(ctx context.Context, res *Result) error {
	store, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		return err
	}
	defer store.Close()
	reg := metrics.NewRegistry()
	rt, err := core.New(core.Config{Store: store, Metrics: reg})
	if err != nil {
		return err
	}
	defer rt.Shutdown(ctx)
	newNoop := func() core.Actor { return &noop{} }
	if err := rt.RegisterKind("Noop", newNoop); err != nil {
		return err
	}
	if err := rt.RegisterKind("Cycle", newNoop, core.WithPersistence(core.PersistOnDeactivate)); err != nil {
		return err
	}
	if _, err := rt.AddSilo("silo-1", nil); err != nil {
		return err
	}
	var failed firstError
	note := failed.note
	workers := clientCount()
	hot := make([]core.ID, workers)
	for w := range hot {
		hot[w] = core.ID{Kind: "Noop", Key: fmt.Sprintf("hot-%d", w)}
		_, err := rt.Call(ctx, hot[w], 0)
		note(err)
	}
	ns, allocs := timed(5, 20000, func(i int) {
		_, err := rt.Call(ctx, hot[0], i)
		note(err)
	})
	res.set("core.call_ns", ns, "ns")
	res.set("core.call_allocs", allocs, "count")
	res.set("core.call_parallel_ns", timedParallel(5, 20000*workers, workers, func(w, i int) {
		_, err := rt.Call(ctx, hot[w], i)
		note(err)
	}), "ns")
	// A round of Tells ends with a Call: the mailbox is FIFO, so the
	// round's time includes running every told turn.
	const tells = 20000
	ns, _ = timed(5, tells+1, func(i int) {
		if i%(tells+1) == tells {
			_, err := rt.Call(ctx, hot[0], i)
			note(err)
			return
		}
		note(rt.Tell(ctx, hot[0], i))
	})
	res.set("core.tell_ns", ns, "ns")

	// Cold activation: the first call to an actor that has no state.
	const rounds, perRound = 3, 2000
	cold := make([]core.ID, rounds*perRound)
	for i := range cold {
		cold[i] = core.ID{Kind: "Noop", Key: fmt.Sprintf("cold-%d", i)}
	}
	ns, allocs = timed(rounds, perRound, func(i int) {
		_, err := rt.Call(ctx, cold[i], i)
		note(err)
	})
	res.set("core.activate_us", ns/1e3, "us")
	res.set("core.activate_allocs", allocs, "count")

	// Churn cycle: activate, one turn, collect, flush state. The actor
	// asks to be collected as soon as its mailbox drains; the round ends
	// when the last one is gone.
	active := reg.Gauge("core.active")
	floor := active.Value()
	for i := range cold[:perRound] {
		cold[i].Kind = "Cycle" // the same keys every round: later rounds load state
	}
	ns, _ = timed(rounds, perRound, func(i int) {
		_, err := rt.Call(ctx, cold[i%perRound], "cycle")
		note(err)
		if i%perRound == perRound-1 {
			for active.Value() > floor {
				runtime.Gosched()
			}
		}
	})
	res.set("core.churn_cycle_us", ns/1e3, "us")

	before := liveMemory()
	for i := 0; i < idleActors; i++ {
		_, err := rt.Call(ctx, core.ID{Kind: "Noop", Key: fmt.Sprintf("idle-%d", i)}, i)
		note(err)
	}
	res.set("core.mem_kb_per_idle_actor", (liveMemory()-before)/1024/idleActors, "KB")
	return failed.err
}

// probeDirectory times the grain directory and consistent-hash placement
// on the workloads' own actor ids.
func probeDirectory(res *Result) error {
	const n = 20000
	ids := make([]string, n)
	for i := range ids {
		key := shm.ChannelKey(shm.SensorKey(shm.OrgKey(i/200), i/2%100), i%2)
		ids[i] = core.ID{Kind: shm.KindPhysicalChannel, Key: key}.String()
	}
	var failed error
	var dir *directory.Directory
	ns, _ := timed(5, n, func(i int) {
		if i%n == 0 {
			dir = directory.New()
		}
		if _, err := dir.Register(ids[i%n], "silo-1"); err != nil {
			failed = err
		}
	})
	res.set("directory.register_ns", ns, "ns")
	ns, _ = timed(5, n, func(i int) {
		if _, ok := dir.Lookup(ids[i%n]); !ok {
			failed = fmt.Errorf("directory lost %s", ids[i%n])
		}
	})
	res.set("directory.lookup_ns", ns, "ns")
	hash := placement.NewConsistentHash()
	hash.PrefixSep = '@'
	silos := []string{"silo-1", "silo-2", "silo-3"}
	ns, _ = timed(5, n, func(i int) {
		if _, err := hash.Place(ids[i%n], "", silos); err != nil {
			failed = err
		}
	})
	res.set("placement.place_ns", ns, "ns")
	return failed
}

// probeQuery times LiveData and RawData with no wire under them: the
// fan-out and actor cost that is left when the TCP workloads' wire cost is
// subtracted.
func probeQuery(ctx context.Context, res *Result) error {
	s, _ := specByName("ingest_local")
	s.sensors = 200
	d, err := boot(ctx, s, false, "")
	if err != nil {
		return err
	}
	defer d.close()
	g := newGenerator(d, 1)
	if err := g.prefill(ctx); err != nil {
		return err
	}
	c := g.clients[0]
	var live, raw []float64
	for i := 0; i < 200; i++ {
		start := time.Now()
		if err := c.live(ctx, i%g.orgs); err != nil {
			return err
		}
		live = append(live, us(time.Since(start)))
	}
	for i := 0; i < 1000; i++ {
		start := time.Now()
		if err := c.raw(ctx, c.rawSet[i%len(c.rawSet)], i%channelsPerSens, rawSpan); err != nil {
			return err
		}
		raw = append(raw, us(time.Since(start)))
	}
	res.set("query.live_local_us", median(live), "us")
	res.set("query.raw_local_us", median(raw), "us")
	return nil
}

// storageRounds and storageOps size the durable probes: every call ends
// in an fsync.
const (
	storageRounds = 3
	storageOps    = 200
)

func probeWAL(dir string, in probeInputs, res *Result) error {
	reg := metrics.NewRegistry()
	log, err := wal.Open(dir, wal.Options{SyncEveryAppend: true, Metrics: reg})
	if err != nil {
		return err
	}
	defer log.Close()
	var failed firstError
	appendOne := func(int, int) {
		_, err := log.Append(in.state)
		failed.note(err)
	}
	ns, _ := timed(storageRounds, storageOps, func(i int) { appendOne(0, i) })
	res.set("wal.append_us_w1", ns/1e3, "us")
	before := reg.Counters()
	res.set("wal.append_us_wN", timedParallel(storageRounds, storageOps*manyWriters, manyWriters, appendOne)/1e3, "us")
	after := reg.Counters()
	var perSync float64
	if syncs := float64(after["wal.flushes"] - before["wal.flushes"]); syncs > 0 {
		perSync = float64(after["wal.appends"]-before["wal.appends"]) / syncs
	}
	res.set("wal.records_per_fsync_wN", perSync, "count")
	return failed.err
}

func probeKVStore(ctx context.Context, dir string, in probeInputs, res *Result) error {
	store, err := kvstore.Open(kvstore.Options{Dir: dir, Durable: true})
	if err != nil {
		return err
	}
	defer store.Close()
	table, err := store.EnsureTable("grains", kvstore.Throughput{})
	if err != nil {
		return err
	}
	var failed firstError
	key := func(worker, i int) string { return fmt.Sprintf("PhysicalChannel/w%d-%d", worker, i%64) }
	put := func(worker, i int) {
		_, err := table.Put(ctx, key(worker, i), in.state)
		failed.note(err)
	}
	ns, allocs := timed(storageRounds, storageOps, func(i int) { put(0, i) })
	res.set("kvstore.put_us_w1", ns/1e3, "us")
	res.set("kvstore.put_allocs", allocs, "count")
	res.set("kvstore.put_us_wN", timedParallel(storageRounds, storageOps*manyWriters, manyWriters, put)/1e3, "us")
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = key(0, i)
	}
	ns, _ = timed(5, 20000, func(i int) {
		_, err := table.Get(ctx, keys[i%len(keys)])
		failed.note(err)
	})
	res.set("kvstore.get_ns", ns, "ns")
	return failed.err
}

// probeReplication times sequential quorum writes and reads, N=3 R=2 W=2,
// over durable stores and the in-process transport: one local replica and
// two behind the replication service.
func probeReplication(ctx context.Context, dir string, in probeInputs, res *Result) error {
	names := []string{"silo-1", "silo-2", "silo-3"}
	ring, err := replication.NewRing(names)
	if err != nil {
		return err
	}
	svc := replication.NewService()
	tr := transport.NewLocal(nil, nil)
	defer tr.Close()
	locals := map[string]*replication.Store{}
	for i, name := range names {
		store, err := kvstore.Open(kvstore.Options{Dir: filepath.Join(dir, name), Durable: true})
		if err != nil {
			return err
		}
		defer store.Close()
		table, err := store.EnsureTable("grains", kvstore.Throughput{})
		if err != nil {
			return err
		}
		replica, err := replication.NewStore(replication.StoreConfig{Silo: name, Table: table, Ring: ring, N: 3})
		if err != nil {
			return err
		}
		svc.Host(name, replica)
		if i == 0 {
			locals[name] = replica
			continue
		}
		silo := name
		err = tr.Register(silo, func(ctx context.Context, req transport.Request) (any, error) {
			return svc.Handle(ctx, silo, req)
		})
		if err != nil {
			return err
		}
	}
	coord, err := replication.NewCoordinator(replication.Config{
		Ring: ring, N: 3, R: 2, W: 2, Transport: tr, Sender: names[0], Local: locals,
	})
	if err != nil {
		return err
	}
	defer coord.Close(ctx)
	// in.state is an encoded envelope; the coordinator wraps its own, so
	// hand it the bare state value.
	env, err := replication.DecodeEnvelope(in.state)
	if err != nil {
		return err
	}
	var failed error
	versions := map[string]int64{}
	key := func(i int) string { return fmt.Sprintf("PhysicalChannel/probe-%d", i%64) }
	ns, allocs := timed(storageRounds, storageOps, func(i int) {
		v, err := coord.Store(ctx, key(i), env.Value, versions[key(i)])
		if err != nil {
			failed = err
		}
		versions[key(i)] = v
	})
	res.set("replication.store_us", ns/1e3, "us")
	res.set("replication.store_allocs", allocs, "count")
	ns, _ = timed(storageRounds, storageOps, func(i int) {
		if _, _, err := coord.Load(ctx, key(i)); err != nil {
			failed = err
		}
	})
	res.set("replication.load_us", ns/1e3, "us")
	return failed
}
