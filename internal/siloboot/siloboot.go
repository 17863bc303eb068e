// Package siloboot is the shared bring-up path for SHM cluster processes
// (shmserver silos and the shmload client). Both need the same stack —
// a TCP transport with static peers, consistent-hash placement keyed on
// the actor-id prefix, a static cluster view, one optional recorder
// (tracing, hot-spot profiling, flight-recorder events), one metrics
// registry spanning runtime and wire path — and keeping that wiring in one place means a flag added here
// (or a default changed) behaves identically in every process.
package siloboot

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"aodb/internal/cluster"
	"aodb/internal/core"
	"aodb/internal/gossip"
	"aodb/internal/kvstore"
	"aodb/internal/metrics"
	"aodb/internal/placement"
	"aodb/internal/rebalance"
	"aodb/internal/replication"
	"aodb/internal/telemetry"
	"aodb/internal/transport"
)

// Options configures one cluster process.
type Options struct {
	// Name is this process's transport name; Listen its TCP bind address.
	Name   string
	Listen string
	// Silos is the comma-separated list of ALL silo names, identical on
	// every node so consistent-hash placement agrees cluster-wide (see
	// SplitNames).
	Silos string
	// Peers holds comma-separated name=addr pairs for the other processes
	// (see SplitPairs).
	Peers string
	// Breaker wraps the transport in per-peer circuit breakers (servers
	// want this; a short-lived load client typically does not).
	Breaker bool

	// Gossip replaces the static membership view with a live SWIM gossip
	// agent: placement, the replication ring, and the directory track the
	// view as silos join, die, and refute. Silos listed in Silos form the
	// initial view; any process can join later via Seeds, so the cluster
	// grows elastically without restarting anything. A process whose Name
	// is not in Silos (the load client) runs the agent in observer mode —
	// it follows the view without becoming a member.
	Gossip bool
	// Seeds holds comma-separated name=addr pairs probed synchronously at
	// JoinCluster to merge into an existing cluster's view. Peers already
	// listed in Peers are routable anyway; Seeds only decides who gets the
	// join probes.
	Seeds string
	// Rebalance starts a background rebalancer (silos only): on membership
	// changes it live-migrates this silo's activations whose consistent-
	// hash home moved, and with -profile it sheds the hottest actors when
	// this silo's gossiped load runs far above the cluster mean.
	Rebalance bool
	// RebalanceEvery is the background planning period (0 = 10s);
	// membership events trigger immediate rounds regardless.
	RebalanceEvery time.Duration

	// Store, when non-nil, enables actor-state persistence.
	Store *kvstore.Store

	// Replicas enables replicated actor state when > 1 (and Store is
	// set): every state load and flush goes through a strict N/R/W quorum
	// coordinator over the cluster's replica stores, with read repair and
	// a background anti-entropy sweep. On a storeless process (the load
	// client) the knob is inert — replication lives where state does.
	Replicas int
	// ReadQuorum / WriteQuorum override R and W (0 = majority of
	// Replicas).
	ReadQuorum  int
	WriteQuorum int
	// HintDir is ignored: replication keeps no hint queue. The field
	// stays only so callers that still set it compile.
	HintDir string
	// SweepEvery is the anti-entropy period (0 = 30s).
	SweepEvery time.Duration

	// Trace, Profile and Events select what the node's one recorder
	// (Node.Tracer; nil when all three are off) records. Trace is
	// distributed tracing: sample every TraceSample-th request (minimum
	// 1), keep TraceCapacity spans (0 = telemetry default). Profile is
	// per-actor hot-spot accounting. Events is the cluster flight
	// recorder: the node stamps outgoing RPCs with HLC timestamps and
	// records membership transitions, migration phases, quorum outcomes,
	// breaker trips, slow turns, and panics into its ring, freezing it to
	// a file under CaptureDir (when set) on an anomaly; EventCapacity
	// sizes the ring (0 = telemetry default). SlowTurn is the recorder's
	// one slow-turn threshold (0 = telemetry default).
	Trace         bool
	TraceSample   int
	TraceCapacity int
	Profile       bool
	Events        bool
	EventCapacity int
	CaptureDir    string
	SlowTurn      time.Duration
	// ObsAddr is the advertised observability endpoint (host:port of the
	// introspection listener), gossiped to peers so aggregators discover
	// scrape targets from the membership view alone.
	ObsAddr string

	// Metrics overrides the registry (nil allocates one shared by the
	// runtime and the transport).
	Metrics *metrics.Registry
}

// Flags registers on fs the flags every cluster process shares, bound to
// o's fields with o's current values as their defaults: -name, -listen,
// -silos, -peers, -gossip, -seeds, -replicas, -read-quorum,
// -write-quorum, -trace and -trace-sample. silo picks the help text: a
// silo hosts actors, a load client only routes calls to them.
func (o *Options) Flags(fs *flag.FlagSet, silo bool) {
	help := func(server, client string) string {
		if silo {
			return server
		}
		return client
	}
	fs.StringVar(&o.Name, "name", o.Name, help("this silo's cluster-unique name", "this client's transport name"))
	fs.StringVar(&o.Listen, "listen", o.Listen, help("TCP listen address", "TCP listen address for responses"))
	fs.StringVar(&o.Silos, "silos", o.Silos, help("comma-separated names of ALL silos (identical on every node)",
		"comma-separated names of ALL silos (same order as servers)"))
	fs.StringVar(&o.Peers, "peers", o.Peers, help("comma-separated name=addr pairs for the other silos",
		"comma-separated name=addr pairs for the silos"))
	fs.BoolVar(&o.Gossip, "gossip", o.Gossip, help("SWIM gossip membership: the live view replaces the static -silos list, so silos can join and leave at runtime",
		"follow the cluster's gossip membership as an observer: placement tracks silos joining and leaving mid-run"))
	fs.StringVar(&o.Seeds, "seeds", o.Seeds, help("comma-separated name=addr seed silos probed at startup to join a running cluster (with -gossip)",
		"comma-separated name=addr seed silos to probe for the initial view (with -gossip)"))
	fs.IntVar(&o.Replicas, "replicas", o.Replicas, help("replicate actor state across N silos with quorum reads/writes (0/1 = off; needs -store)",
		"cluster's -replicas setting (accepted for a shared flag set; state replication happens on the silos)"))
	fs.IntVar(&o.ReadQuorum, "read-quorum", o.ReadQuorum, help("replicas that must answer a state read (0 = majority of -replicas)",
		"cluster's -read-quorum setting (accepted for a shared flag set)"))
	fs.IntVar(&o.WriteQuorum, "write-quorum", o.WriteQuorum, help("replicas that must ack a state write (0 = majority of -replicas)",
		"cluster's -write-quorum setting (accepted for a shared flag set)"))
	fs.BoolVar(&o.Trace, "trace", o.Trace, help("enable distributed tracing",
		"trace requests end to end and print insert tail attribution"))
	fs.IntVar(&o.TraceSample, "trace-sample", o.TraceSample, "sample every Nth request when tracing")
}

// Node is a started cluster process: the runtime plus the pieces the
// command-level code still needs (shutdown, peers, introspection).
type Node struct {
	Name     string
	Registry *metrics.Registry
	TCP      *transport.TCP
	Breaker  *transport.Breaker // nil unless Options.Breaker
	Tracer   *telemetry.Tracer  // nil unless Options.Trace, Profile or Events
	Runtime  *core.Runtime
	// View is the membership every layer reads: a static view over
	// Options.Silos, or the gossip agent's published view.
	View cluster.Viewer
	// Gossip and Rebalancer are set by their Options flags; both start on
	// JoinCluster and stop in Drain.
	Gossip     *gossip.Agent
	Rebalancer *rebalance.Rebalancer
	// Coordinator and Sweeper are set when replication is on; the
	// command owns their shutdown (see Drain).
	Coordinator *replication.Coordinator
	Sweeper     *replication.Sweeper
	store       *kvstore.Store
}

// Start builds the transport, placement, and runtime. The caller still
// registers kinds (shm.NewPlatform) and, for silos, adds itself with
// AddSilo — a load client deliberately never does, so no actor places
// onto it.
func Start(opts Options) (*Node, error) {
	silos, err := SplitNames(opts.Silos)
	if err != nil {
		return nil, fmt.Errorf("siloboot: -silos: %w", err)
	}
	peers, err := SplitPairs(opts.Peers)
	if err != nil {
		return nil, fmt.Errorf("siloboot: -peers: %w", err)
	}
	seeds, err := SplitPairs(opts.Seeds)
	if err != nil {
		return nil, fmt.Errorf("siloboot: -seeds: %w", err)
	}
	member := slices.Contains(silos, opts.Name)
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	topts := transport.TCPOptions{Metrics: reg}
	tracer := newTracer(opts)
	if opts.Events {
		// Frames leaving this process carry a causal timestamp; local
		// deliveries skip the mint (they share the recorder's clock).
		topts.StampHLC = tracer.StampHLC
	}
	tcp, err := transport.NewTCPWithOptions(opts.Name, opts.Listen, topts)
	if err != nil {
		return nil, err
	}
	for _, pair := range peers {
		tcp.SetPeer(pair[0], pair[1])
	}
	var tr transport.Transport = tcp
	var breaker *transport.Breaker
	if opts.Breaker {
		bopts := transport.BreakerOptions{}
		if opts.Events {
			bopts.OnTrip = func(node string, failures int) {
				tracer.Record(telemetry.BreakerTrip, "", 0, "node="+node+" failures="+strconv.Itoa(failures))
			}
		}
		breaker = transport.NewBreaker(tcp, bopts)
		tr = breaker
	}

	// Membership: by default a static view over opts.Silos, identical on
	// every node. With Gossip on, the view is a live SWIM agent instead —
	// the same Viewer surface, publishing one view per change, so nothing
	// downstream branches on which one it got. The agent's Load sampler
	// needs the runtime, which doesn't exist yet; it reads through an
	// atomic holder filled in after core.New.
	var rtHold atomic.Pointer[core.Runtime]
	var agent *gossip.Agent
	var members cluster.Viewer = cluster.NewStaticView(silos...)
	if opts.Gossip {
		name := opts.Name
		agent, err = gossip.New(gossip.Config{
			Name:      name,
			Addr:      tcp.Addr(),
			ObsAddr:   opts.ObsAddr,
			Transport: tr,
			Seeds:     seeds,
			Observer:  !member,
			Load: func() int64 {
				rt := rtHold.Load()
				if rt == nil {
					return 0
				}
				if s, ok := rt.Silo(name); ok {
					return int64(s.Activations())
				}
				return 0
			},
			OnPeer:  tcp.SetPeer,
			Metrics: reg,
		})
		if err != nil {
			return nil, err
		}
		members = agent
	}
	view := members

	// Replicated state: this process hosts its own replica store locally
	// (the N=1 fast path never touches the transport) and reaches peer
	// replicas through the same breaker-wrapped transport as actor
	// traffic. The coordinator homes keys on the membership's published
	// ring and follows its changes through handoffs; it becomes the
	// runtime's state store, and storage-dead silos are vetoed from
	// placement alongside open-circuit ones.
	var coord *replication.Coordinator
	var sweeper *replication.Sweeper
	var svc *replication.Service
	var rstore *replication.Store
	if opts.Replicas > 1 && opts.Store != nil {
		tab, err := opts.Store.EnsureTable(core.StateTable, kvstore.Throughput{})
		if err != nil {
			return nil, err
		}
		rstore, err = replication.NewStore(replication.StoreConfig{
			Silo: opts.Name, Table: tab, N: opts.Replicas, Metrics: reg,
		})
		if err != nil {
			return nil, err
		}
		svc = replication.NewService()
		svc.Host(opts.Name, rstore)
		coord, err = replication.NewCoordinator(replication.Config{
			Ring:      members,
			N:         opts.Replicas,
			R:         opts.ReadQuorum,
			W:         opts.WriteQuorum,
			Transport: tr,
			Sender:    opts.Name,
			Local:     map[string]*replication.Store{opts.Name: rstore},
			Metrics:   reg,
			Tracer:    tracer,
		})
		if err != nil {
			return nil, err
		}
		view = cluster.NewFilteredView(view, coord.Unhealthy)
	} else if opts.Replicas > 1 && opts.Store == nil && member {
		// A process that is itself one of the cluster's silos cannot
		// replicate without somewhere to keep its replica; a storeless
		// load client merely passing the shared flag set through is fine.
		return nil, errors.New("siloboot: -replicas on a silo needs -store")
	}

	hash := placement.NewConsistentHash()
	hash.PrefixSep = '@'
	cfg := core.Config{
		Transport: tr,
		Placement: hash,
		Store:     opts.Store,
		View:      view,
		Tracer:    tracer,
		Metrics:   reg,
	}
	if coord != nil {
		cfg.States = coord
	}
	rt, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	rtHold.Store(rt)

	var rebalancer *rebalance.Rebalancer
	if opts.Rebalance && member {
		var loads func() map[string]int64
		if agent != nil {
			loads = agent.Loads
		}
		rebalancer, err = rebalance.New(rebalance.Config{
			Runtime:  rt,
			Silo:     opts.Name,
			View:     view,
			Strategy: hash,
			Loads:    loads,
			Every:    opts.RebalanceEvery,
			Metrics:  reg,
		})
		if err != nil {
			return nil, err
		}
	}

	if agent != nil {
		if err := rt.RegisterService(gossip.TargetKind, agent.Handle); err != nil {
			return nil, err
		}
		// Membership events drive the rest of the stack: a death evicts
		// the silo's directory registrations (so its actors fail over on
		// the next call), and the rebalancer re-plans immediately. The
		// replication ring needs no event: the coordinator reads the
		// agent's published view.
		agent.Subscribe(func(e cluster.Event) {
			switch e.Status {
			case cluster.StatusActive:
				tracer.Record(telemetry.MemberJoin, "", 0, "member="+e.Silo)
			case cluster.StatusSuspect:
				tracer.Record(telemetry.MemberSuspect, "", 0, "member="+e.Silo)
			case cluster.StatusDead:
				// MemberDead is anomalous: recording it also freezes a
				// ring capture, so the survivors persist the window
				// around a crash even though the crashed silo cannot.
				tracer.Record(telemetry.MemberDead, "", 0, "member="+e.Silo)
				rt.Directory().EvictSilo(e.Silo)
			}
			if rebalancer != nil {
				rebalancer.Notify()
			}
		})
	}
	if coord != nil {
		if err := rt.RegisterService(replication.TargetKind, svc.Handle); err != nil {
			return nil, err
		}
		// Gate this silo's replica reads until an anti-entropy pass over
		// all its peer pairs comes back clean: a replica restarted onto
		// wiped (or stale) storage must not answer quorum reads (see
		// replication.ErrRebuilding). The sweeper re-sweeps every 200 ms
		// until then; a gossip silo alone in its view waits for a peer, a
		// static set of one has none to wait for. Quorum reads meanwhile
		// fail transient and retry, or are served by ungated replicas. A
		// gossip silo sweeps from JoinCluster on.
		rstore.SetRebuilding(agent != nil || len(members.View().Members) > 1)
		sweeper = replication.NewSweeper(coord, opts.SweepEvery, opts.Name, 0)
		if agent == nil {
			sweeper.Start()
		}
	}
	return &Node{
		Name:        opts.Name,
		Registry:    reg,
		TCP:         tcp,
		Breaker:     breaker,
		Tracer:      tracer,
		Runtime:     rt,
		View:        members,
		Gossip:      agent,
		Rebalancer:  rebalancer,
		Coordinator: coord,
		Sweeper:     sweeper,
		store:       opts.Store,
	}, nil
}

// newTracer builds the node's recorder from the Trace, Profile and Events
// options; nil when all are off.
func newTracer(opts Options) *telemetry.Tracer {
	var parts telemetry.Parts
	if opts.Trace {
		parts |= telemetry.Spans
	}
	if opts.Profile {
		parts |= telemetry.Profile
	}
	if opts.Events {
		parts |= telemetry.Events
	}
	if parts == 0 {
		return nil
	}
	return telemetry.New(telemetry.Config{
		Parts:         parts,
		SampleEvery:   uint64(max(opts.TraceSample, 1)),
		Capacity:      opts.TraceCapacity,
		EventCapacity: opts.EventCapacity,
		SlowTurn:      opts.SlowTurn,
		Silo:          opts.Name,
		CaptureDir:    opts.CaptureDir,
	})
}

// JoinCluster starts the gossip agent (probing Seeds synchronously, so
// the first view is already merged when it returns), a gossip silo's
// anti-entropy sweeper, and the background rebalancer. Call it after
// kinds are registered and AddSilo has run: the join announcement is what
// makes peers route actors here, so the silo must be ready to serve
// before it goes out. A no-op without -gossip / -rebalance.
func (n *Node) JoinCluster() error {
	if n.Gossip != nil {
		if err := n.Gossip.Start(); err != nil {
			return err
		}
		if n.Sweeper != nil {
			n.Sweeper.Start()
		}
	}
	if n.Rebalancer != nil {
		n.Rebalancer.Start()
	}
	return nil
}

// Drain is the graceful storage shutdown, run after Runtime.Shutdown has
// deactivated (and flushed) every actor: stop the anti-entropy sweeper
// and put a final WAL sync barrier on the store — every acknowledged
// write is on disk before the process exits.
func (n *Node) Drain(ctx context.Context) error {
	if n.Rebalancer != nil {
		n.Rebalancer.Stop()
	}
	if n.Gossip != nil {
		// Graceful departure: announce Left (peers drop us without a
		// suspicion round) and stop probing.
		n.Gossip.Leave(ctx)
		n.Gossip.Stop()
	}
	if n.Sweeper != nil {
		n.Sweeper.Stop()
	}
	if n.store != nil {
		return n.store.Sync()
	}
	return nil
}

// Introspection assembles the node's observability endpoint, wiring in
// whichever sources the node has. pprof opts into /debug/pprof/.
func (n *Node) Introspection(pprof bool) *telemetry.Introspection {
	in := &telemetry.Introspection{
		Registry: n.Registry,
		Tracer:   n.Tracer,
		Runtime:  n.Runtime,
		Name:     n.Name,
		Pprof:    pprof,
	}
	if n.Breaker != nil {
		in.Breakers = n.Breaker.States
	}
	if ag := n.Gossip; ag != nil {
		// /members lets an observer process (shmtop) discover every
		// silo's scrape endpoint and liveness from any one seed.
		in.Members = func() []telemetry.MemberInfo {
			members := ag.Members()
			out := make([]telemetry.MemberInfo, 0, len(members))
			for _, m := range members {
				out = append(out, telemetry.MemberInfo{
					Name:    m.Name,
					ObsAddr: m.ObsAddr,
					State:   m.State.String(),
				})
			}
			return out
		}
	}
	return in
}

// SplitNames parses a comma-separated list of names, such as -silos.
// Each entry is trimmed of spaces; an empty entry (including an empty
// list) or a repeated name is an error that names it.
func SplitNames(s string) ([]string, error) {
	names := strings.Split(s, ",")
	for i, name := range names {
		name = strings.TrimSpace(name)
		if name == "" {
			return nil, fmt.Errorf("entry %d of %q is empty", i+1, s)
		}
		if slices.Contains(names[:i], name) {
			return nil, fmt.Errorf("%q is listed twice", name)
		}
		names[i] = name
	}
	return names, nil
}

// SplitPairs parses a comma-separated list of name=addr pairs, such as
// -peers, -seeds, shmserver -obs-peers and shmtop -silos. A blank string
// is the empty list. Names and addresses are trimmed of spaces; an empty
// entry, an entry without "=" or with an empty half, and a repeated name
// are errors that name the entry.
func SplitPairs(s string) ([][2]string, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out [][2]string
	for i, part := range strings.Split(s, ",") {
		name, addr, ok := strings.Cut(part, "=")
		name, addr = strings.TrimSpace(name), strings.TrimSpace(addr)
		switch {
		case strings.TrimSpace(part) == "":
			return nil, fmt.Errorf("entry %d of %q is empty", i+1, s)
		case !ok || name == "" || addr == "":
			return nil, fmt.Errorf("entry %q is not name=addr", strings.TrimSpace(part))
		}
		for _, p := range out {
			if p[0] == name {
				return nil, fmt.Errorf("%q is listed twice", name)
			}
		}
		out = append(out, [2]string{name, addr})
	}
	return out, nil
}
