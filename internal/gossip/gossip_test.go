package gossip_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"aodb/internal/cluster"
	"aodb/internal/gossip"
	"aodb/internal/metrics"
	"aodb/internal/transport"
)

// fast protocol parameters so tests converge in tens of milliseconds.
func fastConfig(name string, tr gossip.Caller, seeds [][2]string, reg *metrics.Registry) gossip.Config {
	return gossip.Config{
		Name:         name,
		Addr:         "sim://" + name,
		Transport:    tr,
		Seeds:        seeds,
		ProbeEvery:   20 * time.Millisecond,
		ProbeTimeout: 15 * time.Millisecond,
		SuspectAfter: 120 * time.Millisecond,
		Seed:         42,
		Metrics:      reg,
	}
}

func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func equalView(got []string, want ...string) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// partition is a transport wrapper whose Call fails when the (sender,
// target) link is currently cut.
type partition struct {
	inner transport.Transport

	mu  sync.Mutex
	cut map[[2]string]bool
}

func newPartition(inner transport.Transport) *partition {
	return &partition{inner: inner, cut: make(map[[2]string]bool)}
}

// Isolate cuts every link between name and the rest, both directions.
func (p *partition) Isolate(name string, others ...string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, o := range others {
		p.cut[[2]string{name, o}] = true
		p.cut[[2]string{o, name}] = true
	}
}

// Heal restores all links.
func (p *partition) Heal() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cut = make(map[[2]string]bool)
}

// CutOneWayPair cuts only the a↔b links (both directions), leaving each
// side's other links intact.
func (p *partition) CutPair(a, b string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cut[[2]string{a, b}] = true
	p.cut[[2]string{b, a}] = true
}

func (p *partition) Call(ctx context.Context, node string, req transport.Request) (any, error) {
	p.mu.Lock()
	blocked := p.cut[[2]string{req.Sender, node}]
	p.mu.Unlock()
	if blocked {
		return nil, &transport.UnreachableError{Node: node, Err: errors.New("partitioned")}
	}
	return p.inner.Call(ctx, node, req)
}

// startAgents builds n agents named silo-1..silo-n on one Local
// transport behind a partition wrapper, all seeded with silo-1.
func startAgents(t *testing.T, names []string) (*partition, map[string]*gossip.Agent, map[string]*metrics.Registry) {
	t.Helper()
	lt := transport.NewLocal(nil, nil)
	part := newPartition(lt)
	agents := make(map[string]*gossip.Agent, len(names))
	regs := make(map[string]*metrics.Registry, len(names))
	seed := [][2]string{{names[0], "sim://" + names[0]}}
	for _, name := range names {
		reg := metrics.NewRegistry()
		var seeds [][2]string
		if name != names[0] {
			seeds = seed
		}
		a, err := gossip.New(fastConfig(name, part, seeds, reg))
		if err != nil {
			t.Fatalf("New(%s): %v", name, err)
		}
		name := name
		if err := lt.Register(name, func(ctx context.Context, req transport.Request) (any, error) {
			return a.Handle(ctx, name, req)
		}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
		agents[name] = a
		regs[name] = reg
	}
	for _, name := range names {
		if err := agents[name].Start(); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
	}
	t.Cleanup(func() {
		for _, a := range agents {
			a.Stop()
		}
		lt.Close()
	})
	return part, agents, regs
}

func TestJoinPropagation(t *testing.T) {
	names := []string{"silo-1", "silo-2", "silo-3"}
	_, agents, _ := startAgents(t, names)

	var mu sync.Mutex
	seen := map[string]cluster.SiloStatus{}
	agents["silo-1"].Subscribe(func(ev cluster.Event) {
		mu.Lock()
		seen[ev.Silo] = ev.Status
		mu.Unlock()
	})

	for _, name := range names {
		a := agents[name]
		waitFor(t, 5*time.Second, name+" full view", func() bool {
			return equalView(a.View(), "silo-1", "silo-2", "silo-3")
		})
	}
	mu.Lock()
	defer mu.Unlock()
	for _, joined := range []string{"silo-2", "silo-3"} {
		if st, ok := seen[joined]; ok && st != cluster.StatusActive {
			t.Errorf("silo-1 last saw %s as %s, want active", joined, st)
		}
	}
}

func TestFailureDetectionDeclaresDead(t *testing.T) {
	names := []string{"silo-1", "silo-2", "silo-3"}
	part, agents, _ := startAgents(t, names)
	for _, name := range names {
		a := agents[name]
		waitFor(t, 5*time.Second, name+" full view", func() bool {
			return equalView(a.View(), "silo-1", "silo-2", "silo-3")
		})
	}

	var mu sync.Mutex
	var deadEvent bool
	agents["silo-1"].Subscribe(func(ev cluster.Event) {
		if ev.Silo == "silo-3" && ev.Status == cluster.StatusDead {
			mu.Lock()
			deadEvent = true
			mu.Unlock()
		}
	})

	// silo-3 drops off the network without announcing anything.
	agents["silo-3"].Stop()
	part.Isolate("silo-3", "silo-1", "silo-2")

	for _, name := range []string{"silo-1", "silo-2"} {
		a := agents[name]
		waitFor(t, 5*time.Second, name+" drops silo-3", func() bool {
			return equalView(a.View(), "silo-1", "silo-2")
		})
	}
	mu.Lock()
	defer mu.Unlock()
	if !deadEvent {
		t.Error("silo-1 subscriber never saw silo-3 dead")
	}
}

// TestPartitionedSiloRefutesDeath is the acceptance scenario: a silo cut
// off long enough to be declared dead heals, notices the death rumor
// about itself, refutes it with an incarnation bump, and rejoins the
// view — without restarting.
func TestPartitionedSiloRefutesDeath(t *testing.T) {
	names := []string{"silo-1", "silo-2", "silo-3"}
	part, agents, regs := startAgents(t, names)
	for _, name := range names {
		a := agents[name]
		waitFor(t, 5*time.Second, name+" full view", func() bool {
			return equalView(a.View(), "silo-1", "silo-2", "silo-3")
		})
	}
	inc0 := agents["silo-3"].Incarnation()

	part.Isolate("silo-3", "silo-1", "silo-2")
	waitFor(t, 5*time.Second, "majority declares silo-3 dead", func() bool {
		return equalView(agents["silo-1"].View(), "silo-1", "silo-2") &&
			equalView(agents["silo-2"].View(), "silo-1", "silo-2")
	})

	part.Heal()
	waitFor(t, 10*time.Second, "silo-3 refutes and rejoins everywhere", func() bool {
		for _, name := range names {
			if !equalView(agents[name].View(), "silo-1", "silo-2", "silo-3") {
				return false
			}
		}
		return true
	})
	if inc := agents["silo-3"].Incarnation(); inc <= inc0 {
		t.Errorf("silo-3 incarnation = %d, want > %d (refutation bump)", inc, inc0)
	}
	if refutes := regs["silo-3"].Counters()["gossip.refutations"]; refutes == 0 {
		t.Error("silo-3 recorded no refutations")
	}
}

// TestIndirectProbeKeepsMemberAlive: when only the direct silo-1↔silo-3
// link is down, ping-req relays through silo-2 keep silo-3 alive in
// silo-1's view.
func TestIndirectProbeKeepsMemberAlive(t *testing.T) {
	names := []string{"silo-1", "silo-2", "silo-3"}
	part, agents, regs := startAgents(t, names)
	for _, name := range names {
		a := agents[name]
		waitFor(t, 5*time.Second, name+" full view", func() bool {
			return equalView(a.View(), "silo-1", "silo-2", "silo-3")
		})
	}

	var mu sync.Mutex
	var died bool
	agents["silo-1"].Subscribe(func(ev cluster.Event) {
		if ev.Silo == "silo-3" && ev.Status == cluster.StatusDead {
			mu.Lock()
			died = true
			mu.Unlock()
		}
	})

	part.CutPair("silo-1", "silo-3")
	// Long enough for several failed direct probes plus the suspicion
	// window; indirect acks must keep (or bring) silo-3 alive.
	waitFor(t, 5*time.Second, "silo-1 exercised indirect probes", func() bool {
		return regs["silo-1"].Counters()["gossip.indirect_probes"] > 0
	})
	time.Sleep(300 * time.Millisecond)

	if !equalView(agents["silo-1"].View(), "silo-1", "silo-2", "silo-3") {
		t.Errorf("silo-1 view = %v, want all three", agents["silo-1"].View())
	}
	mu.Lock()
	defer mu.Unlock()
	if died {
		t.Error("silo-1 declared silo-3 dead despite working relays")
	}
}

func TestGracefulLeave(t *testing.T) {
	names := []string{"silo-1", "silo-2", "silo-3"}
	_, agents, _ := startAgents(t, names)
	for _, name := range names {
		a := agents[name]
		waitFor(t, 5*time.Second, name+" full view", func() bool {
			return equalView(a.View(), "silo-1", "silo-2", "silo-3")
		})
	}
	agents["silo-3"].Leave(context.Background())
	for _, name := range []string{"silo-1", "silo-2"} {
		a := agents[name]
		waitFor(t, 5*time.Second, name+" drops left silo", func() bool {
			return equalView(a.View(), "silo-1", "silo-2")
		})
	}
}

// TestObserver: an observer agent tracks the cluster view without ever
// becoming a member of it.
func TestObserver(t *testing.T) {
	names := []string{"silo-1", "silo-2"}
	part, agents, _ := startAgents(t, names)
	for _, name := range names {
		a := agents[name]
		waitFor(t, 5*time.Second, name+" full view", func() bool {
			return equalView(a.View(), "silo-1", "silo-2")
		})
	}

	cfg := fastConfig("loadgen", part, [][2]string{{"silo-1", "sim://silo-1"}}, nil)
	cfg.Observer = true
	obs, err := gossip.New(cfg)
	if err != nil {
		t.Fatalf("New observer: %v", err)
	}
	if err := obs.Start(); err != nil {
		t.Fatalf("start observer: %v", err)
	}
	defer obs.Stop()

	waitFor(t, 5*time.Second, "observer learns the view", func() bool {
		return equalView(obs.View(), "silo-1", "silo-2")
	})
	time.Sleep(100 * time.Millisecond)
	for _, name := range names {
		if !equalView(agents[name].View(), "silo-1", "silo-2") {
			t.Errorf("%s view = %v: observer leaked into membership", name, agents[name].View())
		}
	}
}

// TestLoadsPiggyback: self-reported load figures reach peers.
func TestLoadsPiggyback(t *testing.T) {
	lt := transport.NewLocal(nil, nil)
	defer lt.Close()

	regA := metrics.NewRegistry()
	cfgA := fastConfig("silo-1", lt, nil, regA)
	cfgA.Load = func() int64 { return 7 }
	a, err := gossip.New(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgB := fastConfig("silo-2", lt, [][2]string{{"silo-1", "sim://silo-1"}}, nil)
	cfgB.Load = func() int64 { return 3 }
	b, err := gossip.New(cfgB)
	if err != nil {
		t.Fatal(err)
	}
	lt.Register("silo-1", func(ctx context.Context, req transport.Request) (any, error) {
		return a.Handle(ctx, "silo-1", req)
	})
	lt.Register("silo-2", func(ctx context.Context, req transport.Request) (any, error) {
		return b.Handle(ctx, "silo-2", req)
	})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	defer a.Stop()
	defer b.Stop()

	waitFor(t, 5*time.Second, "loads propagate", func() bool {
		la, lb := a.Loads(), b.Loads()
		return la["silo-2"] == 3 && lb["silo-1"] == 7
	})
}

// Compile-time checks: all membership providers expose the same
// subscriber surface.
var (
	_ cluster.Provider = (*gossip.Agent)(nil)
	_ cluster.Provider = (*cluster.StaticView)(nil)
	_ cluster.Provider = (*cluster.FilteredView)(nil)
)
