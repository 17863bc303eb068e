// Package gossip is SWIM-style cluster membership: every silo runs an
// Agent that probes one random peer per protocol period, falls back to
// indirect ping-req probes through k relays when the direct ping times
// out, and moves unresponsive peers through a suspect→dead state machine
// that the accused can refute by bumping its incarnation number. All
// membership news travels piggybacked on the probe traffic itself — each
// update rides along on ~retransmitMult·log2(n) messages — so the
// protocol adds no per-member background load and converges in O(log n)
// periods regardless of cluster size.
//
// The Agent is a cluster.Viewer: it publishes one cluster.View per
// membership change, so placement and the replication ring follow a live
// view without knowing whether it came from gossip or a static list.
// Subscribe delivers the per-silo events behind each change. Messages
// run over the cluster's existing transport under the reserved "!gossip"
// target kind rather than a separate UDP socket: probe RTTs then measure
// the same path actor calls take, which is exactly the reachability
// placement cares about.
package gossip

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/clock"
	"aodb/internal/cluster"
	"aodb/internal/codec"
	"aodb/internal/metrics"
	"aodb/internal/transport"
)

// TargetKind is the reserved transport target kind gossip messages are
// addressed to. Like replication's "!repl" it starts with '!' so it can
// never collide with an actor kind.
const TargetKind = "!gossip"

// State is a member's position in the SWIM state machine.
type State uint8

const (
	// StateAlive: answering probes (or vouched for by a refutation).
	StateAlive State = iota
	// StateSuspect: failed direct and indirect probes; presumed alive
	// until the suspicion timeout, giving it time to refute.
	StateSuspect
	// StateDead: suspicion expired (or a peer declared it). Only a
	// higher-incarnation alive claim — which only the member itself can
	// produce — resurrects it.
	StateDead
	// StateLeft: departed gracefully via Leave; never resurrects except
	// by explicit rejoin (higher incarnation).
	StateLeft
)

func (s State) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateDead:
		return "dead"
	case StateLeft:
		return "left"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Member is one silo as this agent currently believes it to be.
type Member struct {
	Name string
	Addr string
	// ObsAddr is the member's advertised observability endpoint (its
	// introspection HTTP listener), piggybacked with membership rumors so
	// an aggregator can discover scrape targets from the gossip view
	// alone. Empty when the member exposes none.
	ObsAddr     string
	State       State
	Incarnation uint64
	// Load is the member's self-reported load figure (the cluster
	// convention is current activation count), piggybacked on its probe
	// traffic. Zero until the member has been heard from directly.
	Load int64
}

// Update is the wire form of one membership rumor.
type Update struct {
	Name        string
	Addr        string
	ObsAddr     string
	State       uint8
	Incarnation uint64
}

// Ping is the direct probe; Ack answers it. PingReq asks a relay to
// probe Target on the sender's behalf (the SWIM indirect probe).
type Ping struct {
	From     string
	FromAddr string
	// Observer marks a probe from a non-member (e.g. a load client
	// tracking the view): receivers answer but do not add the sender.
	Observer bool
	// Full asks for a full state sync in the ack (used while joining).
	Full    bool
	Load    int64
	Updates []Update
}

// Ack answers a Ping or PingReq. Ok reports the relayed probe's outcome
// for PingReq; it is always true for a direct ack.
type Ack struct {
	From    string
	Ok      bool
	Load    int64
	Updates []Update
}

// PingReq asks the receiver to probe Target and report back.
type PingReq struct {
	From    string
	Target  string
	Updates []Update
}

func init() {
	codec.Register(Ping{})
	codec.Register(Ack{})
	codec.Register(PingReq{})
}

// Caller is the transport subset the agent needs.
type Caller interface {
	Call(ctx context.Context, node string, req transport.Request) (any, error)
}

// Config configures one agent.
type Config struct {
	// Name is this silo's transport name; Addr its advertised address
	// (piggybacked so joiners can learn routes from gossip alone).
	Name string
	Addr string
	// ObsAddr is this silo's advertised observability endpoint, gossiped
	// alongside Addr so aggregators discover scrape targets from the
	// membership view. Empty when the silo runs no introspection server.
	ObsAddr string
	// Transport carries gossip messages (reserved kind "!gossip").
	Transport Caller
	// Seeds are name=addr pairs probed at Start to join an existing
	// cluster. The caller must have made the addresses routable (e.g.
	// tcp.SetPeer) before Start.
	Seeds [][2]string

	// ProbeEvery, ProbeTimeout and SuspectAfter stay settable because
	// the gossip tests converge on the wall clock and shorten them.
	//
	// ProbeEvery is the SWIM protocol period (default 300ms): one random
	// member is probed per period.
	ProbeEvery time.Duration
	// ProbeTimeout bounds the direct probe and each indirect relay
	// (default 250ms).
	ProbeTimeout time.Duration
	// SuspectAfter is how long a suspect may refute before it is
	// declared dead (default 2s ≈ 6–7 protocol periods).
	SuspectAfter time.Duration

	// Observer makes the agent a pure listener: it probes and merges
	// views but never announces itself, so it gains a live view of the
	// cluster without becoming a member (the load client uses this).
	Observer bool
	// Load, when set, is sampled on every outgoing probe and piggybacked
	// as this member's load figure (convention: activation count).
	Load func() int64
	// OnPeer is called (outside the agent lock) whenever gossip reveals
	// a member address — the hook that teaches the transport new routes.
	OnPeer func(name, addr string)

	// Clock defaults to the real clock; Seed makes probe-target and
	// relay selection deterministic for tests.
	Clock   clock.Clock
	Seed    int64
	Metrics *metrics.Registry
}

const (
	// indirectProbes is k, the number of relays asked to ping-req an
	// unresponsive member before suspecting it: 3.
	indirectProbes = 3
	// retransmitMult scales per-update dissemination: each rumor rides on
	// retransmitMult·⌈log2(n+1)⌉ outgoing messages, ×4.
	retransmitMult = 4
	// maxPiggyback caps rumors per message at 8.
	maxPiggyback = 8
)

func (c *Config) fill() error {
	if c.Name == "" {
		return errors.New("gossip: config needs a name")
	}
	if c.Transport == nil {
		return errors.New("gossip: config needs a transport")
	}
	if c.ProbeEvery <= 0 {
		c.ProbeEvery = 300 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 250 * time.Millisecond
	}
	if c.SuspectAfter <= 0 {
		c.SuspectAfter = 2 * time.Second
	}
	if c.Clock == nil {
		c.Clock = clock.Real()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Metrics == nil {
		c.Metrics = metrics.NewRegistry()
	}
	return nil
}

type memberState struct {
	Member
	suspectedAt time.Time // valid while State == StateSuspect
}

type queuedUpdate struct {
	u    Update
	left int // remaining piggyback transmissions
}

// Agent is one silo's gossip membership endpoint.
type Agent struct {
	cfg Config

	mu          sync.Mutex
	members     map[string]*memberState
	queue       []*queuedUpdate
	probeOrder  []string
	probeIdx    int
	subs        []func(cluster.Event)
	pending     []pendingEvent
	view        atomic.Pointer[cluster.View] // written under mu
	incarnation uint64
	leaving     bool
	started     bool
	rng         *rand.Rand
	ticks       uint64

	stop chan struct{}
	done chan struct{}

	mProbes      *metrics.Counter
	mTimeouts    *metrics.Counter
	mIndirect    *metrics.Counter
	mRefutes     *metrics.Counter
	mChanges     *metrics.Counter
	gAlive       *metrics.Gauge
	gSuspect     *metrics.Gauge
	gDead        *metrics.Gauge
	gLastChange  *metrics.Gauge
	gIncarnation *metrics.Gauge
}

// New builds an agent; Start begins probing.
func New(cfg Config) (*Agent, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	a := &Agent{
		cfg:     cfg,
		members: make(map[string]*memberState),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),

		mProbes:      cfg.Metrics.Counter("gossip.probes"),
		mTimeouts:    cfg.Metrics.Counter("gossip.probe_timeouts"),
		mIndirect:    cfg.Metrics.Counter("gossip.indirect_probes"),
		mRefutes:     cfg.Metrics.Counter("gossip.refutations"),
		mChanges:     cfg.Metrics.Counter("gossip.view_changes"),
		gAlive:       cfg.Metrics.Gauge("gossip.members.alive"),
		gSuspect:     cfg.Metrics.Gauge("gossip.members.suspect"),
		gDead:        cfg.Metrics.Gauge("gossip.members.dead"),
		gLastChange:  cfg.Metrics.Gauge("gossip.last_change_unix"),
		gIncarnation: cfg.Metrics.Gauge("gossip.incarnation"),
	}
	if !cfg.Observer {
		a.incarnation = 1
		a.members[cfg.Name] = &memberState{Member: Member{
			Name: cfg.Name, Addr: cfg.Addr, ObsAddr: cfg.ObsAddr, State: StateAlive, Incarnation: 1,
		}}
		a.enqueueLocked(Update{Name: cfg.Name, Addr: cfg.Addr, ObsAddr: cfg.ObsAddr, State: uint8(StateAlive), Incarnation: 1})
		a.gIncarnation.Set(1)
	}
	a.refreshGaugesLocked()
	a.publishLocked()
	return a, nil
}

// Start joins the cluster (announce via seeds) and begins the probe loop.
func (a *Agent) Start() error {
	a.mu.Lock()
	if a.started {
		a.mu.Unlock()
		return errors.New("gossip: already started")
	}
	a.started = true
	seeds := a.cfg.Seeds
	a.mu.Unlock()
	// Contact seeds synchronously so the first view is useful: each ack
	// returns a full state sync and seeds learn of us immediately.
	for _, s := range seeds {
		if s[0] == a.cfg.Name {
			continue
		}
		a.notePeer(s[0], s[1])
		a.probeOnce(s[0], true)
	}
	go a.loop()
	return nil
}

// Stop halts the probe loop without announcing departure (a crash, as
// far as peers are concerned). Use Leave for a graceful exit.
func (a *Agent) Stop() {
	a.mu.Lock()
	if !a.started {
		a.mu.Unlock()
		return
	}
	a.started = false
	close(a.stop)
	a.mu.Unlock()
	<-a.done
}

// Leave announces a graceful departure (state left, current incarnation)
// to a few members, then stops. Peers treat left like dead but know not
// to wait out a suspicion timeout.
func (a *Agent) Leave(ctx context.Context) {
	a.mu.Lock()
	a.leaving = true
	inc := a.incarnation
	a.enqueueLocked(Update{Name: a.cfg.Name, Addr: a.cfg.Addr, State: uint8(StateLeft), Incarnation: inc})
	targets := a.pickLocked(indirectProbes, a.cfg.Name)
	a.mu.Unlock()
	for _, t := range targets {
		a.probeOnce(t, false)
	}
	a.Stop()
}

// Handle serves inbound gossip messages; it has the core.ServiceHandler
// shape and is registered under TargetKind.
func (a *Agent) Handle(_ context.Context, _ string, req transport.Request) (any, error) {
	switch m := req.Payload.(type) {
	case Ping:
		return a.handlePing(m), nil
	case PingReq:
		return a.handlePingReq(m), nil
	}
	return nil, fmt.Errorf("gossip: bad payload %T", req.Payload)
}

func (a *Agent) handlePing(p Ping) Ack {
	a.mu.Lock()
	knewSender := true
	if p.From != "" && !p.Observer {
		_, knewSender = a.members[p.From]
		a.applyLocked(Update{Name: p.From, Addr: p.FromAddr, State: uint8(StateAlive), Incarnation: 0})
		if m := a.members[p.From]; m != nil {
			m.Load = p.Load
			if p.FromAddr != "" {
				m.Addr = p.FromAddr
			}
		}
	}
	for _, u := range p.Updates {
		a.applyLocked(u)
	}
	ack := Ack{From: a.cfg.Name, Ok: true, Load: a.loadLocked()}
	if p.Full || !knewSender {
		ack.Updates = a.fullStateLocked()
	} else {
		ack.Updates = a.piggybackLocked()
	}
	a.mu.Unlock()
	a.flushEvents()
	return ack
}

// handlePingReq relays a probe: ping Target directly and report whether
// it answered. The relay's own view benefits from the ack's piggyback.
func (a *Agent) handlePingReq(pr PingReq) Ack {
	a.mu.Lock()
	for _, u := range pr.Updates {
		a.applyLocked(u)
	}
	a.mu.Unlock()
	a.flushEvents()
	ok := a.probeOnce(pr.Target, false)
	a.mu.Lock()
	ack := Ack{From: a.cfg.Name, Ok: ok, Load: a.loadLocked(), Updates: a.piggybackLocked()}
	a.mu.Unlock()
	return ack
}

func (a *Agent) loop() {
	defer close(a.done)
	t := a.cfg.Clock.NewTicker(a.cfg.ProbeEvery)
	defer t.Stop()
	for {
		select {
		case <-a.stop:
			return
		case <-t.C():
			a.tick()
		}
	}
}

// tick is one SWIM protocol period: expire suspicions, then probe the
// next member in the shuffled round-robin order (direct, then indirect
// through k relays, then suspect).
func (a *Agent) tick() {
	a.expireSuspects()

	a.mu.Lock()
	a.ticks++
	full := a.ticks%16 == 0 || len(a.aliveNamesLocked()) < 2
	target := a.nextProbeTargetLocked()
	if target == "" {
		// No probeable peer — either a single-member cluster or a healed
		// partition this side declared entirely dead. Probing a random
		// dead member with a full sync is the rejoin path: its answer
		// carries the death rumors both sides need to refute.
		target = a.pickDeadLocked()
		full = true
	}
	a.mu.Unlock()
	a.flushEvents()
	if target == "" {
		return
	}
	if a.probeOnce(target, full) {
		return
	}
	a.mTimeouts.Inc()
	if a.indirectProbe(target) {
		return
	}
	a.suspect(target)
}

// probeOnce sends one direct Ping to target with the probe timeout,
// merging the ack's piggybacked updates. Reports success.
func (a *Agent) probeOnce(target string, full bool) bool {
	a.mu.Lock()
	ping := Ping{
		From:     a.cfg.Name,
		FromAddr: a.cfg.Addr,
		Observer: a.cfg.Observer,
		Full:     full,
		Load:     a.loadLocked(),
		Updates:  a.piggybackLocked(),
	}
	a.mu.Unlock()
	a.mProbes.Inc()
	resp, err := a.callWithTimeout(target, ping)
	if err != nil {
		return false
	}
	ack, ok := resp.(Ack)
	if !ok {
		return false
	}
	a.mergeAck(target, ack)
	return ack.Ok
}

func (a *Agent) indirectProbe(target string) bool {
	a.mu.Lock()
	relays := a.pickLocked(indirectProbes, a.cfg.Name, target)
	a.mu.Unlock()
	if len(relays) == 0 {
		return false
	}
	a.mIndirect.Inc()
	type result struct {
		ack Ack
		err error
		via string
	}
	ch := make(chan result, len(relays))
	for _, r := range relays {
		go func(relay string) {
			a.mu.Lock()
			pr := PingReq{From: a.cfg.Name, Target: target, Updates: a.piggybackLocked()}
			a.mu.Unlock()
			resp, err := a.callWithTimeout(relay, pr)
			ack, _ := resp.(Ack)
			ch <- result{ack: ack, err: err, via: relay}
		}(r)
	}
	ok := false
	for range relays {
		res := <-ch
		if res.err != nil {
			continue
		}
		a.mergeAck(res.via, res.ack)
		if res.ack.Ok {
			ok = true
		}
	}
	return ok
}

// callWithTimeout issues one transport call bounded by ProbeTimeout on
// the agent's clock (not a context deadline), so fake-clock tests time
// probes out deterministically.
func (a *Agent) callWithTimeout(target string, payload any) (any, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type reply struct {
		resp any
		err  error
	}
	ch := make(chan reply, 1)
	go func() {
		resp, err := a.cfg.Transport.Call(ctx, target, transport.Request{
			TargetKind: TargetKind,
			TargetKey:  target,
			Method:     "gossip",
			Payload:    payload,
			Sender:     a.cfg.Name,
		})
		ch <- reply{resp, err}
	}()
	t := a.cfg.Clock.NewTimer(a.cfg.ProbeTimeout)
	defer t.Stop()
	select {
	case r := <-ch:
		return r.resp, r.err
	case <-t.C():
		return nil, &transport.UnreachableError{Node: target, Err: errors.New("gossip: probe timeout")}
	case <-a.stop:
		return nil, errors.New("gossip: stopped")
	}
}

func (a *Agent) mergeAck(from string, ack Ack) {
	a.mu.Lock()
	if m := a.members[from]; m != nil && ack.From == from {
		m.Load = ack.Load
	}
	for _, u := range ack.Updates {
		a.applyLocked(u)
	}
	a.mu.Unlock()
	a.flushEvents()
}

// suspect moves target alive→suspect at its current incarnation and
// starts the refutation window.
func (a *Agent) suspect(target string) {
	a.mu.Lock()
	if m := a.members[target]; m != nil && m.State == StateAlive {
		a.applyLocked(Update{Name: target, Addr: m.Addr, State: uint8(StateSuspect), Incarnation: m.Incarnation})
	}
	a.mu.Unlock()
	a.flushEvents()
}

func (a *Agent) expireSuspects() {
	now := a.cfg.Clock.Now()
	a.mu.Lock()
	for _, m := range a.members {
		if m.State == StateSuspect && now.Sub(m.suspectedAt) >= a.cfg.SuspectAfter {
			a.applyLocked(Update{Name: m.Name, Addr: m.Addr, State: uint8(StateDead), Incarnation: m.Incarnation})
		}
	}
	a.mu.Unlock()
	a.flushEvents()
}

// pending events + peer notifications, collected under the lock and
// delivered outside it.
type pendingEvent struct {
	ev   cluster.Event
	peer [2]string // non-empty name => OnPeer notification
}

var statusFor = map[State]cluster.SiloStatus{
	StateAlive:   cluster.StatusActive,
	StateSuspect: cluster.StatusSuspect,
	StateDead:    cluster.StatusDead,
	StateLeft:    cluster.StatusDead,
}

// applyLocked merges one rumor under SWIM's override rules and queues
// the outcome for further dissemination when it changed anything.
// Incarnation 0 in an alive update means "no claim" (sender liveness
// inferred from receiving its ping): it introduces unknown members and
// revives nothing.
func (a *Agent) applyLocked(u Update) {
	if u.Name == "" {
		return
	}
	// Rumors about ourselves: suspect/dead/left at an incarnation current
	// or newer is a death notice we must refute — bump the incarnation
	// and gossip the stronger alive claim. (While leaving, let it stand.)
	if u.Name == a.cfg.Name && !a.cfg.Observer {
		if State(u.State) != StateAlive && u.Incarnation >= a.incarnation && !a.leaving {
			a.incarnation = u.Incarnation + 1
			a.gIncarnation.Set(int64(a.incarnation))
			self := a.members[a.cfg.Name]
			self.State = StateAlive
			self.Incarnation = a.incarnation
			a.mRefutes.Inc()
			a.enqueueLocked(Update{Name: a.cfg.Name, Addr: a.cfg.Addr, ObsAddr: a.cfg.ObsAddr, State: uint8(StateAlive), Incarnation: a.incarnation})
		} else if State(u.State) == StateAlive && u.Incarnation > a.incarnation {
			a.incarnation = u.Incarnation
			a.gIncarnation.Set(int64(a.incarnation))
			a.members[a.cfg.Name].Incarnation = u.Incarnation
		}
		return
	}

	m, known := a.members[u.Name]
	if !known {
		if State(u.State) == StateDead || State(u.State) == StateLeft {
			// Don't resurrect-by-forgetting: remember the death so later
			// stale alive rumors at ≤ incarnation stay suppressed.
			m = &memberState{Member: Member{Name: u.Name, Addr: u.Addr, ObsAddr: u.ObsAddr, State: State(u.State), Incarnation: u.Incarnation}}
			a.members[u.Name] = m
			a.enqueueLocked(u)
			a.noteChangeLocked(m, nil)
			return
		}
		inc := u.Incarnation
		if inc == 0 {
			inc = 1
		}
		m = &memberState{Member: Member{Name: u.Name, Addr: u.Addr, ObsAddr: u.ObsAddr, State: StateAlive, Incarnation: inc}}
		a.members[u.Name] = m
		a.enqueueLocked(Update{Name: u.Name, Addr: u.Addr, ObsAddr: u.ObsAddr, State: uint8(StateAlive), Incarnation: inc})
		a.noteChangeLocked(m, nil)
		return
	}
	if u.Addr != "" && m.Addr == "" {
		m.Addr = u.Addr
	}
	if u.ObsAddr != "" && m.ObsAddr == "" {
		m.ObsAddr = u.ObsAddr
	}
	prev := m.Member
	switch State(u.State) {
	case StateAlive:
		// Alive overrides suspect/dead/left only with a strictly newer
		// incarnation (the member's own refutation or rejoin); among
		// alive claims a newer incarnation just advances the counter.
		if u.Incarnation > m.Incarnation {
			m.State = StateAlive
			m.Incarnation = u.Incarnation
		} else if m.State == StateDead || m.State == StateLeft {
			// A stale alive claim about a member we know is dead: push the
			// death back out (even if its retransmit budget was spent), so
			// the claim's source — ultimately the member itself — learns of
			// the death and can refute it with a higher incarnation. This
			// is what re-converges a healed partition.
			a.enqueueLocked(Update{Name: m.Name, Addr: m.Addr, State: uint8(m.State), Incarnation: m.Incarnation})
		}
	case StateSuspect:
		// Suspect overrides alive at the same incarnation, but never a
		// newer alive claim, and never an existing death.
		if m.State == StateAlive && u.Incarnation >= m.Incarnation {
			m.State = StateSuspect
			m.Incarnation = u.Incarnation
			m.suspectedAt = a.cfg.Clock.Now()
		}
	case StateDead, StateLeft:
		// Death overrides alive/suspect at the same or newer incarnation.
		if m.State != StateDead && m.State != StateLeft && u.Incarnation >= m.Incarnation {
			m.State = State(u.State)
			m.Incarnation = u.Incarnation
		}
	}
	if m.State != prev.State || m.Incarnation != prev.Incarnation {
		a.enqueueLocked(Update{Name: m.Name, Addr: m.Addr, ObsAddr: m.ObsAddr, State: uint8(m.State), Incarnation: m.Incarnation})
		if m.State != prev.State {
			a.noteChangeLocked(m, &prev)
		}
	}
}

func (a *Agent) noteChangeLocked(m *memberState, prev *Member) {
	a.mChanges.Inc()
	a.gLastChange.Set(a.cfg.Clock.Now().Unix())
	a.probeOrder = nil // membership changed; reshuffle the probe ring
	ev := pendingEvent{ev: cluster.Event{Silo: m.Name, Status: statusFor[m.State]}}
	if m.State == StateAlive && m.Addr != "" && (prev == nil || prev.Addr != m.Addr || prev.State != StateAlive) {
		ev.peer = [2]string{m.Name, m.Addr}
	}
	a.pending = append(a.pending, ev)
	a.refreshGaugesLocked()
	a.publishLocked()
}

// publishLocked publishes the next view when the set of members usable
// for placement changed: alive and suspect (a suspect is still presumed
// alive until the refutation window closes — evicting early would churn
// placement on every dropped probe).
func (a *Agent) publishLocked() {
	names := a.aliveNamesLocked()
	sort.Strings(names)
	prev := a.view.Load()
	if prev != nil && slices.Equal(prev.Members, names) {
		return
	}
	a.view.Store(prev.Next(names))
}

func (a *Agent) flushEvents() {
	a.mu.Lock()
	evs := a.pending
	a.pending = nil
	subs := make([]func(cluster.Event), len(a.subs))
	copy(subs, a.subs)
	onPeer := a.cfg.OnPeer
	a.mu.Unlock()
	for _, pe := range evs {
		if pe.peer[0] != "" && onPeer != nil {
			onPeer(pe.peer[0], pe.peer[1])
		}
		for _, fn := range subs {
			fn(pe.ev)
		}
	}
}

// notePeer records a seed's address without fabricating membership state.
func (a *Agent) notePeer(name, addr string) {
	if a.cfg.OnPeer != nil {
		a.cfg.OnPeer(name, addr)
	}
}

func (a *Agent) refreshGaugesLocked() {
	var alive, suspect, dead int64
	for _, m := range a.members {
		switch m.State {
		case StateAlive:
			alive++
		case StateSuspect:
			suspect++
		case StateDead, StateLeft:
			dead++
		}
	}
	a.gAlive.Set(alive)
	a.gSuspect.Set(suspect)
	a.gDead.Set(dead)
}

// enqueueLocked queues a rumor for piggybacked retransmission,
// superseding any queued rumor about the same member.
func (a *Agent) enqueueLocked(u Update) {
	n := len(a.members)
	budget := retransmitMult * int(math.Ceil(math.Log2(float64(n+2))))
	for i, q := range a.queue {
		if q.u.Name == u.Name {
			a.queue[i] = &queuedUpdate{u: u, left: budget}
			return
		}
	}
	a.queue = append(a.queue, &queuedUpdate{u: u, left: budget})
}

// piggybackLocked selects up to maxPiggyback rumors, preferring the
// least-transmitted, and charges each one transmission.
func (a *Agent) piggybackLocked() []Update {
	if len(a.queue) == 0 {
		return nil
	}
	sort.SliceStable(a.queue, func(i, j int) bool { return a.queue[i].left > a.queue[j].left })
	n := len(a.queue)
	if n > maxPiggyback {
		n = maxPiggyback
	}
	out := make([]Update, 0, n)
	for _, q := range a.queue[:n] {
		out = append(out, q.u)
		q.left--
	}
	live := a.queue[:0]
	for _, q := range a.queue {
		if q.left > 0 {
			live = append(live, q)
		}
	}
	a.queue = live
	return out
}

// fullStateLocked is the push-pull sync: every member as an update.
func (a *Agent) fullStateLocked() []Update {
	out := make([]Update, 0, len(a.members))
	for _, m := range a.members {
		out = append(out, Update{Name: m.Name, Addr: m.Addr, ObsAddr: m.ObsAddr, State: uint8(m.State), Incarnation: m.Incarnation})
	}
	return out
}

func (a *Agent) loadLocked() int64 {
	if a.cfg.Load == nil {
		return 0
	}
	return a.cfg.Load()
}

func (a *Agent) aliveNamesLocked() []string {
	var out []string
	for _, m := range a.members {
		if m.State == StateAlive || m.State == StateSuspect {
			out = append(out, m.Name)
		}
	}
	return out
}

// nextProbeTargetLocked walks a shuffled round-robin over probeable
// members (alive or suspect, excluding self), reshuffling each full
// pass — SWIM's bounded-staleness target selection.
func (a *Agent) nextProbeTargetLocked() string {
	if a.probeOrder == nil || a.probeIdx >= len(a.probeOrder) {
		var names []string
		for _, m := range a.members {
			if m.Name == a.cfg.Name {
				continue
			}
			if m.State == StateAlive || m.State == StateSuspect {
				names = append(names, m.Name)
			}
		}
		sort.Strings(names)
		a.rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
		a.probeOrder = names
		a.probeIdx = 0
	}
	if len(a.probeOrder) == 0 {
		return ""
	}
	t := a.probeOrder[a.probeIdx]
	a.probeIdx++
	// The shuffled order can go stale between rebuilds; skip members
	// that died since.
	if m := a.members[t]; m == nil || (m.State != StateAlive && m.State != StateSuspect) {
		return ""
	}
	return t
}

// pickDeadLocked returns a random dead or left member (the rejoin-probe
// target when nobody probeable remains), or "".
func (a *Agent) pickDeadLocked() string {
	var pool []string
	for _, m := range a.members {
		if m.Name != a.cfg.Name && (m.State == StateDead || m.State == StateLeft) {
			pool = append(pool, m.Name)
		}
	}
	if len(pool) == 0 {
		return ""
	}
	sort.Strings(pool)
	return pool[a.rng.Intn(len(pool))]
}

// pickLocked returns up to k random alive members excluding the given
// names (relay selection).
func (a *Agent) pickLocked(k int, exclude ...string) []string {
	var pool []string
	for _, m := range a.members {
		if m.State != StateAlive {
			continue
		}
		skip := false
		for _, x := range exclude {
			if m.Name == x {
				skip = true
				break
			}
		}
		if !skip {
			pool = append(pool, m.Name)
		}
	}
	sort.Strings(pool)
	a.rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if len(pool) > k {
		pool = pool[:k]
	}
	return pool
}

// View returns the published view: the members alive or suspect, and
// their ring. It takes no lock and copies nothing.
func (a *Agent) View() *cluster.View { return a.view.Load() }

// Subscribe registers fn for membership change events (fired from agent
// goroutines).
func (a *Agent) Subscribe(fn func(cluster.Event)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.subs = append(a.subs, fn)
}

// Members snapshots the full membership table, dead included.
func (a *Agent) Members() []Member {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]Member, 0, len(a.members))
	for _, m := range a.members {
		out = append(out, m.Member)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Loads returns the latest self-reported load per alive member (the
// rebalancer's cluster-load view), including this agent's own sample.
func (a *Agent) Loads() map[string]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int64, len(a.members))
	for _, m := range a.members {
		if m.State == StateAlive || m.State == StateSuspect {
			out[m.Name] = m.Load
		}
	}
	if !a.cfg.Observer {
		out[a.cfg.Name] = a.loadLocked()
	}
	return out
}
