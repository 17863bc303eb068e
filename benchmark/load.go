package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"

	"aodb/internal/shm"
)

// Inputs are generated, never wall-clock: sensor s's n-th request carries
// the second of data starting at epoch + n seconds, so the same seed sends
// the same bytes and every reply can be checked exactly.
var epoch = time.Date(2019, 3, 26, 0, 0, 0, 0, time.UTC)

const (
	pointsPerChannel = 10
	channelsPerSens  = 2
	// rawSpan is the RawData query range, the paper's "last minute".
	rawSpan = 60
	// rawSetSize sensors are pre-filled with rawSpan requests at set-up
	// when RawData is in the mix, so every RawData reply is one full
	// minute (600 points) regardless of how fast the run ingests.
	rawSetSize = 40
)

type opKind int

const (
	opInsert opKind = iota
	opLive
	opRaw
	opKinds
)

var opNames = [opKinds]string{"insert", "live", "raw"}

// sensorState is what the generator remembers about one sensor. Each
// sensor is written by exactly one client, so "the last value sent" is
// well defined and no field needs synchronisation.
type sensorState struct {
	sent int                      // requests acked so far
	last [channelsPerSens]float64 // last value sent per channel
}

type generator struct {
	d       *deployment
	clients []*client
	sensors []sensorState
	orgs    int
	// windowCap bounds how many points a channel keeps, which bounds what
	// a RawData reply may hold.
	windowCap int
}

// client is one closed-loop caller: it issues its next op only when the
// previous one returned.
type client struct {
	g      *generator
	rng    *rand.Rand
	owned  []int    // sensor indexes this client writes
	rawSet []int    // owned sensors that RawData queries target
	next   int      // sweep position (churn)
	deck   []opKind // op kinds still to deal, see nextKind
	points [][]float64

	lat      [opKinds][]int64 // per-op latency samples, ns
	failed   int64
	firstErr error
}

func clientCount() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

func newGenerator(d *deployment, seed int64) *generator {
	pop := d.spec.population()
	g := &generator{
		d:         d,
		sensors:   make([]sensorState, len(d.keys)),
		orgs:      pop.Orgs(),
		windowCap: pop.WindowCap,
	}
	if g.windowCap <= 0 {
		g.windowCap = 4096 // shm's default window
	}
	n := clientCount()
	for c := 0; c < n; c++ {
		cl := &client{g: g, rng: rand.New(rand.NewSource(seed*7919 + int64(c)))}
		cl.points = make([][]float64, channelsPerSens)
		for i := range cl.points {
			cl.points[i] = make([]float64, pointsPerChannel)
		}
		g.clients = append(g.clients, cl)
	}
	for s := range d.keys {
		c := s % n
		if d.spec.churn {
			// Whole orgs per client: an org's aggregators and virtual
			// channels are then activated once per sweep. With the sensors
			// dealt out one by one, two clients that drifted more than the
			// idle window apart activated them twice, and allocs_per_op
			// spread 12 % between runs of one seed.
			c = s / pop.SensorsPerOrg % n
		}
		g.clients[c].owned = append(g.clients[c].owned, s)
	}
	// Fewer orgs than clients (smoke runs) leaves a client without sensors.
	for len(g.clients[len(g.clients)-1].owned) == 0 {
		g.clients = g.clients[:len(g.clients)-1]
	}
	// The raw set: a few of each client's sensors, spread over the orgs.
	for _, cl := range g.clients {
		per := rawSetSize / n
		if per > len(cl.owned)/4 {
			per = len(cl.owned) / 4
		}
		if per < 1 {
			per = 1
		}
		for k := 0; k < per; k++ {
			cl.rawSet = append(cl.rawSet, cl.owned[k*len(cl.owned)/per])
		}
	}
	return g
}

// prefill brings every raw-set sensor to a full query range. It is part
// of set-up.
func (g *generator) prefill(ctx context.Context) error {
	return g.parallel(func(c *client) error {
		for _, s := range c.rawSet {
			for i := 0; i < rawSpan; i++ {
				if err := c.insert(ctx, s); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

func (g *generator) parallel(fn func(c *client) error) error {
	errs := make([]error, len(g.clients))
	var wg sync.WaitGroup
	for i, c := range g.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			errs[i] = fn(c)
		}(i, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// run drives the closed loop on every client for the given time and
// returns when each client's last op has completed. Latencies are kept
// only when record is set (warm-up discards them).
func (g *generator) run(ctx context.Context, dur time.Duration, record bool) {
	deadline := time.Now().Add(dur)
	_ = g.parallel(func(c *client) error {
		for time.Now().Before(deadline) {
			c.step(ctx, record)
		}
		return nil
	})
}

// warmUp runs the closed loop unrecorded. On the churn workload it lasts
// one full sweep rather than a fixed time, so that every op of the
// measured window finds a stored state to load (otherwise the share of
// first visits, which cost less, would depend on how fast the run goes),
// and then waits for the idle collector, which lags behind the sweep: the
// window starts, as it ends, with no activation live, so it collects
// exactly the actors it activates.
func (g *generator) warmUp(ctx context.Context, dur time.Duration) error {
	if !g.d.spec.churn {
		g.run(ctx, dur, false)
		return nil
	}
	_ = g.parallel(func(c *client) error {
		for c.next < len(c.owned) {
			c.step(ctx, false)
		}
		return nil
	})
	return awaitIdle(ctx, g.d)
}

func (c *client) step(ctx context.Context, record bool) {
	kind := c.nextKind()
	start := time.Now()
	err := c.do(ctx, kind)
	if record {
		c.lat[kind] = append(c.lat[kind], int64(time.Since(start)))
	}
	if err != nil {
		c.fail(err)
	}
}

// nextKind deals the op kinds from a shuffled deck of 100 that holds the
// workload's mix exactly. A LiveData costs about fifty inserts, so with
// every op drawn on its own the share of queries a seed happened to draw
// (1 % ± 0.1 on mix_tcp) moved allocs_per_op by 4 % between seeds.
func (c *client) nextKind() opKind {
	if len(c.deck) == 0 {
		s := c.g.d.spec
		for i := 0; i < 100; i++ {
			kind := opInsert
			if i >= s.insertPct+s.livePct {
				kind = opRaw
			} else if i >= s.insertPct {
				kind = opLive
			}
			c.deck = append(c.deck, kind)
		}
		c.rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
	}
	kind := c.deck[len(c.deck)-1]
	c.deck = c.deck[:len(c.deck)-1]
	return kind
}

func (c *client) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

func (c *client) do(ctx context.Context, kind opKind) error {
	switch kind {
	case opLive:
		return c.live(ctx, c.rng.Intn(c.g.orgs))
	case opRaw:
		s := c.rawSet[c.rng.Intn(len(c.rawSet))]
		return c.raw(ctx, s, c.rng.Intn(channelsPerSens), rawSpan)
	}
	if c.g.d.spec.churn {
		// Sequential sweep: no actor is revisited inside its idle window.
		s := c.owned[c.next%len(c.owned)]
		c.next++
		return c.insert(ctx, s)
	}
	return c.insert(ctx, c.owned[c.rng.Intn(len(c.owned))])
}

func (c *client) insert(ctx context.Context, s int) error {
	st := &c.g.sensors[s]
	for _, ch := range c.points {
		for j := range ch {
			ch[j] = c.rng.Float64() * 100
		}
	}
	at := epoch.Add(time.Duration(st.sent) * time.Second)
	if err := c.g.d.platform.Ingest(ctx, c.g.d.keys[s], at, c.points); err != nil {
		return err
	}
	st.sent++
	for i, ch := range c.points {
		st.last[i] = ch[pointsPerChannel-1]
	}
	return nil
}

// live checks that an org's LiveData reply has one reading per channel.
func (c *client) live(ctx context.Context, org int) error {
	readings, err := c.g.d.platform.LiveData(ctx, shm.OrgKey(org))
	if err != nil {
		return err
	}
	if want := c.g.orgChannels(org); len(readings) != want {
		return fmt.Errorf("LiveData(%s): %d readings, want %d", shm.OrgKey(org), len(readings), want)
	}
	return nil
}

// orgChannels is the number of channels (physical + virtual) org holds.
func (g *generator) orgChannels(org int) int {
	pop := g.d.spec.population()
	first := org * pop.SensorsPerOrg
	last := first + pop.SensorsPerOrg
	if last > pop.Sensors {
		last = pop.Sensors
	}
	n := (last - first) * pop.ChannelsPerSensor
	if pop.VirtualEveryNth > 0 {
		n += last/pop.VirtualEveryNth - first/pop.VirtualEveryNth
	}
	return n
}

// raw queries the last span seconds of one channel of a sensor this
// client owns and checks the reply exactly: the channel's mailbox is FIFO
// and this client's acked inserts were enqueued before the query, so the
// reply must hold every point sent in range that the window still keeps,
// in time order, ending with the last value sent.
func (c *client) raw(ctx context.Context, s, ch, span int) error {
	st := &c.g.sensors[s]
	to := epoch.Add(time.Duration(st.sent) * time.Second)
	from := to.Add(-time.Duration(span) * time.Second)
	key := shm.ChannelKey(c.g.d.keys[s], ch)
	pts, err := c.g.d.platform.RawData(ctx, key, from, to)
	if err != nil {
		return err
	}
	want := span
	if st.sent < want {
		want = st.sent
	}
	want *= pointsPerChannel
	if want > c.g.windowCap {
		want = c.g.windowCap
	}
	if len(pts) != want {
		return fmt.Errorf("RawData(%s): %d points, want %d", key, len(pts), want)
	}
	for i, p := range pts {
		if p.At.Before(from) || p.At.After(to) {
			return fmt.Errorf("RawData(%s): point %d at %v outside [%v, %v]", key, i, p.At, from, to)
		}
		if i > 0 && p.At.Before(pts[i-1].At) {
			return fmt.Errorf("RawData(%s): point %d out of time order", key, i)
		}
	}
	if want > 0 && pts[want-1].Value != st.last[ch] {
		return fmt.Errorf("RawData(%s): last value %v, want %v", key, pts[want-1].Value, st.last[ch])
	}
	return nil
}

// samples merges one op kind's latencies from every client, sorted.
func (g *generator) samples(kind opKind) []int64 {
	var all []int64
	for _, c := range g.clients {
		all = append(all, c.lat[kind]...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// ops is how many samples of every op kind the clients hold.
func (g *generator) ops() int {
	var n int
	for k := opInsert; k < opKinds; k++ {
		n += g.count(k)
	}
	return n
}

// count is how many samples of one op kind the clients hold.
func (g *generator) count(kind opKind) int {
	var n int
	for _, c := range g.clients {
		n += len(c.lat[kind])
	}
	return n
}

func (g *generator) resetSamples() {
	for _, c := range g.clients {
		for k := range c.lat {
			c.lat[k] = c.lat[k][:0]
		}
	}
}

func (g *generator) failures() (n int64, first error) {
	for _, c := range g.clients {
		n += c.failed
		if first == nil {
			first = c.firstErr
		}
	}
	return n, first
}

// percentile is the nearest-rank percentile of sorted samples, in µs.
func percentileUs(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank]) / 1e3
}
