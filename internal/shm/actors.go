package shm

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"aodb/internal/core"
)

// Actor kind names.
const (
	KindOrganization    = "Organization"
	KindSensor          = "Sensor"
	KindPhysicalChannel = "PhysicalChannel"
	KindVirtualChannel  = "VirtualChannel"
	KindAggregator      = "Aggregator"
	KindAlerts          = "Alerts"
)

// organizationActor encapsulates an organization and its passive project
// and user objects (Figure 4).
type organizationActor struct {
	state orgState
}

type orgState struct {
	Name     string
	Projects []Project
	Users    []User
	Sensors  []string // sensor actor keys
	Channels []string // all channel keys across sensors, for live queries
}

func (o *organizationActor) State() any { return &o.state }

func (o *organizationActor) Receive(ctx *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case CreateOrg:
		o.state.Name = m.Name
		return nil, ctx.WriteState()
	case AddProject:
		o.state.Projects = append(o.state.Projects, Project{ID: m.ID, Name: m.Name})
		return nil, ctx.WriteState()
	case AddUser:
		o.state.Users = append(o.state.Users, User{ID: m.ID, Name: m.Name, Role: m.Role})
		return nil, ctx.WriteState()
	case AttachSensor:
		o.state.Sensors = append(o.state.Sensors, m.SensorKey)
		// Ask the sensor for its channels so live queries can fan out
		// without an extra hop per request.
		v, err := ctx.Call(core.ID{Kind: KindSensor, Key: m.SensorKey}, GetSensorInfo{})
		if err != nil {
			return nil, err
		}
		info := v.(SensorInfo)
		o.state.Channels = append(o.state.Channels, info.Channels...)
		if info.Virtual != "" {
			o.state.Channels = append(o.state.Channels, info.Virtual)
		}
		return nil, ctx.WriteState()
	case GetOrgInfo:
		return OrgInfo{
			Name:     o.state.Name,
			Projects: append([]Project(nil), o.state.Projects...),
			Users:    append([]User(nil), o.state.Users...),
			Sensors:  append([]string(nil), o.state.Sensors...),
		}, nil
	case GetChannels:
		return append([]string(nil), o.state.Channels...), nil
	default:
		return nil, fmt.Errorf("shm: Organization: unknown message %T", msg)
	}
}

// sensorActor holds sensor metadata and fans ingestion packets out to its
// channels. Channel actors are separate per §4.2: sensors are active
// entities with multiple independent data streams.
type sensorActor struct {
	state sensorState
}

type sensorState struct {
	Org      string
	Channels []string
	Virtual  string
	Packets  int64
}

func (s *sensorActor) State() any { return &s.state }

func (s *sensorActor) Receive(ctx *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case ConfigureSensor:
		s.state.Org = m.Org
		s.state.Channels = append([]string(nil), m.Channels...)
		s.state.Virtual = m.Virtual
		// Configure (and thereby activate) the channel actors from here:
		// under prefer-local placement they land on this sensor's silo.
		for _, ch := range m.Channels {
			if _, err := ctx.Call(core.ID{Kind: KindPhysicalChannel, Key: ch}, ConfigureChannel{
				Org:             m.Org,
				Sensor:          ctx.Self().Key,
				WindowCap:       m.WindowCap,
				VirtualOut:      m.Virtual,
				Threshold:       m.Threshold,
				Aggregator:      m.Aggregator,
				WriteEveryBatch: m.WriteEveryBatch,
				Archive:         m.Archive,
			}); err != nil {
				return nil, err
			}
		}
		if m.Virtual != "" {
			if _, err := ctx.Call(core.ID{Kind: KindVirtualChannel, Key: m.Virtual}, ConfigureVirtual{
				Org:       m.Org,
				Inputs:    m.Channels,
				Op:        "sum",
				WindowCap: m.WindowCap,
			}); err != nil {
				return nil, err
			}
		}
		return nil, ctx.WriteState()
	case InsertBatch:
		if len(m.Points) != len(s.state.Channels) {
			return nil, fmt.Errorf("shm: sensor %s got %d packets for %d channels",
				ctx.Self().Key, len(m.Points), len(s.state.Channels))
		}
		interval := m.Interval
		if interval <= 0 {
			interval = 100 * time.Millisecond // 10 Hz, the paper's default
		}
		for i, packet := range m.Points {
			points := make([]DataPoint, len(packet))
			for j, v := range packet {
				points[j] = DataPoint{At: m.At.Add(time.Duration(j) * interval), Value: v}
			}
			if err := ctx.Tell(core.ID{Kind: KindPhysicalChannel, Key: s.state.Channels[i]},
				InsertPoints{Points: points}); err != nil {
				return nil, err
			}
		}
		s.state.Packets++
		return s.state.Packets, nil
	case GetSensorInfo:
		return SensorInfo{
			Org:      s.state.Org,
			Channels: append([]string(nil), s.state.Channels...),
			Virtual:  s.state.Virtual,
			Packets:  s.state.Packets,
		}, nil
	default:
		return nil, fmt.Errorf("shm: Sensor: unknown message %T", msg)
	}
}

// physicalChannelActor keeps the recent window of one sensor channel's
// readings, the accumulated change, threshold alerting, and feeds virtual
// channels and aggregators.
type physicalChannelActor struct {
	state channelState
	// latest is the Latest reply, boxed (volatile; see latestReply).
	latest any
}

type channelState struct {
	Org             string
	Sensor          string
	WindowCap       int
	Window          []DataPoint
	Accumulated     float64 // sum of |delta| between consecutive readings
	LastValue       float64
	HasLast         bool
	Threshold       Threshold
	VirtualOut      string
	Aggregator      string
	WriteEveryBatch bool
	Archive         bool
}

func (c *physicalChannelActor) State() any { return &c.state }

const defaultWindowCap = 4096

func (c *physicalChannelActor) Receive(ctx *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case ConfigureChannel:
		c.state.Org = m.Org
		c.state.Sensor = m.Sensor
		c.state.WindowCap = m.WindowCap
		if c.state.WindowCap <= 0 {
			c.state.WindowCap = defaultWindowCap
		}
		c.state.Threshold = m.Threshold
		c.state.VirtualOut = m.VirtualOut
		c.state.Aggregator = m.Aggregator
		c.state.WriteEveryBatch = m.WriteEveryBatch
		c.state.Archive = m.Archive
		return nil, ctx.WriteState()
	case InsertPoints:
		return nil, c.insert(ctx, m.Points)
	case Latest:
		return latestReply(&c.latest, c.state.Window), nil
	case RangeQuery:
		return c.rangeQuery(m.From, m.To), nil
	case HistoryQuery:
		return c.historyQuery(ctx, m.From, m.To)
	case GetAccumulated:
		return c.state.Accumulated, nil
	case SetThreshold:
		c.state.Threshold = m.Threshold
		return nil, nil
	default:
		return nil, fmt.Errorf("shm: PhysicalChannel: unknown message %T", msg)
	}
}

// historyQuery merges archived chunks with the live window.
func (c *physicalChannelActor) historyQuery(ctx *core.Context, from, to time.Time) ([]DataPoint, error) {
	window := c.rangeQuery(from, to)
	if !c.state.Archive {
		return window, nil
	}
	table, err := ctx.Table(HistoryTable)
	if err != nil {
		return nil, err
	}
	archived, err := scanArchive(ctx, table, ctx.Self().Key, from, to)
	if err != nil {
		return nil, err
	}
	return mergeHistory(archived, window), nil
}

func (c *physicalChannelActor) insert(ctx *core.Context, points []DataPoint) error {
	if len(points) == 0 {
		return nil
	}
	if c.state.WindowCap <= 0 {
		c.state.WindowCap = defaultWindowCap
	}
	var stats []BucketStat // the StatUpdate's hourly stats, built in place
	for _, p := range points {
		// Accumulated change (requirement 4): how far the element moved.
		if c.state.HasLast {
			d := p.Value - c.state.LastValue
			if d < 0 {
				d = -d
			}
			c.state.Accumulated += d
		}
		c.state.LastValue = p.Value
		c.state.HasLast = true
		// Threshold alerts (requirement 5).
		if c.state.Threshold.Violates(p.Value) {
			alert := Alert{
				Channel: ctx.Self().Key,
				At:      p.At,
				Value:   p.Value,
				Reason:  fmt.Sprintf("value %.3f outside [%.3f, %.3f]", p.Value, c.state.Threshold.Min, c.state.Threshold.Max),
			}
			if err := ctx.Tell(core.ID{Kind: KindAlerts, Key: c.state.Org}, RaiseAlert{Alert: alert}); err != nil {
				return err
			}
		}
		// Hourly statistics for the aggregator chain (requirement 6).
		if c.state.Aggregator != "" {
			stats = addStat(stats, TruncateToLevel(p.At, LevelHour), p.Value)
		}
	}
	c.state.Window = append(c.state.Window, points...)
	c.latest = nil
	if over := len(c.state.Window) - c.state.WindowCap; over > 0 {
		if c.state.Archive {
			evicted := append([]DataPoint(nil), c.state.Window[:over]...)
			if err := archiveEvicted(ctx, ctx.Self().Key, evicted); err != nil {
				return err
			}
		}
		c.state.Window = append(c.state.Window[:0], c.state.Window[over:]...)
	}
	if c.state.VirtualOut != "" {
		if err := ctx.Tell(core.ID{Kind: KindVirtualChannel, Key: c.state.VirtualOut},
			VirtualInput{From: ctx.Self().Key, Points: points}); err != nil {
			return err
		}
	}
	if len(stats) > 0 {
		slices.SortFunc(stats, func(x, y BucketStat) int { return x.Bucket.Compare(y.Bucket) })
		if err := ctx.Tell(core.ID{Kind: KindAggregator, Key: c.state.Aggregator},
			StatUpdate{Channel: ctx.Self().Key, Stats: stats}); err != nil {
			return err
		}
	}
	if c.state.WriteEveryBatch {
		return ctx.WriteState()
	}
	return nil
}

// addStat folds one reading into the stat of hour bucket b, opening it if
// stats has none yet. A batch spans one hour or two, so a scan is all the
// lookup it needs; buckets are told apart by ==, as a map keyed by
// time.Time would tell them.
func addStat(stats []BucketStat, b time.Time, v float64) []BucketStat {
	i := 0
	for i < len(stats) && stats[i].Bucket != b {
		i++
	}
	if i == len(stats) {
		if stats == nil {
			stats = make([]BucketStat, 0, 2)
		}
		stats = append(stats, BucketStat{Bucket: b, Min: v, Max: v})
	}
	s := &stats[i]
	s.Count++
	s.Sum += v
	if v < s.Min {
		s.Min = v
	}
	if v > s.Max {
		s.Max = v
	}
	return stats
}

// noLatest is the Latest reply of an empty window, boxed once.
var noLatest any = DataPoint{}

// latestReply is a window's Latest reply, boxed once per change of the
// window rather than once per query: *memo holds the box until the owner
// sets it to nil on appending. A reply is immutable once returned (a value
// inside an interface cannot be changed), and an actor's turns run one at
// a time, so every query until the next append shares the box.
func latestReply(memo *any, window []DataPoint) any {
	if *memo == nil {
		if len(window) == 0 {
			return noLatest
		}
		*memo = window[len(window)-1]
	}
	return *memo
}

func (c *physicalChannelActor) rangeQuery(from, to time.Time) []DataPoint {
	return pointsIn(c.state.Window, from, to)
}

// pointsIn returns the window's points in [from, to], in window order and
// without assuming the window sorted. It counts before it copies: the
// reply is one allocation of exactly its size, where growing a slice match
// by match threw away twice a full-minute reply's bytes on the way.
func pointsIn(window []DataPoint, from, to time.Time) []DataPoint {
	in := func(p *DataPoint) bool { return !p.At.Before(from) && !p.At.After(to) }
	n := 0
	for i := range window {
		if in(&window[i]) {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]DataPoint, 0, n)
	for i := range window {
		if in(&window[i]) {
			out = append(out, window[i])
		}
	}
	return out
}

// virtualChannelActor derives a stream from multiple physical channels,
// the paper's "computation over potentially multiple physical channels".
// It aligns inputs positionally per packet: when every input has
// contributed its packet for the current round, the combined points are
// appended to the virtual window.
type virtualChannelActor struct {
	state virtualState
	// pending holds a FIFO of un-combined packets per input (volatile: a
	// lost packet under failure just delays derived rounds). Queues are
	// needed because inputs deliver asynchronously and one channel may
	// run several packets ahead of another.
	pending map[string][][]DataPoint
	// latest is the Latest reply, boxed (volatile; see latestReply).
	latest any
}

type virtualState struct {
	Org       string
	Inputs    []string
	Op        string
	WindowCap int
	Window    []DataPoint
}

func (v *virtualChannelActor) State() any { return &v.state }

func (v *virtualChannelActor) OnActivate(*core.Context) error {
	v.pending = make(map[string][][]DataPoint)
	return nil
}

func (v *virtualChannelActor) Receive(ctx *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case ConfigureVirtual:
		v.state.Org = m.Org
		v.state.Inputs = append([]string(nil), m.Inputs...)
		v.state.Op = m.Op
		if v.state.Op == "" {
			v.state.Op = "sum"
		}
		v.state.WindowCap = m.WindowCap
		if v.state.WindowCap <= 0 {
			v.state.WindowCap = defaultWindowCap
		}
		return nil, ctx.WriteState()
	case VirtualInput:
		v.pending[m.From] = append(v.pending[m.From], m.Points)
		// Combine as many complete rounds as are available.
		for v.roundReady() {
			derived := v.combine()
			v.state.Window = append(v.state.Window, derived...)
			v.latest = nil
			if over := len(v.state.Window) - v.state.WindowCap; over > 0 {
				v.state.Window = append(v.state.Window[:0], v.state.Window[over:]...)
			}
		}
		return nil, nil
	case Latest:
		return latestReply(&v.latest, v.state.Window), nil
	case RangeQuery:
		return pointsIn(v.state.Window, m.From, m.To), nil
	default:
		return nil, fmt.Errorf("shm: VirtualChannel: unknown message %T", msg)
	}
}

// roundReady reports whether every input has at least one queued packet.
func (v *virtualChannelActor) roundReady() bool {
	if len(v.state.Inputs) == 0 {
		return false
	}
	for _, in := range v.state.Inputs {
		if len(v.pending[in]) == 0 {
			return false
		}
	}
	return true
}

// combine pops one packet per input and merges them pointwise per Op.
func (v *virtualChannelActor) combine() []DataPoint {
	round := make([][]DataPoint, len(v.state.Inputs))
	shortest := -1
	for i, in := range v.state.Inputs {
		round[i] = v.pending[in][0]
		v.pending[in] = v.pending[in][1:]
		if shortest < 0 || len(round[i]) < shortest {
			shortest = len(round[i])
		}
	}
	if shortest <= 0 {
		return nil
	}
	out := make([]DataPoint, shortest)
	for j := 0; j < shortest; j++ {
		var sum float64
		var at time.Time
		for _, pts := range round {
			p := pts[j]
			sum += p.Value
			if p.At.After(at) {
				at = p.At
			}
		}
		val := sum
		if v.state.Op == "mean" && len(round) > 0 {
			val = sum / float64(len(round))
		}
		out[j] = DataPoint{At: at, Value: val}
	}
	return out
}

// aggregatorActor maintains per-bucket statistics at one level of detail
// and forwards updates to the next level (hour -> day -> month), which is
// the parallelism across levels §4.2 calls out.
type aggregatorActor struct {
	state aggState
	// lastBucket and lastKey are the newest bucket and its RFC3339 key in
	// PerChannel (volatile): an update's stats, and the updates after it,
	// mostly fall in the same hour, day or month.
	lastBucket time.Time
	lastKey    string
}

type aggState struct {
	Level string
	Next  string
	// PerChannel maps channel key -> bucket (RFC3339) -> stat.
	PerChannel map[string]map[string]BucketStat
}

func (a *aggregatorActor) State() any { return &a.state }

func (a *aggregatorActor) Receive(ctx *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case ConfigureAggregator:
		a.state.Level = m.Level
		a.state.Next = m.Next
		if a.state.PerChannel == nil {
			a.state.PerChannel = make(map[string]map[string]BucketStat)
		}
		return nil, ctx.WriteState()
	case StatUpdate:
		if a.state.PerChannel == nil {
			a.state.PerChannel = make(map[string]map[string]BucketStat)
		}
		if a.state.Level == "" {
			// Self-configure from the key ("org-3@agg/hour"): aggregators
			// need no client-side setup, so under prefer-local placement
			// they activate on the silo of the first channel feeding them.
			a.state.Level, a.state.Next = aggregatorChainFromKey(ctx.Self().Key)
		}
		level := a.state.Level
		if level == "" {
			level = LevelHour
		}
		buckets, ok := a.state.PerChannel[m.Channel]
		if !ok {
			buckets = make(map[string]BucketStat)
			a.state.PerChannel[m.Channel] = buckets
		}
		for _, s := range m.Stats {
			b := TruncateToLevel(s.Bucket, level)
			key := a.bucketKey(b)
			cur := buckets[key]
			cur.Bucket = b
			cur.Merge(BucketStat{Bucket: b, Count: s.Count, Sum: s.Sum, Min: s.Min, Max: s.Max})
			buckets[key] = cur
		}
		if a.state.Next != "" {
			// The update goes up the chain as it came: msg is it, boxed.
			if err := ctx.Tell(core.ID{Kind: KindAggregator, Key: a.state.Next}, msg); err != nil {
				return nil, err
			}
		}
		return nil, nil
	case GetAggregates:
		return a.aggregates(m.Channel), nil
	default:
		return nil, fmt.Errorf("shm: Aggregator: unknown message %T", msg)
	}
}

// bucketKey is b's key in PerChannel, rendered only when b is not the
// bucket last rendered.
func (a *aggregatorActor) bucketKey(b time.Time) string {
	if b != a.lastBucket || a.lastKey == "" {
		a.lastBucket, a.lastKey = b, b.Format(time.RFC3339)
	}
	return a.lastKey
}

// aggregatorChainFromKey derives an aggregator's level and successor
// from its key, e.g. "org-3@agg/hour" -> (hour, "org-3@agg/day").
func aggregatorChainFromKey(key string) (level, next string) {
	i := len(key) - 1
	for i >= 0 && key[i] != '/' {
		i--
	}
	if i < 0 {
		return LevelHour, ""
	}
	prefix, suffix := key[:i+1], key[i+1:]
	switch suffix {
	case LevelHour:
		return LevelHour, prefix + LevelDay
	case LevelDay:
		return LevelDay, prefix + LevelMonth
	case LevelMonth:
		return LevelMonth, ""
	default:
		return LevelHour, ""
	}
}

func (a *aggregatorActor) aggregates(channel string) []BucketStat {
	merged := map[string]BucketStat{}
	for ch, buckets := range a.state.PerChannel {
		if channel != "" && ch != channel {
			continue
		}
		for key, s := range buckets {
			cur := merged[key]
			cur.Bucket = s.Bucket
			cur.Merge(s)
			merged[key] = cur
		}
	}
	out := make([]BucketStat, 0, len(merged))
	for _, s := range merged {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Bucket.Before(out[j].Bucket) })
	return out
}

// alertsActor collects an organization's recent alerts.
type alertsActor struct {
	state alertsState
}

type alertsState struct {
	Recent []Alert
	Total  int64
}

const maxAlertsKept = 1000

func (a *alertsActor) State() any { return &a.state }

func (a *alertsActor) Receive(_ *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case RaiseAlert:
		a.state.Recent = append(a.state.Recent, m.Alert)
		a.state.Total++
		if over := len(a.state.Recent) - maxAlertsKept; over > 0 {
			a.state.Recent = append(a.state.Recent[:0], a.state.Recent[over:]...)
		}
		return nil, nil
	case GetAlerts:
		limit := m.Limit
		if limit <= 0 || limit > len(a.state.Recent) {
			limit = len(a.state.Recent)
		}
		out := make([]Alert, limit)
		copy(out, a.state.Recent[len(a.state.Recent)-limit:])
		return out, nil
	default:
		return nil, fmt.Errorf("shm: Alerts: unknown message %T", msg)
	}
}
