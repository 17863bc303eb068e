package shm

import (
	"context"
	"fmt"
	"time"

	"aodb/internal/core"
	"aodb/internal/devicefmt"
	"aodb/internal/placement"
)

// Key construction. The organization prefix before '@' lets consistent-
// hash placement co-locate an org's whole actor family.

// OrgKey returns the actor key for organization n.
func OrgKey(n int) string { return fmt.Sprintf("org-%d", n) }

// SensorKey returns the actor key for a sensor within an org.
func SensorKey(org string, n int) string { return fmt.Sprintf("%s@sensor-%d", org, n) }

// ChannelKey returns the actor key for a physical channel of a sensor.
func ChannelKey(sensor string, n int) string { return fmt.Sprintf("%s/ch-%d", sensor, n) }

// VirtualKey returns the actor key for a sensor's virtual channel.
func VirtualKey(sensor string) string { return fmt.Sprintf("%s/virt", sensor) }

// AggregatorKey returns the actor key for an org's aggregator at a level.
func AggregatorKey(org, level string) string { return fmt.Sprintf("%s@agg/%s", org, level) }

// Platform is the client facade over the SHM actor model: it registers
// the kinds, provides the ingestion entry point the benchmark drives, and
// exposes the online queries (live data, raw ranges, aggregates, alerts).
type Platform struct {
	rt *core.Runtime
}

// Options configures kind registration.
type Options struct {
	// Persist selects the state policy for SHM actors. The paper's
	// benchmarks configure grain storage writes to happen only at silo
	// shutdown, i.e. PersistOnDeactivate; PersistNone turns storage off
	// entirely for pure in-memory benchmarking.
	Persist core.PersistMode
	// PreferLocal co-locates channels, virtual channels, aggregators and
	// alerts with their callers, the placement fix §5 describes. When
	// false, the runtime default placement applies (Orleans-style random).
	PreferLocal bool
}

// NewPlatform registers the SHM kinds on rt and returns the facade.
func NewPlatform(rt *core.Runtime, opts Options) (*Platform, error) {
	var kindOpts []core.KindOption
	if opts.Persist != core.PersistNone {
		kindOpts = append(kindOpts, core.WithPersistence(opts.Persist))
	}
	derivedOpts := kindOpts
	if opts.PreferLocal {
		pl := placement.NewPreferLocal(rt.Clock().Now().UnixNano())
		derivedOpts = append(append([]core.KindOption(nil), kindOpts...), core.WithPlacement(pl))
	}
	regs := []struct {
		kind    string
		factory core.Factory
		opts    []core.KindOption
	}{
		{KindOrganization, func() core.Actor { return &organizationActor{} }, kindOpts},
		{KindSensor, func() core.Actor { return &sensorActor{} }, kindOpts},
		// The paper moves sensor channels and aggregators to prefer-local
		// placement so ingestion needs no remote hops.
		{KindPhysicalChannel, func() core.Actor { return &physicalChannelActor{} }, derivedOpts},
		{KindVirtualChannel, func() core.Actor { return &virtualChannelActor{} }, derivedOpts},
		{KindAggregator, func() core.Actor { return &aggregatorActor{} }, derivedOpts},
		{KindAlerts, func() core.Actor { return &alertsActor{} }, derivedOpts},
	}
	for _, r := range regs {
		if err := rt.RegisterKind(r.kind, r.factory, r.opts...); err != nil {
			return nil, err
		}
	}
	return &Platform{rt: rt}, nil
}

// Runtime returns the underlying runtime.
func (p *Platform) Runtime() *core.Runtime { return p.rt }

// SensorSpec describes one sensor to install.
type SensorSpec struct {
	Org string
	Key string
	// PhysicalChannels is the number of raw channels (the paper uses 2).
	PhysicalChannels int
	// WithVirtual adds a virtual channel summing the physical ones (the
	// paper: every tenth sensor).
	WithVirtual bool
	// WindowCap bounds each channel's in-memory window (default 4096).
	WindowCap int
	// Threshold, when Enabled, applies to each of the sensor's physical
	// channels.
	Threshold Threshold
	// WriteEveryBatch forces a grain-storage write per ingestion request
	// on every channel (the §5 durability ablation).
	WriteEveryBatch bool
	// Archive spills window-evicted points to the history table, keeping
	// long-period queries answerable (requires a store on the runtime).
	Archive bool
}

// InstallSensor creates and wires a sensor via a single message to the
// Sensor actor, which configures its own channels and virtual channel (so
// the family co-locates under prefer-local placement), then registers the
// sensor with its organization. Neither the org nor its aggregator chain
// needs setup: the org activates on its first sensor, and aggregators
// self-configure from their keys on first update.
func (p *Platform) InstallSensor(ctx context.Context, spec SensorSpec) error {
	if spec.PhysicalChannels <= 0 {
		spec.PhysicalChannels = 2
	}
	virtual := ""
	if spec.WithVirtual {
		virtual = VirtualKey(spec.Key)
	}
	channels := make([]string, spec.PhysicalChannels)
	for i := range channels {
		channels[i] = ChannelKey(spec.Key, i)
	}
	if _, err := p.rt.Call(ctx, core.ID{Kind: KindSensor, Key: spec.Key}, ConfigureSensor{
		Org:             spec.Org,
		Channels:        channels,
		Virtual:         virtual,
		WindowCap:       spec.WindowCap,
		Threshold:       spec.Threshold,
		Aggregator:      AggregatorKey(spec.Org, LevelHour),
		WriteEveryBatch: spec.WriteEveryBatch,
		Archive:         spec.Archive,
	}); err != nil {
		return err
	}
	_, err := p.rt.Call(ctx, core.ID{Kind: KindOrganization, Key: spec.Org}, AttachSensor{SensorKey: spec.Key})
	return err
}

// Ingest delivers one sensor request: perChannel[i] carries the packet
// for channel i (the paper's workload: 10 points per channel, 1 request
// per second per sensor).
func (p *Platform) Ingest(ctx context.Context, sensorKey string, at time.Time, perChannel [][]float64) error {
	_, err := p.rt.Call(ctx, core.ID{Kind: KindSensor, Key: sensorKey}, InsertBatch{
		At:     at,
		Points: perChannel,
	})
	return err
}

// IngestRaw accepts a raw device payload in any supported wire format
// (JSON, CSV, or packed binary — see internal/devicefmt), normalizes it,
// and ingests it. This is the heterogeneous-data entry point of
// non-functional requirement 3.
func (p *Platform) IngestRaw(ctx context.Context, payload []byte) error {
	pkt, err := devicefmt.Decode(payload)
	if err != nil {
		return err
	}
	return p.Ingest(ctx, pkt.Sensor, pkt.At, pkt.PerChannel)
}

// LiveData returns the most recent reading from every channel of an
// organization — the Figure 9 query.
func (p *Platform) LiveData(ctx context.Context, org string) ([]LiveReading, error) {
	v, err := p.rt.Call(ctx, core.ID{Kind: KindOrganization, Key: org}, GetChannels{})
	if err != nil {
		return nil, err
	}
	channels := v.([]string)
	targets := make([]core.ID, len(channels))
	for i, ch := range channels {
		kind := KindPhysicalChannel
		if isVirtualKey(ch) {
			kind = KindVirtualChannel
		}
		targets[i] = core.ID{Kind: kind, Key: ch}
	}
	points, errs := core.CallManyOf[DataPoint](ctx, p.rt, targets, Latest{})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("shm: live data from %s: %w", channels[i], err)
		}
	}
	out := make([]LiveReading, len(points))
	for i, pt := range points {
		out[i] = LiveReading{Channel: channels[i], Point: pt}
	}
	return out, nil
}

func isVirtualKey(ch string) bool {
	return len(ch) >= 5 && ch[len(ch)-5:] == "/virt"
}

// RawData returns the in-window points of one channel in [from, to] — the
// Figure 8 query.
func (p *Platform) RawData(ctx context.Context, channel string, from, to time.Time) ([]DataPoint, error) {
	kind := KindPhysicalChannel
	if isVirtualKey(channel) {
		kind = KindVirtualChannel
	}
	v, err := p.rt.Call(ctx, core.ID{Kind: kind, Key: channel}, RangeQuery{From: from, To: to})
	if err != nil {
		return nil, err
	}
	pts, _ := v.([]DataPoint)
	return pts, nil
}

// AccumulatedChange returns a channel's total accumulated change
// (functional requirement 4).
func (p *Platform) AccumulatedChange(ctx context.Context, channel string) (float64, error) {
	v, err := p.rt.Call(ctx, core.ID{Kind: KindPhysicalChannel, Key: channel}, GetAccumulated{})
	if err != nil {
		return 0, err
	}
	return v.(float64), nil
}

// Aggregates returns the bucket statistics for an org at a level; channel
// may narrow to one channel ("" = all).
func (p *Platform) Aggregates(ctx context.Context, org, level, channel string) ([]BucketStat, error) {
	v, err := p.rt.Call(ctx, core.ID{Kind: KindAggregator, Key: AggregatorKey(org, level)},
		GetAggregates{Channel: channel})
	if err != nil {
		return nil, err
	}
	return v.([]BucketStat), nil
}

// Alerts returns an org's most recent alerts.
func (p *Platform) Alerts(ctx context.Context, org string, limit int) ([]Alert, error) {
	v, err := p.rt.Call(ctx, core.ID{Kind: KindAlerts, Key: org}, GetAlerts{Limit: limit})
	if err != nil {
		return nil, err
	}
	return v.([]Alert), nil
}

// Population mirrors the paper's experimental environment: one
// organization for every 100 sensors; each sensor has two physical
// channels; every tenth sensor gets a virtual channel summing them (100
// sensors = 210 channels). The paper's one user and one project per
// organization are not modelled: no query reads them, and users live in
// internal/auth.
type Population struct {
	Sensors           int
	SensorsPerOrg     int
	ChannelsPerSensor int // physical channels per sensor
	VirtualEveryNth   int
	WindowCap         int
	WriteEveryBatch   bool
}

// DefaultPopulation returns the paper's configuration for n sensors.
func DefaultPopulation(n int) Population {
	return Population{
		Sensors:           n,
		SensorsPerOrg:     100,
		ChannelsPerSensor: 2,
		VirtualEveryNth:   10,
	}
}

// Orgs returns how many organizations the population creates.
func (pop Population) Orgs() int {
	return (pop.Sensors + pop.SensorsPerOrg - 1) / pop.SensorsPerOrg
}

// TotalChannels returns physical+virtual channel count, for reporting
// (the paper: 100 sensors -> 210 channels).
func (pop Population) TotalChannels() int {
	virtual := 0
	if pop.VirtualEveryNth > 0 {
		virtual = pop.Sensors / pop.VirtualEveryNth
	}
	return pop.Sensors*pop.ChannelsPerSensor + virtual
}

// Populate installs the sensors, each attached to its organization. It
// returns the sensor keys in creation order for the load generator.
func (p *Platform) Populate(ctx context.Context, pop Population) ([]string, error) {
	if pop.SensorsPerOrg <= 0 {
		pop.SensorsPerOrg = 100
	}
	if pop.ChannelsPerSensor <= 0 {
		pop.ChannelsPerSensor = 2
	}
	keys := make([]string, 0, pop.Sensors)
	for s := 0; s < pop.Sensors; s++ {
		org := OrgKey(s / pop.SensorsPerOrg)
		key := SensorKey(org, s%pop.SensorsPerOrg)
		withVirtual := pop.VirtualEveryNth > 0 && s%pop.VirtualEveryNth == pop.VirtualEveryNth-1
		if err := p.InstallSensor(ctx, SensorSpec{
			Org:              org,
			Key:              key,
			PhysicalChannels: pop.ChannelsPerSensor,
			WithVirtual:      withVirtual,
			WindowCap:        pop.WindowCap,
			WriteEveryBatch:  pop.WriteEveryBatch,
		}); err != nil {
			return nil, err
		}
		keys = append(keys, key)
	}
	return keys, nil
}
