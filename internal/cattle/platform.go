package cattle

import (
	"context"
	"fmt"
	"time"

	"aodb/internal/core"
	"aodb/internal/spatial"
	"aodb/internal/txn"
)

// Platform is the client facade over the cattle supply-chain actors.
type Platform struct {
	rt           *core.Runtime
	coor         *txn.Coordinator
	spatial      *spatial.Index // nil unless Options.SpatialCellSize > 0
	recordEvents bool
}

// Options configures kind registration.
type Options struct {
	// SpatialCellSize, when positive, maintains a grid spatial index of
	// live cow positions (degrees per cell) and enables CowsInArea /
	// CowsNear queries. Registers the spatial kind on the runtime.
	SpatialCellSize float64
	// RecordEvents emits GS1/EPCIS-style events at every supply-chain
	// step into per-EPC event-log actors, enabling Events and
	// ChainOfCustody queries.
	RecordEvents bool
}

// NewPlatform registers both the actor-model and object-model kinds on rt.
// Every kind keeps its state across activations: on a runtime with a
// store, an actor loads its state when it activates and writes it when it
// is collected or the runtime shuts down (core.PersistOnDeactivate).
func NewPlatform(rt *core.Runtime, opts Options) (*Platform, error) {
	events := opts.RecordEvents
	regs := []struct {
		kind    string
		factory core.Factory
	}{
		{KindCow, func() core.Actor { return &cowActor{} }},
		{KindFarmer, func() core.Actor { return &farmerActor{} }},
		{KindSlaughterhouse, func() core.Actor { return &slaughterhouseActor{recordEvents: events} }},
		{KindMeatCut, func() core.Actor { return &meatCutActor{} }},
		{KindDistributor, func() core.Actor { return &distributorActor{} }},
		{KindDelivery, func() core.Actor { return &deliveryActor{recordEvents: events} }},
		{KindRetailer, func() core.Actor { return &retailerActor{recordEvents: events} }},
		{KindMeatProduct, func() core.Actor { return &meatProductActor{} }},
		{KindOwnershipRegistry, func() core.Actor { return &ownershipRegistryActor{} }},
		{KindObjSlaughterhouse, func() core.Actor { return &objSlaughterhouseActor{} }},
		{KindObjDistributor, func() core.Actor { return &objDistributorActor{} }},
		{KindObjRetailer, func() core.Actor { return &objRetailerActor{} }},
		{KindEventLog, func() core.Actor { return &eventLogActor{} }},
	}
	for _, r := range regs {
		if err := rt.RegisterKind(r.kind, r.factory, core.WithPersistence(core.PersistOnDeactivate)); err != nil {
			return nil, err
		}
	}
	p := &Platform{rt: rt, coor: txn.NewCoordinator(rt), recordEvents: events}
	if opts.SpatialCellSize > 0 {
		if err := spatial.RegisterKind(rt); err != nil {
			return nil, err
		}
		ix, err := spatial.New(rt, "cow-positions", opts.SpatialCellSize)
		if err != nil {
			return nil, err
		}
		p.spatial = ix
	}
	return p, nil
}

// RegisterCow creates a cow owned by farmer, updating both sides of the
// relationship plus the ownership registry (used by the registry
// constraint mode and the consistency checker).
func (p *Platform) RegisterCow(ctx context.Context, cow, farmer, breed string, born time.Time) error {
	if _, err := p.rt.Call(ctx, core.ID{Kind: KindCow, Key: cow},
		RegisterCow{Owner: farmer, Breed: breed, Born: born}); err != nil {
		return err
	}
	if _, err := p.rt.Call(ctx, core.ID{Kind: KindFarmer, Key: farmer}, AddCow{Cow: cow}); err != nil {
		return err
	}
	if _, err := p.rt.Call(ctx, core.ID{Kind: KindOwnershipRegistry, Key: "global"},
		RegAssign{Cow: cow, Farmer: farmer}); err != nil {
		return err
	}
	if p.recordEvents {
		_, err := p.rt.Call(ctx, core.ID{Kind: KindEventLog, Key: cow}, RecordEvent{Event: Event{
			Type:  ObjectEvent,
			Step:  StepCommissioning,
			EPCs:  []string{cow},
			Where: farmer,
			At:    born,
		}})
		return err
	}
	return nil
}

// Track appends a collar reading to a cow and, when the spatial index is
// enabled, relocates the cow's grid entry.
func (p *Platform) Track(ctx context.Context, cow string, pt GeoPoint) error {
	v, err := p.rt.Call(ctx, core.ID{Kind: KindCow, Key: cow}, CollarReading{Point: pt})
	if err != nil {
		return err
	}
	if p.spatial != nil {
		prev, _ := v.(PrevPosition)
		return p.spatial.Update(ctx, cow, pt.Lat, pt.Lon, prev.Point.Lat, prev.Point.Lon, prev.Valid)
	}
	return nil
}

// CowsInArea returns the cows currently inside a bounding box (spatial
// index required).
func (p *Platform) CowsInArea(ctx context.Context, box spatial.Box) ([]spatial.Position, error) {
	if p.spatial == nil {
		return nil, fmt.Errorf("cattle: spatial index not enabled (set Options.SpatialCellSize)")
	}
	return p.spatial.QueryBox(ctx, box)
}

// CowsNear returns cows within radiusKm of a point (spatial index
// required).
func (p *Platform) CowsNear(ctx context.Context, lat, lon, radiusKm float64) ([]spatial.Position, error) {
	if p.spatial == nil {
		return nil, fmt.Errorf("cattle: spatial index not enabled (set Options.SpatialCellSize)")
	}
	return p.spatial.QueryRadius(ctx, lat, lon, radiusKm)
}

// Trajectory returns a cow's recent GPS points.
func (p *Platform) Trajectory(ctx context.Context, cow string, limit int) ([]GeoPoint, error) {
	v, err := p.rt.Call(ctx, core.ID{Kind: KindCow, Key: cow}, GetTrajectory{Limit: limit})
	if err != nil {
		return nil, err
	}
	return v.([]GeoPoint), nil
}

// CowInfo returns a cow's summary.
func (p *Platform) CowInfo(ctx context.Context, cow string) (CowInfo, error) {
	v, err := p.rt.Call(ctx, core.ID{Kind: KindCow, Key: cow}, GetCowInfo{})
	if err != nil {
		return CowInfo{}, err
	}
	return v.(CowInfo), nil
}

// TraceProduct assembles a consumer trace in the actor model by graph
// navigation: product actor -> each cut actor -> each cow actor. Hops
// counts the actor calls performed, the metric the §4.3 ablation
// compares across models.
func (p *Platform) TraceProduct(ctx context.Context, product string) (Trace, error) {
	var t Trace
	v, err := p.rt.Call(ctx, core.ID{Kind: KindMeatProduct, Key: product}, GetProduct{})
	if err != nil {
		return t, err
	}
	t.Product = v.(MeatProductRecord)
	t.Hops++
	seenCows := map[string]bool{}
	for _, cutID := range t.Product.Cuts {
		cv, err := p.rt.Call(ctx, core.ID{Kind: KindMeatCut, Key: cutID}, GetCut{})
		if err != nil {
			return t, fmt.Errorf("cattle: trace cut %s: %w", cutID, err)
		}
		t.Hops++
		cut := cv.(MeatCutRecord)
		t.Cuts = append(t.Cuts, cut)
		if cut.Cow != "" && !seenCows[cut.Cow] {
			seenCows[cut.Cow] = true
			info, err := p.CowInfo(ctx, cut.Cow)
			if err != nil {
				return t, fmt.Errorf("cattle: trace cow %s: %w", cut.Cow, err)
			}
			t.Hops++
			t.Cows = append(t.Cows, info)
		}
	}
	return t, nil
}

// TraceProductObjects assembles the same trace in the object model: one
// call to the retailer returns the product with embedded cut copies; only
// cow lookups remain actor calls.
func (p *Platform) TraceProductObjects(ctx context.Context, retailer, product string) (Trace, error) {
	var t Trace
	v, err := p.rt.Call(ctx, core.ID{Kind: KindObjRetailer, Key: retailer}, ObjGetProduct{Product: product})
	if err != nil {
		return t, err
	}
	t.Hops++
	t.Product = v.(MeatProductRecord)
	t.Cuts = t.Product.CutCopies
	seenCows := map[string]bool{}
	for _, cut := range t.Cuts {
		if cut.Cow == "" || seenCows[cut.Cow] {
			continue
		}
		seenCows[cut.Cow] = true
		info, err := p.CowInfo(ctx, cut.Cow)
		if err != nil {
			return t, err
		}
		t.Hops++
		t.Cows = append(t.Cows, info)
	}
	return t, nil
}

// TransferModes for cow ownership changes.
const (
	ModeTxn      = "txn"
	ModeRegistry = "registry"
	ModeWorkflow = "workflow"
)

// Transfer moves a cow between farmers using the selected constraint
// mode.
func (p *Platform) Transfer(ctx context.Context, mode, cow, from, to string) error {
	switch mode {
	case ModeTxn:
		return TransferTxn(ctx, p.coor, cow, from, to)
	case ModeRegistry:
		_, err := p.rt.Call(ctx, core.ID{Kind: KindOwnershipRegistry, Key: "global"},
			RegTransfer{Cow: cow, From: from, To: to})
		return err
	case ModeWorkflow:
		return TransferWorkflow(ctx, p.rt, cow, from, to)
	default:
		return fmt.Errorf("cattle: unknown transfer mode %q", mode)
	}
}

// CheckOwnershipConsistency verifies the two-sided relationship invariant
// for the given cows and farmers: every cow's owner lists the cow, and no
// other farmer does. It returns the violations found.
func (p *Platform) CheckOwnershipConsistency(ctx context.Context, cows, farmers []string) ([]string, error) {
	herds := make(map[string]map[string]bool, len(farmers))
	for _, f := range farmers {
		v, err := p.rt.Call(ctx, core.ID{Kind: KindFarmer, Key: f}, ListCows{})
		if err != nil {
			return nil, err
		}
		set := make(map[string]bool)
		for _, c := range v.([]string) {
			set[c] = true
		}
		herds[f] = set
	}
	var violations []string
	for _, c := range cows {
		info, err := p.CowInfo(ctx, c)
		if err != nil {
			return nil, err
		}
		for f, herd := range herds {
			owns := herd[c]
			if f == info.Owner && !owns {
				violations = append(violations, fmt.Sprintf("%s: owner %s does not list it", c, f))
			}
			if f != info.Owner && owns {
				violations = append(violations, fmt.Sprintf("%s: non-owner %s lists it", c, f))
			}
		}
	}
	return violations, nil
}
