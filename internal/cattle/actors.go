package cattle

import (
	"fmt"
	"sort"
	"time"

	"aodb/internal/core"
	"aodb/internal/txn"
)

// Actor kinds of the Figure 3 (actor) model. The object model in
// objectmodel.go reuses Cow and Farmer and replaces the cut/product kinds.
const (
	KindCow            = "Cow"
	KindFarmer         = "Farmer"
	KindSlaughterhouse = "Slaughterhouse"
	KindMeatCut        = "MeatCut"
	KindDistributor    = "Distributor"
	KindDelivery       = "Delivery"
	KindRetailer       = "Retailer"
	KindMeatProduct    = "MeatProduct"
)

const trajectoryCap = 4096

// cowActor encapsulates one cow and its collar sensor readings — the
// §4.1 decision: the collar is not a separate actor, its data lives
// inside the Cow.
type cowActor struct {
	state    cowState
	txnState txn.State
}

type cowState struct {
	Owner          string
	Breed          string
	Born           time.Time
	Status         CowStatus
	Slaughterhouse string
	Fence          Fence
	Trajectory     []GeoPoint
	Readings       int
}

func (c *cowActor) State() any { return &c.state }

func (c *cowActor) Receive(ctx *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case RegisterCow:
		c.state.Owner = m.Owner
		c.state.Breed = m.Breed
		c.state.Born = m.Born
		c.state.Status = CowAlive
		return nil, ctx.WriteState()
	case CollarReading:
		if c.state.Status != CowAlive {
			return nil, fmt.Errorf("cattle: reading for %s cow %s", c.state.Status, ctx.Self().Key)
		}
		// Report the previous position so callers (e.g. the platform's
		// spatial index maintenance) can relocate grid entries.
		var prev PrevPosition
		if n := len(c.state.Trajectory); n > 0 {
			prev = PrevPosition{Point: c.state.Trajectory[n-1], Valid: true}
		}
		c.state.Trajectory = append(c.state.Trajectory, m.Point)
		if over := len(c.state.Trajectory) - trajectoryCap; over > 0 {
			c.state.Trajectory = append(c.state.Trajectory[:0], c.state.Trajectory[over:]...)
		}
		c.state.Readings++
		if c.state.Fence.Enabled && !c.state.Fence.Contains(m.Point) && c.state.Owner != "" {
			if err := ctx.Tell(core.ID{Kind: KindFarmer, Key: c.state.Owner},
				FenceAlert{Cow: ctx.Self().Key, Point: m.Point}); err != nil {
				return nil, err
			}
		}
		return prev, nil
	case SetFence:
		c.state.Fence = m.Fence
		return nil, nil
	case GetTrajectory:
		limit := m.Limit
		if limit <= 0 || limit > len(c.state.Trajectory) {
			limit = len(c.state.Trajectory)
		}
		out := make([]GeoPoint, limit)
		copy(out, c.state.Trajectory[len(c.state.Trajectory)-limit:])
		return out, nil
	case GetCowInfo:
		return CowInfo{
			Key:            ctx.Self().Key,
			Owner:          c.state.Owner,
			Breed:          c.state.Breed,
			Born:           c.state.Born,
			Status:         c.state.Status,
			Slaughterhouse: c.state.Slaughterhouse,
			Readings:       c.state.Readings,
		}, nil
	case SetOwner:
		c.state.Owner = m.Owner
		return nil, nil
	case MarkSlaughtered:
		if c.state.Status == CowSlaughtered {
			return nil, fmt.Errorf("cattle: cow %s already slaughtered at %s (a cow can only be slaughtered once)",
				ctx.Self().Key, c.state.Slaughterhouse)
		}
		c.state.Status = CowSlaughtered
		c.state.Slaughterhouse = m.Slaughterhouse
		return nil, nil
	default:
		return c.receiveTxn(ctx, msg)
	}
}

// farmerActor manages a herd; one Farmer actor may stand for a
// cooperative of farmers, per the paper's footnote.
type farmerActor struct {
	state    farmerState
	txnState txn.State
}

type farmerState struct {
	Cows   map[string]bool
	Alerts []FenceAlert
}

func (f *farmerActor) State() any { return &f.state }

func (f *farmerActor) ensure() {
	if f.state.Cows == nil {
		f.state.Cows = make(map[string]bool)
	}
}

func (f *farmerActor) Receive(ctx *core.Context, msg any) (any, error) {
	f.ensure()
	switch m := msg.(type) {
	case AddCow:
		f.state.Cows[m.Cow] = true
		return nil, nil
	case RemoveCow:
		if !f.state.Cows[m.Cow] {
			return nil, fmt.Errorf("cattle: farmer %s does not own %s", ctx.Self().Key, m.Cow)
		}
		delete(f.state.Cows, m.Cow)
		return nil, nil
	case ListCows:
		out := make([]string, 0, len(f.state.Cows))
		for c := range f.state.Cows {
			out = append(out, c)
		}
		sort.Strings(out)
		return out, nil
	case FenceAlert:
		f.state.Alerts = append(f.state.Alerts, m)
		return nil, nil
	case GetFenceAlerts:
		return append([]FenceAlert(nil), f.state.Alerts...), nil
	default:
		return f.receiveTxn(ctx, msg)
	}
}

// slaughterhouseActor turns cows into meat cut actors, recording
// provenance (requirement 3). It keeps no state: each cut's record lives
// in its MeatCut actor, and the cow records where it was slaughtered.
type slaughterhouseActor struct {
	recordEvents bool
}

// cutTime is when a slaughter's cuts were made: the time the message
// carries, or now by the runtime clock when it carries none.
func cutTime(ctx *core.Context, at time.Time) time.Time {
	if at.IsZero() {
		return ctx.Clock().Now()
	}
	return at
}

func (s *slaughterhouseActor) Receive(ctx *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case Slaughter:
		if len(m.CutIDs) == 0 {
			return nil, fmt.Errorf("cattle: slaughter of %s yields no cuts", m.Cow)
		}
		// The constraint "a cow can only be slaughtered once in exactly
		// one slaughterhouse" is enforced by the Cow actor itself, which
		// serializes MarkSlaughtered in its single-threaded mailbox.
		if _, err := ctx.Call(core.ID{Kind: KindCow, Key: m.Cow},
			MarkSlaughtered{Slaughterhouse: ctx.Self().Key}); err != nil {
			return nil, err
		}
		cutAt := cutTime(ctx, m.CutAt)
		for _, cutID := range m.CutIDs {
			rec := MeatCutRecord{
				ID:             cutID,
				Cow:            m.Cow,
				Slaughterhouse: ctx.Self().Key,
				WeightKg:       m.CutWeight,
				CutAt:          cutAt,
				Holder:         ctx.Self().Key,
				Version:        1,
			}
			if _, err := ctx.Call(core.ID{Kind: KindMeatCut, Key: cutID}, CreateCut{Record: rec}); err != nil {
				return nil, err
			}
		}
		if s.recordEvents {
			if err := recordEvent(ctx, Event{
				Type:    TransformationEvent,
				Step:    StepSlaughtering,
				Inputs:  []string{m.Cow},
				Outputs: append([]string(nil), m.CutIDs...),
				Where:   ctx.Self().Key,
				At:      cutAt,
			}); err != nil {
				return nil, err
			}
		}
		return m.CutIDs, nil
	default:
		return nil, fmt.Errorf("cattle: Slaughterhouse: unknown message %T", msg)
	}
}

// meatCutActor is the Figure 3 representation of a meat cut: an actor
// whose record every interested party reads via messaging.
type meatCutActor struct {
	state MeatCutRecord
}

func (c *meatCutActor) State() any { return &c.state }

func (c *meatCutActor) Receive(ctx *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case CreateCut:
		c.state = m.Record
		return nil, ctx.WriteState()
	case AddItinerary:
		c.state.Itinerary = append(c.state.Itinerary, m.Entry)
		c.state.Holder = m.Entry.To
		return nil, nil
	case SetHolder:
		c.state.Holder = m.Holder
		return nil, nil
	case GetCut:
		rec := c.state
		rec.Itinerary = append([]ItineraryEntry(nil), c.state.Itinerary...)
		return rec, nil
	default:
		return nil, fmt.Errorf("cattle: MeatCut: unknown message %T", msg)
	}
}

// distributorActor manages delivery actors (Figure 3: a Distributor actor
// manages multiple Delivery actors). It keeps no state: each delivery is
// its own actor.
type distributorActor struct{}

func (d *distributorActor) Receive(ctx *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case Dispatch:
		if _, err := ctx.Call(core.ID{Kind: KindDelivery, Key: m.Delivery}, CreateDelivery{
			Distributor: ctx.Self().Key,
			Cut:         m.Cut,
			From:        m.From,
			To:          m.To,
			Vehicle:     m.Vehicle,
			Departed:    m.Departed,
		}); err != nil {
			return nil, err
		}
		if _, err := ctx.Call(core.ID{Kind: KindDelivery, Key: m.Delivery},
			CompleteDelivery{Arrived: m.Arrived}); err != nil {
			return nil, err
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("cattle: Distributor: unknown message %T", msg)
	}
}

// deliveryActor tracks one transport of one cut between two locations.
type deliveryActor struct {
	state        deliveryState
	recordEvents bool
}

type deliveryState struct {
	Entry ItineraryEntry
	Cut   string
}

func (d *deliveryActor) State() any { return &d.state }

func (d *deliveryActor) Receive(ctx *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case CreateDelivery:
		d.state.Entry = ItineraryEntry{
			Delivery:    ctx.Self().Key,
			Distributor: m.Distributor,
			From:        m.From,
			To:          m.To,
			Vehicle:     m.Vehicle,
			Departed:    m.Departed,
		}
		d.state.Cut = m.Cut
		return nil, nil
	case CompleteDelivery:
		d.state.Entry.Arrived = m.Arrived
		// The delivery writes the completed leg into the cut's itinerary;
		// in the actor model this is an asynchronous cross-actor update.
		if _, err := ctx.Call(core.ID{Kind: KindMeatCut, Key: d.state.Cut}, AddItinerary{Entry: d.state.Entry}); err != nil {
			return nil, err
		}
		if d.recordEvents {
			if err := recordEvent(ctx, Event{
				Type:  ObjectEvent,
				Step:  StepShipping,
				EPCs:  []string{d.state.Cut},
				Where: d.state.Entry.Distributor,
				At:    d.state.Entry.Departed,
			}); err != nil {
				return nil, err
			}
			if err := recordEvent(ctx, Event{
				Type:  ObjectEvent,
				Step:  StepReceiving,
				EPCs:  []string{d.state.Cut},
				Where: d.state.Entry.To,
				At:    m.Arrived,
			}); err != nil {
				return nil, err
			}
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("cattle: Delivery: unknown message %T", msg)
	}
}

// retailerActor receives cuts and assembles consumer products
// (requirement 5: manage transformation into meat products).
type retailerActor struct {
	state        retailerState
	recordEvents bool
}

type retailerState struct {
	Cuts []string
}

func (r *retailerActor) State() any { return &r.state }

func (r *retailerActor) Receive(ctx *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case ReceiveCut:
		if _, err := ctx.Call(core.ID{Kind: KindMeatCut, Key: m.Cut}, SetHolder{Holder: ctx.Self().Key}); err != nil {
			return nil, err
		}
		r.state.Cuts = append(r.state.Cuts, m.Cut)
		return nil, nil
	case MakeProduct:
		for _, cut := range m.Cuts {
			if !contains(r.state.Cuts, cut) {
				return nil, fmt.Errorf("cattle: retailer %s has not received cut %s", ctx.Self().Key, cut)
			}
		}
		rec := MeatProductRecord{
			ID:       m.Product,
			Retailer: ctx.Self().Key,
			Name:     m.Name,
			Cuts:     append([]string(nil), m.Cuts...),
		}
		if _, err := ctx.Call(core.ID{Kind: KindMeatProduct, Key: m.Product}, CreateProduct{Record: rec}); err != nil {
			return nil, err
		}
		if r.recordEvents {
			if err := recordEvent(ctx, Event{
				Type:   AggregationEvent,
				Step:   StepRetailSelling,
				EPCs:   []string{m.Product},
				Parent: m.Product,
				Inputs: append([]string(nil), m.Cuts...),
				Where:  ctx.Self().Key,
				At:     m.MadeAt,
			}); err != nil {
				return nil, err
			}
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("cattle: Retailer: unknown message %T", msg)
	}
}

// meatProductActor is the Figure 3 representation of a retail product.
type meatProductActor struct {
	state MeatProductRecord
}

func (p *meatProductActor) State() any { return &p.state }

func (p *meatProductActor) Receive(_ *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case CreateProduct:
		p.state = m.Record
		return nil, nil
	case GetProduct:
		rec := p.state
		rec.Cuts = append([]string(nil), p.state.Cuts...)
		return rec, nil
	default:
		return nil, fmt.Errorf("cattle: MeatProduct: unknown message %T", msg)
	}
}

func contains(s []string, v string) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}
