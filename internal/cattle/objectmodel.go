package cattle

import (
	"fmt"
	"time"

	"aodb/internal/codec"
	"aodb/internal/core"
)

// This file implements the Figure 5 alternative model: meat cuts and meat
// products are inanimate, frequently accessed entities represented as
// versioned non-actor objects encapsulated in custodian actors. When a
// cut is transferred down the supply chain, its record is *copied* to the
// next custodian, which bumps the version and updates it locally from
// then on. Reads of cut information by the custodian are local; the
// messaging a Figure 3 MeatCut actor would require is gone, at the cost
// of redundant copies — exactly the trade-off §4.3 states.

// Object-model kinds.
const (
	KindObjSlaughterhouse = "ObjSlaughterhouse"
	KindObjDistributor    = "ObjDistributor"
	KindObjRetailer       = "ObjRetailer"
)

// Object-model messages.
type (
	// ObjSlaughter processes a cow into locally held cut records. CutAt
	// is when the cuts were made; the zero time means now, by the runtime
	// clock.
	ObjSlaughter struct {
		Cow       string
		CutIDs    []string
		CutWeight float64
		CutAt     time.Time
	}
	// ObjTransferCut hands a cut record to the next custodian. The
	// receiving actor stores a new version of the record.
	ObjTransferCut struct{ Record MeatCutRecord }
	// ObjDeliver records a transport leg on the distributor's local copy.
	ObjDeliver struct {
		Cut   string
		Entry ItineraryEntry
	}
	// ObjGetCut reads the custodian's local version of a cut.
	ObjGetCut struct{ Cut string }
	// ObjSendCut asks the custodian to transfer a cut onward.
	ObjSendCut struct {
		Cut    string
		ToKind string
		ToKey  string
	}
	// ObjMakeProduct assembles a product embedding full cut copies.
	ObjMakeProduct struct {
		Product string
		Name    string
		Cuts    []string
	}
	// ObjGetProduct reads a product record (with embedded cut copies).
	ObjGetProduct struct{ Product string }
)

func init() {
	for _, v := range []any{
		ObjSlaughter{}, ObjTransferCut{}, ObjDeliver{}, ObjGetCut{}, ObjSendCut{},
		ObjMakeProduct{}, ObjGetProduct{},
	} {
		codec.Register(v)
	}
}

// custodian is the shared cut-record store embedded in each object-model
// actor.
type custodian struct {
	Cuts map[string]MeatCutRecord
}

func (c *custodian) ensure() {
	if c.Cuts == nil {
		c.Cuts = make(map[string]MeatCutRecord)
	}
}

func (c *custodian) receive(ctx *core.Context, msg any) (any, bool, error) {
	c.ensure()
	switch m := msg.(type) {
	case ObjTransferCut:
		rec := m.Record
		rec.Holder = ctx.Self().Key
		rec.Version++
		rec.Itinerary = append([]ItineraryEntry(nil), m.Record.Itinerary...)
		c.Cuts[rec.ID] = rec
		return nil, true, nil
	case ObjGetCut:
		rec, ok := c.Cuts[m.Cut]
		if !ok {
			return nil, true, fmt.Errorf("cattle: %s holds no version of cut %s", ctx.Self().Key, m.Cut)
		}
		return rec, true, nil
	case ObjSendCut:
		rec, ok := c.Cuts[m.Cut]
		if !ok {
			return nil, true, fmt.Errorf("cattle: %s holds no version of cut %s", ctx.Self().Key, m.Cut)
		}
		if _, err := ctx.Call(core.ID{Kind: m.ToKind, Key: m.ToKey}, ObjTransferCut{Record: rec}); err != nil {
			return nil, true, err
		}
		return nil, true, nil
	}
	return nil, false, nil
}

// objSlaughterhouseActor creates cut records as local objects.
type objSlaughterhouseActor struct {
	state objSlaughterhouseState
}

type objSlaughterhouseState struct {
	Name string
	custodian
	Slaughtered []string
}

func (s *objSlaughterhouseActor) State() any { return &s.state }

func (s *objSlaughterhouseActor) Receive(ctx *core.Context, msg any) (any, error) {
	if resp, handled, err := s.state.receive(ctx, msg); handled {
		return resp, err
	}
	switch m := msg.(type) {
	case CreateSlaughterhouse:
		s.state.Name = m.Name
		return nil, nil
	case ObjSlaughter:
		s.state.ensure()
		if _, err := ctx.Call(core.ID{Kind: KindCow, Key: m.Cow},
			MarkSlaughtered{Slaughterhouse: ctx.Self().Key}); err != nil {
			return nil, err
		}
		cutAt := cutTime(ctx, m.CutAt)
		for _, cutID := range m.CutIDs {
			s.state.Cuts[cutID] = MeatCutRecord{
				ID:             cutID,
				Cow:            m.Cow,
				Slaughterhouse: ctx.Self().Key,
				WeightKg:       m.CutWeight,
				CutAt:          cutAt,
				Holder:         ctx.Self().Key,
				Version:        1,
			}
		}
		s.state.Slaughtered = append(s.state.Slaughtered, m.Cow)
		return m.CutIDs, nil
	case GetSlaughtered:
		return append([]string(nil), s.state.Slaughtered...), nil
	default:
		return nil, fmt.Errorf("cattle: ObjSlaughterhouse: unknown message %T", msg)
	}
}

// objDistributorActor updates its local cut copies as it delivers them.
type objDistributorActor struct {
	state objDistributorState
}

type objDistributorState struct {
	Name string
	custodian
	Deliveries int
}

func (d *objDistributorActor) State() any { return &d.state }

func (d *objDistributorActor) Receive(ctx *core.Context, msg any) (any, error) {
	if resp, handled, err := d.state.receive(ctx, msg); handled {
		return resp, err
	}
	switch m := msg.(type) {
	case CreateDistributor:
		d.state.Name = m.Name
		return nil, nil
	case ObjDeliver:
		d.state.ensure()
		rec, ok := d.state.Cuts[m.Cut]
		if !ok {
			return nil, fmt.Errorf("cattle: distributor %s holds no version of cut %s", ctx.Self().Key, m.Cut)
		}
		// The itinerary update is local: no message to any MeatCut actor.
		rec.Itinerary = append(rec.Itinerary, m.Entry)
		d.state.Cuts[m.Cut] = rec
		d.state.Deliveries++
		return nil, nil
	case GetDeliveries:
		return d.state.Deliveries, nil
	default:
		return nil, fmt.Errorf("cattle: ObjDistributor: unknown message %T", msg)
	}
}

// objRetailerActor assembles products embedding full cut copies, making
// the consumer trace a single local read.
type objRetailerActor struct {
	state objRetailerState
}

type objRetailerState struct {
	Name string
	custodian
	Products map[string]MeatProductRecord
}

func (r *objRetailerActor) State() any { return &r.state }

func (r *objRetailerActor) Receive(ctx *core.Context, msg any) (any, error) {
	if resp, handled, err := r.state.receive(ctx, msg); handled {
		return resp, err
	}
	if r.state.Products == nil {
		r.state.Products = make(map[string]MeatProductRecord)
	}
	switch m := msg.(type) {
	case CreateRetailer:
		r.state.Name = m.Name
		return nil, nil
	case ObjMakeProduct:
		r.state.ensure()
		rec := MeatProductRecord{
			ID:       m.Product,
			Retailer: ctx.Self().Key,
			Name:     m.Name,
			Cuts:     append([]string(nil), m.Cuts...),
			MadeAt:   ctx.Clock().Now(),
		}
		for _, cutID := range m.Cuts {
			cut, ok := r.state.Cuts[cutID]
			if !ok {
				return nil, fmt.Errorf("cattle: retailer %s holds no version of cut %s", ctx.Self().Key, cutID)
			}
			rec.CutCopies = append(rec.CutCopies, cut)
		}
		r.state.Products[m.Product] = rec
		return nil, nil
	case ObjGetProduct:
		rec, ok := r.state.Products[m.Product]
		if !ok {
			return nil, fmt.Errorf("cattle: retailer %s has no product %s", ctx.Self().Key, m.Product)
		}
		return rec, nil
	case GetProducts:
		out := make([]string, 0, len(r.state.Products))
		for p := range r.state.Products {
			out = append(out, p)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("cattle: ObjRetailer: unknown message %T", msg)
	}
}
