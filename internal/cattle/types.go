// Package cattle implements the paper's second case study: beef cattle
// tracking and tracing across a supply chain of farmers, slaughterhouses,
// distributors, retailers, and consumers.
//
// Two alternative models are implemented, exactly the design trade-off
// §4.3 explores:
//
//   - The actor model (Figure 3): meat cuts and meat products are actors.
//     Every read of cut information is an asynchronous message to the
//     MeatCut actor, and a consumer trace is a graph navigation across
//     actors (product -> cuts -> cow -> farmer).
//   - The object model (Figure 5): meat cuts and products are versioned
//     non-actor records encapsulated in the custodian actor of the moment
//     (slaughterhouse, then distributor, then retailer). Transfers copy
//     the record to the next custodian; reads are local to whoever holds
//     a version. Communication drops at the cost of copies and data
//     redundancy.
//
// Cow ownership transfer — the paper's §4.4 relationship-constraint
// example ("when a farmer sells a cow") — is offered in the three modes
// that section recommends: multi-actor transactions, a single-actor
// registry, and a compensating workflow.
package cattle

import (
	"time"

	"aodb/internal/codec"
)

// GeoPoint is one collar GPS reading.
type GeoPoint struct {
	At  time.Time
	Lat float64
	Lon float64
}

// Fence is a rectangular geo-fence for pasture control (functional
// requirement 2: identify whether a cow is in an appropriate area).
type Fence struct {
	MinLat, MaxLat float64
	MinLon, MaxLon float64
	Enabled        bool
}

// Contains reports whether p lies inside the fence.
func (f Fence) Contains(p GeoPoint) bool {
	return p.Lat >= f.MinLat && p.Lat <= f.MaxLat && p.Lon >= f.MinLon && p.Lon <= f.MaxLon
}

// CowStatus is a cow's lifecycle state.
type CowStatus string

// Cow lifecycle states.
const (
	CowAlive       CowStatus = "alive"
	CowSlaughtered CowStatus = "slaughtered"
)

// CowInfo is the queryable summary of a cow.
type CowInfo struct {
	Key            string
	Owner          string // farmer actor key
	Breed          string
	Born           time.Time
	Status         CowStatus
	Slaughterhouse string
	Readings       int
}

// ItineraryEntry records one leg of a meat cut's transport.
type ItineraryEntry struct {
	Delivery    string // delivery actor key (actor model) or delivery id
	Distributor string
	From        string
	To          string
	Vehicle     string
	Departed    time.Time
	Arrived     time.Time
}

// MeatCutRecord is the (possibly versioned) state of a meat cut. In the
// actor model exactly one MeatCut actor holds it; in the object model
// each custodian keeps its own version, bumping Version on copy.
type MeatCutRecord struct {
	ID             string
	Cow            string
	Slaughterhouse string
	WeightKg       float64
	CutAt          time.Time
	Itinerary      []ItineraryEntry
	Holder         string // current custodian actor key
	Version        int
}

// MeatProductRecord is a retail product assembled from meat cuts.
type MeatProductRecord struct {
	ID       string
	Retailer string
	Name     string
	Cuts     []string // cut IDs
	// CutCopies embeds full cut records in the object model so consumer
	// traces need no further messaging.
	CutCopies []MeatCutRecord
}

// Trace is the consumer-facing provenance answer (functional requirement
// 6: tracing information about meat products over the whole chain).
type Trace struct {
	Product MeatProductRecord
	Cuts    []MeatCutRecord
	Cows    []CowInfo
	Hops    int // actor calls needed to assemble the trace
}

// FenceAlert notifies a farmer that a cow left its pasture fence.
type FenceAlert struct {
	Cow   string
	Point GeoPoint
}

// PrevPosition is returned by CollarReading: the cow's position before
// this reading, so spatial index entries can be relocated.
type PrevPosition struct {
	Point GeoPoint
	Valid bool
}

// Messages for the actor-model kinds.
type (
	// RegisterCow initializes a Cow actor.
	RegisterCow struct {
		Owner string
		Breed string
		Born  time.Time
	}
	// CollarReading appends a GPS reading (requirement 1).
	CollarReading struct{ Point GeoPoint }
	// SetFence configures the cow's geo-fence.
	SetFence struct{ Fence Fence }
	// GetTrajectory returns the recent GPS window (requirement 2).
	GetTrajectory struct{ Limit int }
	// GetCowInfo returns the cow summary.
	GetCowInfo struct{}
	// SetOwner changes the cow's owner (used by constraint workflows).
	SetOwner struct{ Owner string }
	// MarkSlaughtered finalizes the cow at a slaughterhouse.
	MarkSlaughtered struct{ Slaughterhouse string }

	// AddCow / RemoveCow maintain the farmer's herd set.
	AddCow    struct{ Cow string }
	RemoveCow struct{ Cow string }
	// ListCows returns the herd (sorted).
	ListCows struct{}
	// GetFenceAlerts returns fence violations received so far.
	GetFenceAlerts struct{}

	// Slaughter processes a cow into cuts (requirement 3). CutAt is when
	// the cuts were made; the zero time means now, by the runtime clock.
	Slaughter struct {
		Cow       string
		CutIDs    []string
		CutWeight float64
		CutAt     time.Time
	}

	// CreateCut initializes a MeatCut actor (actor model).
	CreateCut struct{ Record MeatCutRecord }
	// AddItinerary appends a transport leg (requirement 4).
	AddItinerary struct{ Entry ItineraryEntry }
	// SetHolder updates the cut's custodian.
	SetHolder struct{ Holder string }
	// GetCut returns the cut record.
	GetCut struct{}

	// Dispatch creates a Delivery actor moving a cut (requirement 4).
	Dispatch struct {
		Delivery string // delivery actor key
		Cut      string
		From     string
		To       string
		Vehicle  string
		Departed time.Time
		Arrived  time.Time
	}

	// CreateDelivery initializes a Delivery actor.
	CreateDelivery struct {
		Distributor string
		Cut         string
		From        string
		To          string
		Vehicle     string
		Departed    time.Time
	}
	// CompleteDelivery records arrival and updates the cut's itinerary.
	CompleteDelivery struct{ Arrived time.Time }

	// ReceiveCut records custody of a cut at the retailer (requirement 5).
	ReceiveCut struct{ Cut string }
	// MakeProduct assembles a product from received cuts.
	MakeProduct struct {
		Product string // product actor key
		Name    string
		Cuts    []string
		MadeAt  time.Time // when the product was made, its event's time
	}

	// CreateProduct initializes a MeatProduct actor.
	CreateProduct struct{ Record MeatProductRecord }
	// GetProduct returns the product record.
	GetProduct struct{}
)

func init() {
	for _, v := range []any{
		GeoPoint{}, Fence{}, CowInfo{}, ItineraryEntry{}, MeatCutRecord{}, MeatProductRecord{},
		Trace{}, FenceAlert{}, PrevPosition{},
		RegisterCow{}, CollarReading{}, SetFence{}, GetTrajectory{}, GetCowInfo{}, SetOwner{}, MarkSlaughtered{},
		AddCow{}, RemoveCow{}, ListCows{}, GetFenceAlerts{},
		Slaughter{},
		CreateCut{}, AddItinerary{}, SetHolder{}, GetCut{},
		Dispatch{},
		CreateDelivery{}, CompleteDelivery{},
		ReceiveCut{}, MakeProduct{},
		CreateProduct{}, GetProduct{},
		[]GeoPoint{}, []ItineraryEntry{}, []MeatCutRecord{}, []CowInfo{}, []FenceAlert{}, []string{},
	} {
		codec.Register(v)
	}
}
