// Package cluster is the membership surface the rest of the runtime wires
// against: one published View of which silos are in the cluster, and the
// events that mark a silo suspect or dead. The membership owner — a static
// view fixed at boot, or the SWIM agent in internal/gossip — builds a View
// once per change; placement, rebalancing and replication read it, and
// none of them re-derives it. FilteredView is a health veto layered over
// either owner at read time.
package cluster

import "aodb/internal/placement"

// SiloStatus is the lifecycle state of a silo in a membership view.
type SiloStatus string

// Silo lifecycle states.
const (
	StatusActive  SiloStatus = "active"
	StatusSuspect SiloStatus = "suspect"
	StatusDead    SiloStatus = "dead"
)

// Event describes a membership view change.
type Event struct {
	Silo   string
	Status SiloStatus
}

// View is one published membership. It is immutable and shared by every
// reader, so nobody writes to it.
type View struct {
	// Seq numbers the owner's views: each change publishes Seq+1.
	Seq uint64
	// Members are the silos in the view, sorted and distinct.
	Members []string
	// Ring is the consistent-hash ring over Members, which homes
	// replicated state keys. Nil when the view has no member, or when
	// its owner homes no replica on it (the chaos soak's crash view).
	Ring *placement.Ring
}

// View returns v itself: a view that never changes is its own Viewer.
func (v *View) View() *View { return v }

// Next returns the view that follows v over members: sequence number
// Seq+1, and a ring derived from v's so that only joining members are
// hashed. v may be nil, which makes the first view (Seq 1).
func (v *View) Next(members []string) *View {
	next := &View{Seq: 1}
	prev := &placement.Ring{}
	if v != nil {
		next.Seq = v.Seq + 1
		if v.Ring != nil {
			prev = v.Ring
		}
	}
	if ring, err := prev.WithMembers(members); err == nil {
		next.Ring, next.Members = ring, ring.Members()
	}
	return next
}

// NewStaticView returns a fixed view over silos, for deployments whose
// silo set is known at boot. Order and duplicates are normalized away.
func NewStaticView(silos ...string) *View { return (*View)(nil).Next(silos) }

// Viewer supplies the current published view: a fixed View, the gossip
// agent, and FilteredView all satisfy it. A reader calls View again for
// each decision rather than keeping the result, so it follows changes.
type Viewer interface {
	View() *View
}

// FilteredView layers a health veto over another view: silos the reject
// predicate currently vetoes (typically ones whose transport circuit
// breaker is open) are hidden from placement, so new activations land on
// silos that are actually answering. If the veto would empty the view
// entirely, the unfiltered view is returned instead — degrading to
// ordinary fail-and-retry routing (which is also what lets half-open
// breakers see probe traffic) rather than reporting an empty cluster.
type FilteredView struct {
	base   Viewer
	reject func(silo string) bool
}

// NewFilteredView wraps base so that silos with reject(name) == true are
// excluded from the view's Members. A nil reject filters nothing.
func NewFilteredView(base Viewer, reject func(silo string) bool) *FilteredView {
	return &FilteredView{base: base, reject: reject}
}

// View returns base's view minus vetoed members (falling back to the
// full view when everything is vetoed). Only a veto copies the base's
// view; the copy keeps the base's Seq and Ring, since a veto steers
// placement and moves no replica.
func (f *FilteredView) View() *View {
	base := f.base.View()
	if f.reject == nil {
		return base
	}
	all := base.Members
	var kept []string // nil until the first veto
	for i, s := range all {
		if !f.reject(s) {
			if kept != nil {
				kept = append(kept, s)
			}
		} else if kept == nil {
			kept = append(make([]string, 0, len(all)-1), all[:i]...)
		}
	}
	if len(kept) == 0 {
		return base
	}
	v := *base
	v.Members = kept
	return &v
}
