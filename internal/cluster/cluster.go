// Package cluster is the membership surface the rest of the runtime wires
// against: which silos are in the active view, and when one should be
// treated as suspect or dead. Two providers exist — StaticView, a silo set
// fixed at boot, and the SWIM agent in internal/gossip — plus
// FilteredView, a health veto layered over either. View changes are
// delivered to subscribers; the boot code uses them to evict a dead
// silo's directory registrations so its actors can re-activate elsewhere.
package cluster

import "sort"

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

// StaticView is a minimal membership provider for single-process setups
// that do not need heartbeats: the silo set is fixed at construction.
type StaticView struct {
	silos []string
}

// NewStaticView returns a fixed active-silo view (sorted).
func NewStaticView(silos ...string) *StaticView {
	s := append([]string(nil), silos...)
	sort.Strings(s)
	return &StaticView{silos: s}
}

// View returns the fixed silo set, shared.
func (s *StaticView) View() []string { return s.silos }

// Subscribe is a no-op: a static view never changes, so no events fire.
// It exists so StaticView satisfies Provider and boot code can wire a
// static or gossip-fed view through the identical subscription path.
func (s *StaticView) Subscribe(func(Event)) {}

// Viewer supplies an active silo set; StaticView and the gossip agent
// both satisfy it, as does core's runtime-internal list. A view is
// read-only: it may be the provider's own slice, shared by every caller,
// so a caller that needs to change it copies it first.
type Viewer interface {
	View() []string
}

// Provider is the full membership surface consumers wire against: a live
// silo view plus change notifications. The gossip agent, StaticView
// (events never fire), and FilteredView (events delegate to the base) all
// satisfy it, so call sites select a provider
// once at boot and never branch again.
type Provider interface {
	Viewer
	Subscribe(fn func(Event))
}

// FilteredView layers a health veto over another view provider: silos the
// reject predicate currently vetoes (typically ones whose transport
// circuit breaker is open) are hidden from placement, so new activations
// land on silos that are actually answering. If the veto would empty the
// view entirely, the unfiltered view is returned instead — degrading to
// ordinary fail-and-retry routing (which is also what lets half-open
// breakers see probe traffic) rather than reporting an empty cluster.
type FilteredView struct {
	base   Viewer
	reject func(silo string) bool
}

// NewFilteredView wraps base so that silos with reject(name) == true are
// excluded from View. A nil reject filters nothing.
func NewFilteredView(base Viewer, reject func(silo string) bool) *FilteredView {
	return &FilteredView{base: base, reject: reject}
}

// View returns base's view minus vetoed silos (falling back to the full
// view when everything is vetoed). Only a veto copies the base's view.
func (f *FilteredView) View() []string {
	all := f.base.View()
	if f.reject == nil {
		return all
	}
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
		return all
	}
	return kept
}

// Subscribe delegates to the base provider when it has one; a filtered
// view over a plain Viewer simply never fires events. The veto itself is
// a read-time filter, not a membership change, so it produces no events
// of its own.
func (f *FilteredView) Subscribe(fn func(Event)) {
	if p, ok := f.base.(Provider); ok {
		p.Subscribe(fn)
	}
}
