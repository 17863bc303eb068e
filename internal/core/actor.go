package core

import "aodb/internal/placement"

// Actor is the application-facing interface. Receive handles one message
// per turn; the runtime guarantees turns for one activation never overlap,
// so implementations need no internal locking for their own state.
// The returned value is delivered to the caller of Call; Tell discards it.
type Actor interface {
	Receive(ctx *Context, msg any) (any, error)
}

// Activator is implemented by actors that need setup when an activation is
// created (after persistent state, if any, has been loaded).
type Activator interface {
	OnActivate(ctx *Context) error
}

// Deactivator is implemented by actors that need teardown before an idle
// activation is collected (before auto-persisted state is written).
type Deactivator interface {
	OnDeactivate(ctx *Context) error
}

// Stateful is implemented by actors with persistent state. State must
// return a pointer to a JSON-serializable struct; the runtime unmarshals
// stored state into it at activation and marshals it on WriteState or
// deactivation, mirroring Orleans' grain state storage classes.
//
// A state that implements json.Marshaler or json.Unmarshaler is called
// directly, not through encoding/json, which would validate and copy
// MarshalJSON's output and scan the stored bytes before UnmarshalJSON. So
// MarshalJSON must return compact, valid JSON, and UnmarshalJSON must
// reject what it cannot read; the bytes are then the same either way.
type Stateful interface {
	State() any
}

// Factory creates a fresh, un-activated actor instance of some kind.
type Factory func() Actor

// PersistMode selects when a Stateful actor's state is written to the
// store. The paper's Section 5 discusses exactly this choice: creating
// structural entities wants immediate durability (explicit writes), while
// sensor data ingestion batches and writes on deactivation to keep cloud
// storage off the hot path.
type PersistMode int

// Persistence modes.
const (
	// PersistNone: state, if any, is never stored (pure in-memory actor).
	PersistNone PersistMode = iota
	// PersistExplicit: state is loaded at activation; writes happen only
	// when the actor calls Context.WriteState.
	PersistExplicit
	// PersistOnDeactivate: like PersistExplicit, and the runtime also
	// writes state when the activation is collected or shut down.
	PersistOnDeactivate
)

// kindConfig is the per-kind registration record.
type kindConfig struct {
	kind      string
	factory   Factory
	placement placement.Strategy // nil -> runtime default
	persist   PersistMode
}

// KindOption customizes a kind registration.
type KindOption func(*kindConfig)

// WithPlacement overrides the runtime's placement strategy for this kind.
// The paper's SHMDP sets prefer-local placement for sensor channels and
// aggregators to avoid remote calls on the ingestion path.
func WithPlacement(s placement.Strategy) KindOption {
	return func(c *kindConfig) { c.placement = s }
}

// WithPersistence sets when actor state is persisted.
func WithPersistence(m PersistMode) KindOption {
	return func(c *kindConfig) { c.persist = m }
}
