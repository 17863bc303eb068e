package cattle

import (
	"context"
	"fmt"
	"sort"

	"aodb/internal/codec"
	"aodb/internal/core"
	"aodb/internal/txn"
)

func init() {
	for _, v := range []any{
		txn.Prepare{}, txn.Commit{}, txn.Abort{},
		txnRemoveCow{}, txnAddCow{}, txnSetOwner{},
		RegAssign{}, RegTransfer{}, RegHerd{},
	} {
		codec.Register(v)
	}
}

// This file implements the paper's §4.4 principle for cross-actor
// relationship constraints, using its own example: a farmer sells a cow,
// and the Cow actor plus both Farmer actors must agree on ownership.
// Three enforcement modes are provided:
//
//   - TransferTxn: a 2PC transaction over the three actors. Either all
//     sides of the relationship update or none does.
//   - TransferViaRegistry: the relationship lives in a single
//     OwnershipRegistry actor, so one single-threaded turn updates it
//     atomically ("keep data related to a constraint in a single actor").
//   - TransferWorkflow: a compensating workflow (saga) over the three
//     actors; consistency is eventual and a mid-flight reader can observe
//     an intermediate state.

// Transaction operation payloads staged inside participants.
type (
	txnRemoveCow struct{ Cow string }
	txnAddCow    struct{ Cow string }
	txnSetOwner  struct{ Owner string }
)

// receiveTxn handles 2PC traffic for the Farmer actor.
func (f *farmerActor) receiveTxn(ctx *core.Context, msg any) (any, error) {
	resp, handled, err := f.txnState.Handle(ctx.Clock().Now(), msg, txn.Hooks{
		Validate: func(op any) error {
			switch o := op.(type) {
			case txnRemoveCow:
				if !f.state.Cows[o.Cow] {
					return fmt.Errorf("cattle: farmer %s does not own %s", ctx.Self().Key, o.Cow)
				}
			case txnAddCow:
				// Always valid.
			default:
				return fmt.Errorf("cattle: farmer cannot stage %T", op)
			}
			return nil
		},
		Apply: func(op any) error {
			switch o := op.(type) {
			case txnRemoveCow:
				delete(f.state.Cows, o.Cow)
			case txnAddCow:
				f.state.Cows[o.Cow] = true
			}
			return nil
		},
	})
	if handled {
		return resp, err
	}
	return nil, fmt.Errorf("cattle: Farmer: unknown message %T", msg)
}

// receiveTxn handles 2PC traffic for the Cow actor.
func (c *cowActor) receiveTxn(ctx *core.Context, msg any) (any, error) {
	resp, handled, err := c.txnState.Handle(ctx.Clock().Now(), msg, txn.Hooks{
		Validate: func(op any) error {
			if _, ok := op.(txnSetOwner); !ok {
				return fmt.Errorf("cattle: cow cannot stage %T", op)
			}
			if c.state.Status != CowAlive {
				return fmt.Errorf("cattle: cannot transfer %s cow", c.state.Status)
			}
			return nil
		},
		Apply: func(op any) error {
			c.state.Owner = op.(txnSetOwner).Owner
			return nil
		},
	})
	if handled {
		return resp, err
	}
	return nil, fmt.Errorf("cattle: Cow: unknown message %T", msg)
}

// TransferTxn moves a cow between farmers atomically with a 2PC
// transaction across the Cow and both Farmer actors.
func TransferTxn(ctx context.Context, c *txn.Coordinator, cow, from, to string) error {
	return c.Run(ctx, []txn.Op{
		{Target: core.ID{Kind: KindCow, Key: cow}, Op: txnSetOwner{Owner: to}},
		{Target: core.ID{Kind: KindFarmer, Key: from}, Op: txnRemoveCow{Cow: cow}},
		{Target: core.ID{Kind: KindFarmer, Key: to}, Op: txnAddCow{Cow: cow}},
	})
}

// KindOwnershipRegistry is the single-actor constraint mode: the whole
// farmer<->cow relation lives in one actor.
const KindOwnershipRegistry = "OwnershipRegistry"

// Registry messages.
type (
	// RegAssign records initial ownership of a cow.
	RegAssign struct{ Cow, Farmer string }
	// RegTransfer atomically moves a cow between farmers.
	RegTransfer struct{ Cow, From, To string }
	// RegHerd returns a farmer's cows (sorted).
	RegHerd struct{ Farmer string }
)

type ownershipRegistryActor struct {
	state registryState
}

type registryState struct {
	OwnerOf map[string]string          // cow -> farmer
	Herd    map[string]map[string]bool // farmer -> cows
}

func (r *ownershipRegistryActor) State() any { return &r.state }

func (r *ownershipRegistryActor) ensure() {
	if r.state.OwnerOf == nil {
		r.state.OwnerOf = make(map[string]string)
	}
	if r.state.Herd == nil {
		r.state.Herd = make(map[string]map[string]bool)
	}
}

func (r *ownershipRegistryActor) Receive(_ *core.Context, msg any) (any, error) {
	r.ensure()
	switch m := msg.(type) {
	case RegAssign:
		if cur, ok := r.state.OwnerOf[m.Cow]; ok {
			return nil, fmt.Errorf("cattle: cow %s already owned by %s", m.Cow, cur)
		}
		r.state.OwnerOf[m.Cow] = m.Farmer
		r.herdOf(m.Farmer)[m.Cow] = true
		return nil, nil
	case RegTransfer:
		if r.state.OwnerOf[m.Cow] != m.From {
			return nil, fmt.Errorf("cattle: cow %s not owned by %s", m.Cow, m.From)
		}
		// Both sides of the relationship change in one single-threaded
		// turn: this is the atomicity the single-actor principle buys.
		delete(r.herdOf(m.From), m.Cow)
		r.herdOf(m.To)[m.Cow] = true
		r.state.OwnerOf[m.Cow] = m.To
		return nil, nil
	case RegHerd:
		herd := r.herdOf(m.Farmer)
		out := make([]string, 0, len(herd))
		for c := range herd {
			out = append(out, c)
		}
		sort.Strings(out)
		return out, nil
	default:
		return nil, fmt.Errorf("cattle: OwnershipRegistry: unknown message %T", msg)
	}
}

func (r *ownershipRegistryActor) herdOf(farmer string) map[string]bool {
	h, ok := r.state.Herd[farmer]
	if !ok {
		h = make(map[string]bool)
		r.state.Herd[farmer] = h
	}
	return h
}

// TransferWorkflow moves a cow between farmers as a compensating
// workflow: remove from seller, set owner on cow, add to buyer. On any
// failure, completed steps are compensated in reverse. Between steps a
// reader can observe the intermediate state — the relaxed consistency
// §4.4 attributes to update workflows.
func TransferWorkflow(ctx context.Context, rt *core.Runtime, cow, from, to string) error {
	cowID := core.ID{Kind: KindCow, Key: cow}
	fromID := core.ID{Kind: KindFarmer, Key: from}
	toID := core.ID{Kind: KindFarmer, Key: to}

	if _, err := rt.Call(ctx, fromID, RemoveCow{Cow: cow}); err != nil {
		return fmt.Errorf("cattle: workflow step 1 (remove from seller): %w", err)
	}
	if _, err := rt.Call(ctx, cowID, SetOwner{Owner: to}); err != nil {
		// Compensate step 1.
		if _, cerr := rt.Call(ctx, fromID, AddCow{Cow: cow}); cerr != nil {
			return fmt.Errorf("cattle: workflow failed AND compensation failed (%v): %w", cerr, err)
		}
		return fmt.Errorf("cattle: workflow step 2 (set owner): %w", err)
	}
	if _, err := rt.Call(ctx, toID, AddCow{Cow: cow}); err != nil {
		if _, cerr := rt.Call(ctx, cowID, SetOwner{Owner: from}); cerr != nil {
			return fmt.Errorf("cattle: workflow failed AND compensation failed (%v): %w", cerr, err)
		}
		if _, cerr := rt.Call(ctx, fromID, AddCow{Cow: cow}); cerr != nil {
			return fmt.Errorf("cattle: workflow failed AND compensation failed (%v): %w", cerr, err)
		}
		return fmt.Errorf("cattle: workflow step 3 (add to buyer): %w", err)
	}
	return nil
}
