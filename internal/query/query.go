// Package query implements multi-actor query execution over the runtime.
//
// The paper notes that "declarative queries cannot access data across
// actors, and thus needed to be decomposed by the developer" — this
// package is that decomposition layer, packaged once instead of per
// application: scatter-gather fan-out over a set of actors, index-driven
// selection, and streaming aggregation of the partial results.
package query

import (
	"context"
	"errors"
	"fmt"

	"aodb/internal/core"
	"aodb/internal/index"
)

// Result pairs one actor's answer with its identity.
type Result = core.CallResult

// Engine executes multi-actor queries.
type Engine struct {
	rt *core.Runtime
}

// NewEngine returns a query engine over rt.
func NewEngine(rt *core.Runtime) *Engine {
	return &Engine{rt: rt}
}

// FanOut sends msg to every target and collects results in target order:
// one frame per destination silo, however many targets (see
// core.Runtime.CallMany). Individual actor failures are recorded per
// result, not returned as a query failure, so one broken actor cannot hide
// the rest of the answer.
func (e *Engine) FanOut(ctx context.Context, targets []core.ID, msg any) []Result {
	return e.rt.CallMany(ctx, targets, msg)
}

// ByIndex resolves value through ix to actor keys of the given kind and
// fans msg out to them.
func (e *Engine) ByIndex(ctx context.Context, ix *index.Index, kind, value string, msg any) ([]Result, error) {
	keys, err := ix.Lookup(ctx, value)
	if err != nil {
		return nil, err
	}
	targets := make([]core.ID, len(keys))
	for i, k := range keys {
		targets[i] = core.ID{Kind: kind, Key: k}
	}
	return e.FanOut(ctx, targets, msg), nil
}

// Reduce folds successful fan-out results with fn, returning how many
// actors contributed and the first error encountered (if any).
func Reduce[T any](results []Result, zero T, fn func(acc T, r Result) T) (T, int, error) {
	acc := zero
	n := 0
	var firstErr error
	for _, r := range results {
		if r.Err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("query: %s: %w", r.Actor, r.Err)
			}
			continue
		}
		acc = fn(acc, r)
		n++
	}
	return acc, n, firstErr
}

// Collect extracts successfully returned values of type T from results,
// in order, and reports the first type mismatch as an error.
func Collect[T any](results []Result) ([]T, error) {
	out := make([]T, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			continue
		}
		v, ok := r.Value.(T)
		if !ok {
			return nil, fmt.Errorf("query: %s returned %T, want %T", r.Actor, r.Value, *new(T))
		}
		out = append(out, v)
	}
	return out, nil
}

// Errs joins the errors in results, or returns nil when all succeeded.
func Errs(results []Result) error {
	var errs []error
	for _, r := range results {
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", r.Actor, r.Err))
		}
	}
	return errors.Join(errs...)
}
