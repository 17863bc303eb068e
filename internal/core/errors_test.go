package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"aodb/internal/transport"
)

// TestTransientTaxonomy pins down the retryability classification every
// layer of the runtime relies on. Each error the call path can produce is
// either transient (retry may succeed) or permanent (retry is wasted or
// harmful), and wrapping with %w must preserve the verdict.
func TestTransientTaxonomy(t *testing.T) {
	cases := []struct {
		name      string
		err       error
		transient bool
	}{
		{"nil", nil, false},
		{"wrong silo race", &wrongSiloError{Actor: "K/a", Winner: "s2"}, true},
		{"explicit transient mark", fmt.Errorf("core: lost to crash: %w", ErrTransient), true},
		{"transport unreachable", &transport.UnreachableError{Node: "s1", Err: errors.New("dial refused")}, true},
		{"circuit open", transport.ErrCircuitOpen, true},
		{"no silos", ErrNoSilos, true},
		{"stale activation fence", ErrStaleActivation, true},
		{"deadline exceeded", context.DeadlineExceeded, true},
		{"unknown kind", ErrUnknownKind, false},
		{"shutdown", ErrShutdown, false},
		{"call cycle", ErrCallCycle, false},
		{"actor panic", &PanicError{Actor: "K/a", Value: "boom"}, false},
		{"application error", errors.New("handler said no"), false},
		{"context canceled", context.Canceled, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Transient(tc.err); got != tc.transient {
				t.Fatalf("Transient(%v) = %v, want %v", tc.err, got, tc.transient)
			}
			if tc.err == nil {
				return
			}
			wrapped := fmt.Errorf("outer: %w", tc.err)
			if got := Transient(wrapped); got != tc.transient {
				t.Fatalf("Transient(wrapped %v) = %v, want %v", tc.err, got, tc.transient)
			}
		})
	}
}

// TestSentinelMatching: the exported sentinels work with errors.Is/As
// through wrapping, and the marker Is methods don't overreach.
func TestSentinelMatching(t *testing.T) {
	perr := error(&PanicError{Actor: "K/a", Value: 42, Stack: "stack"})
	if !errors.Is(perr, ErrActorPanic) {
		t.Fatal("PanicError does not match ErrActorPanic")
	}
	if errors.Is(perr, ErrTransient) {
		t.Fatal("PanicError must not match ErrTransient")
	}
	var asPanic *PanicError
	if !errors.As(fmt.Errorf("turn failed: %w", perr), &asPanic) || asPanic.Value != 42 {
		t.Fatalf("errors.As through wrap failed: %+v", asPanic)
	}

	werr := error(&wrongSiloError{Actor: "K/a", Winner: "s2"})
	if !errors.Is(werr, ErrTransient) {
		t.Fatal("wrongSiloError does not match ErrTransient")
	}
	if errors.Is(werr, ErrActorPanic) {
		t.Fatal("wrongSiloError must not match ErrActorPanic")
	}
	if !IsWrongSilo(fmt.Errorf("routing: %w", werr)) {
		t.Fatal("IsWrongSilo fails through wrapping")
	}
	if IsWrongSilo(ErrTransient) {
		t.Fatal("IsWrongSilo matches the bare transient sentinel")
	}
}

// TestCallErrorsKeepClassification: errors surfaced by real Calls stay
// classified, on the first attempt and after the runtime wraps them with
// routing context.
func TestCallErrorsKeepClassification(t *testing.T) {
	rt := newTestRuntime(t, Config{})
	registerCounter(t, rt)
	// No silos: the call must fail ErrNoSilos and classify transient.
	_, err := callOnce(context.Background(), rt, ID{"Counter", "a"}, getMsg{})
	if !errors.Is(err, ErrNoSilos) || !Transient(err) {
		t.Fatalf("no-silos attempt: %v (transient=%v)", err, Transient(err))
	}
	_, err = rt.Call(context.Background(), ID{"Counter", "a"}, getMsg{})
	if !errors.Is(err, ErrNoSilos) || !Transient(err) {
		t.Fatalf("no-silos call: %v (transient=%v)", err, Transient(err))
	}
	// Unknown kind is permanent.
	_, err = rt.Call(context.Background(), ID{"Ghost", "a"}, getMsg{})
	if !errors.Is(err, ErrUnknownKind) || Transient(err) {
		t.Fatalf("unknown-kind call: %v (transient=%v)", err, Transient(err))
	}
}
