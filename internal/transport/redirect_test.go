package transport

import (
	"context"
	"errors"
	"fmt"
	"testing"
)

type redirectingError struct{ winner string }

func (e *redirectingError) Error() string          { return "wrong silo: try " + e.winner }
func (e *redirectingError) RedirectTarget() string { return e.winner }

// TestTCPRedirectSurvivesWire: a handler error carrying a redirect
// target (core's wrong-silo error) must come back to the caller as a
// typed RedirectError — gob flattens error values to strings, so the
// target rides in its own frame field.
func TestTCPRedirectSurvivesWire(t *testing.T) {
	caller, err := NewTCPWithOptions("caller", "127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	peer, err := NewTCPWithOptions("peer", "127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()
	if err := peer.Register("peer", func(ctx context.Context, req Request) (any, error) {
		if req.Payload.(testPayload).N == 1 {
			return nil, fmt.Errorf("resolve: %w", &redirectingError{winner: "silo-9"})
		}
		return nil, errors.New("boom")
	}); err != nil {
		t.Fatal(err)
	}
	caller.SetPeer("peer", peer.Addr())

	_, err = caller.Call(context.Background(), "peer", Request{Payload: testPayload{1}})
	var r *RedirectError
	if !errors.As(err, &r) {
		t.Fatalf("err = %T %v, want *RedirectError", err, err)
	}
	if r.Target != "silo-9" {
		t.Fatalf("redirect target = %q, want silo-9", r.Target)
	}
	if !r.TransientError() {
		t.Fatal("redirects must be retryable")
	}
	// Plain handler errors still surface as RemoteError, not redirects.
	_, err = caller.Call(context.Background(), "peer", Request{Payload: testPayload{2}})
	if errors.As(err, &r) {
		t.Fatalf("plain error decoded as redirect: %v", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %T %v, want *RemoteError", err, err)
	}
}

type retryableError struct{}

func (retryableError) Error() string        { return "quorum not reached" }
func (retryableError) TransientError() bool { return true }

// TestTCPTransientSurvivesWire: whether a handler's error may be retried
// must read the same on the caller as on the serving silo. gob flattens
// the error to a string, so the classification rides in its own frame
// field and comes back as RemoteError.TransientError.
func TestTCPTransientSurvivesWire(t *testing.T) {
	a, b := newTCPPair(t)
	served := []error{
		fmt.Errorf("activating: %w", retryableError{}),
		fmt.Errorf("nested call: %w", &UnreachableError{Node: "silo-c", Err: errors.New("down")}),
		errors.New("boom"),
	}
	if err := b.Register("silo-b", func(_ context.Context, req Request) (any, error) {
		return nil, served[req.Payload.(testPayload).N]
	}); err != nil {
		t.Fatal(err)
	}
	for i, want := range served {
		_, err := a.Call(context.Background(), "silo-b", Request{Payload: testPayload{i}})
		var re *RemoteError
		if !errors.As(err, &re) {
			t.Fatalf("served %q: err = %T %v, want *RemoteError", want, err, err)
		}
		if IsUnreachable(err) {
			t.Fatalf("served %q: the reply arrived, yet the caller reads silo-b as unreachable", want)
		}
		if got := Transient(err); got != Transient(want) {
			t.Fatalf("served %q: Transient on the caller = %v, on the serving silo = %v", want, got, Transient(want))
		}
	}
}
