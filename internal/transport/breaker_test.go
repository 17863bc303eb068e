package transport

import (
	"context"
	"errors"
	"testing"
	"time"

	"aodb/internal/clock"
)

// flakyTransport fails with UnreachableError while down.
type flakyTransport struct {
	local *Local
	down  map[string]bool
}

func (f *flakyTransport) Register(node string, h Handler) error { return f.local.Register(node, h) }
func (f *flakyTransport) Close() error                          { return f.local.Close() }
func (f *flakyTransport) Call(ctx context.Context, node string, req Request) (any, error) {
	if f.down[node] {
		return nil, &UnreachableError{Node: node, Err: errors.New("down")}
	}
	return f.local.Call(ctx, node, req)
}

func TestBreakerOpensAndProbes(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	flaky := &flakyTransport{local: NewLocal(nil, clk), down: map[string]bool{}}
	br := NewBreaker(flaky, BreakerOptions{FailureThreshold: 3, Cooldown: time.Second, Clock: clk})
	if err := br.Register("peer", echoHandler); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Healthy node: calls flow, breaker stays closed.
	if _, err := br.Call(ctx, "peer", Request{Payload: testPayload{1}}); err != nil {
		t.Fatal(err)
	}
	if br.Open("peer") {
		t.Fatal("breaker open after success")
	}

	// Node goes down: threshold unreachable failures open the circuit.
	flaky.down["peer"] = true
	for i := 0; i < 3; i++ {
		if _, err := br.Call(ctx, "peer", Request{}); !IsUnreachable(err) {
			t.Fatalf("failure %d: err = %v, want unreachable", i, err)
		}
	}
	if !br.Open("peer") {
		t.Fatal("breaker not open after threshold failures")
	}
	// While open, calls fail fast with ErrCircuitOpen — and never reach
	// the inner transport.
	if _, err := br.Call(ctx, "peer", Request{}); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	// Circuit-open rejections classify as unreachable for callers.
	if _, err := br.Call(ctx, "peer", Request{}); !IsUnreachable(err) {
		t.Fatal("circuit-open not classified unreachable")
	}

	// After the cooldown the breaker admits one probe; the node is still
	// down, so the probe fails and the circuit re-opens.
	clk.Advance(time.Second + time.Millisecond)
	if _, err := br.Call(ctx, "peer", Request{}); !IsUnreachable(err) {
		t.Fatalf("probe err = %v", err)
	}
	if !br.Open("peer") {
		t.Fatal("breaker did not re-open after failed probe")
	}

	// Node restarts; after the next cooldown a successful probe closes the
	// circuit and traffic flows again.
	flaky.down["peer"] = false
	clk.Advance(time.Second + time.Millisecond)
	if _, err := br.Call(ctx, "peer", Request{Payload: testPayload{2}}); err != nil {
		t.Fatalf("probe after restart: %v", err)
	}
	if br.Open("peer") {
		t.Fatal("breaker still open after successful probe")
	}
	if _, err := br.Call(ctx, "peer", Request{Payload: testPayload{3}}); err != nil {
		t.Fatalf("call after close: %v", err)
	}
}

func TestBreakerHandlerErrorsDoNotTrip(t *testing.T) {
	local := NewLocal(nil, nil)
	br := NewBreaker(local, BreakerOptions{FailureThreshold: 2})
	br.Register("peer", func(context.Context, Request) (any, error) {
		return nil, errors.New("application error")
	})
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := br.Call(ctx, "peer", Request{}); err == nil || IsUnreachable(err) {
			t.Fatalf("err = %v, want plain application error", err)
		}
	}
	if br.Open("peer") {
		t.Fatal("application errors tripped the breaker")
	}
}

func TestBreakerPerNodeIsolation(t *testing.T) {
	clk := clock.NewFake(time.Unix(0, 0))
	flaky := &flakyTransport{local: NewLocal(nil, clk), down: map[string]bool{"dead": true}}
	br := NewBreaker(flaky, BreakerOptions{FailureThreshold: 1, Cooldown: time.Minute, Clock: clk})
	br.Register("live", echoHandler)
	ctx := context.Background()
	if _, err := br.Call(ctx, "dead", Request{}); !IsUnreachable(err) {
		t.Fatalf("err = %v", err)
	}
	if !br.Open("dead") {
		t.Fatal("dead node breaker not open")
	}
	// The live node is unaffected.
	if _, err := br.Call(ctx, "live", Request{Payload: testPayload{1}}); err != nil {
		t.Fatalf("live node call: %v", err)
	}
	if br.Open("live") {
		t.Fatal("live node breaker open")
	}
}

func TestLocalDeregisteredNodeIsUnreachable(t *testing.T) {
	l := NewLocal(nil, nil)
	l.Register("peer", echoHandler)
	l.Deregister("peer")
	_, err := l.Call(context.Background(), "peer", Request{})
	if !IsUnreachable(err) {
		t.Fatalf("err = %v, want unreachable", err)
	}
	if !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode in chain", err)
	}
}
