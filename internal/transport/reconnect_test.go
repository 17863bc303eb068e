package transport

import (
	"context"
	"testing"
	"time"
)

// TestTCPReconnectsAfterPeerRestart: a silo process restarts on the same
// address; the caller's pooled connection died with the old process, and
// the next Call must dial a fresh connection instead of failing forever.
func TestTCPReconnectsAfterPeerRestart(t *testing.T) {
	caller, err := NewTCPWithOptions("caller", "127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()

	peer1, err := NewTCPWithOptions("peer", "127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := peer1.Addr()
	if err := peer1.Register("peer", echoHandler); err != nil {
		t.Fatal(err)
	}
	caller.SetPeer("peer", addr)

	ctx := context.Background()
	if _, err := caller.Call(ctx, "peer", Request{Payload: testPayload{1}}); err != nil {
		t.Fatalf("first call: %v", err)
	}

	// The peer process dies.
	peer1.Close()
	// Calls during the outage fail fast (dead conn or refused dial).
	shortCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	if _, err := caller.Call(shortCtx, "peer", Request{Payload: testPayload{2}}); err == nil {
		cancel()
		t.Fatal("call during outage succeeded")
	}
	cancel()

	// The peer restarts on the same address.
	var peer2 *TCP
	deadline := time.Now().Add(5 * time.Second)
	for {
		peer2, err = NewTCPWithOptions("peer", addr, TCPOptions{})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer peer2.Close()
	if err := peer2.Register("peer", echoHandler); err != nil {
		t.Fatal(err)
	}

	// Calls flow again over a fresh connection.
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := caller.Call(ctx, "peer", Request{Payload: testPayload{21}})
		if err == nil {
			if resp.(testReply).N != 42 {
				t.Fatalf("resp = %v", resp)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never reconnected: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestTCPPeerRestartMidCall: a call is in flight when the peer process
// dies. The caller must get a transient (unreachable) failure — not a
// hang, and not an unclassifiable error — and a retry of the same call
// against the restarted peer must succeed over a fresh connection.
func TestTCPPeerRestartMidCall(t *testing.T) {
	caller, err := NewTCPWithOptions("caller", "127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	peer1, err := NewTCPWithOptions("peer", "127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	addr := peer1.Addr()
	inFlight := make(chan struct{}, 1)
	block := make(chan struct{})
	peer1.Register("peer", func(_ context.Context, req Request) (any, error) {
		inFlight <- struct{}{}
		<-block // never released on peer1: the process "dies" mid-turn
		return testReply{}, nil
	})
	caller.SetPeer("peer", addr)

	errCh := make(chan error, 1)
	go func() {
		_, err := caller.Call(context.Background(), "peer", Request{Payload: testPayload{7}})
		errCh <- err
	}()
	<-inFlight // the request reached the peer and is executing

	// The peer process restarts while the call waits for its response.
	// Close tears down connections first, then waits for the parked
	// dispatch goroutine, so release it concurrently.
	closeDone := make(chan struct{})
	go func() { peer1.Close(); close(closeDone) }()
	var callErr error
	select {
	case callErr = <-errCh:
	case <-time.After(5 * time.Second):
		t.Fatal("in-flight call hung through peer restart")
	}
	close(block)
	<-closeDone
	if callErr == nil {
		t.Fatal("in-flight call reported success across peer death")
	}
	// The failure must classify as transient unreachability so the
	// runtime's retry layer knows it may retry.
	if !IsUnreachable(callErr) {
		t.Fatalf("in-flight failure %v not classified unreachable", callErr)
	}

	var peer2 *TCP
	deadline := time.Now().Add(5 * time.Second)
	for {
		peer2, err = NewTCPWithOptions("peer", addr, TCPOptions{})
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	defer peer2.Close()
	if err := peer2.Register("peer", echoHandler); err != nil {
		t.Fatal(err)
	}

	// The retried call succeeds against the restarted peer.
	deadline = time.Now().Add(5 * time.Second)
	for {
		resp, err := caller.Call(context.Background(), "peer", Request{Payload: testPayload{7}})
		if err == nil {
			if resp.(testReply).N != 14 {
				t.Fatalf("resp = %v", resp)
			}
			return
		}
		if !IsUnreachable(err) {
			t.Fatalf("retry failed with non-transient error: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("retried call never succeeded: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestTCPInFlightCallsFailOnConnectionLoss: requests waiting on a
// connection that dies get errors, not hangs.
func TestTCPInFlightCallsFailOnConnectionLoss(t *testing.T) {
	caller, err := NewTCPWithOptions("caller", "127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer caller.Close()
	peer, err := NewTCPWithOptions("peer", "127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	peer.Register("peer", func(context.Context, Request) (any, error) {
		<-block
		return testReply{}, nil
	})
	caller.SetPeer("peer", peer.Addr())

	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func(i int) {
			_, err := caller.Call(context.Background(), "peer", Request{Payload: testPayload{i}})
			errs <- err
		}(i)
	}
	time.Sleep(100 * time.Millisecond) // let the calls get in flight
	// Close tears down the connections first, then waits for dispatch
	// goroutines — which are parked in the handler, so release them
	// concurrently.
	closeDone := make(chan struct{})
	go func() { peer.Close(); close(closeDone) }()
	for i := 0; i < 4; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Fatal("in-flight call reported success after connection loss")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("in-flight call hung after connection loss")
		}
	}
	close(block)
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("peer.Close never finished")
	}
}
