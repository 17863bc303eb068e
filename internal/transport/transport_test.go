package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aodb/internal/codec"
	"aodb/internal/netsim"
)

func init() {
	codec.Register(testPayload{})
	codec.Register(testReply{})
}

type testPayload struct{ N int }
type testReply struct{ N int }

func echoHandler(_ context.Context, req Request) (any, error) {
	p, ok := req.Payload.(testPayload)
	if !ok {
		return nil, fmt.Errorf("bad payload %T", req.Payload)
	}
	return testReply{N: p.N * 2}, nil
}

func TestLocalCallRoundTrip(t *testing.T) {
	l := NewLocal(nil, nil)
	defer l.Close()
	if err := l.Register("silo-1", echoHandler); err != nil {
		t.Fatal(err)
	}
	resp, err := l.Call(context.Background(), "silo-1", Request{Payload: testPayload{21}})
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := resp.(testReply); !ok || r.N != 42 {
		t.Fatalf("resp = %#v, want testReply{42}", resp)
	}
}

func TestLocalUnknownNode(t *testing.T) {
	l := NewLocal(nil, nil)
	defer l.Close()
	if _, err := l.Call(context.Background(), "ghost", Request{}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestLocalDuplicateRegister(t *testing.T) {
	l := NewLocal(nil, nil)
	defer l.Close()
	if err := l.Register("s", echoHandler); err != nil {
		t.Fatal(err)
	}
	if err := l.Register("s", echoHandler); err == nil {
		t.Fatal("duplicate register accepted")
	}
}

func TestLocalNilHandlerRejected(t *testing.T) {
	l := NewLocal(nil, nil)
	defer l.Close()
	if err := l.Register("s", nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestLocalRemoteLatencyApplied(t *testing.T) {
	model := netsim.NewModel(1, netsim.Loopback, netsim.Profile{Base: 5 * time.Millisecond})
	l := NewLocal(model, nil)
	defer l.Close()
	l.Register("remote", echoHandler)

	start := time.Now()
	if _, err := l.Call(context.Background(), "remote", Request{Sender: "local", Payload: testPayload{1}}); err != nil {
		t.Fatal(err)
	}
	// Request + response hops: >= 10ms.
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("remote call took %v, want >= 10ms of simulated latency", elapsed)
	}

	start = time.Now()
	l.Register("local", echoHandler)
	if _, err := l.Call(context.Background(), "local", Request{Sender: "local", Payload: testPayload{1}}); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Millisecond {
		t.Fatalf("same-silo call took %v, want ~0", elapsed)
	}
}

func TestLocalClosedRejectsCalls(t *testing.T) {
	l := NewLocal(nil, nil)
	l.Register("s", echoHandler)
	l.Close()
	if _, err := l.Call(context.Background(), "s", Request{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err after close = %v, want ErrClosed", err)
	}
}

func TestLocalCallCancelledDuringDelay(t *testing.T) {
	model := netsim.NewModel(1, netsim.Loopback, netsim.Profile{Base: time.Hour})
	l := NewLocal(model, nil)
	defer l.Close()
	l.Register("far", echoHandler)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := l.Call(ctx, "far", Request{Sender: "here", Payload: testPayload{1}}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func newTCPPair(t *testing.T) (*TCP, *TCP) {
	t.Helper()
	a, err := NewTCPWithOptions("silo-a", "127.0.0.1:0", TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTCPWithOptions("silo-b", "127.0.0.1:0", TCPOptions{})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.SetPeer("silo-b", b.Addr())
	b.SetPeer("silo-a", a.Addr())
	t.Cleanup(func() { a.Close(); b.Close() })
	return a, b
}

func TestTCPCallRoundTrip(t *testing.T) {
	a, b := newTCPPair(t)
	if err := b.Register("silo-b", echoHandler); err != nil {
		t.Fatal(err)
	}
	resp, err := a.Call(context.Background(), "silo-b", Request{Payload: testPayload{5}, Sender: "silo-a"})
	if err != nil {
		t.Fatal(err)
	}
	if r, ok := resp.(testReply); !ok || r.N != 10 {
		t.Fatalf("resp = %#v", resp)
	}
}

func TestTCPConcurrentCallsMultiplex(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register("silo-b", func(_ context.Context, req Request) (any, error) {
		p := req.Payload.(testPayload)
		time.Sleep(time.Duration(p.N%5) * time.Millisecond)
		return testReply{N: p.N}, nil
	})
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := a.Call(context.Background(), "silo-b", Request{Payload: testPayload{i}})
			if err != nil {
				t.Errorf("call %d: %v", i, err)
				return
			}
			if resp.(testReply).N != i {
				t.Errorf("call %d got %v: responses crossed", i, resp)
			}
		}(i)
	}
	wg.Wait()
}

func TestTCPRemoteErrorPropagates(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register("silo-b", func(context.Context, Request) (any, error) {
		return nil, errors.New("boom in actor")
	})
	_, err := a.Call(context.Background(), "silo-b", Request{Payload: testPayload{1}})
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("err = %v, want RemoteError", err)
	}
	if !strings.Contains(re.Msg, "boom in actor") || re.Node != "silo-b" {
		t.Fatalf("remote error = %+v", re)
	}
}

func TestTCPUnknownPeer(t *testing.T) {
	a, _ := newTCPPair(t)
	if _, err := a.Call(context.Background(), "silo-z", Request{}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("err = %v, want ErrUnknownNode", err)
	}
}

func TestTCPRegisterWrongNode(t *testing.T) {
	a, _ := newTCPPair(t)
	if err := a.Register("other", echoHandler); err == nil {
		t.Fatal("registering foreign silo name accepted")
	}
}

func TestTCPCallAfterPeerClosed(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register("silo-b", echoHandler)
	if _, err := a.Call(context.Background(), "silo-b", Request{Payload: testPayload{1}}); err != nil {
		t.Fatal(err)
	}
	b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if _, err := a.Call(ctx, "silo-b", Request{Payload: testPayload{1}}); err == nil {
		t.Fatal("call to closed peer succeeded")
	}
}

func TestTCPCallContextTimeout(t *testing.T) {
	a, b := newTCPPair(t)
	b.Register("silo-b", func(ctx context.Context, _ Request) (any, error) {
		time.Sleep(500 * time.Millisecond)
		return testReply{}, nil
	})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := a.Call(ctx, "silo-b", Request{Payload: testPayload{1}}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}
