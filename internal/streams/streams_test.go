package streams

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"aodb/internal/core"
)

// sinkActor records every stream event it receives.
type sinkActor struct {
	mu     *sync.Mutex
	events *[]Event
}

type drainMsg struct{}

func (s *sinkActor) OnActivate(*core.Context) error { return nil }

func (s *sinkActor) Receive(_ *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case Event:
		s.mu.Lock()
		*s.events = append(*s.events, m)
		s.mu.Unlock()
		return nil, nil
	case drainMsg:
		s.mu.Lock()
		n := len(*s.events)
		s.mu.Unlock()
		return n, nil
	}
	return nil, fmt.Errorf("unknown %T", msg)
}

type sinkRegistry struct {
	mu    sync.Mutex
	sinks map[string]*[]Event
	locks map[string]*sync.Mutex
}

func newRuntime(t *testing.T) (*core.Runtime, *sinkRegistry) {
	t.Helper()
	rt, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	if err := RegisterKind(rt); err != nil {
		t.Fatal(err)
	}
	reg := &sinkRegistry{sinks: map[string]*[]Event{}, locks: map[string]*sync.Mutex{}}
	// Sinks share recorded-event slices through the registry keyed by a
	// counter, since factories cannot see the actor key.
	var next int
	var factoryMu sync.Mutex
	rt.RegisterKind("Sink", func() core.Actor {
		factoryMu.Lock()
		key := fmt.Sprintf("inst-%d", next)
		next++
		factoryMu.Unlock()
		events := &[]Event{}
		mu := &sync.Mutex{}
		reg.mu.Lock()
		reg.sinks[key] = events
		reg.locks[key] = mu
		reg.mu.Unlock()
		return &sinkActor{mu: mu, events: events}
	})
	rt.AddSilo("silo-1", nil)
	rt.AddSilo("silo-2", nil)
	return rt, reg
}

func waitEvents(t *testing.T, rt *core.Runtime, sink core.ID, want int) int {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		v, err := rt.Call(context.Background(), sink, drainMsg{})
		if err != nil {
			t.Fatal(err)
		}
		if v.(int) >= want {
			return v.(int)
		}
		if time.Now().After(deadline) {
			t.Fatalf("sink %s has %d events, want %d", sink, v, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestPublishReachesAllSubscribers(t *testing.T) {
	rt, _ := newRuntime(t)
	ctx := context.Background()
	st := New(rt, "sensor-feed")
	subs := []core.ID{{Kind: "Sink", Key: "a"}, {Kind: "Sink", Key: "b"}, {Kind: "Sink", Key: "c"}}
	for _, s := range subs {
		if err := st.Subscribe(ctx, s); err != nil {
			t.Fatal(err)
		}
	}
	// Subscribing again changes nothing: the broker still counts three.
	if n, err := rt.Call(ctx, st.id(), Subscribe{Subscriber: subs[0].String()}); err != nil || n != 3 {
		t.Fatalf("duplicate subscribe left %v subscribers (%v), want 3", n, err)
	}
	for i := 0; i < 5; i++ {
		if _, err := st.Publish(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range subs {
		if n := waitEvents(t, rt, s, 5); n != 5 {
			t.Fatalf("sink %s got %d events, want 5", s, n)
		}
	}
}

func TestSequenceNumbersIncrease(t *testing.T) {
	rt, _ := newRuntime(t)
	ctx := context.Background()
	st := New(rt, "seq-stream")
	var prev uint64
	for i := 0; i < 10; i++ {
		seq, err := st.Publish(ctx, i)
		if err != nil {
			t.Fatal(err)
		}
		if seq <= prev {
			t.Fatalf("seq %d after %d", seq, prev)
		}
		prev = seq
	}
}

func TestStreamsAreIsolated(t *testing.T) {
	rt, _ := newRuntime(t)
	ctx := context.Background()
	a := New(rt, "stream-a")
	b := New(rt, "stream-b")
	sink := core.ID{Kind: "Sink", Key: "iso"}
	if err := a.Subscribe(ctx, sink); err != nil {
		t.Fatal(err)
	}
	b.Publish(ctx, "not for you")
	a.Publish(ctx, "for you")
	waitEvents(t, rt, sink, 1)
	time.Sleep(30 * time.Millisecond)
	if got := waitEvents(t, rt, sink, 1); got != 1 {
		t.Fatalf("sink got %d events, want only stream-a's 1", got)
	}
}

func TestSubscribeValidation(t *testing.T) {
	rt, _ := newRuntime(t)
	ctx := context.Background()
	st := New(rt, "v")
	if _, err := rt.Call(ctx, core.ID{Kind: Kind, Key: "v"}, Subscribe{Subscriber: ""}); err == nil {
		t.Fatal("empty subscriber accepted")
	}
	if _, err := rt.Call(ctx, core.ID{Kind: Kind, Key: "v"}, Subscribe{Subscriber: "no-slash"}); err == nil {
		t.Fatal("malformed subscriber accepted")
	}
	_ = st
}

func TestPublishToEmptyStream(t *testing.T) {
	rt, _ := newRuntime(t)
	st := New(rt, "empty")
	if _, err := st.Publish(context.Background(), "into the void"); err != nil {
		t.Fatal(err)
	}
}
