package core

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"aodb/internal/codec"
	"aodb/internal/codec/codectest"
	"aodb/internal/transport"
)

// wireNote has no binary wire form: it rides the codec's gob fallback.
type wireNote struct {
	Text string
	N    int
}

func init() { codec.Register(wireNote{}) }

// wireTargets is n channel ids of one org, the targets of a LiveData.
func wireTargets(n int) []ID {
	ids := make([]ID, n)
	for i := range ids {
		ids[i] = ID{Kind: "PhysicalChannel", Key: fmt.Sprintf("org-3@sensor-%d/ch-%d", i/2, i%2)}
		if i%21 == 20 {
			ids[i] = ID{Kind: "VirtualChannel", Key: fmt.Sprintf("org-3@sensor-%d/virt", i/2)}
		}
	}
	return ids
}

// wireReply is a reply mixing the four kinds of slot, filled as the
// handler fills them.
func wireReply() multiReply {
	g := &gather{slots: make([]multiSlot, 6), done: make(chan struct{})}
	g.pending.Store(6)
	g.set(0, 1.5, nil)
	g.set(1, nil, errors.New("handler said no"))
	g.set(2, nil, &wrongSiloError{Actor: "K/a", Winner: "silo-2"})
	g.set(3, nil, fmt.Errorf("core: K/b is deactivating: %w", ErrTransient))
	g.set(4, wireNote{Text: "fallback value", N: 4}, nil)
	g.set(5, nil, nil)
	return multiReply{Slots: g.slots}
}

// TestWireEqualsGob: the MultiKind payloads decode from their binary form
// to what a gob round trip gives, whatever form their Msg and slot values
// take themselves; a slot's error value stays off the wire either way.
func TestWireEqualsGob(t *testing.T) {
	for _, v := range []any{
		multiCall{}, multiCall{Targets: []ID{}}, multiCall{Targets: wireTargets(1), Msg: "m"},
		multiCall{Targets: wireTargets(210), Msg: nil}, multiCall{Targets: wireTargets(210), Msg: []string{"registered"}},
		multiCall{Targets: wireTargets(3), Msg: wireNote{Text: "fallback", N: 1}},
		multiReply{}, multiReply{Slots: []multiSlot{}}, multiReply{Slots: make([]multiSlot, 1)}, wireReply(),
	} {
		codectest.EqualsGob(t, v)
	}
	got := codectest.StreamRoundTrip(t, wireReply()).(multiReply)
	for i, s := range got.Slots {
		if s.err != nil {
			t.Errorf("slot %d: error value %v crossed the wire", i, s.err)
		}
	}
	if s := got.Slots[2]; s.Redirect != "silo-2" || !s.Transient || s.Err == "" {
		t.Errorf("redirect slot = %+v", s)
	}
}

// TestMultiCallDecodeAllocs: a 210-target frame costs a handful of
// allocations to decode — the targets and one copy of their keys — not two
// strings a target.
func TestMultiCallDecodeAllocs(t *testing.T) {
	f := &codec.Frame{Kind: codec.FrameRequest, TargetKind: MultiKind, Method: "call", Sender: "client",
		Payload: multiCall{Targets: wireTargets(210), Msg: "latest"}}
	if got := codectest.RoundTripAllocs(t, f); got > 8 {
		t.Errorf("210-target multiCall: %.0f allocations a round trip, want at most 8", got)
	} else {
		t.Logf("210-target multiCall: %.0f allocations a round trip", got)
	}
}

// TestMultiTargetKeyIsCloned: an activation created for a MultiKind target
// keeps a key of its own, not a slice of the frame-wide copy the decoder
// shares among a frame's keys.
func TestMultiTargetKeyIsCloned(t *testing.T) {
	rt, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())
	if err := rt.RegisterKind("PhysicalChannel", func() Actor { return actorFunc(func(*Context, any) (any, error) { return nil, nil }) }); err != nil {
		t.Fatal(err)
	}
	s, err := rt.AddSilo("silo-1", nil)
	if err != nil {
		t.Fatal(err)
	}
	call := codectest.StreamRoundTrip(t, multiCall{Targets: wireTargets(4)[:2], Msg: "m"}).(multiCall)
	cfg, _ := rt.kind("PhysicalChannel")
	act, err := s.resolveOnce(call.Targets[0], cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if act.id != call.Targets[0] {
		t.Fatalf("activation id %v, want %v", act.id, call.Targets[0])
	}
	if unsafe.StringData(act.id.Key) == unsafe.StringData(call.Targets[0].Key) {
		t.Error("the activation's key aliases the decoded frame's shared copy")
	}
}

// TestWireFallbackInterleaved: gob's stream state is order-dependent, and
// a connection's frames are encoded by its writer goroutine and by solo
// callers inline. Eight callers over one striped TCP pair alternate a
// payload with a binary form, one that rides the fallback, and a multiCall
// whose Msg rides the fallback inside a binary form; every echo must come
// back intact, with write coalescing and without.
func TestWireFallbackInterleaved(t *testing.T) {
	for _, noBatching := range []bool{false, true} {
		t.Run(fmt.Sprintf("NoBatching=%v", noBatching), func(t *testing.T) {
			opts := transport.TCPOptions{Stripes: 2, NoBatching: noBatching}
			a, err := transport.NewTCPWithOptions("silo-a", "127.0.0.1:0", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			b, err := transport.NewTCPWithOptions("silo-b", "127.0.0.1:0", opts)
			if err != nil {
				t.Fatal(err)
			}
			defer b.Close()
			a.SetPeer("silo-b", b.Addr())
			if err := b.Register("silo-b", func(_ context.Context, req transport.Request) (any, error) {
				return req.Payload, nil
			}); err != nil {
				t.Fatal(err)
			}
			const callers, rounds = 8, 150
			var wg sync.WaitGroup
			for c := 0; c < callers; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					for i := 0; i < rounds; i++ {
						note := wireNote{Text: fmt.Sprintf("caller %d", c), N: i + 1}
						var payload any
						switch (c + i) % 3 {
						case 0:
							payload = multiReply{Slots: []multiSlot{{Value: float64(i)}, {Err: note.Text, Transient: true}}}
						case 1:
							payload = note
						case 2:
							payload = multiCall{Targets: wireTargets(1 + i%5), Msg: note}
						}
						got, err := a.Call(context.Background(), "silo-b", transport.Request{
							TargetKind: "Echo", TargetKey: fmt.Sprintf("k%d", (c+i)%5), Method: "call", Sender: "silo-a", Payload: payload})
						if err != nil {
							t.Errorf("caller %d round %d: %v", c, i, err)
							return
						}
						if !reflect.DeepEqual(got, payload) {
							t.Errorf("caller %d round %d: got %#v, want %#v", c, i, got, payload)
							return
						}
					}
				}(c)
			}
			wg.Wait()
		})
	}
}
