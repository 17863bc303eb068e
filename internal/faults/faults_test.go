package faults

import (
	"context"
	"errors"
	"testing"
	"time"

	"aodb/internal/kvstore"
	"aodb/internal/transport"
)

// decisions replays n consultations of one point and returns the verdicts.
func decisions(inj *Injector, point string, prob float64, n int) []bool {
	out := make([]bool, n)
	for j := range out {
		out[j], _ = inj.decide(point, prob)
	}
	return out
}

// TestDeterministicGivenSeed: same seed, same consultation sequence, same
// decisions — the property that makes chaos failures reproducible.
func TestDeterministicGivenSeed(t *testing.T) {
	const n = 2000
	a := decisions(New(Config{Seed: 42}), "drop", 0.1, n)
	b := decisions(New(Config{Seed: 42}), "drop", 0.1, n)
	for j := range a {
		if a[j] != b[j] {
			t.Fatalf("decision %d diverged under identical seeds", j)
		}
	}
	c := decisions(New(Config{Seed: 43}), "drop", 0.1, n)
	same := 0
	for j := range a {
		if a[j] == c[j] {
			same++
		}
	}
	if same == n {
		t.Fatal("different seeds produced identical decision streams")
	}
}

// TestPointsAreIndependent: consulting one point does not perturb another,
// so per-subsystem consultation order doesn't have to match globally.
func TestPointsAreIndependent(t *testing.T) {
	plain := decisions(New(Config{Seed: 7}), "drop", 0.2, 500)
	interleaved := New(Config{Seed: 7})
	got := make([]bool, 500)
	for j := range got {
		interleaved.decide("kvwrite", 0.5) // noise on another point
		got[j], _ = interleaved.decide("drop", 0.2)
	}
	for j := range got {
		if got[j] != plain[j] {
			t.Fatalf("decision %d perturbed by another point's consultations", j)
		}
	}
}

// TestInjectionRateRoughlyMatchesProbability sanity-checks the uniform
// hash: at p=0.1 over 10k consultations the hit rate lands near 10%.
func TestInjectionRateRoughlyMatchesProbability(t *testing.T) {
	inj := New(Config{Seed: 1})
	hits := 0
	for j := 0; j < 10000; j++ {
		if fire, _ := inj.decide("drop", 0.1); fire {
			hits++
		}
	}
	if hits < 700 || hits > 1300 {
		t.Fatalf("hit rate %d/10000 too far from p=0.1", hits)
	}
	if got := inj.Fired("drop"); got != uint64(hits) {
		t.Fatalf("Fired = %d, want %d", got, hits)
	}
}

// TestNilAndDisabledInjectNothing: the production configuration (nil
// injector) and a paused one must never fire.
func TestNilAndDisabledInjectNothing(t *testing.T) {
	var nilInj *Injector
	if fire, _ := nilInj.decide("drop", 1.0); fire {
		t.Fatal("nil injector fired")
	}
	nilInj.SetEnabled(true) // must not panic
	if nilInj.Fired("drop") != 0 {
		t.Fatal("nil injector counted")
	}

	inj := New(Config{Seed: 9, Drop: 1})
	inj.SetEnabled(false)
	if fire, _ := inj.decide("drop", 1.0); fire {
		t.Fatal("disabled injector fired")
	}
	inj.SetEnabled(true)
	if fire, _ := inj.decide("drop", 1.0); !fire {
		t.Fatal("re-enabled injector at p=1 did not fire")
	}
}

// TestTransportDropSurfacesUnreachable: a dropped Call fails transient so
// the runtime's retry layer knows it may re-send.
func TestTransportDropSurfacesUnreachable(t *testing.T) {
	inner := transport.NewLocal(nil, nil)
	inj := New(Config{Seed: 3, Drop: 1})
	ft := inj.WrapTransport(inner)
	delivered := 0
	ft.Register("n", func(context.Context, transport.Request) (any, error) {
		delivered++
		return nil, nil
	})

	_, err := ft.Call(context.Background(), "n", transport.Request{})
	if !transport.IsUnreachable(err) {
		t.Fatalf("dropped call error %v not unreachable", err)
	}
	if !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("dropped call error %v does not name the injected cause", err)
	}
	if delivered != 0 {
		t.Fatal("dropped message was delivered")
	}
}

// TestTransportDuplicateDelivers: at Dup=1 every successful Call delivers
// twice — the harness for at-least-once idempotency testing.
func TestTransportDuplicateDelivers(t *testing.T) {
	inner := transport.NewLocal(nil, nil)
	inj := New(Config{Seed: 3, Dup: 1})
	ft := inj.WrapTransport(inner)
	delivered := 0
	ft.Register("n", func(context.Context, transport.Request) (any, error) {
		delivered++
		return delivered, nil
	})
	v, err := ft.Call(context.Background(), "n", transport.Request{})
	if err != nil || v.(int) != 1 {
		t.Fatalf("call: %v, %v", v, err)
	}
	if delivered != 2 {
		t.Fatalf("delivered %d times, want 2", delivered)
	}
}

// TestTransportDelay: at Delay=1 the call still succeeds, after a bounded
// deterministic pause.
func TestTransportDelay(t *testing.T) {
	inner := transport.NewLocal(nil, nil)
	inj := New(Config{Seed: 3, Delay: 1, MaxDelay: 5 * time.Millisecond})
	ft := inj.WrapTransport(inner)
	ft.Register("n", func(context.Context, transport.Request) (any, error) { return "ok", nil })
	start := time.Now()
	v, err := ft.Call(context.Background(), "n", transport.Request{})
	if err != nil || v != "ok" {
		t.Fatalf("delayed call: %v, %v", v, err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("delay exceeded MaxDelay by far")
	}
	if inj.Fired("delay") != 1 {
		t.Fatalf("delay fired %d times", inj.Fired("delay"))
	}
}

// TestKVWriteFaultHook: the hook fails mutations with the injected
// sentinel and leaves the store consistent.
func TestKVWriteFaultHook(t *testing.T) {
	store, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	tb, _ := store.EnsureTable("t", kvstore.Throughput{})
	inj := New(Config{Seed: 3, KVWrite: 1})
	store.SetWriteFault(inj.KVWriteFault())

	if _, err := tb.Put(context.Background(), "k", []byte("v")); !errors.Is(err, ErrInjectedKVWrite) {
		t.Fatalf("faulted put: %v", err)
	}
	inj.SetEnabled(false)
	if _, err := tb.Put(context.Background(), "k", []byte("v")); err != nil {
		t.Fatalf("put after disable: %v", err)
	}
}

// TestPanicHook fires at p=1 with the recognizable value.
func TestPanicHook(t *testing.T) {
	inj := New(Config{Seed: 3, Panic: 1})
	hook := inj.PanicHook()
	defer func() {
		if r := recover(); r != PanicValue {
			t.Fatalf("recovered %v, want PanicValue", r)
		}
	}()
	hook("K/a")
	t.Fatal("hook did not panic at p=1")
}
