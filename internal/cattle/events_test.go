package cattle

import (
	"context"
	"fmt"
	"testing"
	"time"

	"aodb/internal/clock"
	"aodb/internal/core"
)

// slaughtered is when the evented chain's cow is cut: before its cuts
// are dispatched, at born + 3 years.
var slaughtered = born.AddDate(3, 0, -1)

func newEventPlatform(t *testing.T) *Platform {
	t.Helper()
	return newEventPlatformOn(t, core.Config{})
}

func newEventPlatformOn(t *testing.T, cfg core.Config) *Platform {
	t.Helper()
	rt, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	rt.AddSilo("silo-1", nil)
	p, err := NewPlatform(rt, Options{RecordEvents: true})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runEventedChain builds the full supply chain with event recording on
// and returns the product key.
func runEventedChain(t *testing.T, p *Platform) string {
	t.Helper()
	ctx := context.Background()
	rt := p.rt
	if err := p.RegisterCow(ctx, "cow-1", "farm-1", "angus", born); err != nil {
		t.Fatal(err)
	}
	sh := core.ID{Kind: KindSlaughterhouse, Key: "sh-1"}
	if _, err := rt.Call(ctx, sh, Slaughter{Cow: "cow-1", CutIDs: []string{"cut-1", "cut-2"}, CutWeight: 8, CutAt: slaughtered}); err != nil {
		t.Fatal(err)
	}
	dist := core.ID{Kind: KindDistributor, Key: "dist-1"}
	for i, cut := range []string{"cut-1", "cut-2"} {
		if _, err := rt.Call(ctx, dist, Dispatch{
			Delivery: fmt.Sprintf("del-%d", i), Cut: cut,
			From: "sh-1", To: "ret-1", Vehicle: "truck",
			Departed: born.AddDate(3, 0, 0), Arrived: born.AddDate(3, 0, 0).Add(3 * time.Hour),
		}); err != nil {
			t.Fatal(err)
		}
	}
	ret := core.ID{Kind: KindRetailer, Key: "ret-1"}
	for _, cut := range []string{"cut-1", "cut-2"} {
		if _, err := rt.Call(ctx, ret, ReceiveCut{Cut: cut}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := rt.Call(ctx, ret, MakeProduct{
		Product: "prod-1", Name: "box", Cuts: []string{"cut-1", "cut-2"}, MadeAt: born.AddDate(3, 0, 1),
	}); err != nil {
		t.Fatal(err)
	}
	return "prod-1"
}

func waitEvents(t *testing.T, p *Platform, epc string, want int) []Event {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		evs, err := p.Events(context.Background(), epc)
		if err != nil {
			t.Fatal(err)
		}
		if len(evs) >= want {
			return evs
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s has %d events, want %d: %+v", epc, len(evs), want, evs)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestEventsRecordedAlongChain(t *testing.T) {
	p := newEventPlatform(t)
	product := runEventedChain(t, p)
	// The cow's log: commissioning + slaughtering transformation.
	cowEvents := waitEvents(t, p, "cow-1", 2)
	if cowEvents[0].Step != StepCommissioning || cowEvents[1].Step != StepSlaughtering {
		t.Fatalf("cow events = %+v", cowEvents)
	}
	if cowEvents[1].Type != TransformationEvent || len(cowEvents[1].Outputs) != 2 {
		t.Fatalf("slaughter event = %+v", cowEvents[1])
	}
	// A cut's log: slaughtering (as output), shipping, receiving,
	// aggregation into the product.
	cutEvents := waitEvents(t, p, "cut-1", 4)
	steps := make([]string, len(cutEvents))
	for i, ev := range cutEvents {
		steps[i] = ev.Step
	}
	want := []string{StepSlaughtering, StepShipping, StepReceiving, StepRetailSelling}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("cut steps = %v, want %v", steps, want)
		}
	}
	// The product's log: the aggregation event.
	prodEvents := waitEvents(t, p, product, 1)
	if prodEvents[0].Type != AggregationEvent || len(prodEvents[0].Inputs) != 2 {
		t.Fatalf("product events = %+v", prodEvents)
	}
}

func TestChainOfCustodyWalksBackToCow(t *testing.T) {
	p := newEventPlatform(t)
	product := runEventedChain(t, p)
	waitEvents(t, p, "cut-1", 4)
	waitEvents(t, p, "cut-2", 4)
	chain, err := p.ChainOfCustody(context.Background(), product)
	if err != nil {
		t.Fatal(err)
	}
	// Expect: commissioning (cow), slaughtering, 2x shipping, 2x
	// receiving, aggregation = 7 distinct events, time-ordered.
	if len(chain) != 7 {
		t.Fatalf("chain = %d events: %+v", len(chain), chain)
	}
	if chain[0].Step != StepCommissioning {
		t.Fatalf("chain starts with %q, want commissioning", chain[0].Step)
	}
	if chain[len(chain)-1].Step != StepRetailSelling {
		t.Fatalf("chain ends with %q, want retail_selling", chain[len(chain)-1].Step)
	}
	for i := 1; i < len(chain); i++ {
		if chain[i].At.Before(chain[i-1].At) {
			t.Fatalf("chain not time-ordered at %d: %+v", i, chain)
		}
	}
}

// TestSlaughterCarriesCutTime: the slaughtering event is stamped with
// the cut time the message carries, not with the runtime clock, so a
// chain recorded after the fact still reads slaughter before dispatch.
func TestSlaughterCarriesCutTime(t *testing.T) {
	later := clock.NewFake(born.AddDate(10, 0, 0))
	p := newEventPlatformOn(t, core.Config{Clock: later})
	product := runEventedChain(t, p)
	cowEvents := waitEvents(t, p, "cow-1", 2)
	if got := cowEvents[1]; got.Step != StepSlaughtering || !got.At.Equal(slaughtered) {
		t.Fatalf("slaughter event = %+v, want %s at %v", got, StepSlaughtering, slaughtered)
	}
	waitEvents(t, p, "cut-1", 4)
	waitEvents(t, p, "cut-2", 4)
	chain, err := p.ChainOfCustody(context.Background(), product)
	if err != nil {
		t.Fatal(err)
	}
	slaughter, dispatch := -1, -1
	for i, ev := range chain {
		switch {
		case ev.Step == StepSlaughtering && slaughter < 0:
			slaughter = i
		case ev.Step == StepShipping && dispatch < 0:
			dispatch = i
		}
	}
	if slaughter < 0 || dispatch < 0 || slaughter > dispatch {
		t.Fatalf("slaughter at %d, first dispatch at %d in %+v", slaughter, dispatch, chain)
	}

	// A slaughter that carries no time falls back to the runtime clock.
	sh := core.ID{Kind: KindSlaughterhouse, Key: "sh-1"}
	if err := p.RegisterCow(context.Background(), "cow-2", "farm-1", "angus", born); err != nil {
		t.Fatal(err)
	}
	if _, err := p.rt.Call(context.Background(), sh, Slaughter{Cow: "cow-2", CutIDs: []string{"cut-3"}, CutWeight: 8}); err != nil {
		t.Fatal(err)
	}
	if got := waitEvents(t, p, "cow-2", 2)[1]; !got.At.Equal(later.Now()) {
		t.Fatalf("unstamped slaughter at %v, want the clock's %v", got.At, later.Now())
	}
}

func TestEventsOffByDefault(t *testing.T) {
	rt, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(context.Background())
	rt.AddSilo("silo-1", nil)
	p, err := NewPlatform(rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := p.RegisterCow(ctx, "cow-1", "farm-1", "angus", born); err != nil {
		t.Fatal(err)
	}
	evs, err := p.Events(ctx, "cow-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 0 {
		t.Fatalf("events recorded without opt-in: %+v", evs)
	}
}

func TestDedupeEvents(t *testing.T) {
	a := Event{Type: ObjectEvent, Step: StepShipping, EPCs: []string{"x"}, At: born}
	b := Event{Type: ObjectEvent, Step: StepReceiving, EPCs: []string{"x"}, At: born.Add(time.Hour)}
	got := dedupeEvents([]Event{a, b, a, b, a})
	if len(got) != 2 || got[0].Step != StepShipping || got[1].Step != StepReceiving {
		t.Fatalf("dedupe = %+v", got)
	}
}
