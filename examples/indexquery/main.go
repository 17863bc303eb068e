// AODB data-management features: secondary indexes, multi-actor queries,
// and streams — the features that turn an actor runtime into an
// actor-oriented database.
//
// The example indexes cow actors by pasture zone, answers "mean weight of
// the cows in zone-b" with an index-driven fan-out query, rebalances a
// cow with an indexed update, and shows a sensor stream fanning out to
// subscriber actors.
//
//	go run ./examples/indexquery
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"aodb/internal/core"
	"aodb/internal/index"
	"aodb/internal/streams"
)

// weighCow is a minimal actor with a weight and zone.
type weighCow struct {
	weight float64
	events int
}

type setWeight struct{ Kg float64 }
type getWeight struct{}
type countEvents struct{}

func (c *weighCow) Receive(_ *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case setWeight:
		c.weight = m.Kg
		return nil, nil
	case getWeight:
		return c.weight, nil
	case streams.Event:
		c.events++
		return nil, nil
	case countEvents:
		return c.events, nil
	}
	return nil, fmt.Errorf("unknown message %T", msg)
}

func main() {
	ctx := context.Background()
	rt, err := core.New(core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		shCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		rt.Shutdown(shCtx)
	}()
	if err := rt.RegisterKind("Cow", func() core.Actor { return &weighCow{} }); err != nil {
		log.Fatal(err)
	}
	if err := index.RegisterKind(rt); err != nil {
		log.Fatal(err)
	}
	if err := streams.RegisterKind(rt); err != nil {
		log.Fatal(err)
	}
	for _, s := range []string{"silo-1", "silo-2"} {
		if _, err := rt.AddSilo(s, nil); err != nil {
			log.Fatal(err)
		}
	}

	// Populate cows with weights, indexed by pasture zone.
	byZone := index.New(rt, "cows-by-zone", 4)
	zones := []string{"zone-a", "zone-b", "zone-c"}
	fmt.Println("populating 30 cows across 3 zones...")
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("cow-%02d", i)
		if _, err := rt.Call(ctx, core.ID{Kind: "Cow", Key: key}, setWeight{Kg: 400 + float64(i)*5}); err != nil {
			log.Fatal(err)
		}
		if err := byZone.Add(ctx, zones[i%3], key); err != nil {
			log.Fatal(err)
		}
	}

	// Index-driven multi-actor query: mean weight in zone-b. The index
	// names the cows; one multi-actor call asks each its weight, at one
	// round trip per silo.
	inB, err := byZone.Lookup(ctx, "zone-b")
	if err != nil {
		log.Fatal(err)
	}
	cows := make([]core.ID, len(inB))
	for i, key := range inB {
		cows[i] = core.ID{Kind: "Cow", Key: key}
	}
	weights, errs := core.CallManyOf[float64](ctx, rt, cows, getWeight{})
	if err := errors.Join(errs...); err != nil {
		log.Fatal(err)
	}
	sum := 0.0
	for _, kg := range weights {
		sum += kg
	}
	fmt.Printf("zone-b: %d cows, mean weight %.1f kg\n", len(weights), sum/float64(len(weights)))

	// An indexed attribute changes: cow-01 moves from zone-b to zone-a.
	if err := byZone.Update(ctx, "zone-b", "zone-a", "cow-01"); err != nil {
		log.Fatal(err)
	}
	inA, err := byZone.Lookup(ctx, "zone-a")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after rebalancing, zone-a holds %d cows\n", len(inA))

	// Streams: a feeding-station sensor publishes; every cow in zone-a
	// subscribes and receives the events through its mailbox.
	feed := streams.New(rt, "feeding-station-3")
	for _, key := range inA {
		if err := feed.Subscribe(ctx, core.ID{Kind: "Cow", Key: key}); err != nil {
			log.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := feed.Publish(ctx, fmt.Sprintf("feed-dispensed-%d", i)); err != nil {
			log.Fatal(err)
		}
	}
	// Event delivery is asynchronous; wait for it to settle.
	deadline := time.Now().Add(3 * time.Second)
	for {
		v, err := rt.Call(ctx, core.ID{Kind: "Cow", Key: inA[0]}, countEvents{})
		if err != nil {
			log.Fatal(err)
		}
		if v.(int) == 5 {
			fmt.Printf("each of %d subscribed cows received 5 stream events\n", len(inA))
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("stream events missing: %v", v)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Full-index statistics.
	size, err := byZone.Size(ctx)
	if err != nil {
		log.Fatal(err)
	}
	values, err := byZone.AllValues(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: %d entries across values %v\n", size, values)
}
