// Beef cattle tracking and tracing end-to-end (the paper's second case
// study): a cow's life from pasture to a consumer's trace query.
//
// The example registers farms and a herd, streams collar GPS data with a
// geo-fence and a spatial index, sells a cow between farmers with an
// atomic multi-actor transaction, runs the slaughter/distribution/retail
// chain, and finally answers a consumer trace — in both the actor model
// (Figure 3) and the object-version model (Figure 5), printing the
// messaging cost of each — and the same history as GS1/EPCIS events.
// The actors keep their state in a durable store: after the retail sale
// the example stops the runtime, starts a new one on the same store, and
// prints the chain of custody and the ownership check again from the
// restarted runtime, failing if either differs from before; the object
// model then runs on the restarted runtime.
//
//	go run ./examples/cattle
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"aodb/internal/cattle"
	"aodb/internal/core"
	"aodb/internal/kvstore"
	"aodb/internal/spatial"
)

// start opens the store in dir and starts a two-silo runtime on it with
// the cattle platform registered. stop shuts the runtime down, which
// writes every live actor's state, and closes the store.
func start(dir string) (rt *core.Runtime, p *cattle.Platform, stop func()) {
	store, err := kvstore.Open(kvstore.Options{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	rt, err = core.New(core.Config{Store: store})
	if err != nil {
		log.Fatal(err)
	}
	for _, silo := range []string{"silo-1", "silo-2"} {
		if _, err := rt.AddSilo(silo, nil); err != nil {
			log.Fatal(err)
		}
	}
	p, err = cattle.NewPlatform(rt, cattle.Options{SpatialCellSize: 0.05, RecordEvents: true})
	if err != nil {
		log.Fatal(err)
	}
	return rt, p, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := rt.Shutdown(ctx); err != nil {
			log.Fatal(err)
		}
		if err := store.Close(); err != nil {
			log.Fatal(err)
		}
	}
}

func main() {
	dir, err := os.MkdirTemp("", "aodb-cattle")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ctx := context.Background()
	rt, p, stop := start(dir)

	must := func(_ any, err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	// A herd on the Jensen farm; farmers and cows are virtual actors, so
	// the first message to each creates it.
	born := time.Date(2024, 3, 14, 0, 0, 0, 0, time.UTC)
	if err := p.RegisterCow(ctx, "cow-2041", "farm-jensen", "Danish Blue", born); err != nil {
		log.Fatal(err)
	}

	// Pasture tracking with a geo-fence.
	fence := cattle.Fence{MinLat: 55.30, MaxLat: 55.40, MinLon: 10.30, MaxLon: 10.45, Enabled: true}
	must(rt.Call(ctx, core.ID{Kind: cattle.KindCow, Key: "cow-2041"}, cattle.SetFence{Fence: fence}))
	fmt.Println("tracking cow-2041 across the pasture...")
	for i := 0; i < 48; i++ {
		pt := cattle.GeoPoint{
			At:  born.AddDate(0, 6, 0).Add(time.Duration(i) * 30 * time.Minute),
			Lat: 55.34 + 0.001*float64(i%10),
			Lon: 10.36 + 0.002*float64(i%7),
		}
		if i == 30 {
			pt.Lat = 55.48 // broke through the fence
		}
		if err := p.Track(ctx, "cow-2041", pt); err != nil {
			log.Fatal(err)
		}
	}
	// Fence alerts are told to the farmer asynchronously: wait up to 5 s
	// for the one the breakout raised.
	var alerts []cattle.FenceAlert
	for deadline := time.Now().Add(5 * time.Second); len(alerts) == 0; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			log.Fatal("no fence alert within 5 s")
		}
		v, err := rt.Call(ctx, core.ID{Kind: cattle.KindFarmer, Key: "farm-jensen"}, cattle.GetFenceAlerts{})
		if err != nil {
			log.Fatal(err)
		}
		alerts = v.([]cattle.FenceAlert)
	}
	for _, a := range alerts {
		fmt.Printf("  fence alert: %s at (%.3f, %.3f)\n", a.Cow, a.Point.Lat, a.Point.Lon)
	}
	traj, err := p.Trajectory(ctx, "cow-2041", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  last %d positions: %v...\n", len(traj), traj[0].At.Format(time.DateTime))
	// The spatial index answers "which cows are where" from the grid cells
	// a query covers, without asking every cow.
	inFence, err := p.CowsInArea(ctx, spatial.Box{MinLat: fence.MinLat, MaxLat: fence.MaxLat, MinLon: fence.MinLon, MaxLon: fence.MaxLon})
	if err != nil {
		log.Fatal(err)
	}
	nearBarn, err := p.CowsNear(ctx, 55.345, 10.37, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  cows inside the fence box: %d, within 2 km of the barn: %d\n", len(inFence), len(nearBarn))

	// The cow is sold: a multi-actor transaction keeps the ownership
	// relation consistent across the Cow and both Farmer actors (§4.4).
	fmt.Println("\nselling cow-2041 from Jensen to Møller (2PC transaction)...")
	if err := p.Transfer(ctx, cattle.ModeTxn, "cow-2041", "farm-jensen", "farm-moller"); err != nil {
		log.Fatal(err)
	}
	owners := ownership(ctx, rt, p)
	fmt.Print(owners)

	// The supply chain, actor model: slaughter -> distribute -> retail.
	fmt.Println("\nrunning the supply chain (actor model, Figure 3)...")
	sh := core.ID{Kind: cattle.KindSlaughterhouse, Key: "sh-odense"}
	must(rt.Call(ctx, sh, cattle.Slaughter{Cow: "cow-2041", CutIDs: []string{"cut-r1", "cut-r2"}, CutWeight: 14.5, CutAt: born.AddDate(2, 0, 0).Add(-24 * time.Hour)}))
	dist := core.ID{Kind: cattle.KindDistributor, Key: "dist-dk"}
	for i, cut := range []string{"cut-r1", "cut-r2"} {
		must(rt.Call(ctx, dist, cattle.Dispatch{
			Delivery: fmt.Sprintf("del-%d", i), Cut: cut,
			From: "sh-odense", To: "ret-cph", Vehicle: "truck-7",
			Departed: born.AddDate(2, 0, 0), Arrived: born.AddDate(2, 0, 0).Add(5 * time.Hour),
		}))
	}
	ret := core.ID{Kind: cattle.KindRetailer, Key: "ret-cph"}
	for _, cut := range []string{"cut-r1", "cut-r2"} {
		must(rt.Call(ctx, ret, cattle.ReceiveCut{Cut: cut}))
	}
	must(rt.Call(ctx, ret, cattle.MakeProduct{
		Product: "prod-ribeye-box", Name: "Ribeye Box 2kg",
		Cuts: []string{"cut-r1", "cut-r2"}, MadeAt: born.AddDate(2, 0, 1),
	}))

	// Consumer trace, actor model: graph navigation across actors.
	trace, err := p.TraceProduct(ctx, "prod-ribeye-box")
	if err != nil {
		log.Fatal(err)
	}
	printTrace("consumer trace (actor model)", trace)
	// The GS1/EPCIS view (§2.2): the product's event log, walked back
	// through its cuts to the cow.
	custody := chainOfCustody(ctx, p)
	fmt.Print(custody)

	// The actors' state outlives the runtime: stop it, start a new one on
	// the same store, and ask the restarted actors again.
	stop()
	fmt.Println("\nrestarting the runtime on the same store...")
	rt, p, stop = start(dir)
	defer stop()
	again := chainOfCustody(ctx, p)
	fmt.Print(again)
	ownersAgain := ownership(ctx, rt, p)
	fmt.Print(ownersAgain)
	if again != custody || ownersAgain != owners {
		log.Fatal("the restarted runtime answers differently: actor state was lost")
	}
	fmt.Println("  the restarted runtime answers as before")

	// The same chain in the object-version model (Figure 5).
	fmt.Println("\nrunning the supply chain (object model, Figure 5)...")
	if err := p.RegisterCow(ctx, "cow-2042", "farm-moller", "Danish Blue", born); err != nil {
		log.Fatal(err)
	}
	osh := core.ID{Kind: cattle.KindObjSlaughterhouse, Key: "osh-odense"}
	must(rt.Call(ctx, osh, cattle.ObjSlaughter{Cow: "cow-2042", CutIDs: []string{"ocut-1", "ocut-2"}, CutWeight: 13.1, CutAt: born.AddDate(2, 0, 0).Add(-24 * time.Hour)}))
	for _, cut := range []string{"ocut-1", "ocut-2"} {
		must(rt.Call(ctx, osh, cattle.ObjSendCut{Cut: cut, ToKind: cattle.KindObjDistributor, ToKey: "odist-dk"}))
	}
	odist := core.ID{Kind: cattle.KindObjDistributor, Key: "odist-dk"}
	must(rt.Call(ctx, odist, cattle.ObjDeliver{Cut: "ocut-1", Entry: cattle.ItineraryEntry{
		Delivery: "odel-0", Distributor: "odist-dk", From: "osh-odense", To: "oret-cph", Vehicle: "truck-8",
		Departed: born.AddDate(2, 0, 0), Arrived: born.AddDate(2, 0, 0).Add(4 * time.Hour),
	}}))
	for _, cut := range []string{"ocut-1", "ocut-2"} {
		must(rt.Call(ctx, odist, cattle.ObjSendCut{Cut: cut, ToKind: cattle.KindObjRetailer, ToKey: "oret-cph"}))
	}
	oret := core.ID{Kind: cattle.KindObjRetailer, Key: "oret-cph"}
	must(rt.Call(ctx, oret, cattle.ObjMakeProduct{Product: "oprod-box", Name: "Ribeye Box 2kg", Cuts: []string{"ocut-1", "ocut-2"}}))

	otrace, err := p.TraceProductObjects(ctx, "oret-cph", "oprod-box")
	if err != nil {
		log.Fatal(err)
	}
	printTrace("consumer trace (object model)", otrace)

	fmt.Printf("\nmessaging cost: actor model %d hops vs object model %d hops (§4.3 trade-off)\n",
		trace.Hops, otrace.Hops)
}

// chainOfCustody renders the product's EPCIS history, walked back through
// its cuts to the cow (§2.2's GS1 view), one event a line.
func chainOfCustody(ctx context.Context, p *cattle.Platform) string {
	chain, err := p.ChainOfCustody(ctx, "prod-ribeye-box")
	if err != nil {
		log.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  chain of custody: %d EPCIS events\n", len(chain))
	for _, ev := range chain {
		epcs := append(append(append([]string(nil), ev.EPCs...), ev.Inputs...), ev.Outputs...)
		fmt.Fprintf(&b, "    %s %-14s at %-11s %s\n", ev.At.Format(time.DateTime), ev.Step, ev.Where, strings.Join(epcs, " "))
	}
	return b.String()
}

// ownership renders who owns cow-2041 and both farmers' herds, and the
// two-sided relationship check over them.
func ownership(ctx context.Context, rt *core.Runtime, p *cattle.Platform) string {
	farmers := []string{"farm-jensen", "farm-moller"}
	info, err := p.CowInfo(ctx, "cow-2041")
	if err != nil {
		log.Fatal(err)
	}
	violations, err := p.CheckOwnershipConsistency(ctx, []string{"cow-2041"}, farmers)
	if err != nil {
		log.Fatal(err)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  cow-2041 owned by %s; ownership consistent: %v (violations: %d)\n", info.Owner, len(violations) == 0, len(violations))
	for _, f := range farmers {
		herd, err := rt.Call(ctx, core.ID{Kind: cattle.KindFarmer, Key: f}, cattle.ListCows{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(&b, "    %s herd: %v\n", f, herd)
	}
	return b.String()
}

func printTrace(title string, t cattle.Trace) {
	fmt.Printf("\n--- %s ---\n", title)
	fmt.Printf("  product %s (%s) made by %s\n", t.Product.ID, t.Product.Name, t.Product.Retailer)
	for _, cut := range t.Cuts {
		fmt.Printf("  cut %s v%d: %.1fkg from %s, cut at %s on %s, held by %s, %d transport legs\n",
			cut.ID, cut.Version, cut.WeightKg, cut.Cow, cut.Slaughterhouse, cut.CutAt.Format(time.DateOnly), cut.Holder, len(cut.Itinerary))
		for _, leg := range cut.Itinerary {
			fmt.Printf("    leg %s: %s -> %s by %s, %s to %s\n", leg.Delivery, leg.From, leg.To, leg.Vehicle,
				leg.Departed.Format(time.DateTime), leg.Arrived.Format(time.DateTime))
		}
	}
	for _, cow := range t.Cows {
		fmt.Printf("  cow %s: %s, born %s, raised by %s, slaughtered at %s\n",
			cow.Key, cow.Breed, cow.Born.Format(time.DateOnly), cow.Owner, cow.Slaughterhouse)
	}
	fmt.Printf("  assembled in %d actor hops\n", t.Hops)
}
