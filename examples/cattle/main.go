// Beef cattle tracking and tracing end-to-end (the paper's second case
// study): a cow's life from pasture to a consumer's trace query.
//
// The example registers farms and a herd, streams collar GPS data with a
// geo-fence and a spatial index, sells a cow between farmers with an
// atomic multi-actor transaction, runs the slaughter/distribution/retail
// chain, and finally answers a consumer trace — in both the actor model
// (Figure 3) and the object-version model (Figure 5), printing the
// messaging cost of each — and the same history as GS1/EPCIS events.
//
//	go run ./examples/cattle
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"aodb/internal/cattle"
	"aodb/internal/core"
	"aodb/internal/spatial"
)

func main() {
	ctx := context.Background()
	rt, err := core.New(core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		shCtx, cancel := context.WithTimeout(ctx, 15*time.Second)
		defer cancel()
		rt.Shutdown(shCtx)
	}()
	for _, silo := range []string{"silo-1", "silo-2"} {
		if _, err := rt.AddSilo(silo, nil); err != nil {
			log.Fatal(err)
		}
	}
	p, err := cattle.NewPlatform(rt, cattle.Options{SpatialCellSize: 0.05, RecordEvents: true})
	if err != nil {
		log.Fatal(err)
	}

	must := func(_ any, err error) {
		if err != nil {
			log.Fatal(err)
		}
	}

	// Farms and herd.
	must(rt.Call(ctx, core.ID{Kind: cattle.KindFarmer, Key: "farm-jensen"}, cattle.CreateFarmer{Name: "Jensen Cooperative"}))
	must(rt.Call(ctx, core.ID{Kind: cattle.KindFarmer, Key: "farm-moller"}, cattle.CreateFarmer{Name: "Møller Farms"}))
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
	time.Sleep(100 * time.Millisecond) // fence alerts are async
	alerts, err := rt.Call(ctx, core.ID{Kind: cattle.KindFarmer, Key: "farm-jensen"}, cattle.GetFenceAlerts{})
	if err != nil {
		log.Fatal(err)
	}
	for _, a := range alerts.([]cattle.FenceAlert) {
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
	violations, err := p.CheckOwnershipConsistency(ctx, []string{"cow-2041"}, []string{"farm-jensen", "farm-moller"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  ownership consistent: %v (violations: %d)\n", len(violations) == 0, len(violations))

	// The supply chain, actor model: slaughter -> distribute -> retail.
	fmt.Println("\nrunning the supply chain (actor model, Figure 3)...")
	sh := core.ID{Kind: cattle.KindSlaughterhouse, Key: "sh-odense"}
	must(rt.Call(ctx, sh, cattle.CreateSlaughterhouse{Name: "Odense Meats"}))
	must(rt.Call(ctx, sh, cattle.Slaughter{Cow: "cow-2041", CutIDs: []string{"cut-r1", "cut-r2"}, CutWeight: 14.5}))
	dist := core.ID{Kind: cattle.KindDistributor, Key: "dist-dk"}
	must(rt.Call(ctx, dist, cattle.CreateDistributor{Name: "DK Logistics"}))
	for i, cut := range []string{"cut-r1", "cut-r2"} {
		must(rt.Call(ctx, dist, cattle.Dispatch{
			Delivery: fmt.Sprintf("del-%d", i), Cut: cut,
			From: "sh-odense", To: "ret-cph", Vehicle: "truck-7",
			Departed: born.AddDate(2, 0, 0), Arrived: born.AddDate(2, 0, 0).Add(5 * time.Hour),
		}))
	}
	ret := core.ID{Kind: cattle.KindRetailer, Key: "ret-cph"}
	must(rt.Call(ctx, ret, cattle.CreateRetailer{Name: "Copenhagen SuperMart"}))
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
	chain, err := p.ChainOfCustody(ctx, "prod-ribeye-box")
	if err != nil {
		log.Fatal(err)
	}
	steps := map[string]int{}
	for _, ev := range chain {
		steps[ev.Step]++
	}
	fmt.Printf("  chain of custody: %d EPCIS events:", len(chain))
	for _, step := range []string{cattle.StepCommissioning, cattle.StepSlaughtering, cattle.StepShipping, cattle.StepReceiving, cattle.StepRetailSelling} {
		fmt.Printf(" %s ×%d", step, steps[step])
	}
	fmt.Println()

	// The same chain in the object-version model (Figure 5).
	fmt.Println("\nrunning the supply chain (object model, Figure 5)...")
	if err := p.RegisterCow(ctx, "cow-2042", "farm-moller", "Danish Blue", born); err != nil {
		log.Fatal(err)
	}
	osh := core.ID{Kind: cattle.KindObjSlaughterhouse, Key: "osh-odense"}
	must(rt.Call(ctx, osh, cattle.CreateSlaughterhouse{Name: "Odense Meats (obj)"}))
	must(rt.Call(ctx, osh, cattle.ObjSlaughter{Cow: "cow-2042", CutIDs: []string{"ocut-1", "ocut-2"}, CutWeight: 13.1}))
	for _, cut := range []string{"ocut-1", "ocut-2"} {
		must(rt.Call(ctx, osh, cattle.ObjSendCut{Cut: cut, ToKind: cattle.KindObjDistributor, ToKey: "odist-dk"}))
	}
	odist := core.ID{Kind: cattle.KindObjDistributor, Key: "odist-dk"}
	must(rt.Call(ctx, odist, cattle.ObjDeliver{Cut: "ocut-1", Entry: cattle.ItineraryEntry{
		Distributor: "odist-dk", From: "osh-odense", To: "oret-cph", Vehicle: "truck-8",
		Departed: born.AddDate(2, 0, 0), Arrived: born.AddDate(2, 0, 0).Add(4 * time.Hour),
	}}))
	for _, cut := range []string{"ocut-1", "ocut-2"} {
		must(rt.Call(ctx, odist, cattle.ObjSendCut{Cut: cut, ToKind: cattle.KindObjRetailer, ToKey: "oret-cph"}))
	}
	oret := core.ID{Kind: cattle.KindObjRetailer, Key: "oret-cph"}
	must(rt.Call(ctx, oret, cattle.CreateRetailer{Name: "Copenhagen SuperMart (obj)"}))
	must(rt.Call(ctx, oret, cattle.ObjMakeProduct{Product: "oprod-box", Name: "Ribeye Box 2kg", Cuts: []string{"ocut-1", "ocut-2"}}))

	otrace, err := p.TraceProductObjects(ctx, "oret-cph", "oprod-box")
	if err != nil {
		log.Fatal(err)
	}
	printTrace("consumer trace (object model)", otrace)

	fmt.Printf("\nmessaging cost: actor model %d hops vs object model %d hops (§4.3 trade-off)\n",
		trace.Hops, otrace.Hops)
}

func printTrace(title string, t cattle.Trace) {
	fmt.Printf("\n--- %s ---\n", title)
	fmt.Printf("  product %s (%s) made by %s\n", t.Product.ID, t.Product.Name, t.Product.Retailer)
	for _, cut := range t.Cuts {
		fmt.Printf("  cut %s: %.1fkg from %s at %s, %d transport legs\n",
			cut.ID, cut.WeightKg, cut.Cow, cut.Slaughterhouse, len(cut.Itinerary))
	}
	for _, cow := range t.Cows {
		fmt.Printf("  cow %s: %s, born %s, raised by %s, slaughtered at %s\n",
			cow.Key, cow.Breed, cow.Born.Format(time.DateOnly), cow.Owner, cow.Slaughterhouse)
	}
	fmt.Printf("  assembled in %d actor hops\n", t.Hops)
}
