package cattle

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"aodb/internal/core"
)

var born = time.Date(2024, 3, 1, 0, 0, 0, 0, time.UTC)

func newPlatform(t *testing.T) *Platform {
	t.Helper()
	rt, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	for i := 1; i <= 2; i++ {
		if _, err := rt.AddSilo(fmt.Sprintf("silo-%d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	p, err := NewPlatform(rt, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func setupFarm(t *testing.T, p *Platform) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		if err := p.RegisterCow(ctx, fmt.Sprintf("cow-%d", i), "farm-1", "angus", born); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRegisterCowLinksBothSides(t *testing.T) {
	p := newPlatform(t)
	setupFarm(t, p)
	ctx := context.Background()
	info, err := p.CowInfo(ctx, "cow-0")
	if err != nil {
		t.Fatal(err)
	}
	if info.Owner != "farm-1" || info.Status != CowAlive || info.Breed != "angus" {
		t.Fatalf("cow info = %+v", info)
	}
	v, err := p.rt.Call(ctx, core.ID{Kind: KindFarmer, Key: "farm-1"}, ListCows{})
	if err != nil {
		t.Fatal(err)
	}
	if herd := v.([]string); len(herd) != 4 {
		t.Fatalf("herd = %v", herd)
	}
	violations, err := p.CheckOwnershipConsistency(ctx,
		[]string{"cow-0", "cow-1", "cow-2", "cow-3"}, []string{"farm-1", "farm-2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("violations = %v", violations)
	}
}

func TestTrackingAndTrajectory(t *testing.T) {
	p := newPlatform(t)
	setupFarm(t, p)
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		pt := GeoPoint{At: born.Add(time.Duration(i) * time.Minute), Lat: 55.0 + float64(i)*0.001, Lon: 12.0}
		if err := p.Track(ctx, "cow-0", pt); err != nil {
			t.Fatal(err)
		}
	}
	traj, err := p.Trajectory(ctx, "cow-0", 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) != 5 {
		t.Fatalf("trajectory = %d points, want 5", len(traj))
	}
	if traj[4].Lat != 55.019 {
		t.Fatalf("latest lat = %v", traj[4].Lat)
	}
	all, _ := p.Trajectory(ctx, "cow-0", 0)
	if len(all) != 20 {
		t.Fatalf("full trajectory = %d", len(all))
	}
}

func TestGeoFenceAlerts(t *testing.T) {
	p := newPlatform(t)
	setupFarm(t, p)
	ctx := context.Background()
	fence := Fence{MinLat: 55, MaxLat: 56, MinLon: 12, MaxLon: 13, Enabled: true}
	if _, err := p.rt.Call(ctx, core.ID{Kind: KindCow, Key: "cow-0"}, SetFence{Fence: fence}); err != nil {
		t.Fatal(err)
	}
	p.Track(ctx, "cow-0", GeoPoint{Lat: 55.5, Lon: 12.5}) // inside
	p.Track(ctx, "cow-0", GeoPoint{Lat: 57.0, Lon: 12.5}) // escaped!
	p.Track(ctx, "cow-0", GeoPoint{Lat: 55.5, Lon: 11.0}) // escaped again
	deadline := time.Now().Add(3 * time.Second)
	for {
		v, err := p.rt.Call(ctx, core.ID{Kind: KindFarmer, Key: "farm-1"}, GetFenceAlerts{})
		if err != nil {
			t.Fatal(err)
		}
		alerts := v.([]FenceAlert)
		if len(alerts) == 2 {
			if alerts[0].Cow != "cow-0" || alerts[0].Point.Lat != 57.0 {
				t.Fatalf("alerts = %+v", alerts)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fence alerts = %d, want 2", len(alerts))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSlaughterOnlyOnce(t *testing.T) {
	p := newPlatform(t)
	setupFarm(t, p)
	ctx := context.Background()
	sh := core.ID{Kind: KindSlaughterhouse, Key: "sh-1"}
	if _, err := p.rt.Call(ctx, sh, Slaughter{Cow: "cow-0", CutIDs: []string{"cut-1", "cut-2"}, CutWeight: 12}); err != nil {
		t.Fatal(err)
	}
	info, _ := p.CowInfo(ctx, "cow-0")
	if info.Status != CowSlaughtered || info.Slaughterhouse != "sh-1" {
		t.Fatalf("cow after slaughter = %+v", info)
	}
	// Second slaughter, even at another slaughterhouse, must fail: "a cow
	// can only be slaughtered once in exactly one slaughterhouse".
	sh2 := core.ID{Kind: KindSlaughterhouse, Key: "sh-2"}
	if _, err := p.rt.Call(ctx, sh2, Slaughter{Cow: "cow-0", CutIDs: []string{"cut-3"}}); err == nil {
		t.Fatal("double slaughter accepted")
	}
	// Readings after slaughter rejected.
	if err := p.Track(ctx, "cow-0", GeoPoint{}); err == nil {
		t.Fatal("collar reading accepted for slaughtered cow")
	}
}

// buildChain runs a full actor-model supply chain for one cow and returns
// the product key.
func buildChain(t *testing.T, p *Platform, cow string) string {
	t.Helper()
	ctx := context.Background()
	sh := core.ID{Kind: KindSlaughterhouse, Key: "sh-1"}
	cut1, cut2 := cow+"/cut-1", cow+"/cut-2"
	if _, err := p.rt.Call(ctx, sh, Slaughter{Cow: cow, CutIDs: []string{cut1, cut2}, CutWeight: 10}); err != nil {
		t.Fatal(err)
	}
	dist := core.ID{Kind: KindDistributor, Key: "dist-1"}
	for i, cut := range []string{cut1, cut2} {
		if _, err := p.rt.Call(ctx, dist, Dispatch{
			Delivery: fmt.Sprintf("%s/del-%d", cow, i),
			Cut:      cut,
			From:     "sh-1",
			To:       "ret-1",
			Vehicle:  "truck-9",
			Departed: born.AddDate(2, 0, 0),
			Arrived:  born.AddDate(2, 0, 1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	ret := core.ID{Kind: KindRetailer, Key: "ret-1"}
	for _, cut := range []string{cut1, cut2} {
		if _, err := p.rt.Call(ctx, ret, ReceiveCut{Cut: cut}); err != nil {
			t.Fatal(err)
		}
	}
	product := cow + "/prod-1"
	if _, err := p.rt.Call(ctx, ret, MakeProduct{
		Product: product, Name: "Steak Box", Cuts: []string{cut1, cut2}, MadeAt: born.AddDate(2, 0, 2),
	}); err != nil {
		t.Fatal(err)
	}
	return product
}

func TestFullChainTrace(t *testing.T) {
	p := newPlatform(t)
	setupFarm(t, p)
	product := buildChain(t, p, "cow-1")
	trace, err := p.TraceProduct(context.Background(), product)
	if err != nil {
		t.Fatal(err)
	}
	if trace.Product.Name != "Steak Box" || len(trace.Cuts) != 2 || len(trace.Cows) != 1 {
		t.Fatalf("trace = %+v", trace)
	}
	if trace.Cows[0].Owner != "farm-1" || trace.Cows[0].Slaughterhouse != "sh-1" {
		t.Fatalf("provenance = %+v", trace.Cows[0])
	}
	cut := trace.Cuts[0]
	if len(cut.Itinerary) != 1 || cut.Itinerary[0].Vehicle != "truck-9" || cut.Itinerary[0].To != "ret-1" {
		t.Fatalf("itinerary = %+v", cut.Itinerary)
	}
	if cut.Holder != "ret-1" {
		t.Fatalf("holder = %q, want ret-1", cut.Holder)
	}
	// The actor model pays one hop per entity: 1 product + 2 cuts + 1 cow.
	if trace.Hops != 4 {
		t.Fatalf("hops = %d, want 4", trace.Hops)
	}
}

func TestProductRequiresReceivedCuts(t *testing.T) {
	p := newPlatform(t)
	setupFarm(t, p)
	ctx := context.Background()
	ret := core.ID{Kind: KindRetailer, Key: "ret-9"}
	if _, err := p.rt.Call(ctx, ret, MakeProduct{Product: "p", Name: "n", Cuts: []string{"ghost-cut"}}); err == nil {
		t.Fatal("product from unreceived cut accepted")
	}
}

func TestObjectModelChainAndTrace(t *testing.T) {
	p := newPlatform(t)
	setupFarm(t, p)
	ctx := context.Background()
	sh := core.ID{Kind: KindObjSlaughterhouse, Key: "osh-1"}
	if _, err := p.rt.Call(ctx, sh, ObjSlaughter{Cow: "cow-2", CutIDs: []string{"oc-1", "oc-2"}, CutWeight: 9}); err != nil {
		t.Fatal(err)
	}
	// Transfer both cuts to the distributor: records are copied, version
	// bumps to 2.
	for _, cut := range []string{"oc-1", "oc-2"} {
		if _, err := p.rt.Call(ctx, sh, ObjSendCut{Cut: cut, ToKind: KindObjDistributor, ToKey: "odist-1"}); err != nil {
			t.Fatal(err)
		}
	}
	dist := core.ID{Kind: KindObjDistributor, Key: "odist-1"}
	// Local itinerary update, then transfer to retailer (version 3).
	if _, err := p.rt.Call(ctx, dist, ObjDeliver{Cut: "oc-1", Entry: ItineraryEntry{
		Distributor: "odist-1", From: "osh-1", To: "oret-1", Vehicle: "truck",
	}}); err != nil {
		t.Fatal(err)
	}
	for _, cut := range []string{"oc-1", "oc-2"} {
		if _, err := p.rt.Call(ctx, dist, ObjSendCut{Cut: cut, ToKind: KindObjRetailer, ToKey: "oret-1"}); err != nil {
			t.Fatal(err)
		}
	}
	ret := core.ID{Kind: KindObjRetailer, Key: "oret-1"}
	if _, err := p.rt.Call(ctx, ret, ObjMakeProduct{Product: "oprod-1", Name: "Obj Box", Cuts: []string{"oc-1", "oc-2"}}); err != nil {
		t.Fatal(err)
	}
	trace, err := p.TraceProductObjects(ctx, "oret-1", "oprod-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Cuts) != 2 || len(trace.Cows) != 1 || trace.Cows[0].Key != "cow-2" {
		t.Fatalf("object trace = %+v", trace)
	}
	// Itinerary travelled with the record copy.
	var oc1 MeatCutRecord
	for _, c := range trace.Cuts {
		if c.ID == "oc-1" {
			oc1 = c
		}
	}
	if len(oc1.Itinerary) != 1 || oc1.Itinerary[0].Vehicle != "truck" {
		t.Fatalf("embedded itinerary = %+v", oc1.Itinerary)
	}
	// Each transfer copied the record and bumped its version.
	if oc1.Version != 3 || oc1.Holder != "oret-1" {
		t.Fatalf("retailer's version = %+v", oc1)
	}
	// Object model: 1 retailer hop + 1 cow hop, fewer than actor model's 4.
	if trace.Hops != 2 {
		t.Fatalf("hops = %d, want 2", trace.Hops)
	}
	// The slaughterhouse still holds its own (older) version — redundancy
	// is the documented cost: sent on to a second retailer, it arrives as
	// version 2, without the distributor's itinerary entry.
	if _, err := p.rt.Call(ctx, sh, ObjSendCut{Cut: "oc-1", ToKind: KindObjRetailer, ToKey: "oret-2"}); err != nil {
		t.Fatal(err)
	}
	ret2 := core.ID{Kind: KindObjRetailer, Key: "oret-2"}
	if _, err := p.rt.Call(ctx, ret2, ObjMakeProduct{Product: "oprod-2", Name: "Old Box", Cuts: []string{"oc-1"}}); err != nil {
		t.Fatal(err)
	}
	v, err := p.rt.Call(ctx, ret2, ObjGetProduct{Product: "oprod-2"})
	if err != nil {
		t.Fatal(err)
	}
	if old := v.(MeatProductRecord).CutCopies[0]; old.Version != 2 || len(old.Itinerary) != 0 {
		t.Fatalf("slaughterhouse's version, sent on = %+v", old)
	}
	// A custodian keeps the newest copy it was given: oret-1 holds version
	// 3 and refuses the slaughterhouse's copy, which arrives as version 2.
	_, err = p.rt.Call(ctx, sh, ObjSendCut{Cut: "oc-1", ToKind: KindObjRetailer, ToKey: "oret-1"})
	if err == nil || !strings.Contains(err.Error(), "holds version 3 of cut oc-1, not taking version 2") {
		t.Fatalf("an older copy sent to the holder of version 3: %v", err)
	}
}

func TestObjectModelMissingCutErrors(t *testing.T) {
	p := newPlatform(t)
	ctx := context.Background()
	dist := core.ID{Kind: KindObjDistributor, Key: "od"}
	if _, err := p.rt.Call(ctx, dist, ObjSendCut{Cut: "nope", ToKind: KindObjRetailer, ToKey: "or"}); err == nil {
		t.Fatal("sending unheld cut succeeded")
	}
	if _, err := p.rt.Call(ctx, dist, ObjDeliver{Cut: "nope"}); err == nil {
		t.Fatal("delivering unheld cut succeeded")
	}
}

func TestTransferModesKeepConsistency(t *testing.T) {
	for _, mode := range []string{ModeTxn, ModeRegistry, ModeWorkflow} {
		t.Run(mode, func(t *testing.T) {
			p := newPlatform(t)
			setupFarm(t, p)
			ctx := context.Background()
			if err := p.Transfer(ctx, mode, "cow-0", "farm-1", "farm-2"); err != nil {
				t.Fatal(err)
			}
			if mode == ModeRegistry {
				// The registry mode keeps the relation in the registry actor:
				// the cow is in the buyer's herd, and the seller no longer
				// owns it, so a second sale by the seller is refused.
				herd, _ := p.rt.Call(ctx, core.ID{Kind: KindOwnershipRegistry, Key: "global"}, RegHerd{Farmer: "farm-2"})
				if got := herd.([]string); len(got) != 1 || got[0] != "cow-0" {
					t.Fatalf("registry herd = %v", got)
				}
				if err := p.Transfer(ctx, mode, "cow-0", "farm-1", "farm-2"); err == nil {
					t.Fatal("registry accepted a sale by the former owner")
				}
				return
			}
			info, err := p.CowInfo(ctx, "cow-0")
			if err != nil {
				t.Fatal(err)
			}
			if info.Owner != "farm-2" {
				t.Fatalf("owner after %s transfer = %q", mode, info.Owner)
			}
			violations, err := p.CheckOwnershipConsistency(ctx,
				[]string{"cow-0", "cow-1", "cow-2", "cow-3"}, []string{"farm-1", "farm-2"})
			if err != nil {
				t.Fatal(err)
			}
			if len(violations) != 0 {
				t.Fatalf("violations after %s transfer: %v", mode, violations)
			}
		})
	}
}

func TestTransferTxnRejectsNonOwner(t *testing.T) {
	p := newPlatform(t)
	setupFarm(t, p)
	ctx := context.Background()
	// farm-2 does not own cow-0; the transaction must abort atomically.
	if err := p.Transfer(ctx, ModeTxn, "cow-0", "farm-2", "farm-1"); err == nil {
		t.Fatal("transfer by non-owner committed")
	}
	info, _ := p.CowInfo(ctx, "cow-0")
	if info.Owner != "farm-1" {
		t.Fatalf("owner = %q after aborted transfer", info.Owner)
	}
	violations, _ := p.CheckOwnershipConsistency(ctx, []string{"cow-0"}, []string{"farm-1", "farm-2"})
	if len(violations) != 0 {
		t.Fatalf("violations = %v", violations)
	}
}

func TestWorkflowCompensatesOnFailure(t *testing.T) {
	p := newPlatform(t)
	setupFarm(t, p)
	ctx := context.Background()
	// Step 1 fails (farm-2 does not own cow-0): nothing to compensate,
	// state intact.
	if err := p.Transfer(ctx, ModeWorkflow, "cow-0", "farm-2", "farm-1"); err == nil {
		t.Fatal("workflow for non-owner succeeded")
	}
	violations, _ := p.CheckOwnershipConsistency(ctx, []string{"cow-0"}, []string{"farm-1", "farm-2"})
	if len(violations) != 0 {
		t.Fatalf("violations = %v", violations)
	}
}

func TestConcurrentTxnTransfersSerialize(t *testing.T) {
	p := newPlatform(t)
	setupFarm(t, p)
	ctx := context.Background()
	// Many goroutines bounce cow-0 between the two farms transactionally;
	// afterwards the relation must be consistent.
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				// Try both directions; exactly one direction is valid at
				// any moment, the other aborts.
				p.Transfer(ctx, ModeTxn, "cow-0", "farm-1", "farm-2")
				p.Transfer(ctx, ModeTxn, "cow-0", "farm-2", "farm-1")
			}
		}()
	}
	wg.Wait()
	violations, err := p.CheckOwnershipConsistency(ctx,
		[]string{"cow-0"}, []string{"farm-1", "farm-2"})
	if err != nil {
		t.Fatal(err)
	}
	if len(violations) != 0 {
		t.Fatalf("violations after concurrent txns: %v", violations)
	}
}

func TestFenceContains(t *testing.T) {
	f := Fence{MinLat: 0, MaxLat: 1, MinLon: 10, MaxLon: 11}
	if !f.Contains(GeoPoint{Lat: 0.5, Lon: 10.5}) {
		t.Fatal("inside point reported outside")
	}
	for _, pt := range []GeoPoint{{Lat: -1, Lon: 10.5}, {Lat: 0.5, Lon: 12}, {Lat: 2, Lon: 12}} {
		if f.Contains(pt) {
			t.Fatalf("outside point %+v reported inside", pt)
		}
	}
}
