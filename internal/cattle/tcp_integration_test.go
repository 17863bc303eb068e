package cattle

import (
	"context"
	"testing"
	"time"

	"aodb/internal/cluster"
	"aodb/internal/core"
	"aodb/internal/placement"
	"aodb/internal/transport"
)

// TestCattleOverTCP runs the supply chain across two real TCP silo
// processes plus a client, proving every cattle message type survives gob
// encoding and the chain's cross-actor calls work over the wire.
func TestCattleOverTCP(t *testing.T) {
	view := []string{"silo-1", "silo-2"}
	newNode := func(name string) (*core.Runtime, *Platform, *transport.TCP) {
		tcp, err := transport.NewTCPWithOptions(name, "127.0.0.1:0", transport.TCPOptions{})
		if err != nil {
			t.Fatal(err)
		}
		hash := placement.NewConsistentHash()
		rt, err := core.New(core.Config{
			Transport: tcp,
			Placement: hash,
			View:      cluster.NewStaticView(view...),
		})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPlatform(rt, Options{RecordEvents: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()
			rt.Shutdown(ctx)
		})
		return rt, p, tcp
	}
	rt1, _, tcp1 := newNode("silo-1")
	rt2, _, tcp2 := newNode("silo-2")
	rt, client, tcpC := newNode("client")
	if _, err := rt1.AddSilo("silo-1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt2.AddSilo("silo-2", nil); err != nil {
		t.Fatal(err)
	}
	tcp1.SetPeer("silo-2", tcp2.Addr())
	tcp2.SetPeer("silo-1", tcp1.Addr())
	tcpC.SetPeer("silo-1", tcp1.Addr())
	tcpC.SetPeer("silo-2", tcp2.Addr())

	ctx := context.Background()
	if err := client.RegisterCow(ctx, "cow-1", "farm-1", "angus", born); err != nil {
		t.Fatal(err)
	}
	if err := client.Track(ctx, "cow-1", GeoPoint{At: born, Lat: 55.3, Lon: 10.4}); err != nil {
		t.Fatal(err)
	}
	sh := core.ID{Kind: KindSlaughterhouse, Key: "sh-1"}
	if _, err := rt.Call(ctx, sh, Slaughter{Cow: "cow-1", CutIDs: []string{"cut-1"}, CutWeight: 9}); err != nil {
		t.Fatal(err)
	}
	dist := core.ID{Kind: KindDistributor, Key: "dist-1"}
	if _, err := rt.Call(ctx, dist, Dispatch{
		Delivery: "del-1", Cut: "cut-1", From: "sh-1", To: "ret-1",
		Vehicle: "truck", Departed: born.AddDate(3, 0, 0), Arrived: born.AddDate(3, 0, 1),
	}); err != nil {
		t.Fatal(err)
	}
	ret := core.ID{Kind: KindRetailer, Key: "ret-1"}
	if _, err := rt.Call(ctx, ret, ReceiveCut{Cut: "cut-1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Call(ctx, ret, MakeProduct{
		Product: "prod-1", Name: "box", Cuts: []string{"cut-1"}, MadeAt: born.AddDate(3, 0, 2),
	}); err != nil {
		t.Fatal(err)
	}

	trace, err := client.TraceProduct(ctx, "prod-1")
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Cuts) != 1 || len(trace.Cows) != 1 || trace.Cows[0].Key != "cow-1" {
		t.Fatalf("trace over TCP = %+v", trace)
	}
	if trace.Cuts[0].Itinerary[0].Vehicle != "truck" {
		t.Fatalf("itinerary = %+v", trace.Cuts[0].Itinerary)
	}
	// The event chain also crossed the wire.
	deadline := time.Now().Add(5 * time.Second)
	for {
		chain, err := client.ChainOfCustody(ctx, "prod-1")
		if err != nil {
			t.Fatal(err)
		}
		if len(chain) >= 5 { // commissioning, slaughtering, ship, receive, aggregate
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("chain of custody = %d events", len(chain))
		}
		time.Sleep(20 * time.Millisecond)
	}
}
