package shm

import (
	"context"
	"testing"
	"time"

	"aodb/internal/cluster"
	"aodb/internal/core"
	"aodb/internal/placement"
	"aodb/internal/transport"
)

// newTCPNode builds one process-like node: a TCP endpoint, a runtime with
// consistent-hash placement over the shared static view, and the SHM
// kinds registered. Every node must use the same view for placement to
// agree without a shared directory.
func newTCPNode(t *testing.T, name string, view []string) (*core.Runtime, *Platform, *transport.TCP) {
	t.Helper()
	tcp, err := transport.NewTCPWithOptions(name, "127.0.0.1:0", transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hash := placement.NewConsistentHash()
	hash.PrefixSep = '@'
	rt, err := core.New(core.Config{
		Transport: tcp,
		Placement: hash,
		View:      cluster.NewStaticView(view...),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlatform(rt, Options{})
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

// TestTCPClusterEndToEnd runs two silo processes plus an external client
// over real TCP — the cmd/shmserver + cmd/shmload deployment shape — and
// exercises population, ingestion, and both online queries.
func TestTCPClusterEndToEnd(t *testing.T) {
	view := []string{"silo-1", "silo-2"}
	rt1, _, tcp1 := newTCPNode(t, "silo-1", view)
	rt2, _, tcp2 := newTCPNode(t, "silo-2", view)
	_, clientPlatform, tcpC := newTCPNode(t, "client", view)

	if _, err := rt1.AddSilo("silo-1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt2.AddSilo("silo-2", nil); err != nil {
		t.Fatal(err)
	}
	// Full peer mesh.
	tcp1.SetPeer("silo-2", tcp2.Addr())
	tcp2.SetPeer("silo-1", tcp1.Addr())
	tcpC.SetPeer("silo-1", tcp1.Addr())
	tcpC.SetPeer("silo-2", tcp2.Addr())

	ctx := context.Background()
	pop := Population{Sensors: 20, SensorsPerOrg: 10, ChannelsPerSensor: 2, VirtualEveryNth: 10}
	keys, err := clientPlatform.Populate(ctx, pop)
	if err != nil {
		t.Fatal(err)
	}
	if pop.Orgs() != 2 {
		t.Fatalf("orgs = %d", pop.Orgs())
	}
	at := time.Date(2026, 7, 5, 9, 0, 0, 0, time.UTC)
	for _, key := range keys {
		if err := clientPlatform.Ingest(ctx, key, at, [][]float64{{1, 2, 3}, {10, 20, 30}}); err != nil {
			t.Fatalf("ingest %s: %v", key, err)
		}
	}
	// Live query fans out across both silos through the client.
	deadline := time.Now().Add(5 * time.Second)
	for {
		live, err := clientPlatform.LiveData(ctx, OrgKey(0))
		if err != nil {
			t.Fatal(err)
		}
		// 10 sensors x 2 channels + 1 virtual.
		complete := len(live) == 21
		if complete {
			for _, r := range live {
				if !isVirtualKey(r.Channel) && r.Point.Value == 0 {
					complete = false
				}
			}
		}
		if complete {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("live data incomplete: %d readings", len(live))
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Raw range query against a specific channel.
	pts, err := clientPlatform.RawData(ctx, ChannelKey(keys[3], 1), at.Add(-time.Minute), at.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 || pts[2].Value != 30 {
		t.Fatalf("raw data = %+v", pts)
	}
	// Activations really are spread across both silo processes.
	s1, _ := rt1.Silo("silo-1")
	s2, _ := rt2.Silo("silo-2")
	if s1.Activations() == 0 || s2.Activations() == 0 {
		t.Fatalf("activations: silo-1=%d silo-2=%d, want both > 0", s1.Activations(), s2.Activations())
	}
}
