package siloboot

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"aodb/internal/codec"
	"aodb/internal/core"
	"aodb/internal/kvstore"
	"aodb/internal/placement"
)

func init() {
	codec.Register(tickMsg{})
	codec.Register(readMsg{})
	codec.Register(tickState{})
}

type tickState struct{ N int }

type tickActor struct{ state tickState }

type tickMsg struct{ N int }
type readMsg struct{}

func (a *tickActor) State() any { return &a.state }

// tickActor is write-through, like the SHM actors: an acked tick is a
// quorum-persisted tick. That is what makes elastic growth lossless —
// if a view change re-homes the actor while the old activation is still
// live, the version fence on the state table serializes the two
// lineages and the loser's callers retry against the winner.
func (a *tickActor) Receive(ctx *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case tickMsg:
		a.state.N += m.N
		return a.state.N, ctx.WriteState()
	case readMsg:
		return a.state.N, nil
	}
	return nil, fmt.Errorf("unknown message %T", msg)
}

// startSilo boots one gossip-mode silo process — its own runtime, TCP
// transport, agent, rebalancer, and a 3-way replicated in-memory state
// store — exactly as shmserver wires them. Replication is what lets a
// live migration re-load the source's final state flush on a different
// process.
func startSilo(t *testing.T, name, silos, peers, seeds string) *Node {
	t.Helper()
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = kv.Close() })
	node, err := Start(Options{
		Name:      name,
		Listen:    "127.0.0.1:0",
		Silos:     silos,
		Peers:     peers,
		Gossip:    true,
		Seeds:     seeds,
		Rebalance: true,
		Store:     kv,
		Replicas:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = node.Runtime.Shutdown(ctx)
		_ = node.Drain(ctx)
		_ = node.TCP.Close()
	})
	if err := node.Runtime.RegisterKind("Tick", func() core.Actor { return &tickActor{} },
		core.WithPersistence(core.PersistOnDeactivate)); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Runtime.AddSilo(name, nil); err != nil {
		t.Fatal(err)
	}
	if err := node.JoinCluster(); err != nil {
		t.Fatal(err)
	}
	return node
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestGossipBootAndElasticJoin is the siloboot integration path of the
// elastic-growth story: two gossip silos converge on a shared view, a
// third joins purely via seeds (it appears in nobody's -silos list), the
// view grows everywhere, and the rebalancers live-migrate activations
// onto the newcomer without losing state.
func TestGossipBootAndElasticJoin(t *testing.T) {
	n1 := startSilo(t, "silo-1", "silo-1,silo-2", "", "")
	addr1 := n1.TCP.Addr()
	n2 := startSilo(t, "silo-2", "silo-1,silo-2",
		"silo-1="+addr1, "silo-1="+addr1)

	sees := func(n *Node, want int) func() bool {
		return func() bool { return len(n.View.View().Members) == want }
	}
	waitFor(t, "two-silo view on silo-1", sees(n1, 2))
	waitFor(t, "two-silo view on silo-2", sees(n2, 2))

	// Both replica stores must pass their rebuilding gate (one clean
	// anti-entropy pass) before quorum reads serve; poll a probe write
	// until the cluster answers.
	ctx := context.Background()
	waitFor(t, "replica stores to finish bootstrapping", func() bool {
		_, err := n1.Runtime.Call(ctx, core.ID{Kind: "Tick", Key: "probe@0"}, readMsg{})
		return err == nil
	})

	// Populate actors through silo-1; placement spreads them by hash.
	const actors = 32
	for i := 0; i < actors; i++ {
		id := core.ID{Kind: "Tick", Key: fmt.Sprintf("t%d@%d", i, i)}
		if _, err := n1.Runtime.Call(ctx, id, tickMsg{N: i + 1}); err != nil {
			t.Fatal(err)
		}
	}

	// Elastic join: silo-3 was in nobody's -silos list. It lists itself
	// plus the others (its own placement view converges via gossip
	// anyway) and seeds off silo-1.
	n3 := startSilo(t, "silo-3", "silo-3",
		"silo-1="+addr1, "silo-1="+addr1)
	waitFor(t, "three-silo view on silo-1", sees(n1, 3))
	waitFor(t, "three-silo view on silo-2", sees(n2, 3))
	waitFor(t, "three-silo view on silo-3", sees(n3, 3))

	// The rebalancers (kicked by the join event) migrate the hash-diff
	// set onto silo-3 live.
	s3, _ := n3.Runtime.Silo("silo-3")
	waitFor(t, "activations on the joined silo", func() bool {
		return s3.Activations() > 0
	})

	// Nothing was lost in flight: every actor still answers with its
	// pre-join state, wherever it lives now.
	for i := 0; i < actors; i++ {
		id := core.ID{Kind: "Tick", Key: fmt.Sprintf("t%d@%d", i, i)}
		v, err := n1.Runtime.Call(ctx, id, readMsg{})
		if err != nil {
			t.Fatalf("%s after join: %v", id, err)
		}
		if v.(int) != i+1 {
			for _, n := range []*Node{n1, n2, n3} {
				reg, ok := n.Runtime.Directory().Lookup(id.String())
				t.Logf("%s directory on %s: %v %v", id, n.Name, reg, ok)
			}
			t.Fatalf("%s state = %v, want %d", id, v, i+1)
		}
	}
}

// TestRebalanceKeepsHashHomes: the shipped wiring (gossip view,
// consistent-hash placement, a rebalancer on every silo) leaves a lopsided
// but correctly placed cluster alone. Every actor of one entity family
// shares one hash home, so one silo hosts them all and the other none;
// rebalance rounds on both silos move nothing, since any actor moved off
// its home would be moved back by the target's next placement diff.
func TestRebalanceKeepsHashHomes(t *testing.T) {
	n1 := startSilo(t, "silo-1", "silo-1,silo-2", "", "")
	addr1 := n1.TCP.Addr()
	n2 := startSilo(t, "silo-2", "silo-1,silo-2",
		"silo-1="+addr1, "silo-1="+addr1)
	nodes := []*Node{n1, n2}
	for _, n := range nodes {
		waitFor(t, "two-silo view on "+n.Name, func() bool { return len(n.View.View().Members) == 2 })
	}
	ctx := context.Background()
	waitFor(t, "replica stores to finish bootstrapping", func() bool {
		_, err := n1.Runtime.Call(ctx, core.ID{Kind: "Tick", Key: "probe@0"}, readMsg{})
		return err == nil
	})

	const actors = 24
	ids := make([]core.ID, actors)
	for i := range ids {
		ids[i] = core.ID{Kind: "Tick", Key: fmt.Sprintf("fam@%d", i)}
		if _, err := n1.Runtime.Call(ctx, ids[i], tickMsg{N: 1}); err != nil {
			t.Fatal(err)
		}
	}
	hash := placement.NewConsistentHash()
	hash.PrefixSep = '@'
	home, err := hash.Place(ids[0].String(), "", []string{"silo-1", "silo-2"})
	if err != nil {
		t.Fatal(err)
	}
	hosted := func() map[core.ID]string {
		at := make(map[core.ID]string)
		for _, n := range nodes {
			s, _ := n.Runtime.Silo(n.Name)
			for _, id := range s.ActiveIDs() {
				at[id] = n.Name
			}
		}
		return at
	}
	for _, id := range ids {
		if at := hosted()[id]; at != home {
			t.Fatalf("%s active on %q before rebalancing, want its hash home %s", id, at, home)
		}
	}

	time.Sleep(time.Second) // a few probe rounds
	for round := 0; round < 3; round++ {
		for _, n := range nodes {
			n.Rebalancer.Rebalance(ctx)
		}
	}
	var moves int64 // the background rounds' too
	for _, n := range nodes {
		moves += n.Registry.Counters()["rebalance.moves.done"]
	}
	at := hosted()
	for _, id := range ids {
		if at[id] != home {
			t.Errorf("%s active on %q after rebalancing, want its hash home %s", id, at[id], home)
		}
	}
	if moves != 0 {
		t.Fatalf("rebalancing a cluster where every actor sits on its hash home moved %d actors, want 0", moves)
	}
}

// TestStartParsesLists: -silos, -peers and -seeds are each parsed once,
// trimmed, and a malformed entry fails the boot with an error that names
// it — instead of a silo named " silo-2" that placement can pick but
// nothing serves, a "" silo in the view but not the ring, or a peer
// silently dropped.
func TestStartParsesLists(t *testing.T) {
	cases := []struct {
		name                string
		silos, peers, seeds string
		wantErr             string // "" = boots; the ring is silo-1, silo-2
	}{
		{name: "trimmed", silos: "silo-1, silo-2", peers: " silo-2 = 127.0.0.1:1 "},
		{name: "trailing comma", silos: "silo-1,silo-2,", wantErr: `entry 3 of "silo-1,silo-2," is empty`},
		{name: "empty silos", silos: "", wantErr: "-silos"},
		{name: "duplicate silo", silos: "silo-1,silo-2, silo-1", wantErr: `"silo-1" is listed twice`},
		{name: "peer without =", silos: "silo-1,silo-2", peers: "silo-2", wantErr: `-peers: entry "silo-2" is not name=addr`},
		{name: "peer without addr", silos: "silo-1,silo-2", peers: "silo-2=", wantErr: `entry "silo-2=" is not name=addr`},
		{name: "empty peer", silos: "silo-1,silo-2", peers: "silo-2=127.0.0.1:1,,", wantErr: "-peers: entry 2"},
		{name: "duplicate seed", silos: "silo-1,silo-2", seeds: "silo-2=127.0.0.1:1,silo-2=127.0.0.1:2", wantErr: `-seeds: "silo-2" is listed twice`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kv, err := kvstore.Open(kvstore.Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer kv.Close()
			node, err := Start(Options{
				Name: "silo-1", Listen: "127.0.0.1:0", Silos: tc.silos, Peers: tc.peers, Seeds: tc.seeds,
				Store: kv, Replicas: 2,
			})
			if err == nil {
				defer func() {
					_ = node.Runtime.Shutdown(context.Background())
					_ = node.Drain(context.Background())
					_ = node.TCP.Close()
				}()
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Start error = %v, want one containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := node.View.View().Ring.Members(); !slices.Equal(got, []string{"silo-1", "silo-2"}) {
				t.Fatalf("ring members = %q, want [silo-1 silo-2]", got)
			}
		})
	}
}
