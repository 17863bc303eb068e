package telemetry_test

import (
	"context"
	"testing"
	"time"

	"aodb/internal/cluster"
	"aodb/internal/codec"
	"aodb/internal/core"
	"aodb/internal/placement"
	"aodb/internal/telemetry"
	"aodb/internal/transport"
)

type echoMsg struct{ Tag string }

type hopMsg struct {
	Kind, Key string
	Tag       string
}

func init() {
	codec.Register(echoMsg{})
	codec.Register(hopMsg{})
	codec.Register("")
}

type echoActor struct{}

func (echoActor) Receive(_ *core.Context, msg any) (any, error) {
	return msg.(echoMsg).Tag, nil
}

type hopActor struct{}

func (hopActor) Receive(ctx *core.Context, msg any) (any, error) {
	m := msg.(hopMsg)
	return ctx.Call(core.ID{Kind: m.Kind, Key: m.Key}, echoMsg{Tag: m.Tag})
}

// newTCPNode builds one process-like node: a TCP endpoint, its own
// tracer (named after the node, as separate processes' would be), and a
// runtime with consistent-hash placement over the shared static view.
func newTCPNode(t *testing.T, name string, view []string) (*core.Runtime, *transport.TCP, *telemetry.Tracer) {
	t.Helper()
	tcp, err := transport.NewTCPWithOptions(name, "127.0.0.1:0", transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hash := placement.NewConsistentHash()
	hash.PrefixSep = '@'
	tracer := telemetry.New(telemetry.Config{Silo: name})
	rt, err := core.New(core.Config{
		Transport: tcp,
		Placement: hash,
		View:      cluster.NewStaticView(view...),
		Tracer:    tracer,
	})
	if err != nil {
		t.Fatal(err)
	}
	for kind, factory := range map[string]core.Factory{
		"Echo": func() core.Actor { return echoActor{} },
		"Hop":  func() core.Actor { return hopActor{} },
	} {
		if err := rt.RegisterKind(kind, factory); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	return rt, tcp, tracer
}

// TestTraceAcrossTCPSilos runs two silo processes plus an external
// client over real TCP and gob framing, and checks that parent/child
// span ids survive the wire: the client's root parents the first silo's
// turn, and that turn parents the second silo's turn on the nested
// cross-silo hop — three separate tracers stitched into one trace.
func TestTraceAcrossTCPSilos(t *testing.T) {
	view := []string{"silo-1", "silo-2"}
	rt1, tcp1, tr1 := newTCPNode(t, "silo-1", view)
	rt2, tcp2, tr2 := newTCPNode(t, "silo-2", view)
	rtC, tcpC, trC := newTCPNode(t, "client", view)

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

	// Pick keys so the hop actor lands on silo-1 and the echo actor on
	// silo-2, guaranteeing the nested call crosses the network.
	hash := placement.NewConsistentHash()
	hash.PrefixSep = '@'
	pick := func(kind, want string) string {
		for i := 0; i < 1000; i++ {
			key := string(rune('a'+i%26)) + string(rune('0'+i/26))
			silo, err := hash.Place(kind+"/"+key, "", view)
			if err != nil {
				t.Fatal(err)
			}
			if silo == want {
				return key
			}
		}
		t.Fatalf("no %s key hashes to %s", kind, want)
		return ""
	}
	hopKey := pick("Hop", "silo-1")
	echoKey := pick("Echo", "silo-2")

	v, err := rtC.Call(context.Background(),
		core.ID{Kind: "Hop", Key: hopKey},
		hopMsg{Kind: "Echo", Key: echoKey, Tag: "ping"})
	if err != nil {
		t.Fatal(err)
	}
	if v != "ping" {
		t.Fatalf("reply = %v, want ping", v)
	}

	// Assertions over the three tracers' stores.
	roots := trC.Spans()
	var root *telemetry.Span
	for i := range roots {
		if roots[i].Kind == telemetry.KindRoot {
			root = &roots[i]
		}
	}
	if root == nil || root.Err != "" {
		t.Fatalf("client root = %+v", root)
	}
	var hopTurn, echoTurn *telemetry.Span
	s1 := tr1.Spans()
	for i := range s1 {
		if s1[i].Kind == telemetry.KindTurn && s1[i].Actor == "Hop/"+hopKey {
			hopTurn = &s1[i]
		}
	}
	s2 := tr2.Spans()
	for i := range s2 {
		if s2[i].Kind == telemetry.KindTurn && s2[i].Actor == "Echo/"+echoKey {
			echoTurn = &s2[i]
		}
	}
	if hopTurn == nil || echoTurn == nil {
		t.Fatalf("turns not recorded on silo tracers: hop=%v echo=%v", hopTurn, echoTurn)
	}
	if hopTurn.TraceID != root.TraceID || echoTurn.TraceID != root.TraceID {
		t.Fatalf("trace ids diverged: root=%d hop=%d echo=%d", root.TraceID, hopTurn.TraceID, echoTurn.TraceID)
	}
	if hopTurn.Parent != root.SpanID {
		t.Fatalf("hop parent = %d, want client root span %d", hopTurn.Parent, root.SpanID)
	}
	if echoTurn.Parent != hopTurn.SpanID {
		t.Fatalf("echo parent = %d, want hop span %d", echoTurn.Parent, hopTurn.SpanID)
	}
	if !hopTurn.Remote || !echoTurn.Remote {
		t.Fatalf("remote flags: hop=%v echo=%v, both hops crossed the wire", hopTurn.Remote, echoTurn.Remote)
	}
	if hopTurn.Silo != "silo-1" || echoTurn.Silo != "silo-2" {
		t.Fatalf("silos: hop=%q echo=%q", hopTurn.Silo, echoTurn.Silo)
	}
}
