package replication

import (
	"context"
	"testing"
	"time"

	"aodb/internal/clock"
	"aodb/internal/metrics"
	"aodb/internal/telemetry"
	"aodb/internal/transport"
)

// TestQuorumFanoutHLCContinuity proves the hybrid logical clock rides
// the replication fan-out: the coordinator's recorder runs on a clock an
// hour in the future, so the replica-side recorder (real clock) can only
// end up past that future stamp by observing it off the wire. After one
// quorum write, the replica's next event must sort after the
// coordinator's quorum-write event in a merged timeline — cause before
// effect, regardless of wall-clock skew.
func TestQuorumFanoutHLCContinuity(t *testing.T) {
	ahead := clock.NewFake(time.Now().Add(time.Hour))
	jrCoord := telemetry.New(telemetry.Config{Silo: "s1", Clock: ahead, Parts: telemetry.Events})
	jrReplica := telemetry.New(telemetry.Config{Silo: "s2", Parts: telemetry.Events})

	silos := []string{"s1", "s2", "s3"}
	ring, err := NewRing(silos)
	if err != nil {
		t.Fatal(err)
	}
	tr := transport.NewLocal(nil, nil)
	t.Cleanup(func() { _ = tr.Close() })
	svc := NewService()
	for _, s := range silos {
		st := testStore(t, s, ring, 3)
		svc.Host(s, st)
		silo := s
		if err := tr.Register(silo, func(ctx context.Context, req transport.Request) (any, error) {
			// What core.Silo.handle does before dispatching a service RPC.
			jrReplica.ObserveHLC(req.HLC)
			return svc.Handle(ctx, silo, req)
		}); err != nil {
			t.Fatal(err)
		}
	}
	coord, err := NewCoordinator(Config{
		Ring:      ring,
		N:         3,
		R:         2,
		W:         2,
		Transport: tr,
		Metrics:   metrics.NewRegistry(),
		Tracer:    jrCoord,
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := coord.Store(context.Background(), "device@hlc", []byte("state"), 0); err != nil {
		t.Fatal(err)
	}

	var write *telemetry.Event
	for _, e := range jrCoord.Events() {
		if e.Kind == "quorum-write" {
			e := e
			write = &e
		}
	}
	if write == nil {
		t.Fatal("coordinator journal has no quorum-write event")
	}
	if write.Corr == "" {
		t.Fatal("quorum-write must carry a correlation id")
	}

	// Without the wire stamp the replica's clock is an hour behind the
	// coordinator's; having observed it, its next mint must be ahead.
	jrReplica.Record(telemetry.QuorumRead, "device@hlc", 0, "post-write probe")
	var probe *telemetry.Event
	for _, e := range jrReplica.Events() {
		if e.Detail == "post-write probe" {
			e := e
			probe = &e
		}
	}
	if probe == nil {
		t.Fatal("replica journal did not record the probe event")
	}
	if probe.HLC <= write.HLC {
		t.Fatalf("replica event (hlc=%d) must sort after the quorum write (hlc=%d): stamp was not observed across the fan-out",
			probe.HLC, write.HLC)
	}
	// And the merged timeline agrees: quorum-write before the probe.
	merged := telemetry.MergeEvents(jrCoord.Events(), jrReplica.Events())
	wi, pi := -1, -1
	for i, e := range merged {
		switch {
		case e.Kind == "quorum-write" && e.Silo == "s1":
			wi = i
		case e.Detail == "post-write probe":
			pi = i
		}
	}
	if wi == -1 || pi == -1 || wi > pi {
		t.Fatalf("merged timeline out of causal order: write at %d, probe at %d", wi, pi)
	}
}
