package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"aodb/internal/metrics"
	"aodb/internal/obs"
	"aodb/internal/telemetry"
)

// TestRenderAgainstLiveSilo drives the full shmtop pipeline: a real
// introspection endpoint, the embedded aggregator, and the frame
// renderer — the same path `shmtop -silos ... -once` takes.
func TestRenderAgainstLiveSilo(t *testing.T) {
	reg := metrics.NewRegistry()
	h := reg.Histogram("shm.call_latency")
	for i := 1; i <= 100; i++ {
		h.Record(int64(i) * int64(time.Millisecond))
	}
	tr := telemetry.New(telemetry.Config{Silo: "silo-1", Parts: telemetry.Profile | telemetry.Events})
	for actor, cpu := range map[string]time.Duration{"Sensor/hot": 40 * time.Millisecond, "Sensor/warm": 10 * time.Millisecond} {
		tn := tr.StartTurn(telemetry.SpanContext{}, actor, "Sensor", "silo-1")
		tr.EndTurn(&tn, cpu, 0, 0, nil, false)
	}
	tr.Record(telemetry.BreakerTrip, "", 0, "node=silo-2 failures=5")
	in := &telemetry.Introspection{Registry: reg, Tracer: tr, Name: "silo-1"}
	srv := httptest.NewServer(in.Handler())
	defer srv.Close()

	fetch, events := newFetcher("", [][2]string{{"silo-1", srv.URL}}, "", time.Second)
	snap, err := fetch(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	timeline, err := events(context.Background(), 5, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	frame := render(snap, 10, timeline)
	for _, want := range []string{
		"1/1 silos up",
		"shm.call_latency",
		"HOT ACTORS",
		"Sensor/hot",
		"silo-1",
		"TIMELINE",
		"breaker-trip",
	} {
		if !strings.Contains(frame, want) {
			t.Fatalf("frame missing %q:\n%s", want, frame)
		}
	}
	// The hottest actor renders above the cooler one.
	if strings.Index(frame, "Sensor/hot") > strings.Index(frame, "Sensor/warm") {
		t.Fatalf("hot actor not ranked first:\n%s", frame)
	}
}

// TestTraceSourceFailures: -trace names the silos it merged without and
// keeps going, but a source it cannot read at all is an error, not an
// empty timeline.
func TestTraceSourceFailures(t *testing.T) {
	tr := telemetry.New(telemetry.Config{Silo: "silo-1", Parts: telemetry.Events})
	tr.Record(telemetry.MemberJoin, "", 0, "member=silo-1")
	srv := httptest.NewServer((&telemetry.Introspection{Tracer: tr, Name: "silo-1"}).Handler())
	defer srv.Close()
	const ghost = "http://127.0.0.1:1"
	ctx := context.Background()

	var warn bytes.Buffer
	_, events := newFetcher("", [][2]string{{"silo-1", srv.URL}, {"silo-2", ghost}}, "", time.Second)
	timeline, err := events(ctx, 0, &warn)
	if err != nil || len(timeline) != 1 {
		t.Fatalf("-silos with one silo down: %d events, %v", len(timeline), err)
	}
	if !strings.Contains(warn.String(), "silo-2 unreachable") || strings.Contains(warn.String(), "silo-1 ") {
		t.Fatalf("warning = %q, want silo-2 alone named", warn.String())
	}

	_, events = newFetcher(ghost, nil, "", time.Second)
	if _, err := events(ctx, 0, io.Discard); err == nil {
		t.Fatal("-cluster at an unreachable aggregator must fail")
	}
	_, events = newFetcher("", nil, ghost, time.Second)
	if _, err := events(ctx, 0, io.Discard); err == nil {
		t.Fatal("-discover at an unreachable seed must fail")
	}
	// A seed that answers but gossips nothing has no one to ask either.
	_, events = newFetcher("", nil, srv.URL, time.Second)
	if _, err := events(ctx, 0, io.Discard); err == nil || !strings.Contains(err.Error(), "no members") {
		t.Fatalf("-discover at a seed without a view: %v", err)
	}
}

func TestRenderMarksDownSilo(t *testing.T) {
	agg := obs.New(obs.Config{
		Targets: []obs.Target{{Name: "ghost", URL: "http://127.0.0.1:1"}},
		Timeout: 200 * time.Millisecond,
	})
	snap := agg.PollOnce(context.Background())
	frame := render(snap, 5, nil)
	if !strings.Contains(frame, "PARTIAL") || !strings.Contains(frame, "DOWN") {
		t.Fatalf("down silo not surfaced:\n%s", frame)
	}
}

func TestDurAndBytesFormat(t *testing.T) {
	if got := dur(500); got != "500ns" {
		t.Fatalf("dur = %q", got)
	}
	if got := dur(int64(3 * time.Millisecond)); got != "3.0ms" {
		t.Fatalf("dur = %q", got)
	}
	if got := dur(int64(2500 * time.Nanosecond)); got != "2.5µs" {
		t.Fatalf("dur = %q", got)
	}
	if got := bytesStr(2048); got != "2.0KiB" {
		t.Fatalf("bytesStr = %q", got)
	}
}

// TestTraceCaptureGolden is `shmtop -trace -capture`: the capture files
// under testdata were written by the journal package of the commit
// before the recorder moved into telemetry, so this also pins the file
// format. silo-2's wall clock ran three seconds behind silo-1's; the
// merged timeline is causal all the same.
func TestTraceCaptureGolden(t *testing.T) {
	var log bytes.Buffer
	timeline, err := mergeCaptures(filepath.Join("testdata", "flight-*.json"), &log)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(log.String(), "5 events from silo-1 (captured: member-dead)") {
		t.Fatalf("capture header not reported: %q", log.String())
	}
	var out bytes.Buffer
	printTrace(&out, timeline, false)
	want, err := os.ReadFile(filepath.Join("testdata", "trace.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Fatalf("timeline differs from testdata/trace.golden:\n%s", out.String())
	}

	// One migration's correlation id narrows the timeline to its three
	// phases across both silos; -json emits the same events as data.
	out.Reset()
	printTrace(&out, telemetry.EventFilter{Corr: "2f5836422f46d059"}.Apply(timeline), true)
	var phases []telemetry.Event
	if err := json.Unmarshal(out.Bytes(), &phases); err != nil {
		t.Fatal(err)
	}
	if len(phases) != 3 || phases[0].Kind != "migrate-prepare" || phases[2].Kind != "migrate-activate" || phases[2].Silo != "silo-1" {
		t.Fatalf("-corr timeline = %+v", phases)
	}

	// A raw /events dump (a bare array) is accepted where a capture is.
	bare := filepath.Join(t.TempDir(), "events.json")
	if err := os.WriteFile(bare, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if evs, err := mergeCaptures(bare, io.Discard); err != nil || len(evs) != 3 {
		t.Fatalf("bare array capture: %d events, %v", len(evs), err)
	}
	if _, err := mergeCaptures(filepath.Join(t.TempDir(), "none-*.json"), io.Discard); err == nil {
		t.Fatal("a glob matching nothing must be an error")
	}
	out.Reset()
	printTrace(&out, nil, false)
	if !strings.Contains(out.String(), "no events") {
		t.Fatalf("empty timeline = %q", out.String())
	}
}
