package telemetry

import (
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"aodb/internal/clock"
)

func TestEventsOffDisabledAndNilAreNoOps(t *testing.T) {
	var nilT *Tracer
	if nilT.Recording() {
		t.Fatal("nil tracer must report not recording")
	}
	nilT.Record(MemberDead, "a", 1, "x") // must not panic
	nilT.ObserveHLC(5)
	if nilT.StampHLC() != 0 || nilT.NewCorr() != 0 || nilT.Events() != nil {
		t.Fatal("nil tracer minted something")
	}

	spansOnly := New(Config{Silo: "s1"})
	spansOnly.Record(MemberDead, "a", 1, "no Events part")
	if spansOnly.Recording() || spansOnly.StampHLC() != 0 || spansOnly.NewCorr() != 0 || len(spansOnly.Events()) != 0 {
		t.Fatal("tracer without the Events part recorded or stamped")
	}

	off := New(Config{Silo: "s1", Parts: Events})
	off.SetEnabled(false)
	off.Record(MemberDead, "a", 1, "dropped while disabled")
	if got := off.Events(); len(got) != 0 || off.StampHLC() != 0 || off.NewCorr() != 0 {
		t.Fatalf("disabled tracer recorded %d events", len(got))
	}
}

func TestRecordAndEventsOrder(t *testing.T) {
	fake := clock.NewFake(time.Unix(1000, 0))
	tr := New(Config{Silo: "s1", Clock: fake, Parts: Events})
	corr := tr.NewCorr()
	tr.Record(MigratePrepare, "Sensor/1", corr, "target=s2")
	tr.Record(MigrateDrain, "Sensor/1", corr, "")
	tr.Record(MigrateActivate, "Sensor/1", corr, "")
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("want 3 events, got %d", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].HLC <= evs[i-1].HLC {
			t.Fatalf("events not HLC-ordered: %v then %v", evs[i-1].HLC, evs[i].HLC)
		}
		if evs[i].Corr != evs[0].Corr || len(evs[i].Corr) != 16 {
			t.Fatalf("correlation id lost: %q", evs[i].Corr)
		}
	}
	if evs[0].Kind != "migrate-prepare" || evs[2].Kind != "migrate-activate" {
		t.Fatalf("order wrong: %v", evs)
	}
	if evs[0].Silo != "s1" || evs[0].Seq != 1 || evs[2].Seq != 3 {
		t.Fatalf("silo or sequence not stamped: %+v", evs)
	}
}

func TestEventRingWraparoundKeepsNewest(t *testing.T) {
	tr := New(Config{Silo: "s1", Parts: Events})
	tr.events = newRing[event](4)
	for i := 0; i < 10; i++ {
		tr.Record(SlowTurn, "", 0, "")
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("ring of 4 holds %d", len(evs))
	}
	if evs[0].Seq != 7 || evs[3].Seq != 10 {
		t.Fatalf("expected seqs 7..10, got %d..%d", evs[0].Seq, evs[3].Seq)
	}
}

func TestConcurrentRecord(t *testing.T) {
	tr := New(Config{Silo: "s1", Parts: Events})
	tr.events = newRing[event](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				tr.Record(QuorumWrite, "k", 0, "")
				_ = tr.Events()
			}
		}()
	}
	wg.Wait()
	if evs := tr.Events(); len(evs) != 64 || evs[63].Seq != 800 {
		t.Fatalf("full ring should hold 64 ending at seq 800, got %d", len(evs))
	}
}

func TestMergeOrdersAcrossSilos(t *testing.T) {
	fa := clock.NewFake(time.Unix(1000, 0))
	a := New(Config{Silo: "a", Clock: fa, Parts: Events})
	b := New(Config{Silo: "b", Clock: fa, Parts: Events})

	a.Record(MemberSuspect, "", 0, "peer=b")
	// b learns of a's progress (message receipt merges the clock), so b's
	// next event must sort after a's even with identical physical time.
	b.ObserveHLC(a.StampHLC())
	b.Record(MemberDead, "", 0, "peer=x")

	merged := MergeEvents(b.Events(), a.Events())
	if len(merged) != 2 {
		t.Fatalf("want 2 merged, got %d", len(merged))
	}
	if merged[0].Kind != "member-suspect" || merged[1].Kind != "member-dead" {
		t.Fatalf("causal order lost: %v", merged)
	}
}

func TestNewCorrUniqueAcrossSilos(t *testing.T) {
	a := New(Config{Silo: "a", Parts: Events})
	b := New(Config{Silo: "b", Parts: Events})
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		for _, tr := range []*Tracer{a, b} {
			c := tr.NewCorr()
			if c == 0 || seen[c] {
				t.Fatalf("correlation collision or zero: %x", c)
			}
			seen[c] = true
		}
	}
}

// awaitCapture waits for an asynchronous capture to land: the captured
// event is recorded after the file is in place.
func awaitCapture(t *testing.T, tr *Tracer, reason string) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, e := range tr.Events() {
			if e.Kind == "captured" && e.Detail == reason {
				return
			}
		}
	}
	t.Fatalf("no %q capture fired", reason)
}

func TestAnomalyTriggersCapture(t *testing.T) {
	dir := t.TempDir()
	tr := New(Config{Silo: "s1", CaptureDir: dir, Parts: Events})
	tr.Record(QuorumWrite, "k1", 7, "ok")
	tr.Record(QuorumWriteFail, "k2", 8, "lost quorum: 1/2 acks")
	awaitCapture(t, tr, "quorum-write-fail")

	data, err := os.ReadFile(filepath.Join(dir, "flight-s1-001-quorum-write-fail.json"))
	if err != nil {
		t.Fatal(err)
	}
	var cf Capture
	if err := json.Unmarshal(data, &cf); err != nil {
		t.Fatalf("capture not valid JSON: %v", err)
	}
	if cf.Silo != "s1" || cf.Reason != "quorum-write-fail" {
		t.Fatalf("capture header wrong: %+v", cf)
	}
	if len(cf.Events) < 2 {
		t.Fatalf("capture missing ring contents: %d events", len(cf.Events))
	}
	found := false
	for _, e := range cf.Events {
		if e.Kind == "quorum-write-fail" && strings.Contains(e.Detail, "lost quorum") {
			found = true
		}
	}
	if !found {
		t.Fatal("capture does not contain the triggering event")
	}
}

func TestCaptureBudget(t *testing.T) {
	dir := t.TempDir()
	tr := New(Config{Silo: "s1", CaptureDir: dir, Parts: Events})
	for i := 0; i < captureMax+3; i++ {
		if _, err := tr.Capture("manual"); err != nil && i < captureMax {
			t.Fatalf("capture %d failed: %v", i, err)
		}
	}
	files, _ := filepath.Glob(filepath.Join(dir, "flight-*.json"))
	if len(files) != captureMax {
		t.Fatalf("budget of %d produced %d files", captureMax, len(files))
	}
	if _, err := New(Config{Silo: "s1", CaptureDir: dir}).Capture("manual"); err == nil {
		t.Fatal("a tracer without the Events part captured")
	}
}

func TestSlowTurnAndSLOBreach(t *testing.T) {
	clk := clock.NewFake(time.Unix(1000, 0))
	tr := New(Config{Silo: "s1", SlowTurn: 10 * time.Millisecond, CaptureDir: t.TempDir(), Clock: clk, Parts: Events})
	turn(tr, clk, "Sensor/1", "Sensor", 5*time.Millisecond) // under threshold: no event
	turn(tr, clk, "Sensor/1", "Sensor", 20*time.Millisecond)
	if evs := tr.Events(); len(evs) != 1 || evs[0].Kind != "slow-turn" || evs[0].Actor != "Sensor/1" {
		t.Fatalf("want exactly one slow-turn, got %v", evs)
	}
	turn(tr, clk, "Sensor/1", "Sensor", 10*10*time.Millisecond) // ten times slow: breaches the SLO
	awaitCapture(t, tr, "slo-breach")
}

func TestPanickedTurnIsAnEvent(t *testing.T) {
	tr := New(Config{Silo: "s1", Parts: Events})
	tn := tr.StartTurn(SpanContext{TraceID: 0xabc}, "Sensor/1", "Sensor", "s1")
	tr.EndTurn(&tn, 0, 0, 0, nil, true)
	evs := tr.Events()
	if len(evs) != 1 || evs[0].Kind != "panic" || evs[0].Corr != "0000000000000abc" {
		t.Fatalf("panic event = %+v", evs)
	}
}

func TestEventFilter(t *testing.T) {
	evs := []Event{
		{Seq: 1, Kind: "migrate-drain", Actor: "A/1", Corr: "c1"},
		{Seq: 2, Kind: "quorum-write", Actor: "A/2", Corr: "c2"},
		{Seq: 3, Kind: "migrate-activate", Actor: "A/1", Corr: "c1"},
		{Seq: 4, Kind: "quorum-write", Actor: "A/1", Corr: "c3"},
	}
	// Served, the filter is the request's query; n keeps its endpoint
	// meaning (n=0 is none), which a filter's zero N (all) does not have.
	seqs := func(query string) (out []uint64) {
		rec := httptest.NewRecorder()
		ServeEvents(rec, httptest.NewRequest("GET", "/events?"+query, nil), evs)
		var got []Event
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got == nil {
			t.Fatalf("?%s served %q (%v), want a JSON array", query, rec.Body, err)
		}
		for _, e := range got {
			out = append(out, e.Seq)
		}
		return out
	}
	for _, c := range []struct {
		query string
		want  []uint64
	}{
		{"", []uint64{1, 2, 3, 4}},
		{"actor=A/1", []uint64{1, 3, 4}},
		{"corr=c1", []uint64{1, 3}},
		{"kind=quorum-write", []uint64{2, 4}},
		{"actor=A/1&kind=quorum-write", []uint64{4}},
		{"n=2", []uint64{3, 4}},
		{"actor=A/1&n=1", []uint64{4}},
		{"n=0", nil},
		{"n=-1", []uint64{1, 2, 3, 4}},
		{"n=bogus", []uint64{1, 2, 3, 4}},
		{"kind=nope", nil},
	} {
		if got := seqs(c.query); !slices.Equal(got, c.want) {
			t.Fatalf("?%s = %v, want %v", c.query, got, c.want)
		}
	}
	if got := (EventFilter{Actor: "A/1", N: 2}).Apply(evs); len(got) != 2 || got[0].Seq != 3 || got[1].Seq != 4 {
		t.Fatalf("EventFilter{A/1, N:2} = %+v", got)
	}
}

func TestEventKindNames(t *testing.T) {
	seen := map[string]bool{}
	for k := MemberJoin; k <= EpochClaim; k++ {
		name := k.String()
		if strings.HasPrefix(name, "kind-") || seen[name] {
			t.Fatalf("kind %d has no unique wire name: %q", k, name)
		}
		seen[name] = true
		if ParseEventKind(name) != k {
			t.Fatalf("kind %v does not round-trip", k)
		}
	}
	if ParseEventKind("nope") != 0 || ParseEventKind("") != 0 {
		t.Fatal("unknown kind names should parse to 0")
	}
	if got := EventKind(200).String(); got != "kind-200" {
		t.Fatalf("unknown kind = %q", got)
	}
}
