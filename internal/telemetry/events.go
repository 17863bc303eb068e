package telemetry

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"time"

	"aodb/internal/clock"
)

// The Events part is the cluster flight recorder: a bounded per-silo ring
// of structured events (membership transitions, migration phases, quorum
// outcomes, breaker trips, slow turns, WAL flush stalls), each stamped
// with a hybrid logical clock so the rings of many silos merge into one
// causally ordered timeline after the fact.
// Anomalies (quorum loss, actor panics, members declared dead, a ring
// handoff open past its alarm, SLO-breaching turns) freeze a snapshot of the ring to disk so the
// interesting window survives wraparound — and the process.

// EventKind classifies a flight-recorder event.
type EventKind uint8

// Event kinds.
const (
	MemberJoin EventKind = iota + 1
	MemberSuspect
	MemberDead
	RingChange
	MigratePrepare
	MigrateDrain
	MigrateForced
	MigrateActivate
	QuorumWrite
	QuorumWriteFail
	QuorumRead
	QuorumReadFail
	BreakerTrip
	SlowTurn
	ActorPanic
	WALStall
	Captured
	EpochClaim
	HandoffStalled
)

var eventKindNames = [...]string{
	MemberJoin:      "member-join",
	MemberSuspect:   "member-suspect",
	MemberDead:      "member-dead",
	RingChange:      "ring-change",
	MigratePrepare:  "migrate-prepare",
	MigrateDrain:    "migrate-drain",
	MigrateForced:   "migrate-forced",
	MigrateActivate: "migrate-activate",
	QuorumWrite:     "quorum-write",
	QuorumWriteFail: "quorum-write-fail",
	QuorumRead:      "quorum-read",
	QuorumReadFail:  "quorum-read-fail",
	BreakerTrip:     "breaker-trip",
	SlowTurn:        "slow-turn",
	ActorPanic:      "panic",
	WALStall:        "wal-stall",
	Captured:        "captured",
	EpochClaim:      "epoch-claim",
	HandoffStalled:  "handoff-stalled",
}

// String returns the kind's wire name (used in /events JSON and filters).
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// ParseEventKind maps a wire name back to its kind (0 if unknown).
func ParseEventKind(s string) EventKind {
	for k, name := range eventKindNames {
		if k > 0 && name == s {
			return EventKind(k)
		}
	}
	return 0
}

// anomalous kinds trigger an automatic ring capture when recorded: they
// are exactly the events whose surrounding window someone will want to
// reconstruct after the fact.
func (k EventKind) anomalous() bool {
	switch k {
	case QuorumWriteFail, QuorumReadFail, ActorPanic, MemberDead, HandoffStalled:
		return true
	}
	return false
}

// event is one ring entry; its sequence number is its ring position.
type event struct {
	hlc    clock.HLC
	kind   EventKind
	actor  string
	corr   uint64
	detail string
}

// Event is one flight-recorder entry in the JSON form served by /events,
// merged by internal/obs, and written to capture files. HLC orders the
// event causally against events from other silos and stays a raw uint64
// so merge sorting needs no parsing; Time is its human-readable physical
// component. Seq is the silo-local record sequence, a stable tiebreak
// for events sharing an HLC value. Corr groups the events of one logical
// operation (a migration, a quorum write) across silos.
type Event struct {
	HLC    uint64 `json:"hlc"`
	Seq    uint64 `json:"seq"`
	Time   string `json:"time"`
	Silo   string `json:"silo"`
	Kind   string `json:"kind"`
	Actor  string `json:"actor,omitempty"`
	Corr   string `json:"corr,omitempty"`
	Detail string `json:"detail,omitempty"`
}

// MergeEvents combines per-silo event sets into one causally ordered
// timeline: ascending HLC, ties broken by silo name then sequence.
// Inputs need not be sorted.
func MergeEvents(sets ...[]Event) []Event {
	total := 0
	for _, s := range sets {
		total += len(s)
	}
	out := make([]Event, 0, total)
	for _, s := range sets {
		out = append(out, s...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].HLC != out[j].HLC {
			return out[i].HLC < out[j].HLC
		}
		if out[i].Silo != out[j].Silo {
			return out[i].Silo < out[j].Silo
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// EventFilter narrows a timeline: empty selectors match everything, Corr
// is the 16-hex-digit id, Kind a wire kind name, and N > 0 keeps the
// newest N of what matched. /events, /cluster/events (see ServeEvents) and
// shmtop -trace share it.
type EventFilter struct {
	Actor, Corr, Kind string
	N                 int
}

// Apply filters events, which must be oldest first.
func (f EventFilter) Apply(events []Event) []Event {
	if f.Actor != "" || f.Corr != "" || f.Kind != "" {
		out := events[:0:0]
		for _, e := range events {
			if (f.Actor == "" || e.Actor == f.Actor) && (f.Corr == "" || e.Corr == f.Corr) && (f.Kind == "" || e.Kind == f.Kind) {
				out = append(out, e)
			}
		}
		events = out
	}
	if f.N > 0 && f.N < len(events) {
		events = events[len(events)-f.N:]
	}
	return events
}

// Recording reports whether events are being recorded; call sites that
// format a detail string check it first. Nil-receiver safe.
func (t *Tracer) Recording() bool { return t.Enabled() && t.has(Events) }

// StampHLC mints an HLC timestamp for an outbound message so the receiver
// can merge it; zero when events are not being recorded.
func (t *Tracer) StampHLC() uint64 {
	if !t.Recording() {
		return 0
	}
	return uint64(t.hlc.Now())
}

// ObserveHLC merges an inbound message's HLC stamp into this silo's clock,
// so every event the message causes orders after its send.
func (t *Tracer) ObserveHLC(remote uint64) {
	if remote != 0 && t.Recording() {
		t.hlc.Observe(clock.HLC(remote))
	}
}

// NewCorr mints a correlation id grouping one logical operation's events;
// zero (uncorrelated) when events are not being recorded.
func (t *Tracer) NewCorr() uint64 {
	if !t.Recording() {
		return 0
	}
	return t.nextID()
}

// Record appends one event to the ring (dropped unless Recording).
func (t *Tracer) Record(kind EventKind, actor string, corr uint64, detail string) {
	if t.Recording() {
		t.record(kind, actor, corr, detail)
	}
}

func (t *Tracer) record(kind EventKind, actor string, corr uint64, detail string) {
	t.events.push(event{hlc: t.hlc.Now(), kind: kind, actor: actor, corr: corr, detail: detail})
	if kind.anomalous() {
		t.captureAsync(kind.String())
	}
}

// Events returns the ring's current events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	evs, first := t.events.snapshot()
	out := make([]Event, len(evs))
	for i, e := range evs {
		out[i] = Event{
			HLC:    uint64(e.hlc),
			Seq:    uint64(first) + uint64(i),
			Time:   e.hlc.Time().Format(time.RFC3339Nano),
			Silo:   t.cfg.Silo,
			Kind:   e.kind.String(),
			Actor:  e.actor,
			Detail: e.detail,
		}
		if e.corr != 0 {
			out[i].Corr = fmt.Sprintf("%016x", e.corr)
		}
	}
	return out
}

// Capture is the on-disk capture format (flight-<silo>-<n>-<reason>.json).
type Capture struct {
	Silo     string  `json:"silo"`
	Reason   string  `json:"reason"`
	Captured string  `json:"captured"`
	HLC      uint64  `json:"hlc"`
	Events   []Event `json:"events"`
}

// captureAsync freezes the ring to disk off the recording path. Extra
// triggers racing an in-flight capture are dropped — the ring they would
// snapshot is the same one.
func (t *Tracer) captureAsync(reason string) {
	if t.cfg.CaptureDir == "" || t.captures.Load() >= captureMax || !t.captureMu.TryLock() {
		return
	}
	go func() {
		defer t.captureMu.Unlock()
		if path, err := t.Capture(reason); err == nil {
			log.Printf("telemetry: %s: journal capture %s (%s)", t.cfg.Silo, path, reason)
		}
	}()
}

// Capture writes a snapshot of the event ring to CaptureDir and returns
// the file path. It respects the per-process capture budget; callers
// wanting an unconditional dump can read Events themselves.
func (t *Tracer) Capture(reason string) (string, error) {
	if t == nil || t.events == nil || t.cfg.CaptureDir == "" {
		return "", fmt.Errorf("telemetry: no capture directory configured")
	}
	n := t.captures.Add(1)
	if n > captureMax {
		return "", fmt.Errorf("telemetry: capture budget (%d) exhausted", captureMax)
	}
	if err := os.MkdirAll(t.cfg.CaptureDir, 0o755); err != nil {
		return "", err
	}
	now := t.hlc.Now()
	data, err := json.MarshalIndent(Capture{
		Silo:     t.cfg.Silo,
		Reason:   reason,
		Captured: now.Time().Format(time.RFC3339Nano),
		HLC:      uint64(now),
		Events:   t.Events(),
	}, "", " ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(t.cfg.CaptureDir, fmt.Sprintf("flight-%s-%03d-%s.json", t.cfg.Silo, n, reason))
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	// The capture itself is part of the story: record it so a merged
	// timeline shows when and why the window was frozen.
	t.Record(Captured, "", 0, reason)
	return path, nil
}
