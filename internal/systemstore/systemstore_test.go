package systemstore

import (
	"context"
	"testing"
	"time"

	"aodb/internal/clock"
	"aodb/internal/kvstore"
)

func newStore(t *testing.T) (*Store, *clock.Fake) {
	t.Helper()
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { kv.Close() })
	fc := clock.NewFake(time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC))
	s, err := New(kv, fc)
	if err != nil {
		t.Fatal(err)
	}
	return s, fc
}

func TestReminderRegisterAndDue(t *testing.T) {
	s, fc := newStore(t)
	ctx := context.Background()
	r := Reminder{Target: "Aggregator/org-1/hour", Name: "rollup", Period: time.Hour}
	if err := s.RegisterReminder(ctx, r); err != nil {
		t.Fatal(err)
	}
	due, err := s.Due(ctx, fc.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(due) != 0 {
		t.Fatalf("reminder due immediately: %+v", due)
	}
	due, err = s.Due(ctx, fc.Now().Add(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if len(due) != 1 || due[0].Name != "rollup" {
		t.Fatalf("due = %+v", due)
	}
}

func TestReminderValidation(t *testing.T) {
	s, _ := newStore(t)
	ctx := context.Background()
	if err := s.RegisterReminder(ctx, Reminder{Name: "x", Period: time.Second}); err == nil {
		t.Fatal("reminder without target accepted")
	}
	if err := s.RegisterReminder(ctx, Reminder{Target: "a", Name: "x"}); err == nil {
		t.Fatal("reminder without period accepted")
	}
}

func TestAdvanceSkipsMissedPeriods(t *testing.T) {
	s, fc := newStore(t)
	ctx := context.Background()
	start := fc.Now()
	r := Reminder{Target: "A/1", Name: "tick", Period: time.Minute, NextDue: start.Add(time.Minute)}
	if err := s.RegisterReminder(ctx, r); err != nil {
		t.Fatal(err)
	}
	// The silo was down for 5.5 periods; Advance must land strictly in the
	// future on the period grid.
	now := start.Add(5*time.Minute + 30*time.Second)
	r2, err := s.Advance(ctx, r, now)
	if err != nil {
		t.Fatal(err)
	}
	want := start.Add(6 * time.Minute)
	if !r2.NextDue.Equal(want) {
		t.Fatalf("NextDue = %v, want %v", r2.NextDue, want)
	}
	// And the persisted copy matches.
	rs, err := s.RemindersFor(ctx, "A/1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || !rs[0].NextDue.Equal(want) {
		t.Fatalf("persisted = %+v", rs)
	}
}

func TestUnregisterReminder(t *testing.T) {
	s, _ := newStore(t)
	ctx := context.Background()
	if err := s.RegisterReminder(ctx, Reminder{Target: "A/1", Name: "t", Period: time.Second}); err != nil {
		t.Fatal(err)
	}
	if err := s.UnregisterReminder(ctx, "A/1", "t"); err != nil {
		t.Fatal(err)
	}
	if err := s.UnregisterReminder(ctx, "A/1", "t"); err != nil {
		t.Fatalf("second unregister: %v", err)
	}
	rs, _ := s.RemindersFor(ctx, "A/1")
	if len(rs) != 0 {
		t.Fatalf("reminders = %+v, want none", rs)
	}
}

func TestRemindersForIsolatesTargets(t *testing.T) {
	s, _ := newStore(t)
	ctx := context.Background()
	s.RegisterReminder(ctx, Reminder{Target: "A/1", Name: "x", Period: time.Second})
	s.RegisterReminder(ctx, Reminder{Target: "A/10", Name: "y", Period: time.Second})
	rs, err := s.RemindersFor(ctx, "A/1")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 1 || rs[0].Name != "x" {
		t.Fatalf("RemindersFor(A/1) = %+v, want just x (prefix must not match A/10)", rs)
	}
}

func TestRemindersSurviveReopen(t *testing.T) {
	dir := t.TempDir()
	kv, err := kvstore.Open(kvstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s, err := New(kv, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterReminder(ctx, Reminder{Target: "A/1", Name: "r", Period: time.Minute}); err != nil {
		t.Fatal(err)
	}
	kv.Close()

	kv2, err := kvstore.Open(kvstore.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer kv2.Close()
	s2, err := New(kv2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := s2.RemindersFor(ctx, "A/1")
	if err != nil || len(rs) != 1 {
		t.Fatalf("reminders after reopen = %+v, %v", rs, err)
	}
}
