package kvstore

import (
	"context"
	"errors"
	"testing"
)

func TestWriteFaultInjection(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, err := s.EnsureTable("t", Throughput{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if _, err := tb.Put(ctx, "k", []byte("v1")); err != nil {
		t.Fatal(err)
	}

	boom := errors.New("injected storage outage")
	s.SetWriteFault(func(table, key string) error {
		if table == "t" && key == "k" {
			return boom
		}
		return nil
	})

	// Faulted writes fail before any mutation: value and version unchanged.
	if _, err := tb.Put(ctx, "k", []byte("v2")); !errors.Is(err, boom) {
		t.Fatalf("Put under fault: %v", err)
	}
	if _, err := tb.PutIf(ctx, "k", []byte("v2"), 1); !errors.Is(err, boom) {
		t.Fatalf("PutIf under fault: %v", err)
	}
	it, err := tb.Get(ctx, "k")
	if err != nil || string(it.Value) != "v1" || it.Version != 1 {
		t.Fatalf("item mutated under fault: %+v, %v", it, err)
	}
	// Other keys are untouched by a selective fault.
	if _, err := tb.Put(ctx, "other", []byte("x")); err != nil {
		t.Fatalf("unfaulted key failed: %v", err)
	}
	if got := s.Metrics().Counter("kvstore.injected_write_faults").Value(); got != 2 {
		t.Fatalf("injected_write_faults = %d, want 2", got)
	}

	// Clearing the hook restores normal writes.
	s.SetWriteFault(nil)
	if v, err := tb.Put(ctx, "k", []byte("v2")); err != nil || v != 2 {
		t.Fatalf("Put after clearing fault: v%d, %v", v, err)
	}
}

func TestWriteFaultDoesNotAffectReads(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, _ := s.EnsureTable("t", Throughput{})
	ctx := context.Background()
	if _, err := tb.Put(ctx, "k", []byte("v")); err != nil {
		t.Fatal(err)
	}
	s.SetWriteFault(func(string, string) error { return errors.New("no writes") })
	if _, err := tb.Get(ctx, "k"); err != nil {
		t.Fatalf("Get under write fault: %v", err)
	}
	n := 0
	if err := tb.Scan(ctx, "", func(Item) bool { n++; return true }); err != nil || n != 1 {
		t.Fatalf("Scan under write fault: n=%d err=%v", n, err)
	}
}
