package netsim

import (
	"testing"
	"time"
)

func TestNilModelIsFree(t *testing.T) {
	var m *Model
	if d := m.Delay("a", "b", 4096); d != 0 {
		t.Fatalf("nil model delay = %v, want 0", d)
	}
}

func TestLoopbackLocalLink(t *testing.T) {
	m := NewModel(1, Loopback, SameAZ)
	if d := m.Delay("silo-1", "silo-1", 1024); d != 0 {
		t.Fatalf("local delay = %v, want 0", d)
	}
}

func TestRemoteLinkHasBaseLatency(t *testing.T) {
	m := NewModel(1, Loopback, SameAZ)
	d := m.Delay("silo-1", "silo-2", 0)
	if d < SameAZ.Base {
		t.Fatalf("remote delay = %v, want >= %v", d, SameAZ.Base)
	}
	maxJitter := SameAZ.Base + time.Duration(float64(SameAZ.Base)*SameAZ.JitterFrac)
	if d > maxJitter {
		t.Fatalf("remote delay = %v, want <= %v", d, maxJitter)
	}
}

func TestPayloadSizeAddsCost(t *testing.T) {
	prof := Profile{Base: time.Millisecond, PerKB: 100 * time.Microsecond}
	m := NewModel(1, Loopback, prof)
	small := m.Delay("a", "b", 0)
	large := m.Delay("a", "b", 10*1024)
	if large-small != 10*100*time.Microsecond {
		t.Fatalf("size cost = %v, want 1ms", large-small)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	a := NewModel(42, Loopback, SameAZ)
	b := NewModel(42, Loopback, SameAZ)
	for i := 0; i < 10; i++ {
		if da, db := a.Delay("x", "y", 0), b.Delay("x", "y", 0); da != db {
			t.Fatalf("same-seed models diverged at call %d: %v vs %v", i, da, db)
		}
	}
}
