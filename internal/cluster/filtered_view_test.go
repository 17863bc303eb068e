package cluster

import (
	"reflect"
	"testing"
)

func TestFilteredViewExcludesVetoedSilos(t *testing.T) {
	base := NewStaticView("s1", "s2", "s3")
	down := map[string]bool{"s2": true}
	fv := NewFilteredView(base, func(s string) bool { return down[s] })

	got := fv.View()
	if !reflect.DeepEqual(got.Members, []string{"s1", "s3"}) {
		t.Fatalf("View() = %v", got.Members)
	}
	// The veto steers placement only: the ring stays the base's.
	if got.Ring != base.Ring || got.Seq != base.Seq {
		t.Fatalf("vetoed view ring/seq = %p/%d, want the base's %p/%d", got.Ring, got.Seq, base.Ring, base.Seq)
	}
	// The veto is consulted per call: recovery is immediate.
	delete(down, "s2")
	if got := fv.View(); !reflect.DeepEqual(got.Members, []string{"s1", "s2", "s3"}) {
		t.Fatalf("View() after recovery = %v", got.Members)
	}
}

func TestFilteredViewFallsBackWhenAllVetoed(t *testing.T) {
	base := NewStaticView("s1", "s2")
	fv := NewFilteredView(base, func(string) bool { return true })
	// Vetoing everything must not report an empty cluster; routing (and
	// breaker probing) needs somewhere to send traffic.
	if got := fv.View(); !reflect.DeepEqual(got.Members, []string{"s1", "s2"}) {
		t.Fatalf("View() = %v, want full fallback", got.Members)
	}
}

func TestFilteredViewNilReject(t *testing.T) {
	fv := NewFilteredView(NewStaticView("s1"), nil)
	if got := fv.View(); !reflect.DeepEqual(got.Members, []string{"s1"}) {
		t.Fatalf("View() = %v", got.Members)
	}
}
