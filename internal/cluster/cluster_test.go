package cluster

import (
	"slices"
	"testing"
)

func TestStaticView(t *testing.T) {
	v := NewStaticView("b", "a", "c", "a")
	got := v.View()
	if !slices.Equal(got.Members, []string{"a", "b", "c"}) || got.Seq != 1 {
		t.Fatalf("View = %+v", got)
	}
	if !slices.Equal(got.Ring.Members(), got.Members) {
		t.Fatalf("ring members = %v, want %v", got.Ring.Members(), got.Members)
	}
	// A view is read-only and shared: View hands out the same value.
	if v.View() != got {
		t.Fatal("View copied the fixed view")
	}
}

func TestViewNext(t *testing.T) {
	v := NewStaticView("s1", "s2")
	next := v.Next([]string{"s3", "s1", "s2"})
	if next.Seq != 2 || !slices.Equal(next.Members, []string{"s1", "s2", "s3"}) {
		t.Fatalf("Next = %+v", next)
	}
	if !slices.Equal(v.Members, []string{"s1", "s2"}) {
		t.Fatalf("Next changed its receiver: %v", v.Members)
	}
	if empty := next.Next(nil); empty.Seq != 3 || empty.Members != nil || empty.Ring != nil {
		t.Fatalf("empty view = %+v", empty)
	}
}
