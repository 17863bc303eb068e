package cluster

import "testing"

func TestStaticView(t *testing.T) {
	v := NewStaticView("b", "a", "c")
	got := v.View()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("View = %v", got)
	}
	// A view is read-only and shared: View hands out the same slice.
	if again := v.View(); &again[0] != &got[0] {
		t.Fatal("View copied the fixed set")
	}
}
