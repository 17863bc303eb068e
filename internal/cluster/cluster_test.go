package cluster

import "testing"

func TestStaticView(t *testing.T) {
	v := NewStaticView("b", "a", "c")
	got := v.View()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("View = %v", got)
	}
	got[0] = "mutated"
	if v.View()[0] != "a" {
		t.Fatal("View exposed internal slice")
	}
}
