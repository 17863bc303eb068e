package widget

import "testing"

func TestProbe(t *testing.T) {
	if Handle(Probe{}) != -1 {
		t.Fatal("Probe unanswered")
	}
}
