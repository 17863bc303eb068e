// Package widget holds one identifier of each kind the scan tells apart.
package widget

import "fixture/internal/codec"

// Reached is called from main.
func Reached() {}

// Unused is reached by nothing; the scan reports it.
func Unused() {}

// Spare is reached by nothing and allow-listed.
func Spare() {}

// Busy is an error that classifies itself as transient.
type Busy struct{}

func (Busy) Error() string { return "busy" }

// TransientError marks Busy as transient for errors.As.
func (Busy) TransientError() bool { return true }

// Ping is a message main sends.
type Ping struct {
	Seq int // main sets it
	// Limit is read by Handle and set by nothing; the scan reports it.
	Limit int
}

// Orphan is answered by Handle and registered, but nothing sends it; the
// scan reports it.
type Orphan struct{}

// Probe is answered by Handle and built only in a test file; the scan
// reports it.
type Probe struct{}

func init() {
	for _, v := range []any{Ping{}, Orphan{}, Probe{}} {
		codec.Register(v)
	}
}

// Handle answers the widget's messages.
func Handle(msg any) int {
	switch m := msg.(type) {
	case Ping:
		return min(m.Seq, m.Limit)
	case Orphan, Probe:
		return -1
	}
	return 0
}
