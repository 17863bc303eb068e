// Package widget holds one identifier of each kind the scan tells apart.
package widget

import (
	"encoding/json"

	"fixture/internal/codec"
)

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

// Counter is a stateful actor: what State returns is its state.
type Counter struct{ state counterState }

type counterState struct {
	Hits int // Hit returns it
	// Note is written and never read; the scan reports it.
	Note string
	// Log is only ever appended to; the scan reports it.
	Log []string
	// Last is read through Mark, a type the state holds.
	Last Mark
}

// Mark is held by the counter's state, so its fields are state too.
type Mark struct {
	At int // Hit reads it
	// By is written and never read; the scan reports it.
	By string
}

func (c *Counter) State() any { return &c.state }

// MarshalJSON encodes every field; its reads do not count.
func (s *counterState) MarshalJSON() ([]byte, error) {
	return json.Marshal([]any{s.Hits, s.Note, s.Log, s.Last.At, s.Last.By})
}

// Hit records one hit by who and returns the hits counted before it.
func (c *Counter) Hit(who string) int {
	prev := c.state.Last.At
	c.state.Hits++
	c.state.Note = who
	c.state.Log = append(c.state.Log, who)
	c.state.Last = Mark{At: c.state.Hits, By: who}
	return prev
}
