// Package codectest is what the packages that register binary wire forms
// (codec.RegisterWire) share in their tests: gob as the reference form,
// the stream round trip that is held to it, and the allocation count of
// one.
package codectest

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"aodb/internal/codec"
)

// fallbackProbe has no wire form, so the tag its frame carries is the gob
// fallback's.
type fallbackProbe struct{ X int }

func init() { codec.Register(fallbackProbe{}) }

// Encode returns the bytes of one frame carrying v, written by a fresh
// stream.
func Encode(t testing.TB, v any) []byte {
	t.Helper()
	var wire bytes.Buffer
	if err := codec.NewStream(&wire).Write(&codec.Frame{ID: 1, Kind: codec.FrameRequest, Payload: v}); err != nil {
		t.Fatalf("encode %T: %v", v, err)
	}
	return wire.Bytes()
}

// StreamRoundTrip sends v as a frame's payload through a stream and
// returns the payload read back.
func StreamRoundTrip(t testing.TB, v any) any {
	t.Helper()
	f, err := codec.NewStream(bytes.NewBuffer(Encode(t, v))).Read()
	if err != nil {
		t.Fatalf("decode %T: %v", v, err)
	}
	return f.Payload
}

// GobRoundTrip sends v through gob as an interface value, the way the
// fallback does, and returns what comes back.
func GobRoundTrip(t testing.TB, v any) any {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&v); err != nil {
		t.Fatalf("gob encode %T: %v", v, err)
	}
	var out any
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("gob decode %T: %v", v, err)
	}
	return out
}

// UsesFallback reports whether a frame carrying v carries it as a gob
// blob. Frames built by Encode differ only in their payload, which begins
// with its tag, so the tag sits where a nil payload's one byte does.
func UsesFallback(t testing.TB, v any) bool {
	t.Helper()
	at := len(Encode(t, nil)) - 1
	return Encode(t, v)[at] == Encode(t, fallbackProbe{})[at]
}

// EqualsGob asserts that v has a binary wire form and that the form
// decodes to exactly what a gob round trip of v gives.
func EqualsGob(t *testing.T, v any) {
	t.Helper()
	if UsesFallback(t, v) {
		t.Errorf("%T travels through the gob fallback, want a registered form", v)
		return
	}
	got, want := StreamRoundTrip(t, v), GobRoundTrip(t, v)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%T over the wire:\n got %#v\nwant %#v (gob)", v, got, want)
	}
}

// SkipUnderRace skips an allocation guard under the race detector, which
// allocates on its own account and makes sync.Pool drop items at random.
func SkipUnderRace(t testing.TB) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
}

// RoundTripAllocs is the allocations of writing f to a long-lived
// buffered stream and reading it back, in steady state. It skips the test
// under the race detector.
func RoundTripAllocs(t *testing.T, f *codec.Frame) float64 {
	t.Helper()
	SkipUnderRace(t)
	var wire bytes.Buffer
	s := codec.NewBufferedStream(&wire, 0)
	roundTrip := func() {
		if err := s.Write(f); err != nil {
			t.Fatal(err)
		}
		got, err := s.Read()
		if err != nil {
			t.Fatal(err)
		}
		codec.PutFrame(got)
	}
	roundTrip()
	return testing.AllocsPerRun(100, roundTrip)
}
