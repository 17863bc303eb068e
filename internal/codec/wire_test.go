package codec_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"aodb/internal/codec"
	"aodb/internal/codec/codectest"
)

// stamp is a registered form of this test's own: the one way to drive
// Enc.Time and Dec.Time, and RegisterWire itself, from outside the package.
type stamp struct {
	At   time.Time
	Note string
}

// blob has no wire form: it rides the gob fallback.
type blob struct {
	N    int
	Tags []string
}

// series has both shapes a payload that can carry a run has: each value
// tagged (0xf2), or a run (0xf3) when Enc.Run takes the values. A series
// decoded from a run holds it, one []T, in Run.
type series struct {
	Vs  []any
	Run any
}

// mark's registered form writes nothing.
type mark struct{}

func init() {
	codec.Register(stamp{})
	codec.Register(blob{})
	codec.Register(mark{})
	codec.RegisterWire(0xf0,
		func(e *codec.Enc, s stamp) { e.Time(s.At); e.String(s.Note) },
		func(d *codec.Dec) stamp { return stamp{At: d.Time(), Note: d.String()} })
	codec.RegisterWire(0xf2,
		func(e *codec.Enc, s series) {
			e.Len(len(s.Vs))
			for _, v := range s.Vs {
				e.Any(v)
			}
		},
		func(d *codec.Dec) series {
			s := series{Vs: make([]any, d.Len(1))}
			for i := range s.Vs {
				s.Vs[i] = d.Any()
			}
			return s
		})
	codec.RegisterWireAlt(0xf3,
		func(e *codec.Enc, s series) bool { return e.Run(len(s.Vs), func(i int) any { return s.Vs[i] }) },
		func(d *codec.Dec) series { return series{Run: d.Run()} })
	codec.RegisterWire(0xf4, func(*codec.Enc, mark) {}, func(*codec.Dec) mark { return mark{} })
}

// seriesOf is a series of n values, value i made by f.
func seriesOf(n int, f func(i int) any) series {
	s := series{Vs: make([]any, n)}
	for i := range s.Vs {
		s.Vs[i] = f(i)
	}
	return s
}

// TestRunForm: values of one type with a form — the codec's own, or a
// registered one — travel as a run and decode into one []T whose elements
// are what a gob round trip of each value gives; zero values, one value
// and 600 alike. Anything else keeps the per-value form: no values, a nil,
// two types, a type on the gob fallback, a form that writes no bytes.
func TestRunForm(t *testing.T) {
	at := payloadAt(t)
	utc := time.Date(2026, 7, 5, 10, 0, 0, 0, time.UTC)
	runs := map[string]func(i int) any{
		"stamp":    func(i int) any { return stamp{At: utc.Add(time.Duration(i) * time.Second), Note: keys(i + 1)[i]} },
		"zero":     func(int) any { return stamp{} },
		"int64":    func(i int) any { return int64(i*i - 300*i) },
		"int":      func(i int) any { return -i },
		"float64":  func(i int) any { return float64(i) / 3 },
		"bool":     func(i int) any { return i%3 == 0 },
		"string":   func(i int) any { return strings.Repeat("k", i%70) },
		"[]string": func(i int) any { return keys(i % 4) },
		"[]byte":   func(i int) any { return bytes.Repeat([]byte{byte(i)}, i%5) },
	}
	for name, f := range runs {
		for _, n := range []int{1, 600} {
			s := seriesOf(n, f)
			if tag := codectest.Encode(t, s)[at]; tag != 0xf3 {
				t.Errorf("%d %s values: payload tag %#x, want the run's 0xf3", n, name, tag)
				continue
			}
			got := codectest.StreamRoundTrip(t, s).(series)
			run := reflect.ValueOf(got.Run)
			if got.Vs != nil || run.Kind() != reflect.Slice || run.Type().Elem() != reflect.TypeOf(s.Vs[0]) || run.Len() != n {
				t.Errorf("%d %s values decoded as %#v", n, name, got)
				continue
			}
			for i, v := range s.Vs {
				if want := codectest.GobRoundTrip(t, v); !reflect.DeepEqual(run.Index(i).Interface(), want) {
					t.Errorf("%s value %d of %d: got %#v, want %#v", name, i, n, run.Index(i).Interface(), want)
				}
			}
		}
	}
	for name, s := range map[string]series{
		"none":      {Vs: []any{}},
		"a nil":     {Vs: []any{int64(1), nil, int64(3)}},
		"two types": {Vs: []any{int64(1), "2"}},
		"int types": {Vs: []any{int64(1), 2}},
		"fallback":  {Vs: []any{blob{N: 1}, blob{N: 2}}},
		"no bytes":  {Vs: []any{mark{}, mark{}, mark{}}},
	} {
		if tag := codectest.Encode(t, s)[at]; tag != 0xf2 {
			t.Errorf("%s: payload tag %#x, want the per-value 0xf2", name, tag)
		}
		got := codectest.StreamRoundTrip(t, s).(series)
		if len(got.Vs) != len(s.Vs) || got.Run != nil {
			t.Errorf("%s: decoded %#v", name, got)
			continue
		}
		for i, v := range s.Vs {
			if v != nil && !reflect.DeepEqual(got.Vs[i], codectest.GobRoundTrip(t, v)) || v == nil && got.Vs[i] != nil {
				t.Errorf("%s value %d: got %#v, want %#v", name, i, got.Vs[i], v)
			}
		}
	}
}

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("org-3@sensor-%d/ch-%d", i/2, i%2)
	}
	return out
}

// TestWireEqualsGob: every form the codec owns decodes to what a gob round
// trip of the same value gives — nil and empty slices included — and so
// does a time, whatever its zone.
func TestWireEqualsGob(t *testing.T) {
	if got := codectest.StreamRoundTrip(t, nil); got != nil {
		t.Errorf("nil payload came back %#v", got)
	}
	for _, v := range []any{
		int64(0), int64(-5), int64(math.MinInt64), int64(math.MaxInt64),
		0, -1, math.MaxInt, math.MinInt,
		0.0, 1.5, -273.15, math.Inf(-1), math.SmallestNonzeroFloat64,
		true, false,
		"", "a", "héllo, wörld", strings.Repeat("x", 300),
		[]string(nil), []string{}, []string{"one"}, []string{"", "b", ""}, keys(210),
		[]byte(nil), []byte{}, []byte{0}, bytes.Repeat([]byte{0xab}, 2048),
	} {
		codectest.EqualsGob(t, v)
	}
	for name, at := range map[string]time.Time{
		"zero":  {},
		"utc":   time.Date(2019, 3, 26, 0, 0, 0, 100_000_000, time.UTC),
		"fixed": time.Date(2019, 3, 26, 12, 30, 0, 999_999_999, time.FixedZone("CEST", 2*3600)),
		"odd":   time.Date(1960, 1, 1, 0, 0, 0, 1, time.FixedZone("", 3*3600+25*60+7)),
		"local": time.Date(2024, 7, 1, 8, 0, 0, 0, time.Local),
		"now":   time.Now(),
	} {
		codectest.EqualsGob(t, stamp{At: at, Note: name})
		// And against MarshalBinary itself, which is what gob calls.
		raw, err := at.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var want time.Time
		if err := want.UnmarshalBinary(raw); err != nil {
			t.Fatal(err)
		}
		if got := codectest.StreamRoundTrip(t, stamp{At: at}).(stamp).At; !reflect.DeepEqual(got, want) {
			t.Errorf("%s time: got %#v, want %#v", name, got, want)
		}
	}
	if !codectest.UsesFallback(t, blob{N: 1}) {
		t.Error("a type without a wire form did not take the gob fallback")
	}
	if got, want := codectest.StreamRoundTrip(t, blob{N: 7, Tags: []string{"a"}}), (blob{N: 7, Tags: []string{"a"}}); !reflect.DeepEqual(got, want) {
		t.Errorf("fallback round trip = %#v, want %#v", got, want)
	}
}

// TestRegisterWireRejectsCollisions: a reserved tag, a tag taken twice, a
// type registered twice (one of the codec's own included) and a second
// form for a type without exactly one all panic at registration.
func TestRegisterWireRejectsCollisions(t *testing.T) {
	type other struct{ X int }
	enc, dec := func(*codec.Enc, other) {}, func(*codec.Dec) other { return other{} }
	for name, register := range map[string]func(){
		"reserved tag": func() { codec.RegisterWire(0x08, enc, dec) },
		"tag in use":   func() { codec.RegisterWire(0xf0, enc, dec) },
		"type in use": func() {
			codec.RegisterWire(0xf1, func(*codec.Enc, stamp) {}, func(*codec.Dec) stamp { return stamp{} })
		},
		"type of the codec's own": func() {
			codec.RegisterWire(0xf1, func(*codec.Enc, int64) {}, func(*codec.Dec) int64 { return 0 })
		},
		"second form without a first": func() {
			codec.RegisterWireAlt(0xf1, func(*codec.Enc, other) bool { return false }, dec)
		},
		"second form twice": func() {
			codec.RegisterWireAlt(0xf1, func(*codec.Enc, series) bool { return false }, func(*codec.Dec) series { return series{} })
		},
		"second form in use": func() {
			codec.RegisterWireAlt(0xf0, func(*codec.Enc, mark) bool { return false }, func(*codec.Dec) mark { return mark{} })
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: RegisterWire did not panic", name)
				}
			}()
			register()
		}()
	}
}

// TestFallbackSharesOneGobStream: fallback payloads on one stream share one
// gob encoder and decoder — the second blob of a type carries no
// descriptor and still decodes — interleaved with frames that carry none.
func TestFallbackSharesOneGobStream(t *testing.T) {
	var wire bytes.Buffer
	s := codec.NewBufferedStream(&wire, 0)
	var sizes []int
	for i := 0; i < 4; i++ {
		for _, v := range []any{blob{N: i, Tags: []string{"t"}}, stamp{Note: "between"}, []string{"x"}} {
			if err := s.Write(&codec.Frame{ID: uint64(i), Kind: codec.FrameRequest, Payload: v}); err != nil {
				t.Fatal(err)
			}
			if _, ok := v.(blob); ok {
				sizes = append(sizes, wire.Len())
			}
			f, err := s.Read()
			if err != nil {
				t.Fatal(err)
			}
			if want := codectest.GobRoundTrip(t, v); !reflect.DeepEqual(f.Payload, want) {
				t.Fatalf("round %d: got %#v, want %#v", i, f.Payload, want)
			}
		}
	}
	if sizes[1] >= sizes[0] || sizes[2] != sizes[1] {
		t.Errorf("fallback frame sizes %v: the type descriptor should travel once", sizes)
	}
}

// TestReadBufferNotAliased: nothing a decoded frame holds points into the
// stream's read buffer, which the next frame overwrites.
func TestReadBufferNotAliased(t *testing.T) {
	var wire bytes.Buffer
	s := codec.NewBufferedStream(&wire, 0)
	frame := func(fill byte) *codec.Frame {
		c := string(fill)
		return &codec.Frame{
			ID: 1, Kind: codec.FrameError,
			TargetKind: "Kind" + c, TargetKey: "key-" + c, Method: "m" + c, Sender: "silo-" + c,
			Chain: []string{"A/" + c, "B/" + c}, Err: "err " + c, Redirect: "to-" + c,
			Payload: bytes.Repeat([]byte{fill}, 64),
		}
	}
	for _, payload := range []func(byte) any{
		func(c byte) any { return bytes.Repeat([]byte{c}, 64) },
		func(c byte) any { return []string{strings.Repeat(string(c), 30), strings.Repeat(string(c), 32)} },
		func(c byte) any { return strings.Repeat(string(c), 64) },
		func(c byte) any { return stamp{Note: strings.Repeat(string(c), 60)} },
	} {
		a, b := frame('a'), frame('b')
		a.Payload, b.Payload = payload('a'), payload('b')
		if err := s.Write(a); err != nil {
			t.Fatal(err)
		}
		sizeA := wire.Len()
		gotA, err := s.Read()
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Write(b); err != nil {
			t.Fatal(err)
		}
		if wire.Len() != sizeA {
			t.Fatalf("frames differ in size: %d and %d", sizeA, wire.Len())
		}
		if _, err := s.Read(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotA, a) {
			t.Errorf("frame A changed when frame B was read:\n got %+v\nwant %+v", gotA, a)
		}
	}
}

// payloadAt is the offset of the payload's tag in a frame codectest.Encode
// built: a nil payload is its one tag byte, at the end.
func payloadAt(t testing.TB) int { return len(codectest.Encode(t, nil)) - 1 }

// setLength rewrites a frame's length prefix to match its bytes.
func setLength(frame []byte) []byte {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4))
	return frame
}

// malformed returns frames that must not decode, by name.
func malformed(t testing.TB) map[string][]byte {
	at := payloadAt(t)
	out := map[string][]byte{}

	unknown := codectest.Encode(t, "x")
	unknown[at] = 0xee
	out["unknown tag"] = unknown

	out["oversize length"] = append([]byte{0xff, 0xff, 0xff, 0xff}, codectest.Encode(t, "x")[4:]...)
	over := codectest.Encode(t, "x")
	binary.BigEndian.PutUint32(over, codec.MaxFrameBytes+1)
	out["length one over the limit"] = over

	// A []string claiming 2^40 elements, and one claiming one more than
	// the frame has bytes for.
	ss := codectest.Encode(t, []string{"a", "b"})
	huge := append(append([]byte{}, ss[:at+1]...), binary.AppendUvarint(nil, 1<<40)...)
	out["count beyond the frame"] = setLength(append(huge, ss[at+2:]...))
	more := append([]byte{}, ss...)
	more[at+1] = byte(len(ss) - at)
	out["count beyond the bytes left"] = more

	long := codectest.Encode(t, "abc")
	long[at+1] = 200
	out["string longer than the frame"] = long

	out["trailing bytes"] = setLength(append(codectest.Encode(t, int64(1)), 0))
	out["overlong varint"] = setLength(append(codectest.Encode(t, nil)[:at], append([]byte{1}, bytes.Repeat([]byte{0xff}, 11)...)...))

	fallback := codectest.Encode(t, blob{N: 1})
	_, n := binary.Uvarint(fallback[at+1:])
	for i := at + 1 + n; i < len(fallback); i++ {
		fallback[i] = 0xff
	}
	out["corrupt gob blob"] = fallback
	short := codectest.Encode(t, blob{N: 1})
	out["gob blob cut short"] = setLength(append(short[:at+1], 3, short[at+3], short[at+4], short[at+5]))

	st := codectest.Encode(t, stamp{Note: "n"})
	out["truncated registered form"] = setLength(st[:len(st)-1])

	// A run of three int64s: 0xf3, the element tag, the count, the values.
	run := codectest.Encode(t, seriesOf(3, func(i int) any { return int64(i + 1) }))
	forged := append(append([]byte{}, run[:at+2]...), binary.AppendUvarint(nil, 1<<40)...)
	out["run count beyond the frame"] = setLength(append(forged, run[at+3:]...))
	more = append([]byte{}, run...)
	more[at+2] = 4
	out["run count beyond the bytes left"] = more
	elem := append([]byte{}, run...)
	elem[at+1] = 0xee
	out["unknown run element tag"] = elem
	nested := append([]byte{}, run...)
	nested[at+1] = 0xf3
	out["run of a second form"] = nested
	// Three stamps take more bytes than their count needs, so a run cut
	// short passes the count check and ends inside its last value.
	stamps := codectest.Encode(t, seriesOf(3, func(i int) any { return stamp{Note: keys(3)[i]} }))
	out["run cut short"] = setLength(stamps[:len(stamps)-1])
	return out
}

// valid returns well-formed frames of every payload kind.
func valid(t testing.TB) [][]byte {
	full := &codec.Frame{
		ID: 1 << 40, Kind: codec.FrameError, TargetKind: "Sensor", TargetKey: "org-1@sensor-2", Method: "call", Sender: "silo-1",
		Chain: []string{"Org/org-1", "Sensor/org-1@sensor-2"}, TraceID: math.MaxUint64, ParentSpan: 77, TraceSampled: true, HLC: 1 << 50,
		Err: "kaput", Redirect: "silo-2", Transient: true, Payload: keys(5),
	}
	var wire bytes.Buffer
	if err := codec.NewBufferedStream(&wire, 0).Write(full); err != nil {
		t.Fatal(err)
	}
	out := [][]byte{wire.Bytes()}
	for _, v := range []any{nil, int64(-9), 9, 2.5, true, "text", keys(3), []byte{1, 2, 3},
		stamp{At: time.Date(2019, 3, 26, 1, 2, 3, 4, time.FixedZone("", 3600)), Note: "n"}, blob{N: 3, Tags: []string{"t"}},
		seriesOf(3, func(i int) any { return stamp{Note: keys(3)[i]} })} {
		out = append(out, codectest.Encode(t, v))
	}
	return out
}

// readAll reads frames from raw until an error, recovering nothing: a
// panic fails the test.
func readAll(raw []byte) (frames int, err error) {
	s := codec.NewBufferedStream(bytes.NewBuffer(raw), 0)
	for {
		f, err := s.Read()
		if err != nil {
			return frames, err
		}
		codec.PutFrame(f)
		frames++
	}
}

// TestMalformedFrames: a frame that lies about its length, a count or a
// tag, or that stops early, is an error — not a panic, and not an io.EOF
// that would read as a clean end of the connection.
func TestMalformedFrames(t *testing.T) {
	for name, raw := range malformed(t) {
		if n, err := readAll(raw); n != 0 || err == nil || err == io.EOF {
			t.Errorf("%s: read %d frames, err %v; want an error", name, n, err)
		}
	}
	for i, raw := range valid(t) {
		if n, err := readAll(raw); n != 1 || err != io.EOF {
			t.Fatalf("valid frame %d: read %d frames, err %v", i, n, err)
		}
		for cut := 1; cut < len(raw); cut++ {
			if n, err := readAll(raw[:cut]); n != 0 || err == nil || err == io.EOF {
				t.Errorf("valid frame %d cut at byte %d of %d: read %d frames, err %v; want an error",
					i, cut, len(raw), n, err)
			}
		}
		// A frame truncated in place — its length corrected, so the cut
		// falls inside the header or payload — is an error too.
		for cut := 4; cut < len(raw)-1; cut++ {
			if n, err := readAll(setLength(append([]byte{}, raw[:cut]...))); n != 0 || err == nil || err == io.EOF {
				t.Errorf("valid frame %d shortened to %d of %d bytes: read %d frames, err %v; want an error",
					i, cut, len(raw), n, err)
			}
		}
	}
}

// TestReadAllocationBoundedByBytesRead: a frame that declares the largest
// length allowed, or a count in the billions, and then sends a few bytes
// costs its reader kilobytes, not what it declared.
func TestReadAllocationBoundedByBytesRead(t *testing.T) {
	declared := codectest.Encode(t, []byte{1, 2, 3})
	binary.BigEndian.PutUint32(declared, codec.MaxFrameBytes)
	counted := malformed(t)["count beyond the frame"]
	for name, raw := range map[string][]byte{"declared length": declared, "element count": counted} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := readAll(raw)
		runtime.ReadMemStats(&after)
		if err == nil || err == io.EOF {
			t.Errorf("%s: err %v, want an error", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > 256<<10 {
			t.Errorf("%s: reading %d bytes allocated %d", name, len(raw), got)
		}
	}
}

// TestLargeFrameBufferIsDropped: a frame past the kept-buffer size goes
// through — in pieces on the read side — and the stream keeps neither of
// its buffers at that size afterwards.
func TestLargeFrameBufferIsDropped(t *testing.T) {
	var wire bytes.Buffer
	s := codec.NewBufferedStream(&wire, 0)
	roundTrip := func(v any) any {
		if err := s.Write(&codec.Frame{ID: 1, Kind: codec.FrameResponse, Payload: v}); err != nil {
			t.Fatal(err)
		}
		f, err := s.Read()
		if err != nil {
			t.Fatal(err)
		}
		return f.Payload
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	roundTrip("small")
	before := heap()
	const size = 3 << 20
	if got := roundTrip(bytes.Repeat([]byte{7}, size)).([]byte); len(got) != size || got[0] != 7 || got[size-1] != 7 {
		t.Fatalf("a %d-byte payload did not survive", size)
	}
	if got := roundTrip(blob{Tags: []string{strings.Repeat("x", size)}}).(blob); len(got.Tags) != 1 || len(got.Tags[0]) != size {
		t.Fatalf("a %d-byte fallback payload did not survive", size)
	}
	// Gob keeps its own buffers at the size of its largest message, so
	// what is measured is a stream that sent the large frame in a form of
	// the codec's own.
	wire = bytes.Buffer{}
	s = codec.NewBufferedStream(&wire, 0)
	roundTrip(bytes.Repeat([]byte{7}, size))
	wire = bytes.Buffer{}
	roundTrip("small")
	if after := heap(); after > before+512<<10 {
		t.Errorf("live heap grew from %d to %d bytes across one large frame", before, after)
	}
	runtime.KeepAlive(s)
}

// TestWriteErrorLeavesNoPartialFrame: a payload the fallback cannot encode
// fails its Write and leaves the buffer holding whole frames only.
func TestWriteErrorLeavesNoPartialFrame(t *testing.T) {
	type unregistered struct{ X int }
	var wire bytes.Buffer
	s := codec.NewBufferedStream(&wire, 0)
	if err := s.WriteNoFlush(&codec.Frame{ID: 1, Kind: codec.FrameRequest, Payload: "ok"}); err != nil {
		t.Fatal(err)
	}
	held := s.Buffered()
	if err := s.WriteNoFlush(&codec.Frame{ID: 2, Kind: codec.FrameRequest, Payload: unregistered{1}}); err == nil {
		t.Fatal("unregistered payload type encoded")
	}
	if s.Buffered() != held {
		t.Fatalf("failed frame left %d bytes behind", s.Buffered()-held)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n, err := readAll(wire.Bytes()); n != 1 || !errors.Is(err, io.EOF) {
		t.Fatalf("read %d frames, err %v", n, err)
	}
}

// TestStringsReplyAllocs: a 210-key GetChannels reply decodes into a slice
// and one shared copy of the keys, not a string per key.
func TestStringsReplyAllocs(t *testing.T) {
	got := codectest.RoundTripAllocs(t, &codec.Frame{ID: 1, Kind: codec.FrameResponse, Payload: keys(210)})
	if got > 4 {
		t.Errorf("210-key reply round trip: %.0f allocations, want at most 4", got)
	}
}

// FuzzStreamRead: no input makes Read panic, hang, or report a clean end
// of stream from inside a frame.
func FuzzStreamRead(f *testing.F) {
	for _, raw := range valid(f) {
		f.Add(raw)
		f.Add(append(append([]byte{}, raw...), raw...))
	}
	for _, raw := range malformed(f) {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 1<<16 {
			return
		}
		s := codec.NewBufferedStream(bytes.NewBuffer(raw), 0)
		consumed := 0
		for {
			f, err := s.Read()
			if err != nil {
				// io.EOF is only for a stream that ends between frames.
				if err == io.EOF && consumed != len(raw) {
					t.Fatalf("io.EOF after %d of %d bytes", consumed, len(raw))
				}
				return
			}
			consumed += 4 + int(binary.BigEndian.Uint32(raw[consumed:]))
			codec.PutFrame(f)
		}
	})
}
