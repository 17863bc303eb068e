package codec

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"maps"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"time"
)

// Payload tags. The codec's own forms take the tags below firstWireTag;
// packages register theirs above it with RegisterWire.
const (
	tagNil byte = iota
	tagInt64
	tagInt
	tagFloat64
	tagBool
	tagString
	tagStrings
	tagBytes
	// tagGob is the fallback: a length-prefixed blob from the stream's
	// gob encoder, for every type without a registered form.
	tagGob

	firstWireTag = 0x10
)

// wireType is one binary form: a registered one, or one of the codec's
// own that a run can carry.
type wireType struct {
	tag byte
	typ reflect.Type
	enc func(*Enc, any)
	dec func(*Dec) any
	// run reads n untagged values into one []T (Dec.Run).
	run func(d *Dec, n int) any
	// alt is typ's second form (RegisterWireAlt), tried first on every
	// encode; try writes it, or writes nothing and reports false.
	alt *wireType
	try func(*Enc, any) bool
}

// form builds T's wireType from its encoder and decoder, run reader
// included.
func form[T any](tag byte, enc func(*Enc, T), dec func(*Dec) T) *wireType {
	return &wireType{
		tag: tag,
		typ: reflect.TypeFor[T](),
		enc: func(e *Enc, v any) { enc(e, v.(T)) },
		dec: func(d *Dec) any { return dec(d) },
		run: func(d *Dec, n int) any {
			vs := make([]T, n)
			for i := range vs {
				vs[i] = dec(d)
			}
			return vs
		},
	}
}

// wireTable is the registration table, replaced whole on every
// registration so the encode and decode paths read it without a lock.
type wireTable struct {
	byType map[reflect.Type]*wireType
	byTag  [256]*wireType
}

var (
	wireMu    sync.Mutex // serializes registrations
	wireTypes atomic.Pointer[wireTable]
)

// The table starts with the codec's own forms, so a run can carry them
// too; Any and Dec.Any still switch on them first.
func init() {
	t := &wireTable{byType: map[reflect.Type]*wireType{}}
	for _, w := range []*wireType{
		form(tagInt64, (*Enc).Varint, (*Dec).Varint),
		form(tagInt, func(e *Enc, v int) { e.Varint(int64(v)) }, func(d *Dec) int { return int(d.Varint()) }),
		form(tagFloat64, (*Enc).Float64, (*Dec).Float64),
		form(tagBool, (*Enc).Bool, (*Dec).Bool),
		form(tagString, (*Enc).String, (*Dec).String),
		form(tagStrings, (*Enc).Strings, (*Dec).Strings),
		form(tagBytes, (*Enc).Bytes, (*Dec).Bytes),
	} {
		t.byType[w.typ] = w
		t.byTag[w.tag] = w
	}
	wireTypes.Store(t)
}

// RegisterWire gives values of type T a hand-written binary form on the
// wire, identified by tag: enc appends a value's fields to the frame, dec
// reads them back in the same order. Types without one travel through the
// gob fallback (see Register), which is also the reference the tests hold
// every registered form to: a value must come out of dec as it comes out
// of a gob round trip, so a slice that was sent empty is decoded nil. A
// registered type can also travel as a run (Enc.Run). Call it from an init
// function; a reserved tag, or a tag or type registered twice, panics
// there rather than corrupting a stream later.
func RegisterWire[T any](tag byte, enc func(*Enc, T), dec func(*Dec) T) {
	w := form(tag, enc, dec)
	wireMu.Lock()
	defer wireMu.Unlock()
	old := wireTypes.Load()
	checkTag(old, tag, w.typ)
	if prev := old.byType[w.typ]; prev != nil {
		panic(fmt.Sprintf("codec: %v registered under wire tags %#x and %#x", w.typ, prev.tag, tag))
	}
	publish(old, w, w)
}

// RegisterWireAlt gives T, which RegisterWire has given a form, a second
// form under tag that every encode tries first: enc writes it and reports
// true, or writes nothing and reports false, and the value then takes T's
// first form. dec reads the second form back. It is for a value that has a
// compact shape only some of the time, such as a reply whose slots form a
// run only when none failed.
func RegisterWireAlt[T any](tag byte, enc func(*Enc, T) bool, dec func(*Dec) T) {
	typ := reflect.TypeFor[T]()
	wireMu.Lock()
	defer wireMu.Unlock()
	old := wireTypes.Load()
	checkTag(old, tag, typ)
	first := old.byType[typ]
	if first == nil || first.tag < firstWireTag || first.alt != nil {
		panic(fmt.Sprintf("codec: %v needs one registered form before a second", typ))
	}
	alt := &wireType{
		tag: tag,
		typ: typ,
		dec: func(d *Dec) any { return dec(d) },
		try: func(e *Enc, v any) bool { return enc(e, v.(T)) },
	}
	next := *first
	next.alt = alt
	publish(old, &next, alt)
}

// checkTag panics unless tag is free for a form of typ.
func checkTag(t *wireTable, tag byte, typ reflect.Type) {
	if tag < firstWireTag {
		panic(fmt.Sprintf("codec: wire tag %#x for %v is reserved", tag, typ))
	}
	if w := t.byTag[tag]; w != nil {
		panic(fmt.Sprintf("codec: wire tag %#x registered for both %v and %v", tag, w.typ, typ))
	}
}

// publish replaces the table with old plus w, the form of its type, and
// tagged, the form newly taking a tag. Called with wireMu held.
func publish(old *wireTable, w, tagged *wireType) {
	next := &wireTable{byType: maps.Clone(old.byType), byTag: old.byTag}
	next.byType[w.typ] = w
	next.byTag[w.tag] = w
	next.byTag[tagged.tag] = tagged
	wireTypes.Store(next)
}

// Enc appends one frame's fields to a stream's write buffer. Its methods
// never fail individually: the first error (only the gob fallback can
// raise one) sticks and fails the frame.
type Enc struct {
	buf []byte
	err error
	// The gob fallback: one encoder for the stream's lifetime, because gob
	// sends a type's descriptor once and assumes the peer keeps it.
	gob    *gob.Encoder
	gobBuf bytes.Buffer
}

// The primitives a form is built from; Dec has the reader of each.

func (e *Enc) Byte(b byte)      { e.buf = append(e.buf, b) }
func (e *Enc) Uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *Enc) Varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *Enc) Float64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

func (e *Enc) Bool(v bool) {
	var b byte
	if v {
		b = 1
	}
	e.Byte(b)
}

// Len writes an element count; Dec.Len reads it back.
func (e *Enc) Len(n int) { e.Uvarint(uint64(n)) }

func (e *Enc) String(s string) {
	e.Len(len(s))
	e.buf = append(e.buf, s...)
}

func (e *Enc) Bytes(b []byte) {
	e.Len(len(b))
	e.buf = append(e.buf, b...)
}

func (e *Enc) Strings(ss []string) {
	e.Len(len(ss))
	for _, s := range ss {
		e.String(s)
	}
}

// Time writes t as Unix seconds, then nanoseconds shifted left one bit
// with the low bit saying that a zone offset in seconds follows. UTC sends
// no offset. It is time.Time.MarshalBinary's content by hand
// (Time.AppendBinary would do, but is newer than go.mod's Go version): the
// wall instant and the zone's offset, not its name, and no monotonic
// reading.
func (e *Enc) Time(t time.Time) {
	e.Varint(t.Unix())
	nsec := uint64(t.Nanosecond()) << 1
	if t.Location() == time.UTC {
		e.Uvarint(nsec)
		return
	}
	_, offset := t.Zone()
	e.Uvarint(nsec | 1)
	e.Varint(int64(offset))
}

// Any writes v behind a tag naming its form: one of the codec's own, a
// registered one, or the gob fallback.
func (e *Enc) Any(v any) {
	switch x := v.(type) {
	case nil:
		e.Byte(tagNil)
	case int64:
		e.Byte(tagInt64)
		e.Varint(x)
	case int:
		e.Byte(tagInt)
		e.Varint(int64(x))
	case float64:
		e.Byte(tagFloat64)
		e.Float64(x)
	case bool:
		e.Byte(tagBool)
		e.Bool(x)
	case string:
		e.Byte(tagString)
		e.String(x)
	case []string:
		e.Byte(tagStrings)
		e.Strings(x)
	case []byte:
		e.Byte(tagBytes)
		e.Bytes(x)
	default:
		if w := wireTypes.Load().byType[reflect.TypeOf(v)]; w != nil {
			if a := w.alt; a != nil {
				mark := len(e.buf)
				e.Byte(a.tag)
				if a.try(e, v) {
					return
				}
				e.buf = e.buf[:mark]
			}
			e.Byte(w.tag)
			w.enc(e, v)
			return
		}
		e.gobFallback(v)
	}
}

// Run writes n values as a run and reports true: the tag of their one
// type, the count, then each value's form with no tag of its own. at(i) is
// value i. Run writes nothing and reports false unless n > 0, every value
// has the same dynamic type, and that type has a form of the codec's own
// or a registered one; the caller then keeps its per-value form for nil
// values, mixed types and types on the gob fallback. Dec.Run reads a run
// back as one []T.
func (e *Enc) Run(n int, at func(i int) any) bool {
	if n <= 0 {
		return false
	}
	w := wireTypes.Load().byType[reflect.TypeOf(at(0))]
	if w == nil {
		return false
	}
	for i := 1; i < n; i++ {
		if reflect.TypeOf(at(i)) != w.typ {
			return false
		}
	}
	start := len(e.buf)
	e.Byte(w.tag)
	e.Len(n)
	body := len(e.buf)
	for i := 0; i < n; i++ {
		w.enc(e, at(i))
	}
	// Dec.Run bounds the count by the bytes after it, one a value at
	// least, which a form that writes nothing (a message with no fields)
	// would break. Such a form writes nothing for any value — its decoder
	// reads nothing — so the undo below drops no gob blob.
	if len(e.buf)-body < n {
		e.buf = e.buf[:start]
		return false
	}
	return true
}

// gobFallback writes v as a tagGob blob. It is a function of its own, and
// never inlined, because gob must be handed &v to send v as an interface
// value: inside Any that address would move every payload, whatever its
// form, to the heap.
//
//go:noinline
func (e *Enc) gobFallback(v any) {
	if e.err != nil {
		return
	}
	if e.gob == nil {
		e.gob = gob.NewEncoder(&e.gobBuf)
	}
	e.gobBuf.Reset()
	if err := e.gob.Encode(&v); err != nil {
		e.err = err
		return
	}
	e.Byte(tagGob)
	e.Bytes(e.gobBuf.Bytes())
	if e.gobBuf.Cap() > maxKeptBuffer {
		e.gobBuf = bytes.Buffer{}
	}
}

// Errors a malformed frame decodes to. A reader treats any of them as the
// end of the connection.
var (
	errTruncated = errors.New("codec: frame truncated")
	errCount     = errors.New("codec: element count exceeds the bytes left in the frame")
	errVarint    = errors.New("codec: malformed varint")
	errTrailing  = errors.New("codec: bytes left over after the frame's payload")
)

// maxInterned and maxInternedLen bound a stream's intern table: a peer
// cannot grow it past a few KiB whatever it sends.
const (
	maxInterned    = 256
	maxInternedLen = 64
)

// Dec reads one frame's fields out of a stream's read buffer. The buffer
// is reused for the next frame, so every string and slice a method
// returns is a copy. Errors stick: after the first, every method returns
// a zero value, so a decoder function needs no checks of its own beyond
// taking its element counts from Len.
type Dec struct {
	buf []byte
	off int
	err error
	// run is a private copy of buf[runLo:runHi] that String slices
	// instead of copying again (see ShareStrings).
	run          string
	runLo, runHi int
	// interned holds the few strings nearly every frame repeats — actor
	// kinds, method and silo names — for the stream's lifetime.
	interned map[string]string
	// The gob fallback's decoder and the blob it is reading.
	gob    *gob.Decoder
	gobSrc bytes.Reader
}

func (d *Dec) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.off = len(d.buf)
}

// take returns the next n bytes of the read buffer, uncopied.
func (d *Dec) take(n int) []byte {
	if d.err != nil || n > len(d.buf)-d.off {
		d.fail(errTruncated)
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *Dec) Byte() byte {
	if b := d.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *Dec) Bool() bool { return d.Byte() != 0 }

func (d *Dec) Uvarint() uint64 {
	v, n := binary.Uvarint(d.buf[d.off:])
	switch {
	case n == 0:
		d.fail(errTruncated)
	case n < 0:
		d.fail(errVarint)
	}
	d.off += max(n, 0)
	return v
}

func (d *Dec) Varint() int64 {
	u := d.Uvarint()
	v := int64(u >> 1)
	if u&1 != 0 {
		v = ^v
	}
	return v
}

func (d *Dec) Float64() float64 {
	if b := d.take(8); b != nil {
		return math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return 0
}

// Len reads an element count and checks it against the bytes left, given
// that one element takes at least minBytes (≥ 1) on the wire: a decoder
// sizes its slice from the result, so a forged count cannot make it
// allocate more than a small multiple of what the peer really sent.
func (d *Dec) Len(minBytes int) int {
	n := d.Uvarint()
	if n > uint64(len(d.buf)-d.off)/uint64(minBytes) {
		d.fail(errCount)
		return 0
	}
	return int(n)
}

// String reads a string into memory of its own — or, inside a run marked
// by ShareStrings, into a slice of the run's one copy.
func (d *Dec) String() string {
	b := d.take(d.Len(1))
	if lo := d.off - len(b); lo >= d.runLo && d.off <= d.runHi {
		return d.run[lo-d.runLo : d.off-d.runLo]
	}
	return string(b)
}

// ShareStrings copies the extent of the next n length-prefixed strings
// once; String then returns slices of that copy until the extent is
// passed, and Interned is unaffected. A 210-key []string is two
// allocations this way, not 211. The price is that any one of the strings
// keeps the whole copy alive: code that stores one for good clones it.
func (d *Dec) ShareStrings(n int) {
	lo := d.off
	for i := 0; i < n; i++ {
		d.take(d.Len(1))
	}
	if d.err != nil {
		return
	}
	d.run, d.runLo, d.runHi = string(d.buf[lo:d.off]), lo, d.off
	d.off = lo
}

// Strings reads what Enc.Strings wrote, as one slice over one shared copy.
func (d *Dec) Strings() []string {
	n := d.Len(1)
	if n == 0 {
		return nil
	}
	d.ShareStrings(n)
	out := make([]string, n)
	for i := range out {
		out[i] = d.String()
	}
	return out
}

// Interned reads a string through the stream's intern table: no
// allocation when the stream has seen it before. It is for the small fixed
// vocabulary of a deployment (kinds, methods, silo names), not for keys.
func (d *Dec) Interned() string {
	b := d.take(d.Len(1))
	if len(b) == 0 {
		return ""
	}
	if s, ok := d.interned[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(s) <= maxInternedLen && len(d.interned) < maxInterned {
		if d.interned == nil {
			d.interned = make(map[string]string)
		}
		d.interned[s] = s
	}
	return s
}

// Bytes reads a byte slice into memory of its own; empty decodes as nil.
func (d *Dec) Bytes() []byte {
	b := d.take(d.Len(1))
	if len(b) == 0 {
		return nil
	}
	return append([]byte(nil), b...)
}

// Time reads what Enc.Time wrote and rebuilds it as
// time.Time.UnmarshalBinary would: UTC; else Local when Local has that
// offset at that instant; else a nameless fixed zone.
func (d *Dec) Time() time.Time {
	sec := d.Varint()
	nsec := d.Uvarint()
	t := time.Unix(sec, int64(nsec>>1))
	if nsec&1 == 0 {
		return t.UTC()
	}
	offset := int(d.Varint())
	if _, local := t.Zone(); local == offset {
		return t
	}
	return t.In(time.FixedZone("", offset))
}

// Any reads a tagged payload.
func (d *Dec) Any() any {
	switch tag := d.Byte(); tag {
	case tagNil:
		return nil
	case tagInt64:
		return d.Varint()
	case tagInt:
		return int(d.Varint())
	case tagFloat64:
		return d.Float64()
	case tagBool:
		return d.Bool()
	case tagString:
		return d.String()
	case tagStrings:
		return d.Strings()
	case tagBytes:
		return d.Bytes()
	case tagGob:
		return d.gobFallback()
	default:
		if w := wireTypes.Load().byTag[tag]; w != nil {
			return w.dec(d)
		}
		d.fail(fmt.Errorf("codec: unknown payload tag %#x", tag))
		return nil
	}
}

// Run reads what Enc.Run wrote: the run's values as one []T, in an any.
// The count goes through Len, so a forged one cannot size the slice past
// the bytes the frame holds.
func (d *Dec) Run() any {
	tag := d.Byte()
	w := wireTypes.Load().byTag[tag]
	if w == nil || w.run == nil {
		d.fail(fmt.Errorf("codec: unknown run element tag %#x", tag))
		return nil
	}
	return w.run(d, d.Len(1))
}

// gobFallback reads one tagGob blob. bytes.Reader is an io.ByteReader, so
// the gob decoder reads from it directly and never past the blob's end;
// it is the stream's one decoder because blobs after the first rely on
// the type descriptors the earlier ones carried.
func (d *Dec) gobFallback() any {
	blob := d.take(d.Len(1))
	if d.err != nil {
		return nil
	}
	if d.gob == nil {
		d.gob = gob.NewDecoder(&d.gobSrc)
	}
	d.gobSrc.Reset(blob)
	var v any
	if err := d.gob.Decode(&v); err != nil {
		d.fail(fmt.Errorf("codec: gob payload: %w", err))
		return nil
	}
	if d.gobSrc.Len() != 0 {
		d.fail(errTrailing)
		return nil
	}
	d.gobSrc.Reset(nil) // do not pin the read buffer
	return v
}
