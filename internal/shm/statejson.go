package shm

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// The state codec. The actor states that change on the ingest path — the
// sensor's, the channels', the aggregators' and the alerts' — encode
// themselves (the organization's, a list of channel keys that changes
// only when a sensor is attached, is left to encoding/json): MarshalJSON
// writes, into one presized buffer and without reflection, the bytes
// json.Marshal writes for the same value, and UnmarshalJSON parses that
// form back without reflection and without keeping the input. Stored state
// is plain encoding/json output either way, so state written before the
// codec existed loads, and readers that decode it with encoding/json
// (benchmark checks, tools) keep working.
//
// Decoding is strict: fields in declaration order, no white space, every
// key spelled as json.Marshal spells it, map keys strictly increasing. Any
// other input that encoding/json accepts — other key order or case,
// unknown or duplicate keys, white space, null where a string or number
// goes — resets the state and decodes it with json.Unmarshal on a
// method-less copy of the type, which also makes every error
// json.Unmarshal's own. FuzzStateJSON holds both halves to encoding/json.

// Method-less copies of the states: json.Marshal and json.Unmarshal on
// these are the reference the codec reproduces, and the decoder's fallback.
type (
	sensorStateJSON  sensorState
	channelStateJSON channelState
	virtualStateJSON virtualState
	alertsStateJSON  alertsState
)

// aggStateJSON is the aggregator's stored form as encoding/json reads and
// writes it, a map of maps: the reference its codec reproduces, and what
// the decoder's fallback reads into and converts.
type aggStateJSON struct {
	Level      string
	Next       string
	PerChannel map[string]map[string]BucketStat
}

// state is j as an aggState: channels and buckets sorted by key, a nil
// map as a nil slice, and every channel's buckets carved from one array.
func (j *aggStateJSON) state() aggState {
	v := aggState{Level: j.Level, Next: j.Next}
	if j.PerChannel == nil {
		return v
	}
	n := 0
	for _, buckets := range j.PerChannel {
		n += len(buckets)
	}
	v.PerChannel = make([]aggChannel, 0, len(j.PerChannel))
	all := make([]aggBucket, 0, n)
	for _, ch := range sortedKeys(j.PerChannel) {
		c := aggChannel{Key: ch}
		if buckets := j.PerChannel[ch]; buckets != nil {
			from := len(all)
			for _, k := range sortedKeys(buckets) {
				all = append(all, aggBucket{Key: k, Stat: buckets[k]})
			}
			c.Buckets = all[from:len(all):len(all)]
		}
		v.PerChannel = append(v.PerChannel, c)
	}
	return v
}

// Encoded sizes, with the comma, that presize the encoders' buffers: a
// point with a full-precision value, {"At":"2026-07-05T10:00:00.1Z",
// "Value":0.1234567890123456}, and a bucket with its key.
const (
	pointJSONSize  = 64
	bucketJSONSize = 128
)

func (s *sensorState) MarshalJSON() ([]byte, error) {
	e := stateEnc{b: make([]byte, 0, 72+len(s.Org)+len(s.Virtual)+stringsSize(s.Channels))}
	e.raw(`{"Org":`)
	e.str(s.Org)
	e.raw(`,"Channels":`)
	e.strs(s.Channels)
	e.raw(`,"Virtual":`)
	e.str(s.Virtual)
	e.raw(`,"Packets":`)
	e.int(s.Packets)
	e.raw(`}`)
	return e.done()
}

func (s *sensorState) UnmarshalJSON(data []byte) error {
	return adopt(s, s.parse, data, (*sensorStateJSON)(s))
}

func (v *sensorState) parse(data []byte) bool {
	d := stateDec{b: data, ok: true}
	d.lit(`{"Org":`)
	d.str(&v.Org)
	d.lit(`,"Channels":`)
	v.Channels = d.strs()
	d.lit(`,"Virtual":`)
	d.str(&v.Virtual)
	d.lit(`,"Packets":`)
	v.Packets = d.int(64)
	d.lit(`}`)
	return d.end()
}

func (s *channelState) MarshalJSON() ([]byte, error) {
	n := 320 + len(s.Org) + len(s.VirtualOut) + len(s.Aggregator) + pointJSONSize*len(s.Window)
	e := stateEnc{b: make([]byte, 0, n)}
	e.raw(`{"Org":`)
	e.str(s.Org)
	e.raw(`,"WindowCap":`)
	e.int(int64(s.WindowCap))
	e.raw(`,"Window":`)
	e.window(s.Window)
	e.raw(`,"Accumulated":`)
	e.float(s.Accumulated)
	e.raw(`,"LastValue":`)
	e.float(s.LastValue)
	e.raw(`,"HasLast":`)
	e.bool(s.HasLast)
	e.raw(`,"Threshold":{"Min":`)
	e.float(s.Threshold.Min)
	e.raw(`,"Max":`)
	e.float(s.Threshold.Max)
	e.raw(`,"Enabled":`)
	e.bool(s.Threshold.Enabled)
	e.raw(`},"VirtualOut":`)
	e.str(s.VirtualOut)
	e.raw(`,"Aggregator":`)
	e.str(s.Aggregator)
	e.raw(`,"WriteEveryBatch":`)
	e.bool(s.WriteEveryBatch)
	e.raw(`,"Archive":`)
	e.bool(s.Archive)
	e.raw(`}`)
	return e.done()
}

func (s *channelState) UnmarshalJSON(data []byte) error {
	return adopt(s, s.parse, data, (*channelStateJSON)(s))
}

func (v *channelState) parse(data []byte) bool {
	d := stateDec{b: data, ok: true}
	d.lit(`{"Org":`)
	d.str(&v.Org)
	d.lit(`,"WindowCap":`)
	v.WindowCap = int(d.int(strconv.IntSize))
	d.lit(`,"Window":`)
	v.Window = d.window()
	d.lit(`,"Accumulated":`)
	v.Accumulated = d.float()
	d.lit(`,"LastValue":`)
	v.LastValue = d.float()
	d.lit(`,"HasLast":`)
	v.HasLast = d.bool()
	d.lit(`,"Threshold":{"Min":`)
	v.Threshold.Min = d.float()
	d.lit(`,"Max":`)
	v.Threshold.Max = d.float()
	d.lit(`,"Enabled":`)
	v.Threshold.Enabled = d.bool()
	d.lit(`},"VirtualOut":`)
	d.str(&v.VirtualOut)
	d.lit(`,"Aggregator":`)
	d.str(&v.Aggregator)
	d.lit(`,"WriteEveryBatch":`)
	v.WriteEveryBatch = d.bool()
	d.lit(`,"Archive":`)
	v.Archive = d.bool()
	d.lit(`}`)
	return d.end()
}

func (s *virtualState) MarshalJSON() ([]byte, error) {
	n := 96 + len(s.Op) + stringsSize(s.Inputs) + pointJSONSize*len(s.Window)
	e := stateEnc{b: make([]byte, 0, n)}
	e.raw(`{"Inputs":`)
	e.strs(s.Inputs)
	e.raw(`,"Op":`)
	e.str(s.Op)
	e.raw(`,"WindowCap":`)
	e.int(int64(s.WindowCap))
	e.raw(`,"Window":`)
	e.window(s.Window)
	e.raw(`}`)
	return e.done()
}

func (s *virtualState) UnmarshalJSON(data []byte) error {
	return adopt(s, s.parse, data, (*virtualStateJSON)(s))
}

func (v *virtualState) parse(data []byte) bool {
	d := stateDec{b: data, ok: true}
	d.lit(`{"Inputs":`)
	v.Inputs = d.strs()
	d.lit(`,"Op":`)
	d.str(&v.Op)
	d.lit(`,"WindowCap":`)
	v.WindowCap = int(d.int(strconv.IntSize))
	d.lit(`,"Window":`)
	v.Window = d.window()
	d.lit(`}`)
	return d.end()
}

func (s *aggState) MarshalJSON() ([]byte, error) {
	n := 64 + len(s.Level) + len(s.Next)
	for _, ch := range s.PerChannel {
		n += 8 + len(ch.Key) + bucketJSONSize*len(ch.Buckets)
	}
	e := stateEnc{b: make([]byte, 0, n)}
	e.raw(`{"Level":`)
	e.str(s.Level)
	e.raw(`,"Next":`)
	e.str(s.Next)
	e.raw(`,"PerChannel":`)
	if e.open(s.PerChannel == nil, '{') {
		for i, ch := range s.PerChannel {
			e.sep(i)
			e.str(ch.Key)
			e.raw(`:`)
			if !e.open(ch.Buckets == nil, '{') {
				continue
			}
			for j, b := range ch.Buckets {
				e.sep(j)
				e.str(b.Key)
				e.raw(`:{"Bucket":`)
				e.time(b.Stat.Bucket)
				e.raw(`,"Count":`)
				e.int(b.Stat.Count)
				e.raw(`,"Sum":`)
				e.float(b.Stat.Sum)
				e.raw(`,"Min":`)
				e.float(b.Stat.Min)
				e.raw(`,"Max":`)
				e.float(b.Stat.Max)
				e.raw(`}`)
			}
			e.raw(`}`)
		}
		e.raw(`}`)
	}
	e.raw(`}`)
	return e.done()
}

// UnmarshalJSON is adopt, with the fallback's map of maps converted.
func (s *aggState) UnmarshalJSON(data []byte) error {
	*s = aggState{}
	if s.parse(data) {
		return nil
	}
	*s = aggState{}
	var j aggStateJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*s = j.state()
	return nil
}

// parse reads the channels and their buckets in the stored order, which
// is the state's own, and sends keys that are not strictly increasing —
// out of order or repeated — to encoding/json. One pass over the input
// counts both levels, so the channels are one slice and all their
// buckets one more.
func (v *aggState) parse(data []byte) bool {
	d := stateDec{b: data, ok: true}
	d.lit(`{"Level":`)
	d.str(&v.Level)
	d.lit(`,"Next":`)
	d.str(&v.Next)
	d.lit(`,"PerChannel":`)
	if n, inner := d.open(`{}`); n >= 0 {
		v.PerChannel = make([]aggChannel, 0, n)
		all := make([]aggBucket, 0, inner)
		var last []byte
		for more := n > 0; more; more = d.next(`}`) {
			ch := add(&d, &v.PerChannel)
			last = d.key(&ch.Key, last, len(v.PerChannel) == 1)
			d.lit(`:`)
			if d.skip(`null`) {
				continue
			}
			d.lit(`{`)
			from := len(all)
			var lastBucket []byte
			for more := !d.skip(`}`); more; more = d.next(`}`) {
				b := add(&d, &all)
				lastBucket = d.key(&b.Key, lastBucket, len(all) == from+1)
				d.lit(`:{"Bucket":`)
				b.Stat.Bucket = d.time()
				d.lit(`,"Count":`)
				b.Stat.Count = d.int(64)
				d.lit(`,"Sum":`)
				b.Stat.Sum = d.float()
				d.lit(`,"Min":`)
				b.Stat.Min = d.float()
				d.lit(`,"Max":`)
				b.Stat.Max = d.float()
				d.lit(`}`)
			}
			ch.Buckets = all[from:len(all):len(all)]
		}
	}
	d.lit(`}`)
	return d.end()
}

func (s *alertsState) MarshalJSON() ([]byte, error) {
	n := 32
	for _, a := range s.Recent {
		n += 96 + len(a.Channel) + len(a.Reason)
	}
	e := stateEnc{b: make([]byte, 0, n)}
	e.raw(`{"Recent":`)
	if e.open(s.Recent == nil, '[') {
		for i, a := range s.Recent {
			e.sep(i)
			e.raw(`{"Channel":`)
			e.str(a.Channel)
			e.raw(`,"At":`)
			e.time(a.At)
			e.raw(`,"Value":`)
			e.float(a.Value)
			e.raw(`,"Reason":`)
			e.str(a.Reason)
			e.raw(`}`)
		}
		e.raw(`]`)
	}
	e.raw(`}`)
	return e.done()
}

func (s *alertsState) UnmarshalJSON(data []byte) error {
	return adopt(s, s.parse, data, (*alertsStateJSON)(s))
}

func (v *alertsState) parse(data []byte) bool {
	d := stateDec{b: data, ok: true}
	d.lit(`{"Recent":`)
	if n, _ := d.open(`[]`); n >= 0 {
		v.Recent = make([]Alert, 0, n)
		for more := n > 0; more; more = d.next(`]`) {
			a := add(&d, &v.Recent)
			d.lit(`{"Channel":`)
			d.str(&a.Channel)
			d.lit(`,"At":`)
			a.At = d.time()
			d.lit(`,"Value":`)
			a.Value = d.float()
			d.lit(`,"Reason":`)
			d.str(&a.Reason)
			d.lit(`}`)
		}
	}
	d.lit(`}`)
	return d.end()
}

// adopt is every state's UnmarshalJSON: it resets *s and parses data into
// it as the canonical form; any other input resets *s again and goes to
// json.Unmarshal through alias, the method-less view of s. Each state's
// parse(data) decodes the canonical form into a zero value and reports
// whether data was exactly that.
func adopt[T any](s *T, parse func([]byte) bool, data []byte, alias any) error {
	var zero T
	*s = zero
	if parse(data) {
		return nil
	}
	*s = zero
	return json.Unmarshal(data, alias)
}

// marshalWindow and unmarshalWindow are json.Marshal and json.Unmarshal
// of a []DataPoint, the history table's chunk format.
func marshalWindow(w []DataPoint) ([]byte, error) {
	e := stateEnc{b: make([]byte, 0, 8+pointJSONSize*len(w))}
	e.window(w)
	return e.done()
}

func unmarshalWindow(data []byte) ([]DataPoint, error) {
	d := stateDec{b: data, ok: true}
	if w := d.window(); d.end() {
		return w, nil
	}
	var w []DataPoint
	err := json.Unmarshal(data, &w)
	return w, err
}

// stringsSize is a presizing estimate for an encoded []string.
func stringsSize(ss []string) int {
	n := 8
	for _, s := range ss {
		n += 3 + len(s)
	}
	return n
}

// stateEnc appends a state's JSON to b. The first error sticks and the
// bytes are then dropped, as json.Marshal drops them; the errors are the
// ones json.Marshal returns.
type stateEnc struct {
	b   []byte
	err error
}

func (e *stateEnc) done() ([]byte, error) {
	if e.err != nil {
		return nil, e.err
	}
	return e.b, nil
}

func (e *stateEnc) raw(s string) { e.b = append(e.b, s...) }

func (e *stateEnc) int(v int64) { e.b = strconv.AppendInt(e.b, v, 10) }

func (e *stateEnc) bool(v bool) { e.b = strconv.AppendBool(e.b, v) }

// float writes f as json.Marshal does: ES6 number formatting, and an
// UnsupportedValueError for NaN and ±Inf.
func (e *stateEnc) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	e.b = b
}

// time writes t as time.Time.MarshalJSON does: RFC 3339 with nanoseconds,
// refused when the year or the zone offset does not fit that format.
func (e *stateEnc) time(t time.Time) {
	n0 := len(e.b)
	b := t.AppendFormat(append(e.b, '"'), time.RFC3339Nano)
	if rfc3339Fits(b[n0+1:]) {
		e.b = append(b, '"')
		return
	}
	e.b = b[:n0]
	if _, err := t.MarshalJSON(); err != nil && e.err == nil {
		e.err = &json.MarshalerError{Type: reflect.TypeOf(t), Err: err}
	}
}

// rfc3339Fits repeats time.Time.MarshalJSON's check of its own output: a
// four-digit year and a zone offset under 24 hours.
func rfc3339Fits(b []byte) bool {
	if len(b) < len("2006-01-02T15:04:05Z") || b[len("2006")] != '-' {
		return false
	}
	if b[len(b)-1] == 'Z' {
		return true
	}
	c := b[len(b)-len("Z07:00")]
	hh := 10*(b[len(b)-5]-'0') + (b[len(b)-4] - '0')
	return !('0' <= c && c <= '9') && hh < 24
}

// str writes s quoted as json.Marshal does, HTML escaping included:
// <, > and &, U+2028 and U+2029 as six-byte \u escapes, and each byte
// of invalid UTF-8 as \ufffd.
func (e *stateEnc) str(s string) {
	const hex = "0123456789abcdef"
	b := append(e.b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', 'f', 'f', 'f', 'd')
		case r == 0x2028 || r == 0x2029:
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.b = append(b, '"')
}

// window writes w as json.Marshal writes a []DataPoint.
func (e *stateEnc) window(w []DataPoint) {
	if !e.open(w == nil, '[') {
		return
	}
	for i, p := range w {
		e.sep(i)
		e.raw(`{"At":`)
		e.time(p.At)
		e.raw(`,"Value":`)
		e.float(p.Value)
		e.raw(`}`)
	}
	e.raw(`]`)
}

func (e *stateEnc) strs(ss []string) {
	if !e.open(ss == nil, '[') {
		return
	}
	for i, s := range ss {
		e.sep(i)
		e.str(s)
	}
	e.raw(`]`)
}

// open starts a list or map: it writes null and returns false when isNil,
// else writes the bracket c and returns true.
func (e *stateEnc) open(isNil bool, c byte) bool {
	if isNil {
		e.raw(`null`)
		return false
	}
	e.b = append(e.b, c)
	return true
}

// sep writes the comma before every element but the first.
func (e *stateEnc) sep(i int) {
	if i > 0 {
		e.b = append(e.b, ',')
	}
}

// sortedKeys returns m's keys in json.Marshal's order, bytewise.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// stateDec reads the canonical form at b[i:]. A mismatch clears ok, after
// which every read is a no-op returning a zero value.
//
// A string without escapes is read into its field at end, not where it
// is met: str records the field and the string's span in b, and end
// copies every recorded span into one block sized to their total, so a
// state's strings are one allocation and keep no reference to b.
type stateDec struct {
	b  []byte
	i  int
	ok bool
	// owed are the strings read and not yet set, in a list taken from
	// owedPool on the first, so that recording them allocates nothing;
	// owedLen is their total length.
	owed    *[]owedStr
	owedLen int
}

// owedStr is a string stateDec.end sets: *dst = b[from:to].
type owedStr struct {
	dst      *string
	from, to int
}

var owedPool = sync.Pool{New: func() any { return new([]owedStr) }}

// end reports whether everything read so far matched and nothing follows;
// if so, it sets the strings owed.
func (d *stateDec) end() bool {
	ok := d.ok && d.i == len(d.b)
	if d.owed == nil {
		return ok
	}
	owed := *d.owed
	if ok {
		var block strings.Builder
		block.Grow(d.owedLen)
		for _, o := range owed {
			block.Write(d.b[o.from:o.to])
		}
		all, at := block.String(), 0
		for _, o := range owed {
			*o.dst = all[at : at+o.to-o.from]
			at += o.to - o.from
		}
	}
	clear(owed)
	*d.owed = owed[:0]
	owedPool.Put(d.owed)
	d.owed = nil
	return ok
}

// lit consumes s, which must come next.
func (d *stateDec) lit(s string) {
	if !d.skip(s) {
		d.ok = false
	}
}

// skip consumes s if it comes next and reports whether it did.
func (d *stateDec) skip(s string) bool {
	if d.ok && len(d.b)-d.i >= len(s) && string(d.b[d.i:d.i+len(s)]) == s {
		d.i += len(s)
		return true
	}
	return false
}

// str reads a string into *dst, which end sets unless the string has
// escapes; an escaped string is its own allocation, set now. It returns
// the string's bytes, for the caller to compare before end.
func (d *stateDec) str(dst *string) []byte {
	if !d.ok || d.i >= len(d.b) || d.b[d.i] != '"' {
		d.ok = false
		return nil
	}
	for j := d.i + 1; j < len(d.b); {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[d.i+1 : j]
			if len(s) > 0 {
				if d.owed == nil {
					d.owed = owedPool.Get().(*[]owedStr)
				}
				*d.owed = append(*d.owed, owedStr{dst: dst, from: d.i + 1, to: j})
				d.owedLen += len(s)
			}
			d.i = j + 1
			return s
		case c == '\\':
			return d.strEscaped(dst, j)
		case c < ' ':
			j = len(d.b)
		case c < utf8.RuneSelf:
			j++
		default:
			r, size := utf8.DecodeRune(d.b[j:])
			if r == utf8.RuneError && size == 1 {
				// encoding/json would coerce it to U+FFFD; it decides.
				j = len(d.b)
				continue
			}
			j += size
		}
	}
	d.ok = false
	return nil
}

// key reads a map key into *dst and returns its bytes. It fails the
// parse unless the key sorts after last, the key before it, or is the
// first: the canonical form's keys are strictly increasing, so a repeated
// or out-of-order key goes to encoding/json.
func (d *stateDec) key(dst *string, last []byte, first bool) []byte {
	k := d.str(dst)
	if !first && bytes.Compare(last, k) >= 0 {
		d.ok = false
	}
	return k
}

// add appends a zero element to *xs, which open sized, and returns it. A
// valid input never outgrows that size; one that does fails the parse,
// since the strings owed to earlier elements would point into the old
// array.
func add[T any](d *stateDec, xs *[]T) *T {
	n := len(*xs)
	if n == cap(*xs) {
		d.ok = false
		return new(T)
	}
	*xs = (*xs)[:n+1]
	return &(*xs)[n]
}

// strEscaped finishes str from the first backslash at b[j]. Surrogate
// escapes, which json.Marshal never writes, are left to encoding/json.
func (d *stateDec) strEscaped(dst *string, j int) []byte {
	out := append([]byte(nil), d.b[d.i+1:j]...)
	for j < len(d.b) {
		c := d.b[j]
		switch {
		case c == '"':
			d.i = j + 1
			*dst = string(out)
			return out
		case c == '\\' && j+1 < len(d.b):
			switch c = d.b[j+1]; c {
			case '"', '\\', '/':
				out = append(out, c)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(d.b[j+2:])
				if r < 0 || utf16.IsSurrogate(r) {
					d.ok = false
					return nil
				}
				out = utf8.AppendRune(out, r)
				j += 4
			default:
				d.ok = false
				return nil
			}
			j += 2
		case c == '\\' || c < ' ':
			d.ok = false
			return nil
		case c < utf8.RuneSelf:
			out = append(out, c)
			j++
		default:
			r, size := utf8.DecodeRune(d.b[j:])
			if r == utf8.RuneError && size == 1 {
				d.ok = false
				return nil
			}
			out = append(out, d.b[j:j+size]...)
			j += size
		}
	}
	d.ok = false
	return nil
}

// hex4 decodes the four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// number consumes a JSON number — only its integer part's grammar when
// integer is set — and returns its bytes.
func (d *stateDec) number(integer bool) []byte {
	if !d.ok {
		return nil
	}
	b, i := d.b, d.i
	digits := func() bool {
		j := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > j
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		d.ok = false
		return nil
	}
	if !integer {
		if i < len(b) && b[i] == '.' {
			i++
			if !digits() {
				d.ok = false
				return nil
			}
		}
		if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
			i++
			if i < len(b) && (b[i] == '+' || b[i] == '-') {
				i++
			}
			if !digits() {
				d.ok = false
				return nil
			}
		}
	}
	n := b[d.i:i]
	d.i = i
	return n
}

func (d *stateDec) float() float64 {
	n := d.number(false)
	if !d.ok {
		return 0
	}
	f, err := strconv.ParseFloat(string(n), 64)
	if err != nil {
		d.ok = false
	}
	return f
}

func (d *stateDec) int(bits int) int64 {
	n := d.number(true)
	if !d.ok {
		return 0
	}
	v, err := strconv.ParseInt(string(n), 10, bits)
	if err != nil {
		d.ok = false
	}
	return v
}

func (d *stateDec) bool() bool {
	if d.skip("true") {
		return true
	}
	d.lit("false")
	return false
}

// time reads a time as encoding/json does: the raw string token, quotes
// included, goes to time.Time.UnmarshalJSON.
func (d *stateDec) time() time.Time {
	var t time.Time
	if !d.ok || d.i >= len(d.b) || d.b[d.i] != '"' {
		d.ok = false
		return t
	}
	for j := d.i + 1; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			if t.UnmarshalJSON(d.b[d.i:j+1]) != nil {
				d.ok = false
			}
			d.i = j + 1
			return t
		case c == '\\' || c < ' ':
			d.ok = false
			return t
		}
	}
	d.ok = false
	return t
}

func (d *stateDec) window() []DataPoint {
	n, _ := d.open(`[]`)
	if n < 0 {
		return nil
	}
	w := make([]DataPoint, 0, n)
	for more := n > 0; more; more = d.next(`]`) {
		var p DataPoint
		d.lit(`{"At":`)
		p.At = d.time()
		d.lit(`,"Value":`)
		p.Value = d.float()
		d.lit(`}`)
		w = append(w, p)
	}
	return w
}

func (d *stateDec) strs() []string {
	n, _ := d.open(`[]`)
	if n < 0 {
		return nil
	}
	ss := make([]string, 0, n)
	for more := n > 0; more; more = d.next(`]`) {
		d.str(add(d, &ss))
	}
	return ss
}

// open starts a list (brackets is "[]") or a map ("{}"). It returns -1
// for null, 0 for an empty one, and otherwise a count of its elements,
// and of theirs, to size what decodes it; -1 with ok cleared for anything
// else.
func (d *stateDec) open(brackets string) (n, inner int) {
	if d.skip(`null`) {
		return -1, 0
	}
	d.lit(brackets[:1])
	if !d.ok {
		return -1, 0
	}
	if d.skip(brackets[1:]) {
		return 0, 0
	}
	return d.elems()
}

// next reads the comma before another element and returns true, or the
// list's or map's closing bracket and returns false.
func (d *stateDec) next(closing string) bool {
	if d.skip(`,`) {
		return true
	}
	d.lit(closing)
	return false
}

// elems counts the elements of the non-empty array or object that starts
// before b[i] — the commas outside nested values and strings, plus one —
// and, in inner, the elements of the arrays and objects among them, to
// size what decodes both levels. On input that is not well formed the
// counts are only size hints, never more than len(b).
func (d *stateDec) elems() (n, inner int) {
	n, depth := 1, 0
	for j := d.i; j < len(d.b); j++ {
		switch d.b[j] {
		case '"':
			for j++; j < len(d.b) && d.b[j] != '"'; j++ {
				if d.b[j] == '\\' {
					j++
				}
			}
		case '[', '{':
			if depth++; depth == 1 && j+1 < len(d.b) && d.b[j+1] != ']' && d.b[j+1] != '}' {
				inner++
			}
		case ']', '}':
			if depth == 0 {
				return n, inner
			}
			depth--
		case ',':
			switch depth {
			case 0:
				n++
			case 1:
				inner++
			}
		}
	}
	return n, inner
}
