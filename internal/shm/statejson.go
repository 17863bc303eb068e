package shm

import (
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"time"
	"unicode/utf16"
	"unicode/utf8"
)

// The state codec. The six actor states encode themselves: MarshalJSON
// writes, into one presized buffer and without reflection, the bytes
// json.Marshal writes for the same value, and UnmarshalJSON parses that
// form back without reflection and without keeping the input. Stored state
// is plain encoding/json output either way, so state written before the
// codec existed loads, and readers that decode it with encoding/json
// (benchmark checks, tools) keep working.
//
// Decoding is strict: fields in declaration order, no white space, every
// key spelled as json.Marshal spells it. Any other input that
// encoding/json accepts — other key order or case, unknown keys, white
// space, null where a string or number goes — resets the state and
// decodes it with json.Unmarshal on a method-less copy of the type, which
// also makes every error json.Unmarshal's own. FuzzStateJSON holds both
// halves to encoding/json.

// Method-less copies of the states: json.Marshal and json.Unmarshal on
// these are the reference the codec reproduces, and the decoder's fallback.
type (
	orgStateJSON     orgState
	sensorStateJSON  sensorState
	channelStateJSON channelState
	virtualStateJSON virtualState
	aggStateJSON     aggState
	alertsStateJSON  alertsState
)

// Encoded sizes, with the comma, that presize the encoders' buffers: a
// point with a full-precision value, {"At":"2026-07-05T10:00:00.1Z",
// "Value":0.1234567890123456}, and a bucket with its key.
const (
	pointJSONSize  = 64
	bucketJSONSize = 128
)

func (s *orgState) MarshalJSON() ([]byte, error) {
	n := 96 + len(s.Name) + stringsSize(s.Sensors) + stringsSize(s.Channels)
	for _, p := range s.Projects {
		n += 20 + len(p.ID) + len(p.Name)
	}
	for _, u := range s.Users {
		n += 28 + len(u.ID) + len(u.Name) + len(u.Role)
	}
	e := stateEnc{b: make([]byte, 0, n)}
	e.raw(`{"Name":`)
	e.str(s.Name)
	e.raw(`,"Projects":`)
	if e.open(s.Projects == nil, '[') {
		for i, p := range s.Projects {
			e.sep(i)
			e.raw(`{"ID":`)
			e.str(p.ID)
			e.raw(`,"Name":`)
			e.str(p.Name)
			e.raw(`}`)
		}
		e.raw(`]`)
	}
	e.raw(`,"Users":`)
	if e.open(s.Users == nil, '[') {
		for i, u := range s.Users {
			e.sep(i)
			e.raw(`{"ID":`)
			e.str(u.ID)
			e.raw(`,"Name":`)
			e.str(u.Name)
			e.raw(`,"Role":`)
			e.str(u.Role)
			e.raw(`}`)
		}
		e.raw(`]`)
	}
	e.raw(`,"Sensors":`)
	e.strs(s.Sensors)
	e.raw(`,"Channels":`)
	e.strs(s.Channels)
	e.raw(`}`)
	return e.done()
}

func (s *orgState) UnmarshalJSON(data []byte) error {
	var v orgState
	return adopt(v.parse(data), s, &v, data, (*orgStateJSON)(s))
}

func (v *orgState) parse(data []byte) bool {
	d := stateDec{b: data, ok: true}
	d.lit(`{"Name":`)
	v.Name = d.str()
	d.lit(`,"Projects":`)
	if n := d.open(`[]`); n >= 0 {
		v.Projects = make([]Project, 0, n)
		for more := n > 0; more; more = d.next(`]`) {
			var p Project
			d.lit(`{"ID":`)
			p.ID = d.str()
			d.lit(`,"Name":`)
			p.Name = d.str()
			d.lit(`}`)
			v.Projects = append(v.Projects, p)
		}
	}
	d.lit(`,"Users":`)
	if n := d.open(`[]`); n >= 0 {
		v.Users = make([]User, 0, n)
		for more := n > 0; more; more = d.next(`]`) {
			var u User
			d.lit(`{"ID":`)
			u.ID = d.str()
			d.lit(`,"Name":`)
			u.Name = d.str()
			d.lit(`,"Role":`)
			u.Role = d.str()
			d.lit(`}`)
			v.Users = append(v.Users, u)
		}
	}
	d.lit(`,"Sensors":`)
	v.Sensors = d.strs()
	d.lit(`,"Channels":`)
	v.Channels = d.strs()
	d.lit(`}`)
	return d.end()
}

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
	var v sensorState
	return adopt(v.parse(data), s, &v, data, (*sensorStateJSON)(s))
}

func (v *sensorState) parse(data []byte) bool {
	d := stateDec{b: data, ok: true}
	d.lit(`{"Org":`)
	v.Org = d.str()
	d.lit(`,"Channels":`)
	v.Channels = d.strs()
	d.lit(`,"Virtual":`)
	v.Virtual = d.str()
	d.lit(`,"Packets":`)
	v.Packets = d.int(64)
	d.lit(`}`)
	return d.end()
}

func (s *channelState) MarshalJSON() ([]byte, error) {
	n := 320 + len(s.Org) + len(s.Sensor) + len(s.VirtualOut) + len(s.Aggregator) + pointJSONSize*len(s.Window)
	e := stateEnc{b: make([]byte, 0, n)}
	e.raw(`{"Org":`)
	e.str(s.Org)
	e.raw(`,"Sensor":`)
	e.str(s.Sensor)
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
	var v channelState
	return adopt(v.parse(data), s, &v, data, (*channelStateJSON)(s))
}

func (v *channelState) parse(data []byte) bool {
	d := stateDec{b: data, ok: true}
	d.lit(`{"Org":`)
	v.Org = d.str()
	d.lit(`,"Sensor":`)
	v.Sensor = d.str()
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
	v.VirtualOut = d.str()
	d.lit(`,"Aggregator":`)
	v.Aggregator = d.str()
	d.lit(`,"WriteEveryBatch":`)
	v.WriteEveryBatch = d.bool()
	d.lit(`,"Archive":`)
	v.Archive = d.bool()
	d.lit(`}`)
	return d.end()
}

func (s *virtualState) MarshalJSON() ([]byte, error) {
	n := 96 + len(s.Org) + len(s.Op) + stringsSize(s.Inputs) + pointJSONSize*len(s.Window)
	e := stateEnc{b: make([]byte, 0, n)}
	e.raw(`{"Org":`)
	e.str(s.Org)
	e.raw(`,"Inputs":`)
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
	var v virtualState
	return adopt(v.parse(data), s, &v, data, (*virtualStateJSON)(s))
}

func (v *virtualState) parse(data []byte) bool {
	d := stateDec{b: data, ok: true}
	d.lit(`{"Org":`)
	v.Org = d.str()
	d.lit(`,"Inputs":`)
	v.Inputs = d.strs()
	d.lit(`,"Op":`)
	v.Op = d.str()
	d.lit(`,"WindowCap":`)
	v.WindowCap = int(d.int(strconv.IntSize))
	d.lit(`,"Window":`)
	v.Window = d.window()
	d.lit(`}`)
	return d.end()
}

func (s *aggState) MarshalJSON() ([]byte, error) {
	n := 64 + len(s.Level) + len(s.Next)
	for ch, buckets := range s.PerChannel {
		n += 8 + len(ch) + bucketJSONSize*len(buckets)
	}
	e := stateEnc{b: make([]byte, 0, n)}
	e.raw(`{"Level":`)
	e.str(s.Level)
	e.raw(`,"Next":`)
	e.str(s.Next)
	e.raw(`,"PerChannel":`)
	if e.open(s.PerChannel == nil, '{') {
		var keys []string // one channel's bucket keys, reused
		for i, ch := range sortedKeys(s.PerChannel, nil) {
			e.sep(i)
			e.str(ch)
			e.raw(`:`)
			buckets := s.PerChannel[ch]
			if !e.open(buckets == nil, '{') {
				continue
			}
			keys = sortedKeys(buckets, keys[:0])
			for j, k := range keys {
				b := buckets[k]
				e.sep(j)
				e.str(k)
				e.raw(`:{"Bucket":`)
				e.time(b.Bucket)
				e.raw(`,"Count":`)
				e.int(b.Count)
				e.raw(`,"Sum":`)
				e.float(b.Sum)
				e.raw(`,"Min":`)
				e.float(b.Min)
				e.raw(`,"Max":`)
				e.float(b.Max)
				e.raw(`}`)
			}
			e.raw(`}`)
		}
		e.raw(`}`)
	}
	e.raw(`}`)
	return e.done()
}

func (s *aggState) UnmarshalJSON(data []byte) error {
	var v aggState
	return adopt(v.parse(data), s, &v, data, (*aggStateJSON)(s))
}

func (v *aggState) parse(data []byte) bool {
	d := stateDec{b: data, ok: true}
	d.lit(`{"Level":`)
	v.Level = d.str()
	d.lit(`,"Next":`)
	v.Next = d.str()
	d.lit(`,"PerChannel":`)
	if n := d.open(`{}`); n >= 0 {
		v.PerChannel = make(map[string]map[string]BucketStat, n)
		for more := n > 0; more; more = d.next(`}`) {
			ch := d.str()
			d.lit(`:`)
			var buckets map[string]BucketStat
			if n := d.open(`{}`); n >= 0 {
				buckets = make(map[string]BucketStat, n)
				for more := n > 0; more; more = d.next(`}`) {
					var b BucketStat
					k := d.str()
					d.lit(`:{"Bucket":`)
					b.Bucket = d.time()
					d.lit(`,"Count":`)
					b.Count = d.int(64)
					d.lit(`,"Sum":`)
					b.Sum = d.float()
					d.lit(`,"Min":`)
					b.Min = d.float()
					d.lit(`,"Max":`)
					b.Max = d.float()
					d.lit(`}`)
					buckets[k] = b
				}
			}
			v.PerChannel[ch] = buckets
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
	e.raw(`,"Total":`)
	e.int(s.Total)
	e.raw(`}`)
	return e.done()
}

func (s *alertsState) UnmarshalJSON(data []byte) error {
	var v alertsState
	return adopt(v.parse(data), s, &v, data, (*alertsStateJSON)(s))
}

func (v *alertsState) parse(data []byte) bool {
	d := stateDec{b: data, ok: true}
	d.lit(`{"Recent":`)
	if n := d.open(`[]`); n >= 0 {
		v.Recent = make([]Alert, 0, n)
		for more := n > 0; more; more = d.next(`]`) {
			var a Alert
			d.lit(`{"Channel":`)
			a.Channel = d.str()
			d.lit(`,"At":`)
			a.At = d.time()
			d.lit(`,"Value":`)
			a.Value = d.float()
			d.lit(`,"Reason":`)
			a.Reason = d.str()
			d.lit(`}`)
			v.Recent = append(v.Recent, a)
		}
	}
	d.lit(`,"Total":`)
	v.Total = d.int(64)
	d.lit(`}`)
	return d.end()
}

// adopt ends every state's UnmarshalJSON. When the state's parse read
// data as the canonical form, into v, v replaces *s; any other input
// resets *s and goes to json.Unmarshal through alias, the method-less view
// of s. Each state's parse(data) decodes the canonical form into a zero
// value and reports whether data was exactly that.
func adopt[T any](parsed bool, s, v *T, data []byte, alias any) error {
	if parsed {
		*s = *v
		return nil
	}
	var zero T
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

// sortedKeys appends m's keys to keys in json.Marshal's order, bytewise.
func sortedKeys[V any](m map[string]V, keys []string) []string {
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// stateDec reads the canonical form at b[i:]. A mismatch clears ok, after
// which every read is a no-op returning a zero value.
type stateDec struct {
	b  []byte
	i  int
	ok bool
}

// end reports whether everything read so far matched and nothing follows.
func (d *stateDec) end() bool { return d.ok && d.i == len(d.b) }

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

// str reads a string. One without escapes is one allocation, the copy.
func (d *stateDec) str() string {
	if !d.ok || d.i >= len(d.b) || d.b[d.i] != '"' {
		d.ok = false
		return ""
	}
	for j := d.i + 1; j < len(d.b); {
		switch c := d.b[j]; {
		case c == '"':
			s := string(d.b[d.i+1 : j])
			d.i = j + 1
			return s
		case c == '\\':
			return d.strEscaped(j)
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
	return ""
}

// strEscaped finishes str from the first backslash at b[j]. Surrogate
// escapes, which json.Marshal never writes, are left to encoding/json.
func (d *stateDec) strEscaped(j int) string {
	out := append([]byte(nil), d.b[d.i+1:j]...)
	for j < len(d.b) {
		c := d.b[j]
		switch {
		case c == '"':
			d.i = j + 1
			return string(out)
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
					return ""
				}
				out = utf8.AppendRune(out, r)
				j += 4
			default:
				d.ok = false
				return ""
			}
			j += 2
		case c == '\\' || c < ' ':
			d.ok = false
			return ""
		case c < utf8.RuneSelf:
			out = append(out, c)
			j++
		default:
			r, size := utf8.DecodeRune(d.b[j:])
			if r == utf8.RuneError && size == 1 {
				d.ok = false
				return ""
			}
			out = append(out, d.b[j:j+size]...)
			j += size
		}
	}
	d.ok = false
	return ""
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
	n := d.open(`[]`)
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
	n := d.open(`[]`)
	if n < 0 {
		return nil
	}
	ss := make([]string, 0, n)
	for more := n > 0; more; more = d.next(`]`) {
		ss = append(ss, d.str())
	}
	return ss
}

// open starts a list (brackets is "[]") or a map ("{}"). It returns -1
// for null, 0 for an empty one, and otherwise a count of its elements to
// size what decodes it; -1 with ok cleared for anything else.
func (d *stateDec) open(brackets string) int {
	if d.skip(`null`) {
		return -1
	}
	d.lit(brackets[:1])
	if !d.ok {
		return -1
	}
	if d.skip(brackets[1:]) {
		return 0
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
// to size what decodes it. On input that is not well formed the count is
// only a size hint, never more than len(b).
func (d *stateDec) elems() int {
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
			depth++
		case ']', '}':
			if depth == 0 {
				return n
			}
			depth--
		case ',':
			if depth == 0 {
				n++
			}
		}
	}
	return n
}
