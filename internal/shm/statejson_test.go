package shm

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"aodb/internal/codec/codectest"
	"aodb/internal/core"
	"aodb/internal/kvstore"
)

// The values where encoding/json's output has special cases: HTML
// characters, line separators, invalid UTF-8 and control bytes; the
// exponent cut-offs, negative zero and the unsupported floats; zones off
// UTC and years RFC 3339 cannot write.
var (
	specialStrings = []string{
		"", "org-0@sensor-1/ch-0", "<a&b>", "x\u2028y\u2029z", "\xff\xfe\xc3",
		"\x00\x01\b\f\n\r\t\x1f\x7f", `"quoted\" \\ /`, "é日本語🙂\ufffd",
	}
	specialFloats = []float64{
		0, math.Copysign(0, -1), 1e-7, 1e-6, 9.999999e-7, -1e-7, 1e20, 1e21, 1e22, -1e21,
		0.1, 123456789.125, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	specialTimes = []time.Time{
		{}, t0, t0.Add(123456789 * time.Nanosecond),
		t0.In(time.FixedZone("", 5*3600+1800)),
		t0.In(time.FixedZone("", -(23*3600 + 59*60))),
		t0.In(time.FixedZone("", 24*3600)),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
	}
)

// TestStateJSONMatchesEncodingJSON: every state, built from every special
// value and with nil, empty and filled lists and maps, encodes to
// json.Marshal's bytes or fails as it does, and decodes back as
// json.Unmarshal decodes it.
func TestStateJSONMatchesEncodingJSON(t *testing.T) {
	for shape := 0; shape < 3; shape++ {
		for _, s := range specialStrings {
			for _, f := range specialFloats {
				for _, tm := range specialTimes {
					g := constGen{s: s, f: f, t: tm, shape: shape}
					checkEncode(t, g.states())
				}
			}
		}
	}
}

// TestStateJSONStoredFixtures: the stored states of testdata/state take
// the codec's own decoder, not the fallback (FuzzStateJSON's seeds check
// that they decode as encoding/json decodes them).
func TestStateJSONStoredFixtures(t *testing.T) {
	for name, st := range map[string]stateCodec{
		"channel-v2": &channelState{},
		"agg-hour":   &aggState{},
		"agg-day":    &aggState{},
		"agg-month":  &aggState{},
	} {
		data, err := os.ReadFile(filepath.Join("testdata", "state", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !st.parse(data) {
			t.Errorf("%s: not read as the canonical form", name)
		}
	}
}

// stateCodec is what every state implements.
type stateCodec interface {
	json.Marshaler
	json.Unmarshaler
	parse([]byte) bool
}

// fallbackInputs are FuzzStateJSON seeds, and so run in every go test:
// forms encoding/json reads, or refuses, that the codec does not write.
var fallbackInputs = []string{
	` {"Org":"o","Channels":["a"],"Virtual":"","Packets":3}`,
	`{"Org":"o","Channels":["a"],"Virtual":"","Packets":3} `,
	`{"Org": "o","Channels":["a"],"Virtual":"","Packets":3}`,
	`{"Channels":["a"],"Org":"o","Virtual":"","Packets":3}`,
	`{"org":"o","channels":["a"],"virtual":"","packets":3}`,
	`{"Org":"o","Channels":["a"],"Virtual":"","Packets":3,"Extra":true}`,
	`{"Org":null,"Channels":null,"Virtual":"","Packets":null}`,
	`{"Org":"o","Channels":["a"],"Virtual":"","Packets":3}x`,
	`{"Org":"o","Channels":["a"],"Virtual":"","Packets":3.0}`,
	`{"Org":"o","Channels":["a"],"Virtual":"","Packets":1e2}`,
	`{"Org":"o","Channels":["a"],"Virtual":"","Packets":99999999999999999999}`,
	`{"Org":"\ud83d\ude00 \u00e9\/","Channels":[],"Virtual":"\x","Packets":-0}`,
	`{"Org":"\ud83d\ude00","Channels":[],"Virtual":"","Packets":0}`,
	`{"Level":"hour","Next":"","PerChannel":{"c":{"k":{"Bucket":"2026-07-05T10:00:00+02:00","Count":1,"Sum":1,"Min":1,"Max":1}},"c":null}}`,
	`{"Level":"hour","Next":"","PerChannel":{"c":{"k":null}}}`,
	`{"Level":"hour","Next":"","PerChannel":{"c":{"k":{"Bucket":"2026-07-05 10:00:00Z","Count":1,"Sum":1,"Min":1,"Max":1}}}}`,
	`{"Level":"hour","Next":"","PerChannel":{"d":{},"c":{}}}`,
	`{"Level":"hour","Next":"","PerChannel":{"c":{"k":{"Bucket":"2026-07-05T10:00:00Z","Count":1,"Sum":1,"Min":1,"Max":1}},"c":{"j":{"Bucket":"2026-07-05T11:00:00Z","Count":2,"Sum":2,"Min":2,"Max":2}}}}`,
	`{"Level":"hour","Next":"","PerChannel":{"c":{"k":{"Bucket":"2026-07-05T10:00:00Z","Count":1,"Sum":1,"Min":1,"Max":1},"j":{"Bucket":"2026-07-05T11:00:00Z","Count":2,"Sum":2,"Min":2,"Max":2}}}}`,
	`{"Level":"hour","Next":"","PerChannel":{"c":{"k":{"Bucket":"2026-07-05T10:00:00Z","Count":1,"Sum":1,"Min":1,"Max":1},"k":{"Bucket":"2026-07-05T11:00:00Z","Count":2,"Sum":2,"Min":2,"Max":2}}}}`,
	`{"Level":"hour","Next":"","PerChannel":{"\u003cc\u003e":{"k\/1":{"Bucket":"2026-07-05T10:00:00Z","Count":1,"Sum":1,"Min":1,"Max":1},"k\u00e9":{"Bucket":"2026-07-05T11:00:00Z","Count":2,"Sum":2,"Min":2,"Max":2}}}}`,
	`{"Level":"hour","Next":"","PerChannel":{"\u0064":{},"c":{}}}`,
	`{"Level":"hour","Next":"","PerChannel":{"c":{"\u006b":{"Bucket":"2026-07-05T10:00:00Z","Count":1,"Sum":1,"Min":1,"Max":1},"j":{"Bucket":"2026-07-05T11:00:00Z","Count":2,"Sum":2,"Min":2,"Max":2}}}}`,
	`{"Level":"hour","Next":"","PerChannel":{"c":null}}`,
	`{"Level":"hour","Next":"","PerChannel":{"c":null,"d":{}}}`,
	`{"Inputs":[],"Op":"sum","WindowCap":10,"Window":[{"At":"2026-07-05T10:00:00Z","Value":1e400}]}`,
	`{"Inputs":[],"Op":"sum","WindowCap":10,"Window":[{"At":"2026-07-05T10:00:00Z","Value":01}]}`,
	`{"Inputs":[],"Op":"sum","WindowCap":10,"Window":[{"At":"2026-07-05T10:00:00Z","Value":-}]}`,
	`{"Recent":[{"Channel":"c","At":null,"Value":1,"Reason":"r"}]}`,
	`{"Recent":[],"Total":1}`,
	`null`,
	``,
	`{}`,
}

// FuzzStateJSON holds the codec to encoding/json both ways. Decode: on any
// bytes, UnmarshalJSON and json.Unmarshal on the method-less type both
// fail, or both succeed with deep-equal values. Encode: for states built
// from the bytes, MarshalJSON returns json.Marshal's bytes and error.
func FuzzStateJSON(f *testing.F) {
	for _, name := range []string{"channel", "channel-v2", "agg-hour", "agg-day", "agg-month"} {
		data, err := os.ReadFile(filepath.Join("testdata", "state", name+".json"))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, in := range fallbackInputs {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		g := byteGen{b: data}
		checkEncode(t, g.states())
	})
}

// checkDecode decodes data as every state both ways.
func checkDecode(t *testing.T, data []byte) {
	t.Helper()
	decodeBoth[sensorState, sensorStateJSON](t, data)
	decodeBoth[channelState, channelStateJSON](t, data)
	decodeBoth[virtualState, virtualStateJSON](t, data)
	decodeBoth[aggState, aggStateJSON](t, data)
	decodeBoth[alertsState, alertsStateJSON](t, data)
	fast, errFast := unmarshalWindow(data)
	var ref []DataPoint
	errRef := json.Unmarshal(data, &ref)
	if (errFast == nil) != (errRef == nil) || errFast == nil && !reflect.DeepEqual(fast, ref) {
		t.Fatalf("window from %q: codec %#v (%v), encoding/json %#v (%v)", data, fast, errFast, ref, errRef)
	}
}

func decodeBoth[S, A any](t *testing.T, data []byte) {
	t.Helper()
	var fast S
	var ref A
	errFast := any(&fast).(json.Unmarshaler).UnmarshalJSON(data)
	errRef := json.Unmarshal(data, &ref)
	if (errFast == nil) != (errRef == nil) {
		t.Fatalf("%T from %q: codec error %v, encoding/json error %v", fast, data, errFast, errRef)
	}
	if want := fromReference[S](&ref); errFast == nil && !reflect.DeepEqual(fast, want) {
		t.Fatalf("%T from %q:\ncodec         %#v\nencoding/json %#v", fast, data, fast, want)
	}
}

// fromReference converts ref, a method-less type's value, to the state
// S: the aggregator's from its legacy map of maps, the others by a
// conversion of identical types.
func fromReference[S, A any](ref *A) S {
	if j, ok := any(ref).(*aggStateJSON); ok {
		return any(j.state()).(S)
	}
	return reflect.ValueOf(ref).Elem().Convert(reflect.TypeOf((*S)(nil)).Elem()).Interface().(S)
}

// toReference converts s to the method-less type A whose json.Marshal
// bytes the state's MarshalJSON must write.
func toReference[S, A any](s *S) any {
	if a, ok := any(s).(*aggState); ok {
		return a.legacy()
	}
	return reflect.ValueOf(s).Convert(reflect.TypeOf((*A)(nil))).Interface()
}

// legacy is s as the map of maps it is stored as, nil slices as nil maps.
func (s *aggState) legacy() *aggStateJSON {
	j := &aggStateJSON{Level: s.Level, Next: s.Next}
	if s.PerChannel == nil {
		return j
	}
	j.PerChannel = make(map[string]map[string]BucketStat, len(s.PerChannel))
	for _, ch := range s.PerChannel {
		var buckets map[string]BucketStat
		if ch.Buckets != nil {
			buckets = make(map[string]BucketStat, len(ch.Buckets))
			for _, b := range ch.Buckets {
				buckets[b.Key] = b.Stat
			}
		}
		j.PerChannel[ch.Key] = buckets
	}
	return j
}

// checkEncode encodes every state both ways, then decodes what was
// written.
func checkEncode(t *testing.T, s allStates) {
	t.Helper()
	encodeBoth[sensorState, sensorStateJSON](t, &s.sensor)
	encodeBoth[channelState, channelStateJSON](t, &s.channel)
	encodeBoth[virtualState, virtualStateJSON](t, &s.virtual)
	encodeBoth[aggState, aggStateJSON](t, &s.agg)
	encodeBoth[alertsState, alertsStateJSON](t, &s.alerts)
	got, err := marshalWindow(s.channel.Window)
	want, wantErr := json.Marshal(s.channel.Window)
	if !sameError(err, wantErr) || !bytes.Equal(got, want) {
		t.Fatalf("window %#v: codec %s (%v), encoding/json %s (%v)", s.channel.Window, got, err, want, wantErr)
	}
}

// encodeBoth checks s against json.Marshal of its method-less type A,
// and that what it writes is the canonical form its decoder reads back.
// The one exception is an aggregator with a key of invalid UTF-8: written
// as \ufffd, its distinct keys can read back equal or out of order, and
// those go to encoding/json.
func encodeBoth[S, A any](t *testing.T, s *S) {
	t.Helper()
	st := any(s).(stateCodec)
	got, err := st.MarshalJSON()
	want, wantErr := json.Marshal(toReference[S, A](s))
	if !sameError(err, wantErr) || !bytes.Equal(got, want) {
		t.Fatalf("%T %#v:\ncodec         %s (%v)\nencoding/json %s (%v)", s, s, got, err, want, wantErr)
	}
	if err == nil {
		_, agg := any(s).(*aggState)
		lossyKeys := agg && bytes.Contains(got, []byte(`\ufffd`))
		if !any(new(S)).(stateCodec).parse(got) && !lossyKeys {
			t.Fatalf("%T: the decoder does not read what the encoder wrote: %s", s, got)
		}
		decodeBoth[S, A](t, got)
	}
}

func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Error() == b.Error()
}

type allStates struct {
	sensor  sensorState
	channel channelState
	virtual virtualState
	agg     aggState
	alerts  alertsState
}

// gen is where state values come from: a fixed special value each
// (constGen) or fuzz bytes (byteGen).
type gen interface {
	str() string
	float() float64
	time() time.Time
	int() int64
	bool() bool
	// n is a list's or map's length, -1 for nil.
	n() int
}

func buildStates(g gen) allStates {
	strs := func() []string { return genList(g, g.str) }
	point := func() DataPoint { return DataPoint{At: g.time(), Value: g.float()} }
	var s allStates
	s.sensor = sensorState{Org: g.str(), Channels: strs(), Virtual: g.str(), Packets: g.int()}
	s.channel = channelState{
		Org: g.str(), WindowCap: int(g.int()), Window: genList(g, point),
		Accumulated: g.float(), LastValue: g.float(), HasLast: g.bool(),
		Threshold:  Threshold{Min: g.float(), Max: g.float(), Enabled: g.bool()},
		VirtualOut: g.str(), Aggregator: g.str(), WriteEveryBatch: g.bool(), Archive: g.bool(),
	}
	s.virtual = virtualState{Inputs: strs(), Op: g.str(), WindowCap: int(g.int()), Window: genList(g, point)}
	agg := aggStateJSON{Level: g.str(), Next: g.str(), PerChannel: genMap(g, func() map[string]BucketStat {
		return genMap(g, func() BucketStat {
			return BucketStat{Bucket: g.time(), Count: g.int(), Sum: g.float(), Min: g.float(), Max: g.float()}
		})
	})}
	s.agg = agg.state()
	s.alerts = alertsState{
		Recent: genList(g, func() Alert { return Alert{Channel: g.str(), At: g.time(), Value: g.float(), Reason: g.str()} }),
	}
	return s
}

func genList[T any](g gen, elem func() T) []T {
	n := g.n()
	if n < 0 {
		return nil
	}
	xs := make([]T, n)
	for i := range xs {
		xs[i] = elem()
	}
	return xs
}

func genMap[V any](g gen, elem func() V) map[string]V {
	n := g.n()
	if n < 0 {
		return nil
	}
	m := make(map[string]V, n)
	for i := 0; i < n; i++ {
		m[g.str()] = elem()
	}
	return m
}

// constGen gives one value of each kind; shape is 0 for nil lists and
// maps, 1 for empty ones and 2 for one element.
type constGen struct {
	s     string
	f     float64
	t     time.Time
	shape int
}

func (g constGen) states() allStates { return buildStates(g) }
func (g constGen) str() string       { return g.s }
func (g constGen) float() float64    { return g.f }
func (g constGen) time() time.Time   { return g.t }
func (g constGen) int() int64        { return int64(len(g.s)) - 3 }
func (g constGen) bool() bool        { return g.shape == 2 }
func (g constGen) n() int            { return g.shape - 1 }

// byteGen draws values from fuzz bytes, half the time from the special
// values and otherwise from the raw bytes.
type byteGen struct{ b []byte }

func (g *byteGen) states() allStates { return buildStates(g) }

func (g *byteGen) byte() byte {
	if len(g.b) == 0 {
		return 0
	}
	c := g.b[0]
	g.b = g.b[1:]
	return c
}

func (g *byteGen) uint64() uint64 {
	var buf [8]byte
	g.b = g.b[copy(buf[:], g.b):]
	return binary.LittleEndian.Uint64(buf[:])
}

func (g *byteGen) str() string {
	c := g.byte()
	if c&1 == 0 {
		return specialStrings[int(c>>1)%len(specialStrings)]
	}
	n := min(int(c>>1)%24, len(g.b))
	s := string(g.b[:n])
	g.b = g.b[n:]
	return s
}

func (g *byteGen) float() float64 {
	if c := g.byte(); c&1 == 0 {
		return specialFloats[int(c>>1)%len(specialFloats)]
	}
	return math.Float64frombits(g.uint64())
}

func (g *byteGen) time() time.Time {
	c := g.byte()
	if c&1 == 0 {
		return specialTimes[int(c>>1)%len(specialTimes)]
	}
	at := time.Unix(int64(g.uint64()>>20)-1<<43, int64(g.uint64()%1e9))
	switch c >> 1 % 3 {
	case 0:
		return at.UTC()
	case 1:
		return at.In(time.FixedZone("", int(int8(g.byte()))*900)) // ±32 h in quarter hours
	default:
		return at
	}
}

func (g *byteGen) int() int64 { return int64(g.uint64()) }
func (g *byteGen) bool() bool { return g.byte()&1 == 1 }
func (g *byteGen) n() int     { return int(g.byte()%5) - 1 }

// TestStateWriteRefusesWhatJSONRefuses: a state json.Marshal cannot write —
// a NaN or infinite value, a year RFC 3339 cannot hold — fails WriteState
// and leaves the stored state as it was; stored bytes that do not decode
// fail the activation as corrupt state.
func TestStateWriteRefusesWhatJSONRefuses(t *testing.T) {
	kv, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer kv.Close()
	ctx := context.Background()
	rt, err := core.New(core.Config{Store: kv})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Shutdown(ctx)
	if _, err := NewPlatform(rt, Options{Persist: core.PersistExplicit}); err != nil {
		t.Fatal(err)
	}
	rt.AddSilo("silo-1", nil)
	grains, err := kv.Table("grains")
	if err != nil {
		t.Fatal(err)
	}
	ch := core.ID{Kind: KindPhysicalChannel, Key: "org-0@sensor-0/ch-0"}
	if _, err := rt.Call(ctx, ch, ConfigureChannel{Org: "org-0", WindowCap: 10, WriteEveryBatch: true}); err != nil {
		t.Fatal(err)
	}
	stored, err := grains.Get(ctx, ch.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []DataPoint{
		{At: t0, Value: math.NaN()},
		{At: t0, Value: math.Inf(-1)},
		{At: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), Value: 1},
		{At: time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC), Value: 1},
	} {
		_, err := rt.Call(ctx, ch, InsertPoints{Points: []DataPoint{p}})
		var unsupported *json.UnsupportedValueError
		var marshaler *json.MarshalerError
		if !errors.As(err, &unsupported) && !errors.As(err, &marshaler) {
			t.Errorf("insert of %v: %v, want encoding/json's error", p, err)
		}
		it, err := grains.Get(ctx, ch.String())
		if err != nil || it.Version != stored.Version || !bytes.Equal(it.Value, stored.Value) {
			t.Fatalf("after a refused write the store holds v%d %s (%v), want v%d %s", it.Version, it.Value, err, stored.Version, stored.Value)
		}
	}

	bad := core.ID{Kind: KindSensor, Key: "org-0@sensor-9"}
	if _, err := grains.Put(ctx, bad.String(), []byte(`{"Org":"org-0","Channels":[`)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Call(ctx, bad, GetSensorInfo{}); err == nil || !strings.Contains(err.Error(), "core: corrupt state") {
		t.Errorf("activating over corrupt state: %v, want core: corrupt state", err)
	}
}

// orgHourAggregator is the hour aggregator of the benchmark's org: 200
// channels, one bucket a channel.
func orgHourAggregator() aggState {
	hour := TruncateToLevel(t0, LevelHour)
	j := aggStateJSON{Level: LevelHour, Next: AggregatorKey("org-0", LevelDay), PerChannel: map[string]map[string]BucketStat{}}
	for s := 0; s < 100; s++ {
		for c := 0; c < 2; c++ {
			j.PerChannel[ChannelKey(SensorKey("org-0", s), c)] = map[string]BucketStat{
				hour.Format(time.RFC3339): {Bucket: hour, Count: 10, Sum: 12.375 * float64(s+c), Min: -1.5, Max: 0.125 * float64(s)},
			}
		}
	}
	return j.state()
}

// TestAggregatorStateAllocs holds a cold aggregator's state I/O to a
// handful of allocations, however many channels feed it: decoding the
// benchmark org's hour state is the channel slice, the bucket array and
// the string block; encoding it is the buffer. The bounds are the counts
// measured once the state kept its stored order (3 and 1; 806 and 11 as a
// map of maps), plus 10 %.
func TestAggregatorStateAllocs(t *testing.T) {
	codectest.SkipUnderRace(t)
	agg := orgHourAggregator()
	data, err := agg.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var got aggState
	if !got.parse(data) || !reflect.DeepEqual(got, agg) {
		t.Fatalf("the decoder does not read back the aggregator's state")
	}
	decode := testing.AllocsPerRun(100, func() {
		if err := got.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	encode := testing.AllocsPerRun(100, func() {
		if _, err := agg.MarshalJSON(); err != nil {
			t.Fatal(err)
		}
	})
	const mostDecode, mostEncode = 3.3, 1.1
	if decode > mostDecode || encode > mostEncode {
		t.Errorf("a %d-channel, %d-byte aggregator state: %.0f allocations to decode (at most %.1f), %.0f to encode (at most %.1f)",
			len(agg.PerChannel), len(data), decode, mostDecode, encode, mostEncode)
	} else {
		t.Logf("a %d-channel, %d-byte aggregator state: %.0f allocations to decode, %.0f to encode", len(agg.PerChannel), len(data), decode, encode)
	}
}

// TestAggregatorKeepsStoredOrder: updates in any channel and bucket
// order, new channels landing before ones the position cache holds, leave
// the aggregator's state sorted and equal to the map of maps the same
// updates build.
func TestAggregatorKeepsStoredOrder(t *testing.T) {
	a := &aggregatorActor{state: aggState{Level: LevelHour}}
	want := aggStateJSON{Level: LevelHour, PerChannel: map[string]map[string]BucketStat{}}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		ch := fmt.Sprintf("c-%02d", 49-rng.Intn(50)*i/2000)
		at := t0.Add(time.Duration(rng.Intn(6)) * time.Hour)
		v := float64(i)
		if _, err := a.Receive(nil, StatUpdate{Channel: ch, Stats: []BucketStat{{Bucket: at, Count: 1, Sum: v, Min: v, Max: v}}}); err != nil {
			t.Fatal(err)
		}
		if want.PerChannel[ch] == nil {
			want.PerChannel[ch] = map[string]BucketStat{}
		}
		key := at.Format(time.RFC3339)
		cur := want.PerChannel[ch][key]
		cur.Bucket = at
		cur.Merge(BucketStat{Bucket: at, Count: 1, Sum: v, Min: v, Max: v})
		want.PerChannel[ch][key] = cur
	}
	if len(want.PerChannel) < 40 {
		t.Fatalf("only %d channels updated", len(want.PerChannel))
	}
	if !reflect.DeepEqual(a.state, want.state()) {
		t.Errorf("the aggregator's state is not the sorted form of its updates:\n got %+v\nwant %+v", a.state, want.state())
	}
}

// TestDecodedStateKeepsNoInput: a decoded state holds its values and
// nothing more — no reference to its input, no slack in its string block
// — so once the input is collected the live heap has grown by the
// values' own bytes (window, slices, strings) plus a small constant, the
// heap's rounding of them.
func TestDecodedStateKeepsNoInput(t *testing.T) {
	codectest.SkipUnderRace(t)
	sensor := SensorKey("org-0", 0)
	ch := &channelState{
		Org: "org-0", WindowCap: 4096, VirtualOut: VirtualKey(sensor),
		Aggregator: AggregatorKey("org-0", LevelHour), Archive: true,
	}
	for i := 0; i < ch.WindowCap; i++ {
		ch.Window = append(ch.Window, DataPoint{At: t0.Add(time.Duration(i) * 100 * time.Millisecond), Value: float64(i) * 0.37})
	}
	agg := orgHourAggregator()
	size := func(v any) int { return int(reflect.TypeOf(v).Size()) }
	for _, c := range []struct {
		name string
		from stateCodec
		into func() stateCodec
		own  func(stateCodec) int // the decoded value's bytes
	}{
		{"4096-point channel", ch, func() stateCodec { return new(channelState) }, func(st stateCodec) int {
			s := st.(*channelState)
			return cap(s.Window)*size(DataPoint{}) + len(s.Org) + len(s.VirtualOut) + len(s.Aggregator)
		}},
		{"200-channel aggregator", &agg, func() stateCodec { return new(aggState) }, func(st stateCodec) int {
			s := st.(*aggState)
			n := cap(s.PerChannel)*size(aggChannel{}) + len(s.Level) + len(s.Next)
			for _, c := range s.PerChannel {
				n += cap(c.Buckets)*size(aggBucket{}) + len(c.Key)
				for _, b := range c.Buckets {
					n += len(b.Key)
				}
			}
			return n
		}},
	} {
		input := func() []byte {
			data, err := c.from.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			return data
		}
		if err := c.into().UnmarshalJSON(input()); err != nil { // warm-up
			t.Fatal(err)
		}
		got := c.into()
		before := liveHeap()
		if err := got.UnmarshalJSON(input()); err != nil {
			t.Fatal(err)
		}
		grew := liveHeap() - before
		const slack = 8 << 10
		if own := c.own(got); grew > own+slack {
			t.Errorf("%s: the live heap grew %d bytes across a decode, want at most its %d-byte value plus %d", c.name, grew, own, slack)
		} else {
			t.Logf("%s: the live heap grew %d bytes across a decode, for a %d-byte value", c.name, grew, own)
		}
		runtime.KeepAlive(got)
	}
}

// liveHeap collects twice, so that sync.Pool contents go too, and
// returns the bytes still live.
func liveHeap() int {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int(ms.HeapAlloc)
}
