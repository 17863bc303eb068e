package devicefmt

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

var samplePacket = Packet{
	Sensor: "org-1@sensor-7",
	At:     time.Date(2026, 7, 5, 9, 30, 0, 0, time.UTC),
	PerChannel: [][]float64{
		{1.5, 2.25, -3.125},
		{100, 200},
	},
}

func TestJSONRoundTrip(t *testing.T) {
	data, err := EncodeJSON(samplePacket)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, samplePacket) {
		t.Fatalf("got %+v, want %+v", got, samplePacket)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	data, err := EncodeCSV(samplePacket)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, samplePacket) {
		t.Fatalf("got %+v, want %+v", got, samplePacket)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	data, err := EncodeBinary(samplePacket)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, samplePacket) {
		t.Fatalf("got %+v, want %+v", got, samplePacket)
	}
}

func TestBinaryIsSmallest(t *testing.T) {
	// The constrained-device justification: binary must beat JSON.
	j, _ := EncodeJSON(samplePacket)
	b, _ := EncodeBinary(samplePacket)
	if len(b) >= len(j) {
		t.Fatalf("binary %dB >= json %dB", len(b), len(j))
	}
}

func TestDecodeSniffsWithLeadingWhitespace(t *testing.T) {
	data, _ := EncodeJSON(samplePacket)
	got, err := Decode(append([]byte("  \n\t"), data...))
	if err != nil {
		t.Fatal(err)
	}
	if got.Sensor != samplePacket.Sensor {
		t.Fatalf("got %+v", got)
	}
}

func TestDecodeEmpty(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrUnknownFormat) {
		t.Fatalf("err = %v, want ErrUnknownFormat", err)
	}
	if _, err := Decode([]byte("   \n")); !errors.Is(err, ErrUnknownFormat) {
		t.Fatalf("err = %v", err)
	}
}

func TestMalformedPayloads(t *testing.T) {
	cases := map[string][]byte{
		"json garbage":                             []byte(`{"sensor": }`),
		"json unknown fields":                      []byte(`{"sensor":"s","unix_ms":1,"channels":[[1]],"extra":1}`),
		"json no channels":                         []byte(`{"sensor":"s","unix_ms":1,"channels":[]}`),
		"csv no channels":                          []byte("s,123\n"),
		"csv bad value":                            []byte("s,123\n1,x,3\n"),
		"csv bad timestamp":                        []byte("s,abc\n1,2\n"),
		"binary truncated":                         {0xA0, 0xDB, 0x05},
		"binary bad magic... (csv fallback fails)": {0xA0, 0x00, 0x01},
	}
	for name, data := range cases {
		if _, err := Decode(data); !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

func TestBinaryTrailingBytesRejected(t *testing.T) {
	data, _ := EncodeBinary(samplePacket)
	if _, err := Decode(append(data, 0xFF)); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing bytes accepted: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	base := samplePacket
	cases := []func(*Packet){
		func(p *Packet) { p.Sensor = "" },
		func(p *Packet) { p.At = time.Time{} },
		func(p *Packet) { p.PerChannel = nil },
		func(p *Packet) { p.PerChannel = [][]float64{{}} },
		func(p *Packet) { p.PerChannel = [][]float64{{math.NaN()}} },
		func(p *Packet) { p.PerChannel = [][]float64{{math.Inf(1)}} },
	}
	for i, mutate := range cases {
		p := base
		p.PerChannel = append([][]float64(nil), base.PerChannel...)
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid packet accepted", i)
		}
	}
	// Encoders refuse invalid packets too.
	var bad Packet
	if _, err := EncodeJSON(bad); err == nil {
		t.Error("EncodeJSON accepted invalid packet")
	}
	if _, err := EncodeCSV(bad); err == nil {
		t.Error("EncodeCSV accepted invalid packet")
	}
	if _, err := EncodeBinary(bad); err == nil {
		t.Error("EncodeBinary accepted invalid packet")
	}
}

// TestCSVSensorVerbatim: the CSV sensor field is read as written, so a
// name with white space at either end round-trips in every format, and
// EncodeCSV refuses a name the header cannot carry back.
func TestCSVSensorVerbatim(t *testing.T) {
	for _, name := range []string{" s", "s ", "s\u00a0", "\u3000s\u2003", "\ts\r", " ", "s{"} {
		p := samplePacket
		p.Sensor = name
		for format, enc := range map[string]func(Packet) ([]byte, error){
			"json": EncodeJSON, "csv": EncodeCSV, "binary": EncodeBinary,
		} {
			data, err := enc(p)
			if err != nil {
				t.Fatalf("%s %q: %v", format, name, err)
			}
			if got, err := Decode(data); err != nil || !reflect.DeepEqual(got, p) {
				t.Errorf("%s %q: decoded %+v (%v)", format, name, got, err)
			}
		}
	}
	for _, name := range []string{"a,b", "a\nb", "{s", " \t{s", "\xa0\xdbs"} {
		p := samplePacket
		p.Sensor = name
		if _, err := EncodeCSV(p); !errors.Is(err, ErrMalformed) {
			t.Errorf("EncodeCSV(%q): %v, want ErrMalformed", name, err)
		}
	}
}

// genPacket builds a valid packet from fuzz inputs.
func genPacket(sensorRaw string, ms int64, raw [][]float64) (Packet, bool) {
	sensor := strings.Map(func(r rune) rune {
		if r == ',' || r == '\n' || r == '\r' || r < 32 {
			return '_'
		}
		return r
	}, sensorRaw)
	if sensor == "" {
		sensor = "s"
	}
	if !csvCarries(sensor) {
		return Packet{}, false // a leading '{': TestCSVSensorVerbatim
	}
	if ms <= 0 {
		ms = 1
	}
	ms %= 4102444800000 // keep inside year 2100
	if ms == 0 {
		ms = 1
	}
	var channels [][]float64
	for _, ch := range raw {
		var vals []float64
		for _, v := range ch {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			vals = append(vals, v)
		}
		if len(vals) > 0 {
			channels = append(channels, vals)
		}
	}
	if len(channels) == 0 || len(channels) > 1000 {
		return Packet{}, false
	}
	return Packet{Sensor: sensor, At: time.UnixMilli(ms).UTC(), PerChannel: channels}, true
}

func TestRoundTripPropertyAllFormats(t *testing.T) {
	f := func(sensorRaw string, ms int64, raw [][]float64) bool {
		p, ok := genPacket(sensorRaw, ms, raw)
		if !ok {
			return true
		}
		for name, enc := range map[string]func(Packet) ([]byte, error){
			"json": EncodeJSON, "csv": EncodeCSV, "binary": EncodeBinary,
		} {
			if name == "binary" && (len(p.PerChannel) > math.MaxUint16 || tooWide(p)) {
				continue
			}
			data, err := enc(p)
			if err != nil {
				return false
			}
			got, err := Decode(data)
			if err != nil {
				return false
			}
			if !reflect.DeepEqual(got, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func tooWide(p Packet) bool {
	for _, ch := range p.PerChannel {
		if len(ch) > math.MaxUint16 {
			return true
		}
	}
	return false
}
