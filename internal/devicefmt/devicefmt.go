// Package devicefmt normalizes heterogeneous device payloads into the
// platform's ingestion format — non-functional requirement 3 ("the IoT
// data platform must be modular in its support for data ingested from IoT
// devices and allow for communication employing different data formats"),
// and a first step on the paper's stated future work of "data integration
// issues in IoT data platforms".
//
// Three wire formats are supported, covering the usual device spectrum:
//
//   - JSON: self-describing, from gateway-class devices;
//   - CSV: line-oriented, from data loggers (the paper's SHM loggers
//     convert analog signals to digital streams);
//   - Packed binary: length-prefixed little-endian, from constrained
//     devices where every byte counts.
//
// Decode sniffs the format, so one ingestion endpoint accepts all three.
package devicefmt

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Packet is the normalized device message: one sensor's readings for all
// its channels at a timestamp, ready for shm.Platform.Ingest.
type Packet struct {
	Sensor     string
	At         time.Time
	PerChannel [][]float64
}

// Errors.
var (
	ErrUnknownFormat = errors.New("devicefmt: unrecognized payload format")
	ErrMalformed     = errors.New("devicefmt: malformed payload")
)

// Validate checks structural sanity.
func (p Packet) Validate() error {
	if p.Sensor == "" {
		return fmt.Errorf("%w: empty sensor", ErrMalformed)
	}
	if p.At.IsZero() {
		return fmt.Errorf("%w: zero timestamp", ErrMalformed)
	}
	if len(p.PerChannel) == 0 {
		return fmt.Errorf("%w: no channels", ErrMalformed)
	}
	for i, ch := range p.PerChannel {
		if len(ch) == 0 {
			return fmt.Errorf("%w: channel %d empty", ErrMalformed, i)
		}
		for _, v := range ch {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: channel %d has non-finite reading", ErrMalformed, i)
			}
		}
	}
	return nil
}

// jsonPacket is the JSON wire shape.
type jsonPacket struct {
	Sensor   string      `json:"sensor"`
	UnixMs   int64       `json:"unix_ms"`
	Channels [][]float64 `json:"channels"`
}

// EncodeJSON renders a packet in the JSON wire format.
func EncodeJSON(p Packet) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return json.Marshal(jsonPacket{
		Sensor:   p.Sensor,
		UnixMs:   p.At.UnixMilli(),
		Channels: p.PerChannel,
	})
}

func decodeJSON(data []byte) (Packet, error) {
	var jp jsonPacket
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&jp); err != nil {
		return Packet{}, fmt.Errorf("%w: json: %v", ErrMalformed, err)
	}
	p := Packet{Sensor: jp.Sensor, At: time.UnixMilli(jp.UnixMs).UTC(), PerChannel: jp.Channels}
	return p, p.Validate()
}

// EncodeCSV renders a packet in the logger CSV format:
//
//	sensor,unix_ms
//	v,v,v,...   (one line per channel)
//
// The sensor field is written and read verbatim, white space included, so
// a name with a comma or a line break cannot be carried, nor one Decode
// would take for another format (a leading '{' or the binary magic);
// EncodeCSV refuses those.
func EncodeCSV(p Packet) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if !csvCarries(p.Sensor) {
		return nil, fmt.Errorf("%w: sensor %q cannot be a csv field", ErrMalformed, p.Sensor)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s,%d\n", p.Sensor, p.At.UnixMilli())
	for _, ch := range p.PerChannel {
		for i, v := range ch {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.FormatFloat(v, 'g', -1, 64))
		}
		b.WriteByte('\n')
	}
	return []byte(b.String()), nil
}

func decodeCSV(data []byte) (Packet, error) {
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 2 {
		return Packet{}, fmt.Errorf("%w: csv needs a header and channels", ErrMalformed)
	}
	sensor, msStr, ok := strings.Cut(lines[0], ",")
	if !ok {
		return Packet{}, fmt.Errorf("%w: csv header", ErrMalformed)
	}
	ms, err := strconv.ParseInt(strings.TrimSpace(msStr), 10, 64)
	if err != nil {
		return Packet{}, fmt.Errorf("%w: csv timestamp: %v", ErrMalformed, err)
	}
	p := Packet{Sensor: sensor, At: time.UnixMilli(ms).UTC()}
	for _, line := range lines[1:] {
		var ch []float64
		for _, f := range strings.Split(line, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return Packet{}, fmt.Errorf("%w: csv value %q", ErrMalformed, f)
			}
			ch = append(ch, v)
		}
		p.PerChannel = append(p.PerChannel, ch)
	}
	return p, p.Validate()
}

// csvCarries reports whether a sensor name survives the CSV header:
// no comma or line break in it, and Decode still sniffs CSV.
func csvCarries(sensor string) bool {
	return !strings.ContainsAny(sensor, ",\n") && sniff([]byte(sensor+",")) == formatCSV
}

// Binary format:
//
//	magic  [2]byte  = 0xA0 0xDB
//	sensor uvarint-len + bytes
//	unixMs int64 LE
//	nchan  uint16 LE
//	per channel: npts uint16 LE, npts × float64 LE
var binMagic = [2]byte{0xA0, 0xDB}

// EncodeBinary renders a packet in the packed binary format.
func EncodeBinary(p Packet) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.Write(binMagic[:])
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], uint64(len(p.Sensor)))
	b.Write(tmp[:n])
	b.WriteString(p.Sensor)
	var i64 [8]byte
	binary.LittleEndian.PutUint64(i64[:], uint64(p.At.UnixMilli()))
	b.Write(i64[:])
	var u16 [2]byte
	binary.LittleEndian.PutUint16(u16[:], uint16(len(p.PerChannel)))
	b.Write(u16[:])
	for _, ch := range p.PerChannel {
		binary.LittleEndian.PutUint16(u16[:], uint16(len(ch)))
		b.Write(u16[:])
		for _, v := range ch {
			binary.LittleEndian.PutUint64(i64[:], math.Float64bits(v))
			b.Write(i64[:])
		}
	}
	return b.Bytes(), nil
}

func decodeBinary(data []byte) (Packet, error) {
	r := bytes.NewReader(data)
	var magic [2]byte
	if _, err := r.Read(magic[:]); err != nil || magic != binMagic {
		return Packet{}, fmt.Errorf("%w: binary magic", ErrMalformed)
	}
	slen, err := binary.ReadUvarint(r)
	if err != nil || slen > uint64(r.Len()) {
		return Packet{}, fmt.Errorf("%w: binary sensor length", ErrMalformed)
	}
	sensor := make([]byte, slen)
	if _, err := r.Read(sensor); err != nil {
		return Packet{}, fmt.Errorf("%w: binary sensor", ErrMalformed)
	}
	var i64 [8]byte
	if _, err := r.Read(i64[:]); err != nil {
		return Packet{}, fmt.Errorf("%w: binary timestamp", ErrMalformed)
	}
	ms := int64(binary.LittleEndian.Uint64(i64[:]))
	var u16 [2]byte
	if _, err := r.Read(u16[:]); err != nil {
		return Packet{}, fmt.Errorf("%w: binary channel count", ErrMalformed)
	}
	nchan := int(binary.LittleEndian.Uint16(u16[:]))
	p := Packet{Sensor: string(sensor), At: time.UnixMilli(ms).UTC()}
	for c := 0; c < nchan; c++ {
		if _, err := r.Read(u16[:]); err != nil {
			return Packet{}, fmt.Errorf("%w: binary point count", ErrMalformed)
		}
		npts := int(binary.LittleEndian.Uint16(u16[:]))
		if npts*8 > r.Len() {
			return Packet{}, fmt.Errorf("%w: binary truncated channel", ErrMalformed)
		}
		ch := make([]float64, npts)
		for i := range ch {
			if _, err := r.Read(i64[:]); err != nil {
				return Packet{}, fmt.Errorf("%w: binary reading", ErrMalformed)
			}
			ch[i] = math.Float64frombits(binary.LittleEndian.Uint64(i64[:]))
		}
		p.PerChannel = append(p.PerChannel, ch)
	}
	if r.Len() != 0 {
		return Packet{}, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, r.Len())
	}
	return p, p.Validate()
}

type format int

const (
	formatUnknown format = iota
	formatBinary
	formatJSON
	formatCSV
)

// sniff tells the formats apart by their first bytes: the binary magic,
// '{' after leading white space, anything else not blank.
func sniff(data []byte) format {
	trimmed := bytes.TrimLeft(data, " \t\r\n")
	switch {
	case len(data) >= 2 && data[0] == binMagic[0] && data[1] == binMagic[1]:
		return formatBinary
	case len(trimmed) > 0 && trimmed[0] == '{':
		return formatJSON
	case len(trimmed) > 0:
		return formatCSV
	default:
		return formatUnknown
	}
}

// Decode sniffs the payload format and normalizes it.
func Decode(data []byte) (Packet, error) {
	switch sniff(data) {
	case formatBinary:
		return decodeBinary(data)
	case formatJSON:
		return decodeJSON(bytes.TrimLeft(data, " \t\r\n"))
	case formatCSV:
		return decodeCSV(data)
	default:
		return Packet{}, ErrUnknownFormat
	}
}
