// Package codec handles wire encoding for cross-silo messages.
//
// A frame on the wire is a 4-byte big-endian length followed by that many
// bytes: a hand-written header and a tagged payload.
//
//	kind      byte
//	flags     byte     bit 0 TraceSampled, bit 1 Transient
//	ID, TraceID, ParentSpan, HLC            uvarint each
//	TargetKind, TargetKey, Method, Sender   uvarint length + bytes each
//	Chain     uvarint count, then that many strings
//	Err, Redirect                           strings
//	Payload   tag byte + the tagged form
//
// The payload's tag names one of three kinds of form. The codec's own:
// nil, int64, int, float64, bool, string, []string, []byte. A registered
// binary form: a package that puts a type on a hot path gives it an
// encoder and a decoder with RegisterWire. And the fallback for every
// other type: a length-prefixed blob from a gob encoder that lives as long
// as the stream, which is why application message types still register
// themselves with Register (typically from an init function in the package
// that declares them).
//
// A run is n values of one type with a form, the codec's own or a
// registered one, written untagged behind one element tag and the count
// (Enc.Run); it decodes into one []T (Dec.Run), not n boxes. A registered
// type may have a second form that is tried first (RegisterWireAlt). The
// one in use is core's multi-actor reply: tag 0x41 carries its slots one
// by one, and tag 0x42 carries a reply whose slots all succeeded with
// values of one type as a run.
//
// Three invariants hold the format together. A frame is encoded and
// appended to the stream's buffer under one hold of the write mutex: gob
// sends a type's descriptor the first time it meets the type, so blobs
// must reach the peer's decoder in the order they were encoded, and more
// than one goroutine writes a stream. Any encode error must end the
// connection: a fallback encode that failed has already recorded its types
// as sent. And Read, which one goroutine calls, trusts nothing it is sent:
// the declared length is checked against MaxFrameBytes before anything is
// allocated, every element count against the bytes left in the frame
// (Dec.Len), errors stick to the decoder, and every string and slice
// handed out is a copy, because the read buffer is reused.
//
// A stream keeps encoded frames in its buffer until Flush (WriteNoFlush),
// which is what the transport's write-coalescing ("smart batching") path
// uses to share one syscall across many frames; Write flushes at once.
package codec

import (
	"bufio"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
	"slices"
	"sync"
)

// Register makes a concrete message type transmissible inside interface
// fields. It is safe to call from init functions. Registering the same
// type twice is harmless; registering two distinct types under one name
// panics, surfacing the conflict at startup rather than mid-call.
func Register(v any) {
	gob.Register(v)
}

// FrameKind distinguishes the message classes on a connection.
type FrameKind byte

// Frame kinds.
const (
	FrameRequest FrameKind = iota + 1
	FrameResponse
	FrameError
)

// Frame is the unit of exchange on a transport connection.
type Frame struct {
	ID         uint64 // correlation id; responses echo the request's
	Kind       FrameKind
	TargetKind string
	TargetKey  string
	Method     string
	Sender     string
	Chain      []string // synchronous call chain, for cycle detection
	// Trace context riding the frame: the sender's trace and span ids
	// plus the sampling bit. Plain fields (not a struct from the
	// telemetry package) keep the wire codec dependency-free.
	TraceID      uint64
	ParentSpan   uint64
	TraceSampled bool
	// HLC is the sender's hybrid-logical-clock stamp (zero when the
	// sender records no flight journal). A flat uint64 for the same
	// dependency-free reason as the trace fields; receivers merge it into
	// their own clock so cross-silo events get a causal order.
	HLC     uint64
	Payload any
	// Err is an error reply's message (Kind == FrameError). An error
	// crosses the wire as message, redirect target and retry class, not as
	// a Go value.
	Err string
	// Redirect is the silo a wrong-silo answer tells the caller to
	// re-route to; the client side rebuilds a transport.RedirectError
	// from it.
	Redirect string
	// Transient is the serving silo's retry classification of Err.
	Transient bool
}

// MaxFrameBytes bounds the length a frame may declare. A reader checks
// it before allocating anything; a writer refuses to send more.
const MaxFrameBytes = 64 << 20

// maxKeptBuffer is the largest scratch buffer a stream keeps between
// frames. One that a large frame grew past it is dropped, so a stream's
// resting size is set by its usual traffic, not by its largest frame.
const maxKeptBuffer = 1 << 20

// readChunk is how much of a frame's declared length Read allocates ahead
// of the bytes arriving.
const readChunk = 64 << 10

const (
	flagTraceSampled = 1 << iota
	flagTransient
)

// Stream exchanges frames over an io.ReadWriter. Writes are serialized;
// reads must be performed by a single goroutine.
type Stream struct {
	wmu   sync.Mutex
	w     io.Writer
	limit int // flush once this many bytes are buffered
	enc   Enc // enc.buf is the write buffer: whole frames not yet on w

	r    *bufio.Reader
	rlen [4]byte
	rbuf []byte // the frame being decoded; reused
	dec  Dec
}

// NewBufferedStream wraps rw in a frame stream whose WriteNoFlush writes
// accumulate until Flush or Write, or until size bytes are waiting.
// size <= 0 picks a 64 KiB default.
func NewBufferedStream(rw io.ReadWriter, size int) *Stream {
	if size <= 0 {
		size = 64 << 10
	}
	// 4 KiB takes several small frames off the connection in one read; a
	// frame larger than that is read straight into the frame buffer.
	return &Stream{w: rw, limit: size, r: bufio.NewReaderSize(rw, 4096)}
}

// Write encodes one frame and flushes the buffer, so the frame reaches
// the underlying writer before Write returns.
func (s *Stream) Write(f *Frame) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.append(f); err != nil {
		return err
	}
	return s.flush()
}

// WriteNoFlush encodes one frame into the stream's buffer without
// flushing it, unless the buffer has reached the stream's size. Callers
// batching frames follow a run of WriteNoFlush with one Flush.
func (s *Stream) WriteNoFlush(f *Frame) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.append(f); err != nil {
		return err
	}
	if len(s.enc.buf) >= s.limit {
		return s.flush()
	}
	return nil
}

// Flush pushes buffered frames to the underlying writer.
func (s *Stream) Flush() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.flush()
}

// Buffered reports how many encoded bytes sit unflushed in the buffer.
func (s *Stream) Buffered() int {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return len(s.enc.buf)
}

// append encodes f behind its length at the end of the write buffer, or
// leaves the buffer as it was. The caller holds wmu, and keeps holding it
// until the frame is in the buffer: see the package comment.
func (s *Stream) append(f *Frame) error {
	e := &s.enc
	start := len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0)
	var flags byte
	if f.TraceSampled {
		flags |= flagTraceSampled
	}
	if f.Transient {
		flags |= flagTransient
	}
	e.Byte(byte(f.Kind))
	e.Byte(flags)
	e.Uvarint(f.ID)
	e.Uvarint(f.TraceID)
	e.Uvarint(f.ParentSpan)
	e.Uvarint(f.HLC)
	e.String(f.TargetKind)
	e.String(f.TargetKey)
	e.String(f.Method)
	e.String(f.Sender)
	e.Strings(f.Chain)
	e.String(f.Err)
	e.String(f.Redirect)
	e.Any(f.Payload)
	n := len(e.buf) - start - 4
	err := e.err
	if err == nil && n > MaxFrameBytes {
		err = fmt.Errorf("codec: frame of %d bytes exceeds the %d-byte limit", n, MaxFrameBytes)
	}
	if err != nil {
		e.buf, e.err = e.buf[:start], nil
		return err
	}
	binary.BigEndian.PutUint32(e.buf[start:], uint32(n))
	return nil
}

func (s *Stream) flush() error {
	e := &s.enc
	if len(e.buf) == 0 {
		return nil
	}
	_, err := s.w.Write(e.buf)
	if cap(e.buf) > maxKeptBuffer {
		e.buf = nil
	} else {
		e.buf = e.buf[:0]
	}
	return err
}

// Read decodes the next frame into a pooled Frame. The caller owns the
// result and should PutFrame it when the header is no longer needed
// (values reached through Payload/Chain survive the frame's return to
// the pool). Every field of the frame is assigned, whatever the pool
// handed out. At the end of the input Read returns io.EOF if it falls
// between two frames and io.ErrUnexpectedEOF if it falls inside one; any
// error leaves the stream unusable.
func (s *Stream) Read() (*Frame, error) {
	if _, err := io.ReadFull(s.r, s.rlen[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(s.rlen[:]))
	if n > MaxFrameBytes {
		return nil, fmt.Errorf("codec: frame declares %d bytes, over the %d-byte limit", n, MaxFrameBytes)
	}
	// Allocate no further ahead of the bytes received than one chunk:
	// the declared length is the peer's word, the bytes are a fact.
	buf := s.rbuf[:0]
	for len(buf) < n {
		m := n - len(buf)
		if cap(buf) < n {
			m = min(m, readChunk)
		}
		buf = slices.Grow(buf, m)[:len(buf)+m]
		if _, err := io.ReadFull(s.r, buf[len(buf)-m:]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	if cap(buf) <= maxKeptBuffer {
		s.rbuf = buf
	} else {
		s.rbuf = nil
	}

	d := &s.dec
	d.buf, d.off, d.err = buf, 0, nil
	d.run, d.runLo, d.runHi = "", 0, 0
	f := GetFrame()
	f.Kind = FrameKind(d.Byte())
	flags := d.Byte()
	f.TraceSampled = flags&flagTraceSampled != 0
	f.Transient = flags&flagTransient != 0
	f.ID = d.Uvarint()
	f.TraceID = d.Uvarint()
	f.ParentSpan = d.Uvarint()
	f.HLC = d.Uvarint()
	f.TargetKind = d.Interned()
	f.TargetKey = d.String()
	f.Method = d.Interned()
	f.Sender = d.Interned()
	f.Chain = d.Strings()
	f.Err = d.String()
	f.Redirect = d.Interned()
	f.Payload = d.Any()
	if d.err == nil && d.off != len(buf) {
		d.err = errTrailing
	}
	d.buf = nil // rbuf alone decides whether the buffer is kept
	if d.err != nil {
		PutFrame(f)
		return nil, d.err
	}
	return f, nil
}

// framePool recycles Frame headers: on the encode path a frame lives only
// from construction to its encoding, on the decode path until the
// transport has copied the header out. Payloads are never recycled: they
// escape to application code.
var framePool = sync.Pool{New: func() any { return new(Frame) }}

// GetFrame returns a zeroed frame from the pool.
func GetFrame() *Frame {
	return framePool.Get().(*Frame)
}

// PutFrame resets f and returns it to the pool. Callers must not touch f
// afterwards. The Chain slice is dropped rather than reused: it aliases
// caller-owned memory.
func PutFrame(f *Frame) {
	if f == nil {
		return
	}
	*f = Frame{}
	framePool.Put(f)
}
