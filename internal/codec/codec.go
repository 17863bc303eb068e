// Package codec handles wire encoding for cross-silo messages.
//
// Messages are Go values encoded with encoding/gob. Gob needs concrete
// types registered before they travel inside interface fields, so every
// message type an application sends between actors registers itself here
// (typically from an init function in the package that declares it).
// The Stream type pairs a gob encoder/decoder over one connection and
// serializes concurrent writers.
//
// Streams come in two write flavors. An unbuffered stream (NewStream)
// pushes every frame to the connection inside Write — one-plus syscalls
// per frame, the transport's measured baseline. A buffered stream
// (NewBufferedStream) parks encoded frames in a bufio.Writer until
// Flush, which is what the transport's write-coalescing ("smart
// batching") path uses to share one syscall across many frames.
package codec

import (
	"bufio"
	"encoding/gob"
	"io"
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
	Err     string // set when Kind == FrameError
	// Redirect carries a wrong-silo redirect across the wire: the target
	// silo the caller should re-route to. Typed errors do not survive gob
	// (errors collapse to Err strings), so the redirect travels as its
	// own field and is rebuilt as a transport.RedirectError client-side.
	Redirect string
	// Transient carries the serving silo's retry classification of Err
	// across the wire, for the same reason.
	Transient bool
}

// Stream frames gob values over an io.ReadWriter. Writes are serialized;
// reads must be performed by a single goroutine.
type Stream struct {
	wmu sync.Mutex
	bw  *bufio.Writer // nil for unbuffered streams
	enc *gob.Encoder
	dec *gob.Decoder
}

// NewStream wraps rw in an unbuffered frame stream: every Write lands on
// rw before it returns.
func NewStream(rw io.ReadWriter) *Stream {
	return &Stream{enc: gob.NewEncoder(rw), dec: gob.NewDecoder(rw)}
}

// NewBufferedStream wraps rw in a stream whose writes accumulate in a
// size-byte buffer until Flush (or Write, which flushes for callers that
// want unbuffered semantics on a buffered stream). size <= 0 picks a
// 64 KiB default. The read side is unchanged: gob decoders buffer on
// their own.
func NewBufferedStream(rw io.ReadWriter, size int) *Stream {
	if size <= 0 {
		size = 64 << 10
	}
	bw := bufio.NewWriterSize(rw, size)
	return &Stream{bw: bw, enc: gob.NewEncoder(bw), dec: gob.NewDecoder(rw)}
}

// Write encodes one frame and ensures it reaches the underlying writer
// before returning (flushing the buffer on buffered streams).
func (s *Stream) Write(f *Frame) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if err := s.enc.Encode(f); err != nil {
		return err
	}
	if s.bw != nil {
		return s.bw.Flush()
	}
	return nil
}

// WriteNoFlush encodes one frame into the stream's buffer without
// flushing it. On unbuffered streams it is identical to Write. Callers
// batching frames follow a run of WriteNoFlush with one Flush.
func (s *Stream) WriteNoFlush(f *Frame) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return s.enc.Encode(f)
}

// Flush pushes buffered frames to the underlying writer.
func (s *Stream) Flush() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.bw == nil {
		return nil
	}
	return s.bw.Flush()
}

// Buffered reports how many encoded bytes sit unflushed in the buffer.
func (s *Stream) Buffered() int {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.bw == nil {
		return 0
	}
	return s.bw.Buffered()
}

// Read decodes the next frame into a pooled Frame. The caller owns the
// result and should PutFrame it when the header is no longer needed
// (values reached through Payload/Chain survive the frame's return to
// the pool). Decoding into a pooled frame is sound because pooled frames
// are zeroed: gob omits zero-valued fields on the wire and leaves the
// corresponding target fields untouched, so a dirty target would leak
// the previous message's fields into this one.
func (s *Stream) Read() (*Frame, error) {
	f := GetFrame()
	if err := s.dec.Decode(f); err != nil {
		PutFrame(f)
		return nil, err
	}
	return f, nil
}

// framePool recycles Frame headers on the transport's encode path, where
// a frame lives only from construction to gob-encode. Decoded frames are
// not pooled: their Payload escapes to application code.
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
