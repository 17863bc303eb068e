package codec

import (
	"bytes"
	"io"
	"sync"
	"testing"
)

type ping struct{ Seq int }
type pong struct{ Seq int }

func init() {
	Register(ping{})
	Register(pong{})
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewBufferedStream(&buf, 0)
	in := &Frame{
		ID:         7,
		Kind:       FrameRequest,
		TargetKind: "Cow",
		TargetKey:  "42",
		Method:     "GetLocation",
		Sender:     "silo-1",
		Payload:    ping{Seq: 3},
	}
	if err := s.Write(in); err != nil {
		t.Fatal(err)
	}
	out, err := s.Read()
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != 7 || out.Kind != FrameRequest || out.TargetKind != "Cow" ||
		out.TargetKey != "42" || out.Method != "GetLocation" || out.Sender != "silo-1" {
		t.Fatalf("frame = %+v", out)
	}
	if p, ok := out.Payload.(ping); !ok || p.Seq != 3 {
		t.Fatalf("payload = %#v", out.Payload)
	}
}

// TestTraceFieldsRoundTrip: the trace context piggybacked on request
// frames survives encode/decode, and frames without one stay zeroed.
func TestTraceFieldsRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewBufferedStream(&buf, 0)
	frames := []*Frame{
		{ID: 1, Kind: FrameRequest, Payload: ping{Seq: 1},
			TraceID: 0xdeadbeef, ParentSpan: 77, TraceSampled: true},
		{ID: 2, Kind: FrameRequest, Payload: ping{Seq: 2}},
	}
	for _, f := range frames {
		if err := s.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	traced, err := s.Read()
	if err != nil {
		t.Fatal(err)
	}
	if traced.TraceID != 0xdeadbeef || traced.ParentSpan != 77 || !traced.TraceSampled {
		t.Fatalf("traced frame = %+v", traced)
	}
	plain, err := s.Read()
	if err != nil {
		t.Fatal(err)
	}
	if plain.TraceID != 0 || plain.ParentSpan != 0 || plain.TraceSampled {
		t.Fatalf("untraced frame carries trace fields: %+v", plain)
	}
}

func TestErrorFrame(t *testing.T) {
	var buf bytes.Buffer
	s := NewBufferedStream(&buf, 0)
	if err := s.Write(&Frame{ID: 1, Kind: FrameError, Err: "kaput"}); err != nil {
		t.Fatal(err)
	}
	out, err := s.Read()
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != FrameError || out.Err != "kaput" {
		t.Fatalf("frame = %+v", out)
	}
}

func TestMultipleFramesInOrder(t *testing.T) {
	var buf bytes.Buffer
	s := NewBufferedStream(&buf, 0)
	for i := 0; i < 10; i++ {
		if err := s.Write(&Frame{ID: uint64(i), Kind: FrameRequest, Payload: ping{Seq: i}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		f, err := s.Read()
		if err != nil {
			t.Fatal(err)
		}
		if f.ID != uint64(i) || f.Payload.(ping).Seq != i {
			t.Fatalf("frame %d = %+v", i, f)
		}
	}
	if _, err := s.Read(); err != io.EOF {
		t.Fatalf("read past end = %v, want EOF", err)
	}
}

func TestConcurrentWritersDoNotInterleave(t *testing.T) {
	r, w := io.Pipe()
	writer := NewBufferedStream(struct {
		io.Reader
		io.Writer
	}{nil, w}, 0)
	reader := NewBufferedStream(struct {
		io.Reader
		io.Writer
	}{r, nil}, 0)

	const writers, frames = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < frames; j++ {
				if err := writer.Write(&Frame{ID: uint64(i*1000 + j), Kind: FrameRequest, Payload: ping{Seq: j}}); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}(i)
	}
	go func() {
		wg.Wait()
		w.Close()
	}()
	seen := 0
	for {
		f, err := reader.Read()
		if err != nil {
			break
		}
		if _, ok := f.Payload.(ping); !ok {
			t.Fatalf("corrupt payload %#v: frames interleaved", f.Payload)
		}
		seen++
	}
	if seen != writers*frames {
		t.Fatalf("read %d frames, want %d", seen, writers*frames)
	}
}

// TestBufferedStreamWriteNoFlush: frames encoded with WriteNoFlush stay
// in the buffer until Flush, then decode in order on the far side.
func TestBufferedStreamWriteNoFlush(t *testing.T) {
	var buf bytes.Buffer
	s := NewBufferedStream(&buf, 0)
	for i := 0; i < 5; i++ {
		if err := s.WriteNoFlush(&Frame{ID: uint64(i), Kind: FrameRequest, Payload: ping{Seq: i}}); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("bytes reached the writer before Flush: %d", buf.Len())
	}
	if s.Buffered() == 0 {
		t.Fatal("Buffered() = 0 with five encoded frames pending")
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if s.Buffered() != 0 {
		t.Fatalf("Buffered() = %d after Flush", s.Buffered())
	}
	for i := 0; i < 5; i++ {
		f, err := s.Read()
		if err != nil {
			t.Fatal(err)
		}
		if f.ID != uint64(i) || f.Payload.(ping).Seq != i {
			t.Fatalf("frame %d = %+v", i, f)
		}
	}
}

// TestBufferedStreamWriteFlushes: plain Write flushes — the frame is on
// the wire when Write returns.
func TestBufferedStreamWriteFlushes(t *testing.T) {
	var buf bytes.Buffer
	s := NewBufferedStream(&buf, 0)
	if err := s.Write(&Frame{ID: 9, Kind: FrameRequest, Payload: ping{Seq: 9}}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("Write on buffered stream did not flush")
	}
	f, err := s.Read()
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 9 {
		t.Fatalf("frame = %+v", f)
	}
}

// TestFramePoolReset: a pooled frame comes back zeroed, so stale header
// fields or payloads can never leak into the next message.
func TestFramePoolReset(t *testing.T) {
	f := GetFrame()
	f.ID = 123
	f.Kind = FrameError
	f.TargetKey = "stale"
	f.Chain = []string{"a", "b"}
	f.Payload = ping{Seq: 1}
	f.Err = "stale"
	PutFrame(f)
	PutFrame(nil) // must not panic
	for i := 0; i < 16; i++ {
		g := GetFrame()
		if g.ID != 0 || g.Kind != 0 || g.TargetKey != "" || g.Chain != nil || g.Payload != nil || g.Err != "" {
			t.Fatalf("pooled frame not reset: %+v", g)
		}
		PutFrame(g)
	}
}
