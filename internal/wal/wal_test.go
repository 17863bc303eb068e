package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func openTemp(t *testing.T, opts Options) (*Log, string) {
	t.Helper()
	dir := t.TempDir()
	l, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { l.Close() })
	return l, dir
}

func TestAppendAssignsSequentialSeqs(t *testing.T) {
	l, _ := openTemp(t, Options{})
	for want := uint64(1); want <= 5; want++ {
		seq, err := l.Append([]byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if seq != want {
			t.Fatalf("seq = %d, want %d", seq, want)
		}
	}
	if l.NextSeq() != 6 {
		t.Fatalf("NextSeq = %d, want 6", l.NextSeq())
	}
}

func TestReplayReturnsAllRecords(t *testing.T) {
	l, _ := openTemp(t, Options{})
	var want [][]byte
	for i := 0; i < 100; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, p)
		if _, err := l.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	var seqs []uint64
	err := l.Replay(func(seq uint64, payload []byte) error {
		got = append(got, append([]byte(nil), payload...))
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d = %q, want %q", i, got[i], want[i])
		}
		if seqs[i] != uint64(i+1) {
			t.Fatalf("seq %d = %d, want %d", i, seqs[i], i+1)
		}
	}
}

func TestReopenContinuesSequence(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seq, err := l2.Append([]byte("after"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 11 {
		t.Fatalf("seq after reopen = %d, want 11", seq)
	}
}

func TestSegmentRotation(t *testing.T) {
	l, _ := openTemp(t, Options{segmentBytes: 64})
	for i := 0; i < 20; i++ {
		if _, err := l.Append(bytes.Repeat([]byte("a"), 32)); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(l.Segments()); n < 3 {
		t.Fatalf("segments = %d, want >= 3 after rotation", n)
	}
	var count int
	if err := l.Replay(func(uint64, []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 20 {
		t.Fatalf("replayed %d, want 20 across segments", count)
	}
}

func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte("intact")); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Simulate a crash mid-write: append garbage half-record to the segment.
	path := filepath.Join(dir, segName(1))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x20, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open with torn tail: %v", err)
	}
	defer l2.Close()
	var count int
	if err := l2.Replay(func(uint64, []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("replayed %d, want 5 (torn tail dropped)", count)
	}
	seq, err := l2.Append([]byte("new"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("next seq = %d, want 6", seq)
	}
}

func TestCorruptMiddleDetectedOnReplay(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{segmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append(bytes.Repeat([]byte("b"), 24)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	// Flip a byte in the middle of the FIRST (sealed) segment.
	path := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerSize+3] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(dir, Options{segmentBytes: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	err = l2.Replay(func(uint64, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Replay over corrupt sealed segment = %v, want ErrCorrupt", err)
	}
}

func TestTruncateBeforeRemovesSealedSegments(t *testing.T) {
	l, dir := openTemp(t, Options{segmentBytes: 64})
	for i := 0; i < 30; i++ {
		if _, err := l.Append(bytes.Repeat([]byte("c"), 32)); err != nil {
			t.Fatal(err)
		}
	}
	segs := l.Segments()
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	cut := segs[len(segs)-1] // everything before the active segment
	if err := l.TruncateBefore(cut); err != nil {
		t.Fatal(err)
	}
	remaining := l.Segments()
	if len(remaining) != 1 || remaining[0] != cut {
		t.Fatalf("segments after truncate = %v, want [%d]", remaining, cut)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("files on disk = %d, want 1", len(entries))
	}
	// Replay still works from the remaining segment.
	var first uint64
	err := l.Replay(func(seq uint64, _ []byte) error {
		if first == 0 {
			first = seq
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if first != cut {
		t.Fatalf("first replayed seq = %d, want %d", first, cut)
	}
}

func TestTruncateBeforeKeepsActiveSegment(t *testing.T) {
	l, _ := openTemp(t, Options{})
	if _, err := l.Append([]byte("only")); err != nil {
		t.Fatal(err)
	}
	if err := l.TruncateBefore(100); err != nil {
		t.Fatal(err)
	}
	if len(l.Segments()) != 1 {
		t.Fatal("active segment must survive TruncateBefore")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if _, err := l.Append([]byte("x")); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

func TestEmptyPayloadRoundTrips(t *testing.T) {
	l, _ := openTemp(t, Options{})
	if _, err := l.Append(nil); err != nil {
		t.Fatal(err)
	}
	var got int
	if err := l.Replay(func(_ uint64, p []byte) error {
		if len(p) != 0 {
			t.Fatalf("payload = %v, want empty", p)
		}
		got++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("replayed %d, want 1", got)
	}
}

func TestSyncAndOversizeRecord(t *testing.T) {
	l, _ := openTemp(t, Options{})
	if _, err := l.Append(make([]byte, maxRecordBytes+1)); err == nil {
		t.Fatal("oversize record accepted")
	}
	if _, err := l.Append([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestSyncEveryAppendOption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var n int
	if err := l.Replay(func(uint64, []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("replayed %d", n)
	}
}

func TestOpsAfterClose(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Close()
	if err := l.Sync(); err == nil {
		t.Fatal("Sync after close succeeded")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestConcurrentAppendsAllReplay(t *testing.T) {
	l, _ := openTemp(t, Options{segmentBytes: 4096})
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func(w int) {
			for i := 0; i < 100; i++ {
				if _, err := l.Append([]byte{byte(w), byte(i)}); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	seen := 0
	prev := uint64(0)
	if err := l.Replay(func(seq uint64, _ []byte) error {
		if seq <= prev {
			t.Fatalf("non-monotone seq %d after %d", seq, prev)
		}
		prev = seq
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 800 {
		t.Fatalf("replayed %d of 800 concurrent appends", seen)
	}
}

func TestRoundTripProperty(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{segmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var written [][]byte
	f := func(payload []byte) bool {
		if _, err := l.Append(payload); err != nil {
			return false
		}
		written = append(written, append([]byte(nil), payload...))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	var i int
	err = l.Replay(func(_ uint64, p []byte) error {
		if i >= len(written) || !bytes.Equal(p, written[i]) {
			return fmt.Errorf("mismatch at %d", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(written) {
		t.Fatalf("replayed %d, want %d", i, len(written))
	}
}
