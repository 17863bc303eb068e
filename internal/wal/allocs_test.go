package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"aodb/internal/codec/codectest"
)

// frame is the record format written out by hand: length, CRC, payload.
func frame(payload []byte) []byte {
	var hdr [headerSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	return append(hdr[:], payload...)
}

// TestStageAppendFramesInPlace: records framed in the batch buffer, in
// both modes, are on disk byte for byte as the format writes them, and a
// record over the size bound leaves the batch it was framed into intact.
func TestStageAppendFramesInPlace(t *testing.T) {
	for _, durable := range []bool{false, true} {
		l, dir := openTemp(t, Options{SyncEveryAppend: durable})
		payloads := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte{0xa5}, 3000)}
		var want []byte
		for i, p := range payloads {
			a, err := l.StageAppend(func(buf []byte) []byte { return append(buf, p...) })
			if err != nil {
				t.Fatal(err)
			}
			if i == 1 {
				_, err := l.StageAppend(func(buf []byte) []byte { return append(buf, make([]byte, maxRecordBytes+1)...) })
				if err == nil {
					t.Fatal("oversize record accepted")
				}
			}
			if err := a.Wait(); err != nil {
				t.Fatal(err)
			}
			want = append(want, frame(p)...)
		}
		got, err := os.ReadFile(filepath.Join(dir, segName(1)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("durable=%v: segment holds %d bytes unlike the hand-framed %d", durable, len(got), len(want))
		}
	}
}

// TestDurableStageAllocs: one durable Stage and its Wait, one writer,
// fsync included, allocate the batch and its two channels and nothing
// per record: the handle is a value, the record is framed in the batch
// buffer, and the buffer is the one the last flush gave back. Skipped
// under -race; the bound is the measured count + 10 %.
func TestDurableStageAllocs(t *testing.T) {
	codectest.SkipUnderRace(t)
	l, _ := openTemp(t, Options{SyncEveryAppend: true})
	payload := make([]byte, 1900)
	got := testing.AllocsPerRun(200, func() {
		a, err := l.Stage(payload)
		if err != nil {
			t.Fatal(err)
		}
		if err := a.Wait(); err != nil {
			t.Fatal(err)
		}
	})
	if got > 3.3 {
		t.Errorf("durable Stage + Wait: %.1f allocations, want at most 3.3", got)
	} else {
		t.Logf("durable Stage + Wait: %.0f allocations", got)
	}
}
