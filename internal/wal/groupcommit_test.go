package wal

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"testing"
	"time"

	"aodb/internal/metrics"
)

// TestGroupCommitOneFlushPerBatch stages a pile of records before anyone
// waits, so they all land in one batch and the leader's flush covers the
// lot with a single fsync.
func TestGroupCommitOneFlushPerBatch(t *testing.T) {
	reg := metrics.NewRegistry()
	l, _ := openTemp(t, Options{SyncEveryAppend: true, Metrics: reg})
	const n = 10
	acks := make([]Ack, n)
	for i := range acks {
		a, err := l.Stage([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		acks[i] = a
	}
	for i, a := range acks {
		if err := a.Wait(); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
		if got, want := a.Seq(), uint64(i+1); got != want {
			t.Fatalf("ack %d seq = %d, want %d", i, got, want)
		}
	}
	if got := reg.Counter("wal.appends").Value(); got != n {
		t.Fatalf("wal.appends = %d, want %d", got, n)
	}
	if got := reg.Counter("wal.flushes").Value(); got != 1 {
		t.Fatalf("wal.flushes = %d, want 1 (one group commit for %d staged records)", got, n)
	}
	var count int
	if err := l.Replay(func(uint64, []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("replayed %d, want %d", count, n)
	}
}

// TestGroupCommitMaxBatchRecords fills batches past the bound and checks
// the overflow detaches into a second batch (two flushes, not one).
func TestGroupCommitMaxBatchRecords(t *testing.T) {
	reg := metrics.NewRegistry()
	l, _ := openTemp(t, Options{SyncEveryAppend: true, Metrics: reg})
	acks := make([]Ack, maxBatchRecords+4)
	for i := range acks {
		a, err := l.Stage([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		acks[i] = a
	}
	for i, a := range acks {
		if err := a.Wait(); err != nil {
			t.Fatalf("ack %d: %v", i, err)
		}
	}
	if got := reg.Counter("wal.flushes").Value(); got != 2 {
		t.Fatalf("wal.flushes = %d, want 2 (%d records, batch bound %d)", got, len(acks), maxBatchRecords)
	}
}

// TestSyncFlushesStagedBatch: Sync is a durability barrier — it must
// flush a staged-but-unflushed batch and release its waiters. The test
// stages a record without waiting on it, so the batch's leader has not
// started its flush when Sync runs.
func TestSyncFlushesStagedBatch(t *testing.T) {
	l, _ := openTemp(t, Options{SyncEveryAppend: true})
	a, err := l.Stage([]byte("staged"))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- a.Wait() }()
	select {
	case err := <-done:
		// The leader must observe the barrier's flush.
		if err != nil {
			t.Fatalf("Wait after Sync barrier: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Wait did not observe the Sync barrier's flush")
	}
}

// TestGroupCommitConcurrentDurableAppends hammers the durable path from 8
// goroutines and verifies every acknowledged record replays, in monotone
// sequence order, from a second log opened on the same directory without
// closing the first — i.e. straight from what fsync put on disk.
func TestGroupCommitConcurrentDurableAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const workers, each = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.Append([]byte{byte(w), byte(i)}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	// Reopen the directory cold, as crash recovery would.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	seen, prev := 0, uint64(0)
	if err := l2.Replay(func(seq uint64, _ []byte) error {
		if seq <= prev {
			t.Fatalf("non-monotone seq %d after %d", seq, prev)
		}
		prev = seq
		seen++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if seen != workers*each {
		t.Fatalf("recovered %d of %d acked durable appends", seen, workers*each)
	}
}

// TestStagedUnackedRecordNotVisibleAfterCrash: a record staged but never
// flushed lives only in memory, so a crash (reopen without Close) must
// not surface it.
func TestStagedUnackedRecordNotVisibleAfterCrash(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("acked")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Stage([]byte("never-waited")); err != nil {
		t.Fatal(err)
	}
	// Crash: reopen the directory without closing (Close would flush).
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	var got [][]byte
	if err := l2.Replay(func(_ uint64, p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !bytes.Equal(got[0], []byte("acked")) {
		t.Fatalf("recovered %q, want only the acked record", got)
	}
	l.Close()
}

// TestShortWriteRepairedLogStaysUsable injects a partial write, checks
// the failed append reports an error, and — the satellite bugfix — that
// the torn bytes are truncated away so later appends do not sit behind a
// corrupt record and vanish at recovery.
func TestShortWriteRepairedLogStaysUsable(t *testing.T) {
	for _, mode := range []struct {
		name string
		opts Options
	}{
		{"buffered", Options{}},
		{"durable-group-commit", Options{SyncEveryAppend: true}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := Open(dir, mode.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if _, err := l.Append([]byte("before")); err != nil {
				t.Fatal(err)
			}
			// One failing write that leaves half the record behind.
			l.writeFile = func(f *os.File, p []byte) (int, error) {
				l.writeFile = nil
				n, _ := f.Write(p[:len(p)/2])
				return n, io.ErrShortWrite
			}
			if _, err := l.Append([]byte("torn-record-payload")); err == nil {
				t.Fatal("append with injected short write succeeded")
			}
			// The log must still accept appends, and recovery must see the
			// surviving records contiguously — no silent drop behind a torn one.
			if _, err := l.Append([]byte("after")); err != nil {
				t.Fatalf("append after repaired short write: %v", err)
			}
			l.Close()
			l2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer l2.Close()
			var got []string
			if err := l2.Replay(func(_ uint64, p []byte) error {
				got = append(got, string(p))
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if len(got) != 2 || got[0] != "before" || got[1] != "after" {
				t.Fatalf("recovered %q, want [before after]", got)
			}
		})
	}
}

// TestFsyncFailureIsSticky: once an fsync fails the record's durability
// is unknown, so the log must refuse everything after it rather than
// acknowledge records stacked behind a maybe-lost one.
func TestFsyncFailureIsSticky(t *testing.T) {
	l, _ := openTemp(t, Options{SyncEveryAppend: true})
	l.syncFile = func(*os.File) error { return fmt.Errorf("device gone") }
	if _, err := l.Append([]byte("doomed")); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	l.syncFile = nil // the device coming back does not un-fail the log
	if _, err := l.Append([]byte("later")); !errors.Is(err, ErrFailed) {
		t.Fatalf("append on failed log = %v, want ErrFailed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrFailed) {
		t.Fatalf("Sync on failed log = %v, want ErrFailed", err)
	}
}

// TestUnrepairableTornWriteFailsLog: when the post-failure truncate also
// fails, the log must go sticky-failed instead of leaving a torn record
// in front of future appends.
func TestUnrepairableTornWriteFailsLog(t *testing.T) {
	l, _ := openTemp(t, Options{})
	l.writeFile = func(f *os.File, p []byte) (int, error) {
		l.writeFile = nil
		f.Write(p[:len(p)/2])
		f.Close() // makes the repair truncate fail too
		return len(p) / 2, io.ErrShortWrite
	}
	if _, err := l.Append([]byte("torn")); err == nil {
		t.Fatal("append with injected failure succeeded")
	}
	if _, err := l.Append([]byte("next")); !errors.Is(err, ErrFailed) {
		t.Fatalf("append after unrepaired torn write = %v, want ErrFailed", err)
	}
}

// TestGroupCommitBatchFailureReleasesAllWaiters: when the batch's write
// fails, every staged caller gets the error (nobody hangs, nobody gets a
// false ack).
func TestGroupCommitBatchFailureReleasesAllWaiters(t *testing.T) {
	l, _ := openTemp(t, Options{SyncEveryAppend: true})
	l.writeFile = func(f *os.File, p []byte) (int, error) {
		return 0, fmt.Errorf("disk full")
	}
	const n = 5
	acks := make([]Ack, n)
	for i := range acks {
		a, err := l.Stage([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		acks[i] = a
	}
	for i, a := range acks {
		done := make(chan error, 1)
		go func() { done <- a.Wait() }()
		select {
		case err := <-done:
			if err == nil {
				t.Fatalf("ack %d got nil error from failed batch", i)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("ack %d hung on failed batch", i)
		}
	}
	l.writeFile = nil
	// Nothing hit the disk, so the log is intact and usable.
	if _, err := l.Append([]byte("recovered")); err != nil {
		t.Fatalf("append after failed batch: %v", err)
	}
}

// TestGroupCommitFlushesInSeqOrder: a full batch detaches from staging
// before its leader reaches the flush mutex, so a newer batch's leader
// can get there first — and must drain the older batch ahead of its own.
// Replay derives sequence numbers from disk positions, so out-of-order
// flushes would silently re-number records on recovery.
func TestGroupCommitFlushesInSeqOrder(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	a1 := fillBatch(t, l, []byte("first")) // batch 1; its leader is not waiting yet
	a2, err := l.Stage([]byte("second"))   // batch 2 forms behind it
	if err != nil {
		t.Fatal(err)
	}
	// Batch 2's leader flushes first; batch 1 must reach disk with it.
	if err := a2.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := a1.Wait(); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := map[uint64]string{}
	if err := l2.Replay(func(seq uint64, p []byte) error {
		got[seq] = string(p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != maxBatchRecords+1 || got[a1.Seq()] != "first" || got[a2.Seq()] != "second" {
		t.Fatalf("replayed %v, want seq %d=first, %d=second (batches flushed out of order?)",
			got, a1.Seq(), a2.Seq())
	}
}

// fillBatch stages first and then enough filler records to fill its
// group-commit batch, without waiting on any: the batch detaches from
// staging, so the next Stage starts a newer one. It returns first's ack,
// the batch leader's.
func fillBatch(t *testing.T, l *Log, first []byte) Ack {
	t.Helper()
	a, err := l.Stage(first)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < maxBatchRecords; i++ {
		if _, err := l.Stage([]byte("filler")); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// TestFailedBatchWriteReturnsSequences: a batch whose write fails and is
// truncate-repaired must give its already-assigned sequence numbers back
// and fail every newer staged batch — otherwise later records sit at
// disk positions below their assigned sequences and a snapshot cutoff in
// assigned-sequence space silently drops them at recovery.
func TestFailedBatchWriteReturnsSequences(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SyncEveryAppend: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("durable")); err != nil { // seq 1
		t.Fatal(err)
	}
	a1 := fillBatch(t, l, []byte("doomed")) // seq 2 leads a full batch
	a2, err := l.Stage([]byte("stranded"))  // newer batch
	if err != nil {
		t.Fatal(err)
	}
	l.writeFile = func(f *os.File, p []byte) (int, error) {
		l.writeFile = nil
		return 0, fmt.Errorf("disk full")
	}
	if err := a1.Wait(); err == nil {
		t.Fatal("failed batch write acked")
	}
	if err := a2.Wait(); err == nil {
		t.Fatal("batch staged behind a failed one acked without being written")
	}
	seq, err := l.Append([]byte("recovered"))
	if err != nil {
		t.Fatalf("append after repaired batch failure: %v", err)
	}
	if seq != 2 {
		t.Fatalf("post-failure append got seq %d, want the rolled-back 2", seq)
	}
	l.Close()
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	got := map[uint64]string{}
	if err := l2.Replay(func(seq uint64, p []byte) error {
		got[seq] = string(p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[1] != "durable" || got[2] != "recovered" {
		t.Fatalf("replayed %v, want 1=durable, 2=recovered", got)
	}
}

// TestRecoveredSegmentRepairLeavesNoHole: the active segment reopened by
// recovery must append at the record boundary after a torn-write repair.
// A non-O_APPEND fd keeps its offset past the truncated EOF, so the next
// write would leave a zero-filled hole — and an all-zero header parses
// as a valid empty record, silently mis-sequencing everything after it.
func TestRecoveredSegmentRepairLeavesNoHole(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("before")); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2, err := Open(dir, Options{}) // recovery reopens the active segment
	if err != nil {
		t.Fatal(err)
	}
	l2.writeFile = func(f *os.File, p []byte) (int, error) {
		l2.writeFile = nil
		n, _ := f.Write(p[:len(p)/2])
		return n, io.ErrShortWrite
	}
	if _, err := l2.Append([]byte("torn")); err == nil {
		t.Fatal("append with injected short write succeeded")
	}
	if _, err := l2.Append([]byte("after")); err != nil {
		t.Fatalf("append after repaired short write: %v", err)
	}
	l2.Close()
	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	var got []string
	if err := l3.Replay(func(_ uint64, p []byte) error {
		got = append(got, string(p))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "before" || got[1] != "after" {
		t.Fatalf("recovered %q, want [before after] (zero-filled hole in repaired segment?)", got)
	}
}

// benchAppendParallel measures durable appends from `workers` goroutines
// splitting b.N appends between them.
func benchAppendParallel(b *testing.B, opts Options, workers int) {
	dir := b.TempDir()
	l, err := Open(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := bytes.Repeat([]byte("p"), 128)
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := b.N / workers
		if w < b.N%workers {
			n++
		}
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := l.Append(payload); err != nil {
					b.Error(err)
					return
				}
			}
		}(n)
	}
	wg.Wait()
}

// BenchmarkGroupCommitDurableAppends8 is the headline durable-write
// number: 8 concurrent writers, fsync on every ack, group-committed.
func BenchmarkGroupCommitDurableAppends8(b *testing.B) {
	benchAppendParallel(b, Options{SyncEveryAppend: true}, 8)
}
