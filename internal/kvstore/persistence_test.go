package kvstore

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCloseDrainsBackgroundSnapshot is the regression for the untracked
// snapshot goroutine: with a tiny snapshot cadence, Close must wait for
// (not race) an in-flight background compaction. Run with -race.
func TestCloseDrainsBackgroundSnapshot(t *testing.T) {
	for i := 0; i < 5; i++ {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir, snapshotEvery: 2})
		if err != nil {
			t.Fatal(err)
		}
		tb, err := s.EnsureTable("t", Throughput{})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for j := 0; j < 8; j++ {
			if _, err := tb.Put(ctx, fmt.Sprintf("k%d", j), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		// Close immediately, while a background snapshot is likely mid-dump.
		if err := s.Close(); err != nil {
			t.Fatalf("Close with in-flight snapshot: %v", err)
		}
		// The store must be intact on reopen.
		s2, err := Open(Options{Dir: dir})
		if err != nil {
			t.Fatalf("reopen after drained close: %v", err)
		}
		tb2, err := s2.Table("t")
		if err != nil {
			t.Fatal(err)
		}
		if got := tb2.Len(); got != 8 {
			t.Fatalf("items after reopen = %d, want 8", got)
		}
		s2.Close()
	}
}

// TestSnapshotSingleFlight: concurrent snapshot triggers collapse into
// one compaction at a time (kickSnapshot is single-flight).
func TestSnapshotSingleFlight(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, snapshotEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, err := s.EnsureTable("t", Throughput{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := tb.Put(ctx, fmt.Sprintf("w%d-k%d", w, i), []byte("v")); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// No assertion beyond surviving -race and Close draining cleanly: every
	// one of the 100 writes requested a snapshot, and the single-flight
	// guard kept the overlapping compactions from corrupting each other.
}

// putAll is a little helper for the recovery matrix below.
func putAll(t *testing.T, tb *Table, kv map[string]string) {
	t.Helper()
	for k, v := range kv {
		if _, err := tb.Put(context.Background(), k, []byte(v)); err != nil {
			t.Fatalf("put %s: %v", k, err)
		}
	}
}

// TestRecoverySnapshotWithoutTruncation models a crash between
// Snapshot's dump and the WAL truncation: both the snapshot and the full
// WAL (including records the snapshot already covers) exist on disk.
// Recovery must not double-apply the covered prefix. With the default
// segment size the WAL keeps a single segment that TruncateBefore never
// removes, so a plain Snapshot leaves exactly this state behind.
func TestRecoverySnapshotWithoutTruncation(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.EnsureTable("t", Throughput{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	putAll(t, tb, map[string]string{"a": "1", "b": "1"})
	if _, err := tb.Put(ctx, "a", []byte("2")); err != nil { // a at v2
		t.Fatal(err)
	}
	if err := s.Snapshot(); err != nil {
		t.Fatal(err)
	}
	putAll(t, tb, map[string]string{"c": "1"}) // after the snapshot
	// Crash: no Close. Durable mode means every acked write is on disk.
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	tb2, err := s2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]struct {
		val string
		ver int64
	}{
		"a": {"2", 2},
		"b": {"1", 1},
		"c": {"1", 1},
	} {
		it, err := tb2.Get(ctx, key)
		if err != nil {
			t.Fatalf("recovered get %s: %v", key, err)
		}
		if string(it.Value) != want.val || it.Version != want.ver {
			t.Fatalf("recovered %s = %q v%d, want %q v%d (double-applied WAL prefix?)",
				key, it.Value, it.Version, want.val, want.ver)
		}
	}
}

// TestRecoveryConcurrentDurableWriters: 8 writers in durable mode, then
// an ungraceful reopen. Every acknowledged put must be visible at exactly
// the version it was acknowledged with.
func TestRecoveryConcurrentDurableWriters(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.EnsureTable("t", Throughput{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const workers, each = 8, 25
	type ackRec struct {
		key string
		ver int64
		val []byte
	}
	ackCh := make(chan ackRec, workers*each)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				key := fmt.Sprintf("w%d-k%d", w, i%5) // 5 keys per worker → contended versions
				val := []byte(fmt.Sprintf("%d-%d", w, i))
				ver, err := tb.Put(ctx, key, val)
				if err != nil {
					t.Errorf("durable put: %v", err)
					return
				}
				ackCh <- ackRec{key: key, ver: ver, val: val}
			}
		}(w)
	}
	wg.Wait()
	close(ackCh)
	// Keep only the latest acked version per key.
	latest := make(map[string]ackRec)
	for a := range ackCh {
		if a.ver > latest[a.key].ver {
			latest[a.key] = a
		}
	}
	// Crash: reopen without Close. (The first store's file handles stay
	// open, but recovery reads the same inodes.)
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	tb2, err := s2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range latest {
		it, err := tb2.Get(ctx, key)
		if err != nil {
			t.Fatalf("acked key %s lost: %v", key, err)
		}
		if it.Version != want.ver || !bytes.Equal(it.Value, want.val) {
			t.Fatalf("recovered %s = %q v%d, want acked %q v%d",
				key, it.Value, it.Version, want.val, want.ver)
		}
	}
}

// TestPutFailsCleanlyAfterLogTeardown: when staging fails (here: the WAL
// is closed out from under the store), the put reports the error and the
// in-memory state is untouched — no unacked value becomes readable.
func TestPutFailsCleanlyAfterLogTeardown(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, err := s.EnsureTable("t", Throughput{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := tb.Put(ctx, "k", []byte("stable")); err != nil {
		t.Fatal(err)
	}
	s.log.Close() // simulate the log dying under the store
	if _, err := tb.Put(ctx, "k", []byte("doomed")); err == nil {
		t.Fatal("put with dead WAL succeeded")
	}
	tb.mu.RLock()
	it := tb.items["k"]
	tb.mu.RUnlock()
	if !bytes.Equal(it.Value, []byte("stable")) || it.Version != 1 {
		t.Fatalf("failed put leaked into memory: %q v%d", it.Value, it.Version)
	}
}

// waitForValue polls until key's in-memory value is want, so tests can
// sequence writers that are parked in flush waits.
func waitForValue(t *testing.T, tb *Table, key string, want []byte) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		tb.mu.RLock()
		it, ok := tb.items[key]
		tb.mu.RUnlock()
		if ok && bytes.Equal(it.Value, want) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("key %q never reached state %q", key, want)
}

// holdBatch stages a record of the test's own and never waits on it: the
// test leads the WAL's pending group-commit batch, so mutations staged
// next join it as followers and stay unflushed until a Sync barrier
// flushes the batch.
func holdBatch(t *testing.T, s *Store) {
	t.Helper()
	if _, err := s.log.Stage(encodeRecord(opPut, "t", "held", nil, 1)); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotAbortsWhenFlushFails: Snapshot's dump can capture a write
// whose group-commit flush is still in flight. If that flush fails, the
// write is rolled back and its caller gets an error — so the snapshot
// must abort rather than commit a dump that would make the
// unacknowledged write visible after recovery.
func TestSnapshotAbortsWhenFlushFails(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s, err := Open(Options{Dir: dir, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.EnsureTable("t", Throughput{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Put(ctx, "k", []byte("good")); err != nil {
		t.Fatal(err)
	}
	s.log.InjectWriteFault(func(f *os.File, p []byte) (int, error) {
		return 0, errors.New("disk full")
	})
	holdBatch(t, s)
	putErr := make(chan error, 1)
	go func() {
		_, err := tb.Put(ctx, "k", []byte("bad"))
		putErr <- err
	}()
	// The write is applied in memory while its flush (held by the test's
	// leader record) has not happened yet — exactly what a background
	// compaction could catch mid-flight.
	waitForValue(t, tb, "k", []byte("bad"))
	if err := s.Snapshot(); err == nil {
		t.Fatal("snapshot committed a dump containing a write whose flush failed")
	}
	if err := <-putErr; err == nil {
		t.Fatal("put acked without durability")
	}
	s.log.InjectWriteFault(nil)
	waitForValue(t, tb, "k", []byte("good")) // rolled back
	// Crash-reopen: only the acked write may be visible.
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	tb2, err := s2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	it, err := tb2.Get(ctx, "k")
	if err != nil {
		t.Fatalf("acked write lost: %v", err)
	}
	if !bytes.Equal(it.Value, []byte("good")) || it.Version != 1 {
		t.Fatalf("recovered %q v%d, want acked %q v1", it.Value, it.Version, "good")
	}
	s.Close()
}

// TestSnapshotAbortsWhenLeaderFailsFlush: the flush that fails can be run
// by the batch's own leader after Snapshot's dump, just before its Sync
// barrier. The failure gives the batch's sequences back and leaves Sync
// an empty queue, so the barrier alone would pass and the snapshot would
// commit the unacknowledged write under a cutoff that covers it. The
// test orders the race: an earlier batch holds the flush turn in a
// blocked fsync while the doomed batch's leader and then Snapshot's
// barrier queue up behind it.
func TestSnapshotAbortsWhenLeaderFailsFlush(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s, err := Open(Options{Dir: dir, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	tb, err := s.EnsureTable("t", Throughput{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Put(ctx, "k", []byte("good")); err != nil {
		t.Fatal(err)
	}
	syncing, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	s.log.InjectSyncFault(func(f *os.File) error {
		once.Do(func() {
			close(syncing)
			<-release
		})
		return f.Sync()
	})
	otherErr := make(chan error, 1)
	go func() {
		_, err := tb.Put(ctx, "other", []byte("v"))
		otherErr <- err
	}()
	<-syncing // the earlier batch holds the flush turn
	putErr := make(chan error, 1)
	go func() {
		_, err := tb.Put(ctx, "k", []byte("bad"))
		putErr <- err
	}()
	waitForValue(t, tb, "k", []byte("bad"))
	waitParked(t, "wal.(*Ack).Wait") // the doomed batch's leader queues first
	s.log.InjectWriteFault(func(f *os.File, p []byte) (int, error) {
		return 0, errors.New("disk full")
	})
	snapErr := make(chan error, 1)
	go func() { snapErr <- s.Snapshot() }()
	waitParked(t, "kvstore.(*Store).Snapshot") // dump taken, barrier queued
	close(release)
	if err := <-otherErr; err != nil {
		t.Fatalf("earlier batch: %v", err)
	}
	if err := <-putErr; err == nil {
		t.Fatal("put acked without durability")
	}
	if err := <-snapErr; err == nil {
		t.Fatal("snapshot committed a dump containing a write whose flush its leader failed")
	}
	s.log.InjectWriteFault(nil)
	// Crash-reopen: only the acked write may be visible.
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	tb2, err := s2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	it, err := tb2.Get(ctx, "k")
	if err != nil {
		t.Fatalf("acked write lost: %v", err)
	}
	if !bytes.Equal(it.Value, []byte("good")) || it.Version != 1 {
		t.Fatalf("recovered %q v%d, want acked %q v1", it.Value, it.Version, "good")
	}
	s.Close()
}

// waitParked waits until a goroutine whose stack passes through fn is
// parked on a sync.Mutex.
func waitParked(t *testing.T, fn string) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[sync.Mutex.Lock") && strings.Contains(g, fn) {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("no goroutine in %s parked on a mutex", fn)
}

// TestFailedDurableRollbackConverges holds the rollback fence: a put, a
// Merge and another put of one key all fail in one group commit.
// Whatever order their rollbacks run in, memory must converge to the
// last durable state; a rollback that restored whatever it captured
// would leave one of the failed intermediates readable.
func TestFailedDurableRollbackConverges(t *testing.T) {
	ctx := context.Background()
	for i := 0; i < 20; i++ {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir, Durable: true})
		if err != nil {
			t.Fatal(err)
		}
		tb, err := s.EnsureTable("t", Throughput{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.Put(ctx, "k", []byte("durable")); err != nil {
			t.Fatal(err)
		}
		s.log.InjectWriteFault(func(f *os.File, p []byte) (int, error) {
			return 0, errors.New("disk full")
		})
		// All three failing mutations join one batch held open by the
		// test's leader record.
		holdBatch(t, s)
		errs := make(chan error, 3)
		put := func(v string) {
			_, err := tb.Put(ctx, "k", []byte(v))
			errs <- err
		}
		go put("first")
		waitForValue(t, tb, "k", []byte("first"))
		go func() {
			_, err := tb.Merge(ctx, "k", []byte("merged"), func(Item, bool) bool { return true })
			errs <- err
		}()
		waitForValue(t, tb, "k", []byte("merged"))
		go put("last")
		waitForValue(t, tb, "k", []byte("last"))
		if err := s.Sync(); err == nil { // flushes the shared batch; all three fail
			t.Fatal("Sync with failing WAL write succeeded")
		}
		for j := 0; j < 3; j++ {
			if err := <-errs; err == nil {
				t.Fatal("mutation acked without durability")
			}
		}
		s.log.InjectWriteFault(nil)
		tb.mu.RLock()
		it, ok := tb.items["k"]
		tb.mu.RUnlock()
		if !ok || !bytes.Equal(it.Value, []byte("durable")) || it.Version != 1 {
			t.Fatalf("iter %d: after rollbacks k = %q v%d (present=%v), want durable %q v1",
				i, it.Value, it.Version, ok, "durable")
		}
		s.Close()
	}
}

// BenchmarkGroupCommitDurablePuts8 measures the kvstore durable write
// path end to end: 8 concurrent writers, every put acknowledged only
// after its WAL record is fsynced (group-committed).
func BenchmarkGroupCommitDurablePuts8(b *testing.B) {
	benchDurablePuts(b, Options{Durable: true})
}

func benchDurablePuts(b *testing.B, opts Options) {
	opts.Dir = b.TempDir()
	s, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	tb, err := s.EnsureTable("bench", Throughput{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	val := bytes.Repeat([]byte("v"), 128)
	const workers = 8
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		n := b.N / workers
		if w < b.N%workers {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			key := fmt.Sprintf("w%d", w)
			for i := 0; i < n; i++ {
				if _, err := tb.Put(ctx, key, val); err != nil {
					b.Error(err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
}

// TestOpensStoreWrittenBeforeTTLRemoval opens testdata/store-v1, a store
// directory written by the code that still had TTLs: a snapshot whose
// items carry the ExpiresAt field, then a WAL tail with a put, a merge
// and a second table. Every item comes back at its version, and the
// grain table keeps its provisioned throughput.
func TestOpensStoreWrittenBeforeTTLRemoval(t *testing.T) {
	dir := t.TempDir()
	err := filepath.WalkDir("testdata/store-v1", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		to := filepath.Join(dir, strings.TrimPrefix(p, "testdata/store-v1"))
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()
	want := map[string]map[string]Item{
		"grains": {
			"k0": {Value: []byte("v0b"), Version: 2},
			"k1": {Value: []byte("v1b"), Version: 2},
			"k2": {Value: []byte("v2"), Version: 1},
			"k3": {Value: []byte("v3"), Version: 1},
			"k4": {Value: []byte("v4"), Version: 1},
		},
		"replicas": {"a": {Value: []byte("x"), Version: 1}},
	}
	for name, items := range want {
		tb, err := s.Table(name)
		if err != nil {
			t.Fatal(err)
		}
		if tb.Len() != len(items) {
			t.Fatalf("%s holds %d items, want %d", name, tb.Len(), len(items))
		}
		for k, w := range items {
			it, err := tb.Get(ctx, k)
			if err != nil || !bytes.Equal(it.Value, w.Value) || it.Version != w.Version {
				t.Fatalf("%s/%s = %q v%d (%v), want %q v%d", name, k, it.Value, it.Version, err, w.Value, w.Version)
			}
		}
	}
	g, _ := s.Table("grains")
	if p := g.Provisioned(); p != (Throughput{ReadUnits: 200, WriteUnits: 200}) {
		t.Fatalf("grains throughput = %+v", p)
	}
}
