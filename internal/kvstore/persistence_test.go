package kvstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCloseDrainsBackgroundSnapshot is the regression for the untracked
// compaction goroutine: with a tiny compaction cadence, Close must wait
// for (not race) an in-flight background compaction. Run with -race.
func TestCloseDrainsBackgroundSnapshot(t *testing.T) {
	for i := 0; i < 5; i++ {
		dir := t.TempDir()
		s, err := Open(Options{Dir: dir, compactEvery: 2})
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
		// Close immediately, while a background compaction is likely mid-copy.
		if err := s.Close(); err != nil {
			t.Fatalf("Close with in-flight compaction: %v", err)
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

// TestSnapshotSingleFlight: concurrent compaction triggers collapse into
// one compaction at a time (kickCompaction is single-flight), and the
// records they re-log between durable writers' records recover to the
// acked versions.
func TestSnapshotSingleFlight(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Durable: true, compactEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
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
				if _, err := tb.Put(ctx, fmt.Sprintf("w%d-k%d", w, i%5), []byte{byte(i)}); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Every one of the 100 writes requested a compaction; Close drains
	// the one in flight.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	want := make(map[string]Item)
	for w := 0; w < 4; w++ {
		for k := 0; k < 5; k++ {
			want[fmt.Sprintf("w%d-k%d", w, k)] = Item{Value: []byte{byte(20 + k)}, Version: 5}
		}
	}
	checkItems(t, s2, "t", want)
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

// TestRecoverySnapshotWithoutTruncation models a crash between a
// compaction's re-log and the WAL truncation: the full WAL and the
// compaction's copies of the live items both exist on disk. Recovery
// must come out at the acked versions, not double-apply the prefix. With
// the default segment size the WAL keeps a single segment that
// TruncateBefore never removes, so a plain compaction leaves exactly this
// state behind.
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
	if err := s.compact(); err != nil {
		t.Fatal(err)
	}
	putAll(t, tb, map[string]string{"c": "1"}) // after the compaction
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
	if _, err := s.stageRecord(opPut, "t", "held", nil, 1); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionAbortsWhenFlushFails: a compaction can copy a write
// whose group-commit flush is still in flight. If that flush fails, the
// write is rolled back and its caller gets an error — so the compaction
// must abort rather than truncate behind a copy that would make the
// unacknowledged write visible after recovery.
func TestCompactionAbortsWhenFlushFails(t *testing.T) {
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
	if err := s.compact(); err == nil {
		t.Fatal("compaction committed a copy of a write whose flush failed")
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

// TestCompactionAbortsWhenLeaderFailsFlush: the flush that fails can be
// run by the batch's own leader after the compaction's copy, just before
// its Sync barrier. The failure gives the batch's sequences back and
// leaves Sync an empty queue, so the barrier alone would pass and the
// compaction would truncate behind the unacknowledged write. The test
// orders the race: an earlier batch holds the flush turn in a blocked
// fsync while the doomed batch's leader and then the compaction's
// barrier queue up behind it.
func TestCompactionAbortsWhenLeaderFailsFlush(t *testing.T) {
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
	waitParked(t, "wal.Ack.Wait") // the doomed batch's leader queues first
	s.log.InjectWriteFault(func(f *os.File, p []byte) (int, error) {
		return 0, errors.New("disk full")
	})
	compactErr := make(chan error, 1)
	go func() { compactErr <- s.compact() }()
	waitParked(t, "kvstore.(*Store).compact") // copy staged, barrier queued
	close(release)
	if err := <-otherErr; err != nil {
		t.Fatalf("earlier batch: %v", err)
	}
	if err := <-putErr; err == nil {
		t.Fatal("put acked without durability")
	}
	if err := <-compactErr; err == nil {
		t.Fatal("compaction committed a copy of a write whose flush its leader failed")
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
	if p := g.prov; p != (Throughput{ReadUnits: 200, WriteUnits: 200}) {
		t.Fatalf("grains throughput = %+v", p)
	}
}

// segments lists the WAL's segment files in dir.
func segments(t *testing.T, dir string) []string {
	t.Helper()
	segs, err := filepathGlob(filepath.Join(dir, "wal"), ".wal")
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// fillSegments puts n 1 MiB values round-robin over keys big-0..big-3,
// rolling the WAL past its 16 MiB segments, and returns what each key
// holds last.
func fillSegments(t *testing.T, tb *Table, n int) map[string]Item {
	t.Helper()
	last := make(map[string]Item)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("big-%d", i%4)
		val := bytes.Repeat([]byte{byte(i)}, 1<<20)
		ver, err := tb.Put(context.Background(), key, val)
		if err != nil {
			t.Fatal(err)
		}
		last[key] = Item{Value: val, Version: ver}
	}
	return last
}

// checkItems fails unless table name holds exactly want, at want's
// versions.
func checkItems(t *testing.T, s *Store, name string, want map[string]Item) {
	t.Helper()
	tb, err := s.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Len() != len(want) {
		t.Fatalf("%s holds %d items, want %d", name, tb.Len(), len(want))
	}
	for k, w := range want {
		it, err := tb.Get(context.Background(), k)
		if err != nil || !bytes.Equal(it.Value, w.Value) || it.Version != w.Version {
			t.Fatalf("%s/%s = %.8q… v%d (%v), want %.8q… v%d", name, k, it.Value, it.Version, err, w.Value, w.Version)
		}
	}
}

// TestCompactionRemovesSealedSegments: a compaction over sealed segments
// removes them, and the reopened store rebuilds both tables from the
// records it re-logged — the kept segment's older puts replay before
// their table's create — with every item at its version and the
// provisioned throughput intact.
func TestCompactionRemovesSealedSegments(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("grains", Throughput{ReadUnits: 7, WriteUnits: 9}); err != nil {
		t.Fatal(err)
	}
	grains, _ := s.Table("grains")
	small := map[string]Item{}
	for i, k := range []string{"a", "b", "a", "c", "a"} {
		v := []byte(fmt.Sprintf("%s%d", k, i))
		ver, err := grains.Put(ctx, k, v)
		if err != nil {
			t.Fatal(err)
		}
		small[k] = Item{Value: v, Version: ver}
	}
	big, err := s.EnsureTable("big", Throughput{})
	if err != nil {
		t.Fatal(err)
	}
	bigItems := fillSegments(t, big, 40)
	before := segments(t, dir)
	if len(before) < 3 {
		t.Fatalf("40 MiB of puts left %d segments, want at least 3", len(before))
	}
	if err := s.compact(); err != nil {
		t.Fatal(err)
	}
	after := segments(t, dir)
	if len(after) != 1 || after[0] != before[len(before)-1] {
		t.Fatalf("segments after compaction = %v, want only the active %s", after, before[len(before)-1])
	}
	ver, err := grains.Put(ctx, "post", []byte("p"))
	if err != nil {
		t.Fatal(err)
	}
	small["post"] = Item{Value: []byte("p"), Version: ver}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkItems(t, s2, "grains", small)
	checkItems(t, s2, "big", bigItems)
	g, _ := s2.Table("grains")
	b, _ := s2.Table("big")
	if g.prov != (Throughput{ReadUnits: 7, WriteUnits: 9}) || b.prov != (Throughput{}) {
		t.Fatalf("throughput after reopen: grains %+v, big %+v", g.prov, b.prov)
	}
}

// TestCompactionWriteFaultRemovesNoSegment: a WAL write that fails under
// the compaction's records fails the compaction before it truncates. No
// segment goes, and a crash-reopen holds every acked write and not the
// one the failed flush rolled back.
func TestCompactionWriteFaultRemovesNoSegment(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	s, err := Open(Options{Dir: dir, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	big, err := s.EnsureTable("big", Throughput{})
	if err != nil {
		t.Fatal(err)
	}
	bigItems := fillSegments(t, big, 20)
	tb, err := s.EnsureTable("t", Throughput{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.Put(ctx, "k", []byte("good")); err != nil {
		t.Fatal(err)
	}
	before := segments(t, dir)
	if len(before) < 2 {
		t.Fatalf("20 MiB of puts left %d segments, want a sealed one", len(before))
	}
	s.log.InjectWriteFault(func(f *os.File, p []byte) (int, error) {
		return 0, errors.New("disk full")
	})
	// The doomed put and the compaction's records share the batch the
	// test's own record holds open.
	holdBatch(t, s)
	putErr := make(chan error, 1)
	go func() {
		_, err := tb.Put(ctx, "k", []byte("bad"))
		putErr <- err
	}()
	waitForValue(t, tb, "k", []byte("bad"))
	if err := s.compact(); err == nil {
		t.Fatal("compaction succeeded while its records failed to write")
	}
	if err := <-putErr; err == nil {
		t.Fatal("put acked without durability")
	}
	s.log.InjectWriteFault(nil)
	if after := segments(t, dir); !slices.Equal(after, before) {
		t.Fatalf("segments after failed compaction = %v, want %v", after, before)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s2.Close()
	checkItems(t, s2, "big", bigItems)
	checkItems(t, s2, "t", map[string]Item{"k": {Value: []byte("good"), Version: 1}})
}

// copyFixture copies files of testdata/fixture into a fresh directory.
func copyFixture(t *testing.T, fixture string, files ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join("testdata", fixture, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, f)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestOpensStoreWithSnapshotOnlyPrefix opens testdata/store-snap-prefix,
// a store directory written by the code that still wrote gob snapshots:
// a snapshot at sequence 12 and a WAL that starts at 13, so the records
// before it are in the snapshot alone. Every item comes back at its
// version with its table's throughput. A compaction re-logs them and
// removes the snapshot, and the store reopens the same from its WAL.
func TestOpensStoreWithSnapshotOnlyPrefix(t *testing.T) {
	dir := copyFixture(t, "store-snap-prefix", "00000000000000000012.snap", "wal/00000000000000000013.wal")
	item := func(v string, ver int64) Item { return Item{Value: []byte(v), Version: ver} }
	want := map[string]map[string]Item{
		"grains": {
			"k0": item("v0b", 2), "k1": item("v1b", 2), "k2": item("v2b", 2),
			"k3": item("v3", 1), "k4": item("v4", 1), "k5": item("v5", 1),
		},
		"replicas": {"a": item("x", 1), "pad": item("p", 2)},
		"late":     {"z": item("zz", 1)},
	}
	prov := map[string]Throughput{"grains": {ReadUnits: 200, WriteUnits: 200}, "replicas": {}, "late": {WriteUnits: 5}}
	check := func(s *Store) {
		t.Helper()
		for name, items := range want {
			checkItems(t, s, name, items)
			if tb, _ := s.Table(name); tb.prov != prov[name] {
				t.Fatalf("%s throughput = %+v, want %+v", name, tb.prov, prov[name])
			}
		}
	}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	check(s)
	if err := s.compact(); err != nil {
		t.Fatal(err)
	}
	if snaps, _ := filepathGlob(dir, ".snap"); len(snaps) != 0 {
		t.Fatalf("compaction left %v", snaps)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2)
}

// TestCompactionKeepsSnapshotOverDeletes opens testdata/store-deletes,
// written by the code that could still delete: one WAL segment holding a
// put, a delete of that key (opcode 2, which replay now rejects) and a
// later write, and a snapshot at sequence 5 that covers the delete. The
// segment is the active one, so a compaction cannot truncate it; the
// snapshot must stay, or the next Open would replay what it covers.
func TestCompactionKeepsSnapshotOverDeletes(t *testing.T) {
	dir := copyFixture(t, "store-deletes", "00000000000000000005.snap", "wal/00000000000000000001.wal")
	want := map[string]Item{"k0": {Value: []byte("v0"), Version: 1}, "k1": {Value: []byte("v1b"), Version: 2}}
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	checkItems(t, s, "grains", want)
	if err := s.compact(); err != nil {
		t.Fatal(err)
	}
	if snaps, _ := filepathGlob(dir, ".snap"); len(snaps) != 1 {
		t.Fatalf("snapshots after compaction = %v, want the one covering the delete", snaps)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	checkItems(t, s2, "grains", want)
}

// TestRecordsFramedInPlace: what a durable store's writes leave in its
// WAL is, byte for byte, each record's payload from appendRecord behind
// its length and Castagnoli CRC, whether it was framed by one writer or
// joined a batch with others.
func TestRecordsFramedInPlace(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, Durable: true})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	prov := Throughput{ReadUnits: 7, WriteUnits: 3}
	tb, err := s.EnsureTable("grains", prov)
	if err != nil {
		t.Fatal(err)
	}
	frame := func(payload []byte) []byte {
		var hdr [8]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		return append(hdr[:], payload...)
	}
	want := frame(appendRecord(nil, opCreateTable, "grains", "", nil, provUnits(prov)))
	value := bytes.Repeat([]byte("v"), 1500)
	for i := 0; i < 3; i++ {
		if _, err := tb.Put(ctx, "solo", value[:i*700]); err != nil {
			t.Fatal(err)
		}
		want = append(want, frame(appendRecord(nil, opPut, "grains", "solo", value[:i*700], int64(i+1)))...)
	}
	holdBatch(t, s) // the next puts join one batch with the held record
	want = append(want, frame(appendRecord(nil, opPut, "t", "held", nil, 1))...)
	var wg sync.WaitGroup
	for _, k := range []string{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := tb.Put(ctx, k, value); err != nil {
				t.Error(err)
			}
		}()
	}
	waitForValue(t, tb, "a", value)
	waitForValue(t, tb, "b", value)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	got, err := os.ReadFile(filepath.Join(dir, "wal", "00000000000000000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(got, want) {
		t.Fatalf("WAL holds %d bytes that do not start with the %d hand-framed ones", len(got), len(want))
	}
	tail := got[len(want):]
	a := frame(appendRecord(nil, opPut, "grains", "a", value, 1))
	b := frame(appendRecord(nil, opPut, "grains", "b", value, 1))
	if !bytes.Equal(tail, append(append([]byte(nil), a...), b...)) && !bytes.Equal(tail, append(append([]byte(nil), b...), a...)) {
		t.Fatalf("batched tail of %d bytes is not the two framed puts", len(tail))
	}
}
