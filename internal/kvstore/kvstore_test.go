package kvstore

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"aodb/internal/clock"
)

func memStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func mustTable(t *testing.T, s *Store, name string) *Table {
	t.Helper()
	tb, err := s.EnsureTable(name, Throughput{})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestPutGetRoundTrip(t *testing.T) {
	tb := mustTable(t, memStore(t), "grains")
	ctx := context.Background()
	v, err := tb.Put(ctx, "cow/1", []byte("state"))
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("first version = %d, want 1", v)
	}
	it, err := tb.Get(ctx, "cow/1")
	if err != nil {
		t.Fatal(err)
	}
	if string(it.Value) != "state" || it.Version != 1 {
		t.Fatalf("item = %+v", it)
	}
}

func TestGetMissingReturnsNotFound(t *testing.T) {
	tb := mustTable(t, memStore(t), "t")
	if _, err := tb.Get(context.Background(), "nope"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v, want ErrNotFound", err)
	}
}

func TestVersionsIncrement(t *testing.T) {
	tb := mustTable(t, memStore(t), "t")
	ctx := context.Background()
	for want := int64(1); want <= 4; want++ {
		v, err := tb.Put(ctx, "k", []byte("x"))
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("version = %d, want %d", v, want)
		}
	}
}

func TestPutIfEnforcesVersion(t *testing.T) {
	tb := mustTable(t, memStore(t), "t")
	ctx := context.Background()
	if _, err := tb.PutIf(ctx, "k", []byte("a"), 0); err != nil {
		t.Fatalf("PutIf create: %v", err)
	}
	if _, err := tb.PutIf(ctx, "k", []byte("b"), 0); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("PutIf duplicate create = %v, want ErrVersionMismatch", err)
	}
	if _, err := tb.PutIf(ctx, "k", []byte("b"), 1); err != nil {
		t.Fatalf("PutIf v1: %v", err)
	}
	if _, err := tb.PutIf(ctx, "k", []byte("c"), 1); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("stale PutIf = %v, want ErrVersionMismatch", err)
	}
	if _, err := tb.PutIf(ctx, "k", []byte("c"), -1); err == nil {
		t.Fatal("negative expected version accepted")
	}
}

func TestPutIfSerializesConcurrentWriters(t *testing.T) {
	tb := mustTable(t, memStore(t), "t")
	ctx := context.Background()
	if _, err := tb.Put(ctx, "ctr", []byte("0")); err != nil {
		t.Fatal(err)
	}
	var wins, losses int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := tb.PutIf(ctx, "ctr", []byte("1"), 1)
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				wins++
			} else if errors.Is(err, ErrVersionMismatch) {
				losses++
			}
		}()
	}
	wg.Wait()
	if wins != 1 || losses != 15 {
		t.Fatalf("wins=%d losses=%d, want exactly one winner", wins, losses)
	}
}

func TestScanPrefixOrder(t *testing.T) {
	tb := mustTable(t, memStore(t), "t")
	ctx := context.Background()
	for _, k := range []string{"sensor/2", "sensor/1", "org/1", "sensor/3"} {
		if _, err := tb.Put(ctx, k, []byte(k)); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	err := tb.Scan(ctx, "sensor/", func(it Item) bool {
		got = append(got, it.Key)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"sensor/1", "sensor/2", "sensor/3"}
	if len(got) != len(want) {
		t.Fatalf("scan = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan = %v, want %v", got, want)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	tb := mustTable(t, memStore(t), "t")
	ctx := context.Background()
	for i := 0; i < 10; i++ {
		if _, err := tb.Put(ctx, fmt.Sprintf("k%02d", i), nil); err != nil {
			t.Fatal(err)
		}
	}
	var n int
	if err := tb.Scan(ctx, "", func(Item) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("visited %d, want 3", n)
	}
}

func TestGetReturnsCopy(t *testing.T) {
	tb := mustTable(t, memStore(t), "t")
	ctx := context.Background()
	if _, err := tb.Put(ctx, "k", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	it, _ := tb.Get(ctx, "k")
	it.Value[0] = 'X'
	it2, _ := tb.Get(ctx, "k")
	if string(it2.Value) != "abc" {
		t.Fatal("Get exposed internal buffer")
	}
}

func TestPutCopiesInput(t *testing.T) {
	tb := mustTable(t, memStore(t), "t")
	ctx := context.Background()
	buf := []byte("abc")
	if _, err := tb.Put(ctx, "k", buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X'
	it, _ := tb.Get(ctx, "k")
	if string(it.Value) != "abc" {
		t.Fatal("Put aliased caller buffer")
	}
}

func TestCreateTableDuplicate(t *testing.T) {
	s := memStore(t)
	if err := s.CreateTable("t", Throughput{}); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateTable("t", Throughput{}); !errors.Is(err, ErrTableExists) {
		t.Fatalf("duplicate create = %v, want ErrTableExists", err)
	}
	if _, err := s.Table("missing"); !errors.Is(err, ErrNoTable) {
		t.Fatalf("missing table = %v, want ErrNoTable", err)
	}
}

func TestProvisionedThroughputLimitsWrites(t *testing.T) {
	// 200 write units/s, like the paper's DynamoDB configuration. 100
	// small writes beyond the burst should take ~(100-burst)/200 s.
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.CreateTable("grains", Throughput{WriteUnits: 200}); err != nil {
		t.Fatal(err)
	}
	tb, _ := s.Table("grains")
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < 300; i++ {
		if _, err := tb.Put(ctx, "k", []byte("small")); err != nil {
			t.Fatal(err)
		}
	}
	elapsed := time.Since(start)
	// 300 units at 200/s with a 200-unit initial burst → >= ~0.5s.
	if elapsed < 400*time.Millisecond {
		t.Fatalf("300 writes at 200 WCU finished in %v, throttling not applied", elapsed)
	}
}

func TestLargeValuesChargeMoreUnits(t *testing.T) {
	fc := clock.NewFake(time.Unix(0, 0))
	s, err := Open(Options{Clock: fc})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.CreateTable("t", Throughput{WriteUnits: 10}); err != nil {
		t.Fatal(err)
	}
	tb, _ := s.Table("t")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A 5KiB value costs 5 units; two fit in the 10-unit burst, the third
	// must block on the fake clock (which never advances here).
	big := make([]byte, 5*1024)
	for i := 0; i < 2; i++ {
		if _, err := tb.Put(ctx, "k", big); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan error, 1)
	go func() { _, err := tb.Put(ctx, "k", big); done <- err }()
	select {
	case err := <-done:
		t.Fatalf("third 5KiB write returned %v without capacity", err)
	case <-time.After(50 * time.Millisecond):
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled write = %v", err)
	}
}

func TestDurabilityAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.CreateTable("grains", Throughput{}); err != nil {
		t.Fatal(err)
	}
	tb, _ := s.Table("grains")
	for i := 0; i < 50; i++ {
		if _, err := tb.Put(ctx, fmt.Sprintf("k%d", i), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tb2, err := s2.Table("grains")
	if err != nil {
		t.Fatalf("table not recovered: %v", err)
	}
	if tb2.Len() != 50 {
		t.Fatalf("recovered %d items, want 50", tb2.Len())
	}
	it, err := tb2.Get(ctx, "k7")
	if err != nil || string(it.Value) != "v7" {
		t.Fatalf("k7 = %+v, %v", it, err)
	}
	if _, err := tb2.Get(ctx, "k50"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("never-written key recovered: %v", err)
	}
}

func TestSnapshotCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := s.CreateTable("t", Throughput{ReadUnits: 7, WriteUnits: 9}); err != nil {
		t.Fatal(err)
	}
	tb, _ := s.Table("t")
	for i := 0; i < 20; i++ {
		if _, err := tb.Put(ctx, fmt.Sprintf("k%d", i%5), []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.compact(); err != nil {
		t.Fatal(err)
	}
	// Writes after the compaction follow its records.
	if _, err := tb.Put(ctx, "post", []byte("snap")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	tb2, err := s2.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	if got := tb2.prov; got.ReadUnits != 7 || got.WriteUnits != 9 {
		t.Fatalf("provisioned throughput not recovered: %+v", got)
	}
	it, err := tb2.Get(ctx, "post")
	if err != nil || string(it.Value) != "snap" {
		t.Fatalf("post-compaction write lost: %+v %v", it, err)
	}
	if tb2.Len() != 6 {
		t.Fatalf("recovered %d items, want 6", tb2.Len())
	}
	// Versions must survive the compaction: k0 was written at i=0,5,10,15.
	it0, _ := tb2.Get(ctx, "k0")
	if it0.Version != 4 {
		t.Fatalf("k0 version = %d, want 4", it0.Version)
	}
}

func TestAutoCompactionTriggers(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, compactEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	tb, _ := s.EnsureTable("t", Throughput{})
	ctx := context.Background()
	for i := 0; i < 25; i++ {
		if _, err := tb.Put(ctx, "k", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// The compaction runs asynchronously; give it a moment. It re-logs
	// the table and its one item on top of the create and 25 puts.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if s.Metrics().Counter("wal.appends").Value() > 26 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("no compaction ran after exceeding compactEvery")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestOpsAfterCloseFail(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.CreateTable("t", Throughput{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("CreateTable after close = %v", err)
	}
	if _, err := s.Table("t"); !errors.Is(err, ErrClosed) {
		t.Fatalf("Table after close = %v", err)
	}
}

func TestEnsureTableIdempotent(t *testing.T) {
	s := memStore(t)
	a, err := s.EnsureTable("t", Throughput{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.EnsureTable("t", Throughput{ReadUnits: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("EnsureTable created a second table")
	}
}

func TestRecordEncodingRoundTripProperty(t *testing.T) {
	f := func(table, key string, value []byte, version int64) bool {
		got, gt, gk, gv, gver, err := decodeRecord(appendRecord(nil, opPut, table, key, value, version))
		if err != nil {
			return false
		}
		if got != opPut || gt != table || gk != key || gver != version {
			return false
		}
		if len(gv) != len(value) {
			return false
		}
		for i := range value {
			if gv[i] != value[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	tb := mustTable(t, memStore(t), "t")
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", (w*7+i)%32)
				switch i % 3 {
				case 0, 1:
					if _, err := tb.Put(ctx, key, []byte{byte(i)}); err != nil {
						t.Error(err)
						return
					}
				case 2:
					if _, err := tb.Get(ctx, key); err != nil && !errors.Is(err, ErrNotFound) {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// filepathGlob lists dir entries with the given suffix.
func filepathGlob(dir, suffix string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), suffix) {
			out = append(out, e.Name())
		}
	}
	return out, nil
}
