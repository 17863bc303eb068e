// Package kvstore implements the durable key-value store that backs actor
// state in this repository — the analog of the Amazon DynamoDB deployment
// the paper uses for Orleans grain storage.
//
// The store provides:
//
//   - named tables of versioned items with optimistic conditional puts
//     (DynamoDB conditional writes); nothing deletes an item, as no actor
//     state is ever deleted;
//   - per-table provisioned throughput in read/write units with DynamoDB's
//     rounding rules (1 write unit per started KiB, 1 read unit per started
//     4 KiB), enforced by blocking token buckets — this is what lets the
//     benchmarks reproduce the paper's "200 reads and 200 writes per
//     second" grain-storage configuration;
//   - durability through a write-ahead log, its one on-disk format:
//     compaction re-logs the live items and drops the segments they
//     supersede, and recovery replays the log on open;
//   - a memory-only mode (empty Dir) for benchmarks that, like the paper's,
//     deliberately keep grain storage off the hot path.
package kvstore

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aodb/internal/clock"
	"aodb/internal/metrics"
	"aodb/internal/ratelimit"
	"aodb/internal/telemetry"
	"aodb/internal/wal"
)

// Errors returned by table operations.
var (
	ErrNotFound        = errors.New("kvstore: item not found")
	ErrVersionMismatch = errors.New("kvstore: version mismatch")
	ErrNoTable         = errors.New("kvstore: table does not exist")
	ErrTableExists     = errors.New("kvstore: table already exists")
	ErrClosed          = errors.New("kvstore: store closed")
)

// Throughput is a table's provisioned capacity. Zero units mean unlimited,
// matching an on-demand table.
type Throughput struct {
	ReadUnits  float64
	WriteUnits float64
}

// Item is a versioned value. Versions start at 1 and increase by one per
// successful write to the key.
type Item struct {
	Key     string
	Value   []byte
	Version int64
}

// Options configures Open.
type Options struct {
	// Dir is the durability directory. Empty means memory-only.
	Dir string
	// Durable makes every mutation block until its WAL record is on
	// stable storage (ack ⇒ fsynced). Writes are group-committed: the
	// mutation applies in memory under the table lock, then waits only
	// for the shared batch flush, so concurrent writers amortize one
	// fsync instead of serializing behind per-record flushes. Off (the
	// default), WAL writes are buffered and synced on compaction/Close,
	// mirroring how the paper keeps storage off the hot path.
	Durable bool
	// Clock drives the throughput buckets; nil means the real clock.
	Clock clock.Clock
	// Metrics receives operation counters; nil allocates a private registry.
	Metrics *metrics.Registry
	// FlushStallAfter and OnFlushStall pass through to the WAL: any group
	// flush taking at least FlushStallAfter invokes OnFlushStall — how the
	// flight journal learns about a stalling disk before it fails.
	FlushStallAfter time.Duration
	OnFlushStall    func(d time.Duration, records int)

	// compactEvery overrides defaultCompactEvery; tests lower it to
	// trigger compaction after a few writes.
	compactEvery int
}

// defaultCompactEvery starts a background compaction after every 100,000
// WAL records.
const defaultCompactEvery = 100000

// WriteFault is a fault-injection hook consulted before every mutation
// (Put/PutIf/Merge). Returning a non-nil error fails the write before
// anything is logged or applied, exactly as a storage outage would.
type WriteFault func(table, key string) error

// Store is a collection of tables with shared durability.
type Store struct {
	mu      sync.RWMutex
	opts    Options
	tables  map[string]*Table
	log     *wal.Log // nil in memory-only mode
	clk     clock.Clock
	reg     *metrics.Registry
	closed  bool
	applied atomic.Int64 // WAL records staged (drives compaction cadence)
	// legacySeq is the last sequence a legacy snapshot covers (0: none).
	legacySeq uint64

	// Background compaction lifecycle: at most one compaction goroutine
	// at a time, drained on Close. compactMu guards only these two fields
	// and is never held while taking mu or a table lock — the compaction
	// trigger fires under the writer's table lock, and nesting the store
	// lock there would invert against compact's mu→table order.
	compactMu     sync.Mutex
	compacting    bool
	compactClosed bool
	compactWG     sync.WaitGroup

	// flushWait records how long durable writes blocked on group commit;
	// reads and writes count Get and applied mutations.
	flushWait     *metrics.Histogram
	reads, writes *metrics.Counter

	// writeFault, when set, is invoked on the write path; nil (the normal
	// case) costs one atomic pointer load.
	writeFault atomic.Pointer[WriteFault]
}

// SetWriteFault installs (or, with nil, removes) a write-fault hook. Safe
// to call concurrently with writes; intended for chaos and failure tests.
func (s *Store) SetWriteFault(f WriteFault) {
	if f == nil {
		s.writeFault.Store(nil)
		return
	}
	s.writeFault.Store(&f)
}

// injectWriteFault runs the installed hook, if any, for one write.
func (s *Store) injectWriteFault(table, key string) error {
	p := s.writeFault.Load()
	if p == nil {
		return nil
	}
	if err := (*p)(table, key); err != nil {
		s.reg.Counter("kvstore.injected_write_faults").Inc()
		return err
	}
	return nil
}

// Table is a named map of versioned items with provisioned throughput.
type Table struct {
	name   string
	store  *Store
	mu     sync.RWMutex
	items  map[string]Item
	prov   Throughput
	reads  *ratelimit.Bucket // nil if unlimited
	writes *ratelimit.Bucket

	// mutSeq maps each key to the WAL sequence of the last mutation
	// applied to it in memory (maintained on durable stores only, where
	// a failed group-commit flush rolls mutations back). Versions are not
	// usable as that fence: a rolled-back write gives its version back,
	// so a later write can reuse it with other bytes. The map is
	// process-local and starts empty on recovery.
	mutSeq map[string]uint64
}

// Open opens or creates a store. With a durability directory, the WAL is
// replayed, on top of a legacy snapshot if one is there.
func Open(opts Options) (*Store, error) {
	if opts.compactEvery <= 0 {
		opts.compactEvery = defaultCompactEvery
	}
	if opts.Clock == nil {
		opts.Clock = clock.Real()
	}
	if opts.Metrics == nil {
		opts.Metrics = metrics.NewRegistry()
	}
	s := &Store{
		opts:   opts,
		tables: make(map[string]*Table),
		clk:    opts.Clock,
		reg:    opts.Metrics,
	}
	s.flushWait = s.reg.Histogram("kvstore.flush_wait")
	s.reads = s.reg.Counter("kvstore.reads")
	s.writes = s.reg.Counter("kvstore.writes")
	if opts.Dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	if s.legacySeq, err = s.loadLegacySnapshot(); err != nil {
		return nil, err
	}
	l, err := wal.Open(filepath.Join(opts.Dir, "wal"), wal.Options{
		SyncEveryAppend: opts.Durable,
		Metrics:         s.reg,
		FlushStallAfter: opts.FlushStallAfter,
		OnFlushStall:    opts.OnFlushStall,
	})
	if err != nil {
		return nil, err
	}
	s.log = l
	err = l.Replay(func(seq uint64, payload []byte) error {
		if seq <= s.legacySeq {
			return nil // covered by the legacy snapshot
		}
		return s.applyRecord(payload)
	})
	if err != nil {
		l.Close()
		return nil, err
	}
	return s, nil
}

// record opcodes in the WAL. They are stored bytes: 2 and 4 stay
// unused, and replay rejects them as unknown.
const (
	opPut         = 1
	opCreateTable = 3
)

// appendRecord appends the WAL payload of one record to buf.
func appendRecord(buf []byte, op byte, table, key string, value []byte, version int64) []byte {
	buf = append(buf, op)
	buf = binary.AppendUvarint(buf, uint64(len(table)))
	buf = append(buf, table...)
	buf = binary.AppendUvarint(buf, uint64(len(key)))
	buf = append(buf, key...)
	buf = binary.AppendUvarint(buf, uint64(len(value)))
	buf = append(buf, value...)
	buf = binary.AppendVarint(buf, version)
	return buf
}

func decodeRecord(payload []byte) (op byte, table, key string, value []byte, version int64, err error) {
	fail := func(e error) (byte, string, string, []byte, int64, error) {
		return 0, "", "", nil, 0, e
	}
	if len(payload) < 1 {
		return fail(errors.New("kvstore: empty WAL record"))
	}
	op = payload[0]
	rest := payload[1:]
	readBytes := func() ([]byte, error) {
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || uint64(len(rest)-sz) < n {
			return nil, errors.New("kvstore: malformed WAL record")
		}
		b := rest[sz : sz+int(n)]
		rest = rest[sz+int(n):]
		return b, nil
	}
	tb, err := readBytes()
	if err != nil {
		return fail(err)
	}
	kb, err := readBytes()
	if err != nil {
		return fail(err)
	}
	vb, err := readBytes()
	if err != nil {
		return fail(err)
	}
	ver, sz := binary.Varint(rest)
	if sz <= 0 {
		return fail(errors.New("kvstore: malformed WAL record version"))
	}
	return op, string(tb), string(kb), append([]byte(nil), vb...), ver, nil
}

// provUnits packs throughput into a create record's version: read<<32|write.
func provUnits(p Throughput) int64 { return int64(p.ReadUnits)<<32 | int64(p.WriteUnits) }

// applyRecord applies a WAL record during recovery, without re-logging.
// The last put of a key wins. A put can precede its table's create when
// a compaction truncated the first create: it creates the table, and the
// compaction's create that follows sets the throughput.
func (s *Store) applyRecord(payload []byte) error {
	op, table, key, value, version, err := decodeRecord(payload)
	if err != nil {
		return err
	}
	t, ok := s.tables[table]
	switch op {
	case opCreateTable:
		prov := Throughput{
			ReadUnits:  float64(version >> 32),
			WriteUnits: float64(version & 0xffffffff),
		}
		nt := s.newTable(table, prov)
		if ok {
			nt.items = t.items
		}
		s.tables[table] = nt
		return nil
	case opPut:
		if !ok {
			t = s.newTable(table, Throughput{})
			s.tables[table] = t
		}
		t.items[key] = Item{Key: key, Value: value, Version: version}
		return nil
	default:
		return fmt.Errorf("kvstore: unknown WAL opcode %d", op)
	}
}

func (s *Store) newTable(name string, prov Throughput) *Table {
	t := &Table{name: name, store: s, items: make(map[string]Item), mutSeq: make(map[string]uint64), prov: prov}
	if prov.ReadUnits > 0 {
		t.reads = ratelimit.NewBucket(s.clk, prov.ReadUnits, prov.ReadUnits)
	}
	if prov.WriteUnits > 0 {
		t.writes = ratelimit.NewBucket(s.clk, prov.WriteUnits, prov.WriteUnits)
	}
	return t
}

// CreateTable creates a table with the given provisioned throughput.
func (s *Store) CreateTable(name string, prov Throughput) error {
	if name == "" {
		return errors.New("kvstore: empty table name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.tables[name]; ok {
		return ErrTableExists
	}
	if s.log != nil {
		ack, err := s.stageRecord(opCreateTable, name, "", nil, provUnits(prov))
		if err == nil {
			err = ack.Wait()
		}
		if err != nil {
			return err
		}
	}
	s.tables[name] = s.newTable(name, prov)
	return nil
}

// Table returns the named table.
func (s *Store) Table(name string) (*Table, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	t, ok := s.tables[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoTable, name)
	}
	return t, nil
}

// EnsureTable returns the named table, creating it with prov if missing.
func (s *Store) EnsureTable(name string, prov Throughput) (*Table, error) {
	t, err := s.Table(name)
	if err == nil {
		return t, nil
	}
	if !errors.Is(err, ErrNoTable) {
		return nil, err
	}
	if err := s.CreateTable(name, prov); err != nil && !errors.Is(err, ErrTableExists) {
		return nil, err
	}
	return s.Table(name)
}

// DynamoDB capacity-unit rounding.
func writeUnits(size int) float64 { return float64((size + 1023) / 1024) }
func readUnits(size int) float64  { return float64((size + 4095) / 4096) }

func max1(u float64) float64 {
	if u < 1 {
		return 1
	}
	return u
}

// Get returns the item stored under key, waiting for read capacity first.
func (t *Table) Get(ctx context.Context, key string) (Item, error) {
	if sp := telemetry.SpanFrom(ctx); sp != nil {
		// Attribute the whole call — including provisioned-throughput
		// waits, which are exactly the "storage throttling" component the
		// tail-attribution table wants to expose — to the active span.
		start := t.store.clk.Now()
		defer func() { sp.AddStoreRead(t.store.clk.Since(start)) }()
	}
	if t.reads != nil {
		// Charge a minimum of one unit before knowing the size; DynamoDB
		// charges by the size actually read, so charge the remainder after.
		if err := t.reads.Take(ctx, 1); err != nil {
			return Item{}, err
		}
	}
	t.mu.RLock()
	it, ok := t.items[key]
	t.mu.RUnlock()
	if !ok {
		return Item{}, fmt.Errorf("%w: %s/%s", ErrNotFound, t.name, key)
	}
	if t.reads != nil {
		if extra := max1(readUnits(len(it.Value))) - 1; extra > 0 {
			if err := t.reads.Take(ctx, extra); err != nil {
				return Item{}, err
			}
		}
	}
	t.store.reads.Inc()
	out := it
	out.Value = append([]byte(nil), it.Value...)
	return out, nil
}

// Put unconditionally writes value under key, returning the new version.
func (t *Table) Put(ctx context.Context, key string, value []byte) (int64, error) {
	return t.put(ctx, key, value, nil)
}

// PutIf writes value only when the item's current version equals expect.
// expect == 0 requires that the item not exist yet.
func (t *Table) PutIf(ctx context.Context, key string, value []byte, expect int64) (int64, error) {
	if expect < 0 {
		return 0, errors.New("kvstore: negative expected version")
	}
	return t.put(ctx, key, value, func(cur Item, exists bool) error {
		switch {
		case expect == 0 && exists:
			return fmt.Errorf("%w: %s/%s exists at v%d", ErrVersionMismatch, t.name, key, cur.Version)
		case expect > 0 && cur.Version != expect:
			return fmt.Errorf("%w: %s/%s at v%d, expected v%d", ErrVersionMismatch, t.name, key, cur.Version, expect)
		}
		return nil
	})
}

// put is Put and PutIf: a mutation the active span counts as a store
// write.
func (t *Table) put(ctx context.Context, key string, value []byte, decide func(cur Item, exists bool) error) (int64, error) {
	if sp := telemetry.SpanFrom(ctx); sp != nil {
		start := t.store.clk.Now()
		defer func() { sp.AddStoreWrite(t.store.clk.Since(start)) }()
	}
	return t.mutate(ctx, key, value, decide)
}

// errDeclined is what Merge's decide step returns to write nothing.
var errDeclined = errors.New("kvstore: merge declined")

// Merge writes value under key only when the decide callback, run under
// the table lock against the current item, approves. It is the replica-
// role API for replication: a replica applying a possibly-duplicated,
// possibly-stale incoming mutation compares it against what it holds and
// either applies or declines in one atomic pass, with the same durable
// staging and rollback discipline as Put. The callback sees the current
// item (zero Item when absent) and must not block, mutate cur.Value, or
// retain it past the call. Returns whether the write was applied; a
// declined merge performs no I/O and is not an error.
func (t *Table) Merge(ctx context.Context, key string, value []byte, decide func(cur Item, exists bool) bool) (bool, error) {
	if decide == nil {
		return false, errors.New("kvstore: Merge needs a decide callback")
	}
	_, err := t.mutate(ctx, key, value, func(cur Item, exists bool) error {
		if !decide(cur, exists) {
			return errDeclined
		}
		return nil
	})
	if err == errDeclined {
		return false, nil
	}
	return err == nil, err
}

// mutate is the store's one mutation path. decide (nil approves) runs
// under the table lock against the current item and vetoes the write
// with an error. An approved write is staged in the WAL and applied in
// memory under the same lock (staging assigns the log order, so it must
// agree with the per-key version order), then blocks only on the batched
// flush after the lock is released: concurrent writers overlap their
// fsync waits instead of serializing behind one. A flush that fails
// unwinds the apply, fenced on the key's mutation sequence.
func (t *Table) mutate(ctx context.Context, key string, value []byte, decide func(cur Item, exists bool) error) (int64, error) {
	if key == "" {
		return 0, errors.New("kvstore: empty key")
	}
	if err := t.store.injectWriteFault(t.name, key); err != nil {
		return 0, err
	}
	if t.writes != nil {
		if err := t.writes.Take(ctx, max1(writeUnits(len(value)))); err != nil {
			return 0, err
		}
	}
	t.mu.Lock()
	prev, existed := t.items[key]
	if decide != nil {
		if err := decide(prev, existed); err != nil {
			t.mu.Unlock()
			return 0, err
		}
	}
	item := Item{Key: key, Value: append([]byte(nil), value...), Version: prev.Version + 1}
	ack, err := t.store.stageMutation(t.name, item)
	if err != nil {
		t.mu.Unlock()
		return 0, err
	}
	prevSeq := t.noteMutation(key, ack)
	t.items[key] = item
	t.store.writes.Inc()
	t.mu.Unlock()
	if err := t.store.awaitDurable(ctx, ack); err != nil {
		// The record never became durable: unwind the in-memory apply so
		// an unacknowledged write cannot be read back, unless the fence
		// says the visible state is no longer this chain's to unwind.
		t.mu.Lock()
		if t.rollbackAllowed(key, ack) {
			if existed {
				t.items[key] = prev
			} else {
				delete(t.items, key)
			}
			t.mutSeq[key] = prevSeq
		}
		t.mu.Unlock()
		return 0, err
	}
	return item.Version, nil
}

// Scan calls fn for every item whose key has the given prefix, in key
// order, until fn returns false. It charges read units per item visited.
func (t *Table) Scan(ctx context.Context, prefix string, fn func(Item) bool) error {
	t.mu.RLock()
	keys := make([]string, 0, len(t.items))
	for k := range t.items {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	t.mu.RUnlock()
	sort.Strings(keys)
	for _, k := range keys {
		if t.reads != nil {
			if err := t.reads.Take(ctx, 1); err != nil {
				return err
			}
		}
		t.mu.RLock()
		it, ok := t.items[k]
		t.mu.RUnlock()
		if !ok {
			continue // rolled back while scanning
		}
		it.Value = append([]byte(nil), it.Value...)
		if !fn(it) {
			return nil
		}
	}
	return nil
}

// Len returns the number of items in the table.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.items)
}

// noteMutation records ack's sequence as the key's latest applied
// mutation and returns the previous fence value, which the mutation's
// rollback restores. Must be called with t.mu held. Only durable stores
// maintain the fence: buffered and memory-only stores never reach the
// rollback path (their staging errors surface before the apply and Wait
// cannot fail).
func (t *Table) noteMutation(key string, ack wal.Ack) uint64 {
	if t.store.log == nil || !t.store.opts.Durable {
		return 0
	}
	prev := t.mutSeq[key]
	t.mutSeq[key] = ack.Seq()
	return prev
}

// rollbackAllowed reports whether a mutation whose flush failed may
// restore the state it captured before applying. Flush failures are
// prefix-closed in sequence order (the WAL fails every batch after the
// first failed one), so the key's failed mutations form a chain whose
// captured states link back to the last durable value. The fence holds
// while mutSeq still points at this mutation or a later one in that
// chain; once a racing rollback has unwound past this mutation, the
// current state is not ours to replace — whichever failed writer the
// fence does point at will finish the unwind. Must be called with t.mu
// held.
func (t *Table) rollbackAllowed(key string, ack wal.Ack) bool {
	return t.mutSeq[key] >= ack.Seq()
}

// stageMutation stages the WAL record that writes it into table and
// returns the acknowledgment handle the caller must Wait on after
// releasing its table lock. Staging is cheap (no fsync), so holding the
// table lock across it keeps the WAL order consistent with the per-key
// version order without serializing writers behind the disk. A
// memory-only store encodes no record and returns the zero handle, whose
// Wait returns at once.
func (s *Store) stageMutation(table string, it Item) (wal.Ack, error) {
	if s.log == nil {
		return wal.Ack{}, nil
	}
	ack, err := s.stageRecord(opPut, table, it.Key, it.Value, it.Version)
	if err != nil {
		return wal.Ack{}, err
	}
	if s.applied.Add(1)%int64(s.opts.compactEvery) == 0 {
		s.kickCompaction()
	}
	return ack, nil
}

// stageRecord stages one WAL record, framed straight into the log's
// group-commit batch.
func (s *Store) stageRecord(op byte, table, key string, value []byte, version int64) (wal.Ack, error) {
	return s.log.StageAppend(func(buf []byte) []byte {
		return appendRecord(buf, op, table, key, value, version)
	})
}

// kickCompaction starts a background compaction unless one is already
// running or the store is closing. Compaction failure must not fail the
// write that triggered it (the WAL still has everything), but the
// goroutine is tracked: single-flight, and drained by Close so a
// background compaction can never race the log teardown.
func (s *Store) kickCompaction() {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	if s.compacting || s.compactClosed {
		return
	}
	s.compacting = true
	s.compactWG.Add(1)
	go func() {
		defer s.compactWG.Done()
		_ = s.compact()
		s.compactMu.Lock()
		s.compacting = false
		s.compactMu.Unlock()
	}()
}

// awaitDurable blocks until a staged mutation's durability outcome is
// known. In durable mode this is the group-commit flush wait — the only
// blocking a concurrent writer pays for fsync-grade durability — and it
// is recorded in the kvstore.flush_wait histogram and attributed to the
// active span so traced runs can pin tail latency on flush waits. In
// buffered mode the record was written at stage time and this returns
// immediately.
func (s *Store) awaitDurable(ctx context.Context, ack wal.Ack) error {
	if s.log == nil || !s.opts.Durable {
		return ack.Wait()
	}
	start := s.clk.Now()
	err := ack.Wait()
	d := s.clk.Since(start)
	s.flushWait.RecordDuration(d)
	if sp := telemetry.SpanFrom(ctx); sp != nil {
		sp.AddFlushWait(d)
	}
	return err
}

// compact re-logs the store's live data and drops the sealed segments it
// supersedes (a no-op for memory-only stores). Each table stages a create
// and, under its read lock, a put of every item at its version; writers
// stage under the write lock, so each key's records stay in order. Nothing
// deletes an item, so these records rebuild every table, and a segment a
// crash leaves behind replays before them.
func (s *Store) compact() error {
	if s.log == nil {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	failures := s.log.Failures()
	var first uint64
	var err error
	stage := func(op byte, table, key string, value []byte, version int64) {
		var ack wal.Ack
		if ack, err = s.stageRecord(op, table, key, value, version); err == nil && first == 0 {
			first = ack.Seq()
		}
	}
	for name, t := range s.tables {
		t.mu.RLock()
		stage(opCreateTable, name, "", nil, provUnits(t.prov))
		for k, it := range t.items {
			if err != nil {
				break
			}
			stage(opPut, name, k, it.Value, it.Version)
		}
		t.mu.RUnlock()
		if err != nil {
			break
		}
	}
	s.mu.Unlock()
	if err != nil {
		return err
	}
	// Flush barrier: a copied item can be a durable write whose flush is
	// in flight. If it fails, the batches staged after it fail too, and
	// the failure may hand first's sequence to another record or be run
	// by its batch's own leader before Sync. So any flush failure since
	// the copy began abandons the compaction: the WAL keeps everything.
	if err := s.log.Sync(); err != nil {
		return err
	}
	if s.log.Failures() != failures {
		return errors.New("kvstore: compaction abandoned: a WAL flush failed after it began")
	}
	kept, err := s.log.TruncateBefore(first)
	if err != nil || kept <= s.legacySeq {
		return err // the legacy snapshot still keeps old deletes out of replay
	}
	snaps, err := s.legacySnapshots()
	for _, p := range snaps {
		if err == nil {
			err = os.Remove(p)
		}
	}
	return err
}

// legacySnapshots lists the gob snapshots older builds wrote beside the
// WAL, oldest first (names are zero-padded sequences). Open loads the
// newest; a compaction removes them all once it has truncated every
// record the newest covers; nothing writes one.
func (s *Store) legacySnapshots() ([]string, error) {
	entries, err := os.ReadDir(s.opts.Dir)
	var out []string
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".snap") {
			out = append(out, filepath.Join(s.opts.Dir, e.Name()))
		}
	}
	return out, err
}

// snapshotFile is the gob layout of a legacy snapshot.
type snapshotFile struct {
	LastSeq uint64
	Tables  map[string]struct {
		Prov  Throughput
		Items map[string]Item
	}
}

// loadLegacySnapshot loads the newest legacy snapshot, if any, and
// returns the last WAL sequence it covers.
func (s *Store) loadLegacySnapshot() (uint64, error) {
	snaps, err := s.legacySnapshots()
	if err != nil || len(snaps) == 0 {
		return 0, err
	}
	newest := snaps[len(snaps)-1]
	data, err := os.ReadFile(newest)
	if err != nil {
		return 0, err
	}
	var dump snapshotFile
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&dump); err != nil {
		return 0, fmt.Errorf("kvstore: decode snapshot %s: %w", newest, err)
	}
	for name, st := range dump.Tables {
		t := s.newTable(name, st.Prov)
		for k, it := range st.Items {
			t.items[k] = it
		}
		s.tables[name] = t
	}
	return dump.LastSeq, nil
}

// Sync flushes the WAL.
func (s *Store) Sync() error {
	if s.log == nil {
		return nil
	}
	return s.log.Sync()
}

// Metrics exposes the store's registry.
func (s *Store) Metrics() *metrics.Registry { return s.reg }

// Close syncs and closes the store. Any in-flight background compaction
// is drained first so it can never race the log teardown.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.log
	s.mu.Unlock()
	s.compactMu.Lock()
	s.compactClosed = true
	s.compactMu.Unlock()
	s.compactWG.Wait()
	if l != nil {
		return l.Close()
	}
	return nil
}
