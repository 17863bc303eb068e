// Package wal implements a segmented append-only write-ahead log with
// group commit.
//
// The kvstore (this repository's DynamoDB analog) writes every mutation to
// the WAL before applying it to its memtable, and replays the log on open
// to recover state. The format is deliberately simple and self-describing:
//
//	record  := length(uint32 LE) crc(uint32 LE, Castagnoli over payload) payload
//	segment := record*
//
// Segments are named <firstSeq>.wal, where firstSeq is the sequence number
// of the first record in the segment. A torn tail (partial final record
// after a crash) is detected by length/CRC validation and truncated away on
// open; corruption anywhere earlier is reported as an error because silent
// data loss in the middle of the log is unrecoverable.
//
// # Group commit
//
// With Options.SyncEveryAppend, an append is acknowledged only after its
// record is on stable storage. Paying one fsync per record would serialize
// every concurrent writer behind one disk flush — exactly the storage
// bottleneck the paper keeps off its hot path — so durable appends are
// group-committed instead: concurrent callers stage records into a shared
// batch under a short mutex hold, and the batch's first stager (the
// leader) performs a single write+fsync for everyone, then releases all
// waiters with their sequence numbers. While one leader is inside the
// flush, the next batch accumulates behind it (leader/follower handoff),
// so the batch size adapts to the flush latency with no tuning. A batch
// carries at most maxBatchRecords records, and a leader never waits on a
// timer: a timed linger for followers was measured to cost far more
// latency than it saved in fsyncs.
//
// A record is framed in place: StageAppend reserves the header in the
// batch buffer, lets the caller append the payload there, then writes
// back the length and the CRC, so no payload is built on its own and
// copied in. Once a flush has handed a batch's bytes to the kernel, its
// buffer (and the join buffer of a multi-batch flush) is kept for the
// next batches, so a steady writer allocates no record memory at all.
//
// Batches always reach disk in sequence order: replay derives sequence
// numbers from disk positions, so a flusher first drains every older
// unflushed batch (coalesced into its own write+fsync) before its own.
//
// The durability contract is: a nil error from Append (or Ack.Wait) means
// the record is fsynced. A failed batch write is rolled back — the segment
// is truncated to its pre-batch size, the batch's already-assigned
// sequence numbers are returned to the log, and every newer staged batch
// is failed with it — so assigned sequences always equal disk positions.
// If that repair fails, or an fsync fails, the log becomes sticky-failed
// and rejects further appends rather than silently stacking records
// behind a torn one.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"aodb/internal/metrics"
)

const (
	headerSize     = 8 // 4-byte length + 4-byte CRC
	suffix         = ".wal"
	maxRecordBytes = 64 << 20
	// defaultSegmentBytes rotates to a new segment once the active one
	// exceeds 16 MiB.
	defaultSegmentBytes = 16 << 20
	// maxBatchRecords bounds a group-commit batch: 1,024 records. A full
	// batch detaches so the next stager starts a fresh one, and its leader
	// flushes without yielding for more.
	maxBatchRecords = 1024
	// keptBuffers and keptBufferBytes bound the flushed buffers a log
	// keeps for reuse: two, of at most 64 KiB each. One batch fills while
	// one flushes; a larger buffer (a compaction's batch) is dropped.
	keptBuffers     = 2
	keptBufferBytes = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a CRC or framing failure before the final record.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrFailed reports that an earlier write failure left the log in a state
// it refuses to append past (sticky failure). The error returned from
// Append wraps ErrFailed together with the original cause.
var ErrFailed = errors.New("wal: log failed")

// ErrClosed reports an operation on a closed log.
var ErrClosed = errors.New("wal: closed")

// Options configures a Log.
type Options struct {
	// SyncEveryAppend makes every append durable before it returns,
	// using group commit (see package docs). The kvstore's non-durable
	// mode leaves this off and buffers writes, mirroring how the paper
	// batches storage writes rather than paying one durable write per
	// request.
	SyncEveryAppend bool
	// Metrics, when non-nil, receives flush instrumentation:
	// wal.appends and wal.flushes counters, and wal.flush.records /
	// wal.flush.latency histograms (records per batch, fsync-inclusive
	// flush time).
	Metrics *metrics.Registry
	// FlushStallAfter, when positive together with OnFlushStall, flags
	// any group flush (write+fsync) that takes at least this long — the
	// signal a stalling disk gives before it fails outright.
	FlushStallAfter time.Duration
	// OnFlushStall receives stalled-flush notifications with the flush's
	// duration and record count. Called synchronously after the flush's
	// waiters are released, off every lock; keep it cheap.
	OnFlushStall func(d time.Duration, records int)

	// segmentBytes overrides defaultSegmentBytes; tests shrink it to
	// exercise rotation.
	segmentBytes int64
}

// batch is one group-commit unit: records staged by concurrent appenders,
// flushed by a single writer.
type batch struct {
	buf      []byte
	records  int
	firstSeq uint64
	full     chan struct{} // closed when maxBatchRecords is reached
	claimed  bool          // a flusher owns it (guarded by Log.mu)
	done     chan struct{} // closed after the flush completes
	err      error         // valid after done is closed
}

// Log is a segmented write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	// flushMu serializes batch flushes and is always acquired before mu.
	// Staging only needs mu, so appenders keep forming the next batch
	// while the current flush's fsync is in flight.
	flushMu sync.Mutex

	mu       sync.Mutex
	dir      string
	opts     Options
	active   *os.File
	activeSz int64
	firstSeq uint64 // sequence of first record in active segment
	nextSeq  uint64
	segments []uint64 // sorted firstSeq of sealed+active segments
	pending  *batch   // batch currently accepting stagers (tail of queue)
	queue    []*batch // staged-but-unflushed batches, oldest first
	failed   error    // sticky failure; non-nil rejects all appends
	failures uint64   // group flushes that failed (see Failures)
	kept     [][]byte // written buffers, emptied, for the next records

	// group is the batches one flush writes, under flushMu.
	group []*batch

	// Test hooks for fault injection (nil = the real operations).
	writeFile func(f *os.File, p []byte) (int, error)
	syncFile  func(f *os.File) error

	// Pre-resolved metrics (nil when Options.Metrics is nil).
	mAppends      *metrics.Counter
	mFlushes      *metrics.Counter
	mFlushRecords *metrics.Histogram
	mFlushLatency *metrics.Histogram
}

// Open opens (or creates) the log in dir and validates existing segments.
// It returns the log positioned to append after the last intact record.
func Open(dir string, opts Options) (*Log, error) {
	if opts.segmentBytes <= 0 {
		opts.segmentBytes = defaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	if reg := opts.Metrics; reg != nil {
		l.mAppends = reg.Counter("wal.appends")
		l.mFlushes = reg.Counter("wal.flushes")
		l.mFlushRecords = reg.Histogram("wal.flush.records")
		l.mFlushLatency = reg.Histogram("wal.flush.latency")
	}
	if err := l.scan(); err != nil {
		return nil, err
	}
	return l, nil
}

func segName(first uint64) string { return fmt.Sprintf("%020d%s", first, suffix) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(name, suffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

func (l *Log) scan() error {
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("wal: read dir: %w", err)
	}
	for _, e := range entries {
		if first, ok := parseSegName(e.Name()); ok {
			l.segments = append(l.segments, first)
		}
	}
	sort.Slice(l.segments, func(i, j int) bool { return l.segments[i] < l.segments[j] })
	if len(l.segments) == 0 {
		return l.rollLocked(1)
	}
	// Validate and count records in the last segment; truncate a torn tail.
	last := l.segments[len(l.segments)-1]
	path := filepath.Join(l.dir, segName(last))
	n, validBytes, err := countRecords(path, true)
	if err != nil {
		return err
	}
	// O_APPEND, like rollLocked's segments: writeLocked's torn-write
	// repair truncates the file, and a plain fd whose offset still sits
	// past the new EOF would punch a zero-filled hole on the next write —
	// which replay then misreads (an all-zero header parses as a valid
	// empty record).
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("wal: open active segment: %w", err)
	}
	if err := f.Truncate(validBytes); err != nil {
		f.Close()
		return fmt.Errorf("wal: truncate torn tail: %w", err)
	}
	l.active = f
	l.activeSz = validBytes
	l.firstSeq = last
	l.nextSeq = last + n
	return nil
}

// countRecords validates records in the segment file. With tolerateTail, a
// broken final record is treated as a torn write; otherwise it is ErrCorrupt.
// Returns the record count and the byte offset of the end of the last valid
// record.
func countRecords(path string, tolerateTail bool) (uint64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	var (
		n      uint64
		offset int64
		hdr    [headerSize]byte
	)
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF {
				return n, offset, nil
			}
			if errors.Is(err, io.ErrUnexpectedEOF) && tolerateTail {
				return n, offset, nil
			}
			return 0, 0, fmt.Errorf("%w: %s header at %d", ErrCorrupt, path, offset)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxRecordBytes {
			if tolerateTail {
				return n, offset, nil
			}
			return 0, 0, fmt.Errorf("%w: %s absurd length %d at %d", ErrCorrupt, path, length, offset)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			if tolerateTail {
				return n, offset, nil
			}
			return 0, 0, fmt.Errorf("%w: %s truncated payload at %d", ErrCorrupt, path, offset)
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			if tolerateTail {
				return n, offset, nil
			}
			return 0, 0, fmt.Errorf("%w: %s bad crc at %d", ErrCorrupt, path, offset)
		}
		n++
		offset += headerSize + int64(length)
	}
}

// rollLocked seals the active segment and starts a new one whose first
// record will carry sequence first. The directory is synced before any
// record lands in the new segment (a file's fsync does not keep its
// entry); a failed directory sync fails the log, as a failed fsync does.
func (l *Log) rollLocked(first uint64) error {
	if l.active != nil {
		if err := l.fsync(l.active); err != nil {
			return err
		}
		if err := l.active.Close(); err != nil {
			return err
		}
	}
	f, err := os.OpenFile(filepath.Join(l.dir, segName(first)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	if err := syncDir(l.dir); err != nil {
		f.Close()
		l.active = nil
		l.failed = fmt.Errorf("%w: sync dir: %v", ErrFailed, err)
		return l.failed
	}
	l.active = f
	l.activeSz = 0
	l.firstSeq = first
	if l.nextSeq == 0 {
		l.nextSeq = first
	}
	l.segments = append(l.segments, first)
	return nil
}

// syncDir makes dir's entries — created or removed segments — durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func (l *Log) write(f *os.File, p []byte) (int, error) {
	if l.writeFile != nil {
		return l.writeFile(f, p)
	}
	return f.Write(p)
}

func (l *Log) fsync(f *os.File) error {
	if l.syncFile != nil {
		return l.syncFile(f)
	}
	return f.Sync()
}

// InjectWriteFault installs fn as the segment-write implementation (nil
// restores the real write). Fault injection for tests outside this
// package, mirroring kvstore.SetWriteFault; not for production use.
func (l *Log) InjectWriteFault(fn func(*os.File, []byte) (int, error)) {
	l.mu.Lock()
	l.writeFile = fn
	l.mu.Unlock()
}

// InjectSyncFault installs fn as the segment-fsync implementation (nil
// restores the real fsync). It is how tests model stalled or failing
// disks: a fn that sleeps stalls the flush, a fn that errors fails it.
// Not for production use.
func (l *Log) InjectSyncFault(fn func(*os.File) error) {
	l.mu.Lock()
	l.syncFile = fn
	l.mu.Unlock()
}

// appendFramed appends one record to buf: a header, then the payload
// fill appends after it, then the length and CRC written back over the
// header. A payload over maxRecordBytes leaves buf as it was and fails.
func appendFramed(buf []byte, fill func([]byte) []byte) ([]byte, error) {
	start := len(buf)
	buf = fill(append(buf, make([]byte, headerSize)...))
	payload := buf[start+headerSize:]
	if len(payload) > maxRecordBytes {
		return buf[:start], fmt.Errorf("wal: record too large (%d bytes)", len(payload))
	}
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.Checksum(payload, castagnoli))
	return buf, nil
}

// takeBuffer returns an empty buffer for a batch, a join or a buffered
// record: a kept one when there is one. Must be called with l.mu held.
func (l *Log) takeBuffer() []byte {
	n := len(l.kept)
	if n == 0 {
		return nil
	}
	buf := l.kept[n-1]
	l.kept[n-1] = nil
	l.kept = l.kept[:n-1]
	return buf
}

// keepBuffer keeps buf for the next records, unless enough are kept or
// it is too large to hold on to. The caller must be done with its bytes:
// a buffer is kept once its write has returned. Must be called with l.mu
// held.
func (l *Log) keepBuffer(buf []byte) {
	if buf != nil && cap(buf) <= keptBufferBytes && len(l.kept) < keptBuffers {
		l.kept = append(l.kept, buf[:0])
	}
}

// writeLocked writes pre-framed record data for records starting at
// firstSeq, rolling the segment first if the active one is full. A failed
// write is repaired by truncating the segment back to its pre-write size,
// so no torn record is left in front of future appends; if that repair
// fails, the log is marked sticky-failed.
func (l *Log) writeLocked(data []byte, firstSeq uint64) error {
	if l.activeSz >= l.opts.segmentBytes {
		if err := l.rollLocked(firstSeq); err != nil {
			return err
		}
	}
	pre := l.activeSz
	n, err := l.write(l.active, data)
	if err == nil && n < len(data) {
		err = io.ErrShortWrite
	}
	if err != nil {
		if n > 0 {
			if terr := l.active.Truncate(pre); terr != nil {
				l.failed = fmt.Errorf("%w: torn write (%v) unrepaired: %v", ErrFailed, err, terr)
			}
		}
		return err
	}
	l.activeSz += int64(len(data))
	return nil
}

// Ack is the handle for one staged record: Seq is its assigned sequence
// number, Wait blocks until the record's durability outcome is known. It
// is a value: staging a record allocates no handle.
type Ack struct {
	l      *Log
	b      *batch // nil when the record was already written at stage time
	seq    uint64
	leader bool
}

// Seq returns the record's sequence number. The sequence is assigned at
// stage time; it is meaningful only if Wait returns nil.
func (a Ack) Seq() uint64 { return a.seq }

// Stage appends payload to the log's current group-commit batch and
// returns an acknowledgment handle (see StageAppend).
func (l *Log) Stage(payload []byte) (Ack, error) {
	return l.StageAppend(func(buf []byte) []byte { return append(buf, payload...) })
}

// StageAppend stages one record whose payload fill appends to the buffer
// it is given and returns the acknowledgment handle. The record is framed
// in place, in the batch's own buffer, so fill runs under the log's lock:
// it must only append, and must not block or call back into the log. The
// record's bytes are not on disk until Wait returns nil; callers that
// separate staging from waiting (the kvstore's durable fast path applies
// its memtable update in between) must always call Wait.
//
// In non-durable mode (SyncEveryAppend off) the record is written — but
// not synced — before StageAppend returns, and Wait is a no-op.
func (l *Log) StageAppend(fill func([]byte) []byte) (Ack, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return Ack{}, l.failed
	}
	if l.active == nil {
		return Ack{}, ErrClosed
	}

	if !l.opts.SyncEveryAppend {
		// Buffered mode: write now, sync never.
		seq := l.nextSeq
		buf, err := appendFramed(l.takeBuffer(), fill)
		if err == nil {
			if l.mAppends != nil {
				l.mAppends.Inc()
			}
			err = l.writeLocked(buf, seq)
		}
		l.keepBuffer(buf)
		if err != nil {
			return Ack{}, err
		}
		l.nextSeq++
		return Ack{l: l, seq: seq}, nil
	}

	// Group-commit path: stage into the shared batch; the batch's first
	// stager becomes its flush leader.
	leader := l.pending == nil
	b := l.pending
	if leader {
		b = &batch{
			buf:      l.takeBuffer(),
			firstSeq: l.nextSeq,
			full:     make(chan struct{}),
			done:     make(chan struct{}),
		}
	}
	var err error
	if b.buf, err = appendFramed(b.buf, fill); err != nil {
		if leader {
			l.keepBuffer(b.buf)
		}
		return Ack{}, err
	}
	if leader {
		l.pending = b
		l.queue = append(l.queue, b)
	}
	if l.mAppends != nil {
		l.mAppends.Inc()
	}
	b.records++
	seq := l.nextSeq
	l.nextSeq++
	if b.records >= maxBatchRecords {
		// Batch is full: detach it so the next stager starts a fresh one,
		// and stop its leader yielding for more.
		l.pending = nil
		close(b.full)
	}
	return Ack{l: l, b: b, seq: seq, leader: leader}, nil
}

// Wait blocks until the staged record is durable (or its batch failed)
// and returns the batch's outcome. The batch leader performs the flush;
// followers park until the leader (or a Sync/Close barrier) releases
// them.
func (a Ack) Wait() error {
	if a.b == nil {
		return nil // written at stage time
	}
	if a.leader {
		l := a.l
		// Opportunistic coalescing: writers released by the previous
		// flush all race to stage, and the first one in would otherwise
		// flush a near-empty batch before the rest get scheduled. A few
		// yields let that cohort join this batch. This is scheduling
		// courtesy, not a timed wait — sub-millisecond timers overshoot
		// by ~1ms under load, which would cost more than it saves.
		for i := 0; i < 4; i++ {
			select {
			case <-a.b.full:
				i = 4
			case <-a.b.done: // a barrier flushed the batch for us
				i = 4
			default:
				runtime.Gosched()
			}
		}
		l.flushMu.Lock()
		flushed := l.flushBatch(a.b)
		l.flushMu.Unlock()
		if !flushed {
			<-a.b.done
		}
	} else {
		<-a.b.done
	}
	return a.b.err
}

// flushBatch makes b durable, releasing its waiters. Batches must reach
// disk in sequence order — replay derives sequence numbers from disk
// positions, so a newer batch overtaking an older one through the flush
// mutex would re-number both on recovery — so the flusher drains every
// older unflushed batch too, coalescing the whole queue prefix ending at
// b into one write+fsync. Must be called with flushMu held; reports
// whether this call performed b's flush.
//
// A failed write is repaired by writeLocked (truncate back to the
// pre-write boundary); the group's already-assigned sequence numbers are
// then rolled back and every newer staged batch is failed with it, so
// assigned sequences keep matching disk positions. If the repair itself
// fails, or fsync fails, the log goes sticky-failed instead: durability
// of bytes already handed to the kernel is unknown, which the log treats
// as unrecoverable.
func (l *Log) flushBatch(b *batch) bool {
	start := time.Now()
	l.mu.Lock()
	if b.claimed {
		l.mu.Unlock()
		return false
	}
	// b is unclaimed, so it is still queued; flushers always drain from
	// the head, so everything ahead of b is older and equally unclaimed.
	idx := 0
	for l.queue[idx] != b {
		idx++
	}
	// The group moves out of the queue, which keeps its backing array.
	l.group = append(l.group[:0], l.queue[:idx+1]...)
	group := l.group
	left := copy(l.queue, l.queue[idx+1:])
	clear(l.queue[left:])
	l.queue = l.queue[:left]
	records := 0
	for _, q := range group {
		q.claimed = true
		if l.pending == q {
			l.pending = nil
		}
		records += q.records
	}
	data := b.buf
	if len(group) > 1 {
		data = l.takeBuffer()
		for _, q := range group {
			data = append(data, q.buf...)
		}
	}
	var err error
	switch {
	case l.failed != nil:
		err = l.failed
	case l.active == nil:
		err = ErrClosed
	default:
		if err = l.writeLocked(data, group[0].firstSeq); err != nil && l.failed == nil {
			// The segment was repaired: nothing of this group is on disk.
			// Give the burned sequence numbers back, and fail every newer
			// staged batch — its assigned sequences no longer match the
			// disk positions it would land at.
			l.nextSeq = group[0].firstSeq
			abort := fmt.Errorf("wal: batch aborted by earlier write failure: %w", err)
			for _, q := range l.queue {
				q.claimed = true
				q.err = abort
				close(q.done)
			}
			clear(l.queue)
			l.queue = l.queue[:0]
			l.pending = nil
		}
	}
	if err != nil {
		l.failures++
	}
	// The write has returned, so nothing reads the group's bytes again:
	// its buffers, the join buffer first, go to the next batches.
	if len(group) > 1 {
		l.keepBuffer(data)
	}
	for _, q := range group {
		l.keepBuffer(q.buf)
		q.buf = nil
	}
	f := l.active
	l.mu.Unlock()

	if err == nil {
		if serr := l.fsync(f); serr != nil {
			err = serr
			l.mu.Lock()
			l.failed = fmt.Errorf("%w: fsync: %v", ErrFailed, serr)
			l.failures++
			l.mu.Unlock()
		}
	}
	elapsed := time.Since(start)
	if l.mFlushes != nil {
		l.mFlushes.Inc()
		l.mFlushRecords.Record(int64(records))
		l.mFlushLatency.RecordDuration(elapsed)
	}
	for i, q := range group {
		q.err = err
		close(q.done)
		group[i] = nil
	}
	if l.opts.OnFlushStall != nil && l.opts.FlushStallAfter > 0 && elapsed >= l.opts.FlushStallAfter {
		l.opts.OnFlushStall(elapsed, records)
	}
	return true
}

// Append writes payload as the next record and returns its sequence
// number. With SyncEveryAppend, a nil error means the record is on stable
// storage (group-committed with concurrent appends).
func (l *Log) Append(payload []byte) (uint64, error) {
	a, err := l.Stage(payload)
	if err != nil {
		return 0, err
	}
	if err := a.Wait(); err != nil {
		return 0, err
	}
	return a.seq, nil
}

// Sync flushes all staged batches and the active segment to stable
// storage: a durability barrier for records appended in buffered mode,
// and for staged group-commit records whose flushes are still in flight.
// A nil return means every record staged before the call is fsynced.
func (l *Log) Sync() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	var last *batch
	if n := len(l.queue); n > 0 {
		last = l.queue[n-1]
	}
	l.mu.Unlock()
	if last != nil {
		// Flushing the newest queued batch drains everything older first.
		if !l.flushBatch(last) {
			<-last.done
		}
		if last.err != nil {
			return last.err
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return l.failed
	}
	if l.active == nil {
		return ErrClosed
	}
	return l.fsync(l.active)
}

// Failures returns how many group flushes have failed since Open. A
// failed flush fails its waiters and can return its sequence numbers to
// the log, so a caller that staged records behind it — the kvstore's
// compaction — compares this count around its Sync barrier: a Sync that
// finds the queue already drained by a failing leader returns nil.
func (l *Log) Failures() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failures
}

// Replay calls fn for every record in sequence order. Replay takes a
// point-in-time snapshot of the segment list; records appended during
// replay by other goroutines may or may not be seen.
func (l *Log) Replay(fn func(seq uint64, payload []byte) error) error {
	l.mu.Lock()
	segs := append([]uint64(nil), l.segments...)
	dir := l.dir
	l.mu.Unlock()
	for i, first := range segs {
		lastSegment := i == len(segs)-1
		if err := replaySegment(filepath.Join(dir, segName(first)), first, lastSegment, fn); err != nil {
			return err
		}
	}
	return nil
}

func replaySegment(path string, first uint64, tolerateTail bool, fn func(uint64, []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	seq := first
	var hdr [headerSize]byte
	for {
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			if err == io.EOF || (errors.Is(err, io.ErrUnexpectedEOF) && tolerateTail) {
				return nil
			}
			return fmt.Errorf("%w: %s", ErrCorrupt, path)
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if length > maxRecordBytes {
			if tolerateTail {
				return nil
			}
			return fmt.Errorf("%w: %s absurd length", ErrCorrupt, path)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(f, payload); err != nil {
			if tolerateTail {
				return nil
			}
			return fmt.Errorf("%w: %s truncated payload", ErrCorrupt, path)
		}
		if crc32.Checksum(payload, castagnoli) != crc {
			if tolerateTail {
				return nil
			}
			return fmt.Errorf("%w: %s bad crc", ErrCorrupt, path)
		}
		if err := fn(seq, payload); err != nil {
			return err
		}
		seq++
	}
}

// TruncateBefore removes sealed segments whose records all precede seq,
// syncs the directory, and returns the first sequence of the oldest kept
// segment. It is used once records from seq on supersede the log prefix:
// the kvstore's compaction re-logs its live items. The active segment is
// never removed.
func (l *Log) TruncateBefore(seq uint64) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// A sealed segment's records span [first, next_first). It is safe to
	// delete when the following segment starts at or before seq.
	n := len(l.segments)
	for len(l.segments) > 1 && l.segments[1] <= seq {
		if err := os.Remove(filepath.Join(l.dir, segName(l.segments[0]))); err != nil {
			return 0, err
		}
		l.segments = l.segments[1:]
	}
	if len(l.segments) == n {
		return l.segments[0], nil
	}
	return l.segments[0], syncDir(l.dir)
}

// Close flushes all staged batches, syncs, and closes the active segment.
func (l *Log) Close() error {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	var last *batch
	if n := len(l.queue); n > 0 {
		last = l.queue[n-1]
	}
	l.mu.Unlock()
	if last != nil {
		// Drains every staged batch in order, releasing any in-flight
		// waiters before the segment goes away.
		if !l.flushBatch(last) {
			<-last.done
		}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	var err error
	if l.failed == nil {
		err = l.fsync(l.active)
	}
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	return err
}
