// Package replication replicates actor state across silos with tunable
// consistency — the Dynamo-style storage tier the ROADMAP's top open item
// calls for, specialized to the actor model's single-writer-per-key
// discipline.
//
// The pieces:
//
//   - a consistent-hash ring with virtual nodes (Ring) maps every key to
//     an N-silo home set, stable across silo outages;
//   - per-silo replica stores (Store) hold versioned envelopes in the
//     WAL-backed kvstore and apply mutations if-newer, idempotently;
//   - a quorum Coordinator performs durable puts/gets/deletes against
//     strict R-of-N / W-of-N quorums of the key's home replicas, with
//     read-repair on quorum reads and a background anti-entropy sweep
//     (Sweeper) for convergence;
//   - deletes are tombstones with a TTL, reclaimed lazily by the
//     kvstore's existing TTL machinery.
//
// Versions are (fencing epoch, mutation seq) pairs, not vector clocks:
// each actor key has one writer at a time (its activation), so the only
// concurrent-writer case is a failover race between a zombie activation
// and its successor. The successor loads state at epoch E and writes at
// E+1; with a write quorum W > N/2 the overlap replica rejects the
// zombie's lower-versioned writes, which is exactly the fence PR 1
// established with kvstore conditional puts — generalized to quorums.
package replication

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"time"
)

// Version orders replicated mutations: the activation fencing epoch
// first, then the per-epoch mutation sequence. The zero Version orders
// below every write.
type Version struct {
	Epoch uint32
	Seq   uint32
}

// Packed folds the version into one int64 (epoch in the high 32 bits),
// the currency of core's activation state fencing.
func (v Version) Packed() int64 { return int64(v.Epoch)<<32 | int64(v.Seq) }

// Unpack is the inverse of Packed.
func Unpack(p int64) Version {
	return Version{Epoch: uint32(uint64(p) >> 32), Seq: uint32(uint64(p) & 0xffffffff)}
}

// Compare returns -1, 0, or 1 as v orders before, equal to, or after o.
func (v Version) Compare(o Version) int {
	switch {
	case v.Epoch != o.Epoch:
		if v.Epoch < o.Epoch {
			return -1
		}
		return 1
	case v.Seq != o.Seq:
		if v.Seq < o.Seq {
			return -1
		}
		return 1
	}
	return 0
}

func (v Version) String() string { return fmt.Sprintf("e%d.s%d", v.Epoch, v.Seq) }

// Envelope is one replicated value as stored in a replica table: the
// version that ordered it, a tombstone marker for deletes, an absolute
// expiry for tombstone reclamation, and the payload bytes.
type Envelope struct {
	Version   Version
	Tombstone bool
	// Expires, non-zero only on tombstones, is the absolute reclamation
	// deadline. Carrying the absolute time (not a TTL) keeps replicas
	// that receive the tombstone late from extending its life.
	Expires time.Time
	Value   []byte
}

const envTombstone = 1 << 0

// errEnvelope reports replica bytes that do not decode as an envelope.
var errEnvelope = errors.New("replication: malformed envelope")

// Encode renders the envelope to the bytes a replica table stores.
func (e Envelope) Encode() []byte {
	buf := make([]byte, 0, 1+4*binary.MaxVarintLen64+len(e.Value))
	var flags byte
	if e.Tombstone {
		flags |= envTombstone
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(e.Version.Epoch))
	buf = binary.AppendUvarint(buf, uint64(e.Version.Seq))
	var exp int64
	if !e.Expires.IsZero() {
		exp = e.Expires.UnixNano()
	}
	buf = binary.AppendVarint(buf, exp)
	buf = append(buf, e.Value...)
	return buf
}

// DecodeEnvelope parses replica-table bytes back into an Envelope.
func DecodeEnvelope(b []byte) (Envelope, error) {
	if len(b) < 1 {
		return Envelope{}, errEnvelope
	}
	e := Envelope{Tombstone: b[0]&envTombstone != 0}
	rest := b[1:]
	epoch, n := binary.Uvarint(rest)
	if n <= 0 {
		return Envelope{}, errEnvelope
	}
	rest = rest[n:]
	seq, n := binary.Uvarint(rest)
	if n <= 0 {
		return Envelope{}, errEnvelope
	}
	rest = rest[n:]
	exp, n := binary.Varint(rest)
	if n <= 0 {
		return Envelope{}, errEnvelope
	}
	rest = rest[n:]
	e.Version = Version{Epoch: uint32(epoch), Seq: uint32(seq)}
	if exp != 0 {
		e.Expires = time.Unix(0, exp)
	}
	e.Value = append([]byte(nil), rest...)
	return e, nil
}

// Equal reports whether two envelopes carry the same version and bytes —
// the idempotent-duplicate test the apply path uses to accept retried
// writes without treating them as conflicts.
func (e Envelope) Equal(o Envelope) bool {
	return e.Version == o.Version && e.Tombstone == o.Tombstone && bytes.Equal(e.Value, o.Value)
}
