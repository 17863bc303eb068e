// Package replication replicates actor state across silos with tunable
// consistency — the Dynamo-style storage tier the ROADMAP's top open item
// calls for, specialized to the actor model's single-writer-per-key
// discipline.
//
// The pieces:
//
//   - the placement ring (placement.Ring), which also places actor
//     families, maps every key to an N-silo home set, stable across silo
//     outages;
//   - per-silo replica stores (Store) hold versioned envelopes in the
//     WAL-backed kvstore and apply mutations if-newer, idempotently;
//   - a quorum Coordinator performs durable puts and gets against
//     strict R-of-N / W-of-N quorums of the key's home replicas, with
//     read-repair on quorum reads and a background anti-entropy sweep
//     (Sweeper) for convergence.
//
// Nothing deletes a key: actor state, once written, is only ever
// superseded by a higher version, so there are no tombstones to
// replicate or reclaim.
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
// version that ordered it and the payload bytes.
type Envelope struct {
	Version Version
	Value   []byte
}

// errEnvelope reports replica bytes that do not decode as an envelope.
var errEnvelope = errors.New("replication: malformed envelope")

// Encode renders the envelope to the bytes a replica table stores: a
// zero flag byte, the epoch and sequence as uvarints, a zero expiry
// varint, then the value. The two zero fields keep the layout of the
// envelopes already stored.
func (e Envelope) Encode() []byte {
	buf := make([]byte, 0, 2+2*binary.MaxVarintLen32+len(e.Value))
	buf = append(buf, 0)
	buf = binary.AppendUvarint(buf, uint64(e.Version.Epoch))
	buf = binary.AppendUvarint(buf, uint64(e.Version.Seq))
	buf = append(buf, 0)
	buf = append(buf, e.Value...)
	return buf
}

// DecodeEnvelope parses replica-table bytes back into an Envelope. A
// non-zero flag byte or expiry is not an envelope this package writes.
// The envelope is a view: its Value aliases b, so it holds only as long
// as b is not written to. A caller that keeps Value past the life of a
// buffer it does not own copies it.
func DecodeEnvelope(b []byte) (Envelope, error) {
	if len(b) < 1 || b[0] != 0 {
		return Envelope{}, errEnvelope
	}
	var e Envelope
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
	if len(rest) < 1 || rest[0] != 0 {
		return Envelope{}, errEnvelope
	}
	rest = rest[1:]
	e.Version = Version{Epoch: uint32(epoch), Seq: uint32(seq)}
	if len(rest) > 0 {
		e.Value = rest
	}
	return e, nil
}

// Equal reports whether two envelopes carry the same version and bytes —
// the idempotent-duplicate test the apply path uses to accept retried
// writes without treating them as conflicts.
func (e Envelope) Equal(o Envelope) bool {
	return e.Version == o.Version && bytes.Equal(e.Value, o.Value)
}
