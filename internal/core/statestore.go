package core

import (
	"context"

	"aodb/internal/kvstore"
)

// StateStore abstracts where activation state lives. The default
// implementation is the runtime's single grain-state table; the
// replication coordinator substitutes a quorum-replicated store without
// the activation lifecycle knowing the difference. Both error contracts
// carry over from kvstore: a missing key's error matches
// kvstore.ErrNotFound, and a fenced write's matches
// kvstore.ErrVersionMismatch (which is what trips the zombie-activation
// self-deactivation in writeState).
type StateStore interface {
	// Load returns the state bytes and the version the caller's writes
	// must fence on. A missing key returns (nil, 0) and an
	// ErrNotFound-matching error, from either store: nothing deletes
	// state, so a key is missing only until its first write.
	Load(ctx context.Context, key string) (data []byte, version int64, err error)
	// Store persists data fenced on version and returns the new version.
	// A store whose failed write may still have landed somewhere (a
	// replicated store short of its quorum) returns the version that
	// attempt spent beside the error, and the caller's next write must
	// fence on it; the plain table returns zero with every error.
	Store(ctx context.Context, key string, data []byte, version int64) (int64, error)
}

// tableStateStore is the default StateStore: the runtime's grain-state
// kvstore table, preserving the exact pre-replication Get/PutIf
// behavior (and its hot-path cost).
type tableStateStore struct {
	t *kvstore.Table
}

func (s tableStateStore) Load(ctx context.Context, key string) ([]byte, int64, error) {
	it, err := s.t.Get(ctx, key)
	if err != nil {
		return nil, 0, err
	}
	return it.Value, it.Version, nil
}

func (s tableStateStore) Store(ctx context.Context, key string, data []byte, version int64) (int64, error) {
	return s.t.PutIf(ctx, key, data, version)
}
