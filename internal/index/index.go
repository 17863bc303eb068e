// Package index provides hash indexes over actor attributes, following
// the AODB vision the paper builds on (Bernstein et al.'s "Indexing in an
// Actor-Oriented Database"): secondary indexes over actor state are
// themselves maintained as actors inside the runtime.
//
// An Index maps attribute values to sets of actor keys and is sharded
// across several index actors by value hash, so index maintenance scales
// with the cluster like any other actor workload. Maintenance can be
// eager (the indexed actor updates the index inside its own turn before
// answering, so readers never observe a stale entry for single-writer
// attributes) or deferred via one-way Tell for eventually consistent
// indexes — both variants appear in the AODB indexing literature.
package index

import (
	"context"
	"fmt"
	"sort"

	"aodb/internal/core"
	"aodb/internal/placement"
)

// Kind is the actor kind implementing index shards. Register it once per
// runtime with RegisterKind.
const Kind = "sys.index"

// RegisterKind installs the index shard actor kind on rt.
func RegisterKind(rt *core.Runtime) error {
	return rt.RegisterKind(Kind, func() core.Actor { return &shardActor{} })
}

// Messages handled by index shard actors.
type (
	// Add inserts actor under value.
	Add struct {
		Value string
		Actor string
	}
	// Remove deletes actor from value's posting list.
	Remove struct {
		Value string
		Actor string
	}
	// Lookup returns the posting list for value ([]string, sorted).
	Lookup struct {
		Value string
	}
	// Values returns every distinct indexed value on this shard.
	Values struct{}
	// Stats returns the shard's entry count.
	Stats struct{}
)

// shardActor holds one shard of an index's postings.
type shardActor struct {
	postings map[string]map[string]struct{} // value -> set of actor keys
}

func (s *shardActor) OnActivate(*core.Context) error {
	s.postings = make(map[string]map[string]struct{})
	return nil
}

func (s *shardActor) Receive(_ *core.Context, msg any) (any, error) {
	switch m := msg.(type) {
	case Add:
		set, ok := s.postings[m.Value]
		if !ok {
			set = make(map[string]struct{})
			s.postings[m.Value] = set
		}
		set[m.Actor] = struct{}{}
		return nil, nil
	case Remove:
		if set, ok := s.postings[m.Value]; ok {
			delete(set, m.Actor)
			if len(set) == 0 {
				delete(s.postings, m.Value)
			}
		}
		return nil, nil
	case Lookup:
		set := s.postings[m.Value]
		out := make([]string, 0, len(set))
		for a := range set {
			out = append(out, a)
		}
		sort.Strings(out)
		return out, nil
	case Values:
		out := make([]string, 0, len(s.postings))
		for v := range s.postings {
			out = append(out, v)
		}
		sort.Strings(out)
		return out, nil
	case Stats:
		n := 0
		for _, set := range s.postings {
			n += len(set)
		}
		return n, nil
	default:
		return nil, fmt.Errorf("index: unknown message %T", msg)
	}
}

// Index is a client handle for one named index.
type Index struct {
	rt     *core.Runtime
	name   string
	shards int
}

// New returns a handle for the index called name, sharded shards ways
// (minimum 1). All handles with the same name and shard count address the
// same index actors.
func New(rt *core.Runtime, name string, shards int) *Index {
	if shards < 1 {
		shards = 1
	}
	return &Index{rt: rt, name: name, shards: shards}
}

func (ix *Index) shardID(value string) core.ID {
	return core.ID{Kind: Kind, Key: fmt.Sprintf("%s/%d", ix.name, placement.Hash32(value)%uint32(ix.shards))}
}

// Add indexes actor under value, waiting for the write to apply (eager
// maintenance).
func (ix *Index) Add(ctx context.Context, value, actor string) error {
	_, err := ix.rt.Call(ctx, ix.shardID(value), Add{Value: value, Actor: actor})
	return err
}

// Remove deletes actor from value's posting list.
func (ix *Index) Remove(ctx context.Context, value, actor string) error {
	_, err := ix.rt.Call(ctx, ix.shardID(value), Remove{Value: value, Actor: actor})
	return err
}

// Update moves actor from oldValue to newValue, the common pattern when an
// indexed attribute changes.
func (ix *Index) Update(ctx context.Context, oldValue, newValue, actor string) error {
	if oldValue == newValue {
		return nil
	}
	if oldValue != "" {
		if err := ix.Remove(ctx, oldValue, actor); err != nil {
			return err
		}
	}
	if newValue != "" {
		return ix.Add(ctx, newValue, actor)
	}
	return nil
}

// Lookup returns the sorted actor keys indexed under value.
func (ix *Index) Lookup(ctx context.Context, value string) ([]string, error) {
	v, err := ix.rt.Call(ctx, ix.shardID(value), Lookup{Value: value})
	if err != nil {
		return nil, err
	}
	return v.([]string), nil
}

// AllValues returns every distinct value present in the index, merged
// across shards.
func (ix *Index) AllValues(ctx context.Context) ([]string, error) {
	var out []string
	for i := 0; i < ix.shards; i++ {
		id := core.ID{Kind: Kind, Key: fmt.Sprintf("%s/%d", ix.name, i)}
		v, err := ix.rt.Call(ctx, id, Values{})
		if err != nil {
			return nil, err
		}
		out = append(out, v.([]string)...)
	}
	sort.Strings(out)
	return out, nil
}

// Size returns the total number of (value, actor) entries.
func (ix *Index) Size(ctx context.Context) (int, error) {
	total := 0
	for i := 0; i < ix.shards; i++ {
		id := core.ID{Kind: Kind, Key: fmt.Sprintf("%s/%d", ix.name, i)}
		v, err := ix.rt.Call(ctx, id, Stats{})
		if err != nil {
			return 0, err
		}
		total += v.(int)
	}
	return total, nil
}
