package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"

	"aodb/internal/core"
	"aodb/internal/kvstore"
	"aodb/internal/replication"
	"aodb/internal/shm"
)

// checkSample is how many sensors the post-run checks visit.
const checkSample = 100

// check runs after the drain barrier: for a seeded sample of sensors the
// sensor's packet count must equal its acked inserts and each channel must
// end with the last value the generator sent. On the durable workload the
// same sample is then audited against a crash copy of the stores. It
// returns the number of checks made; failures are counted on the client.
func check(ctx context.Context, g *generator, seed int64, res *Result) (int64, error) {
	c := g.clients[0]
	rng := rand.New(rand.NewSource(seed))
	n := checkSample
	if n > len(g.sensors) {
		n = len(g.sensors)
	}
	sample := rng.Perm(len(g.sensors))[:n]
	var checks int64
	for _, s := range sample {
		checks++
		id := core.ID{Kind: shm.KindSensor, Key: g.d.keys[s]}
		v, err := g.d.runtimes[0].Call(ctx, id, shm.GetSensorInfo{})
		if err != nil {
			c.fail(err)
			continue
		}
		if got := v.(shm.SensorInfo).Packets; got != int64(g.sensors[s].sent) {
			c.fail(fmt.Errorf("%s: %d packets, want %d acked inserts", id, got, g.sensors[s].sent))
		}
		for ch := 0; ch < channelsPerSens; ch++ {
			checks++
			if err := c.raw(ctx, s, ch, 1); err != nil {
				c.fail(err)
			}
		}
	}
	if !g.d.spec.durable {
		return checks, nil
	}
	lost, audited, err := crashCopyAudit(ctx, g, sample)
	if err != nil {
		return checks, fmt.Errorf("crash-copy audit: %w", err)
	}
	res.Notes["lost_acked_writes"] = float64(lost)
	for i := 0; i < lost; i++ {
		c.fail(fmt.Errorf("crash-copy audit: %d of %d sampled channel states not on a write quorum of store copies", lost, audited))
	}
	return checks + int64(audited), nil
}

// crashCopyAudit copies the silos' store directories while the silos are
// still running, reopens the copies, and requires that for every sampled
// channel that received data at least a write quorum of the copies holds
// a state ending with the last value sent. The process was not shut
// down, so only bytes already written count.
func crashCopyAudit(ctx context.Context, g *generator, sample []int) (lost, audited int, err error) {
	const writeQuorum = 2
	var tables []*kvstore.Table
	for i, dir := range g.d.storeDirs {
		dst := filepath.Join(g.d.dir, fmt.Sprintf("crash-copy-%d", i))
		if err := copyTree(dir, dst); err != nil {
			return 0, 0, err
		}
		store, err := kvstore.Open(kvstore.Options{Dir: dst})
		if err != nil {
			return 0, 0, err
		}
		defer store.Close()
		table, err := store.Table("grains")
		if err != nil {
			return 0, 0, err
		}
		tables = append(tables, table)
	}
	for _, s := range sample {
		if g.sensors[s].sent == 0 {
			continue
		}
		for ch := 0; ch < channelsPerSens; ch++ {
			audited++
			id := core.ID{Kind: shm.KindPhysicalChannel, Key: shm.ChannelKey(g.d.keys[s], ch)}
			holders := 0
			for _, table := range tables {
				if lastStoredValue(ctx, table, id.String()) == g.sensors[s].last[ch] {
					holders++
				}
			}
			if holders < writeQuorum {
				lost++
			}
		}
	}
	return lost, audited, nil
}

// lastStoredValue decodes a replicated channel state and returns the
// value of its newest point, or -1 (never generated) when the key is
// absent or unreadable.
func lastStoredValue(ctx context.Context, table *kvstore.Table, key string) float64 {
	item, err := table.Get(ctx, key)
	if err != nil {
		return -1
	}
	env, err := replication.DecodeEnvelope(item.Value)
	if err != nil {
		return -1
	}
	var state struct{ Window []shm.DataPoint }
	if err := json.Unmarshal(env.Value, &state); err != nil || len(state.Window) == 0 {
		return -1
	}
	return state.Window[len(state.Window)-1].Value
}

func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if e.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// dirBytes is the total size of the regular files under the directories.
func dirBytes(dirs []string) (int64, error) {
	var total int64
	for _, dir := range dirs {
		err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() {
				return err
			}
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return total, nil
}
