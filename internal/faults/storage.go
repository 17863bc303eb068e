package faults

import (
	"os"
	"path/filepath"
)

// Replica-storage faults: total storage loss (StorageWipe). The wipe
// rides the same seeded decision machinery as the message and kvstore
// faults, so a chaos soak that wipes replicas reproduces exactly under
// its seed.

// WipeDecision consults the seeded "wipe:<silo>" fault point: whether
// this consultation should wipe the silo's replica storage. The harness
// owns the mechanics (close store, StorageWipe the directory, reopen);
// the injector only supplies reproducible timing.
func (i *Injector) WipeDecision(silo string) bool {
	fire, _ := i.decide("wipe:"+silo, i.cfgWipe())
	return fire
}

func (i *Injector) cfgWipe() float64 {
	if i == nil {
		return 0
	}
	return i.cfg.Wipe
}

// StorageWipe destroys a replica's persistent storage: every WAL
// segment and snapshot under dir is removed, while dir itself remains
// so the store can be recreated in place. This models losing a disk,
// the failure replication exists to survive — after a wipe the silo
// must recover its state from its peers (anti-entropy and read-repair),
// not from local media.
func StorageWipe(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return nil
}
