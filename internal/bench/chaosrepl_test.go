package bench

import (
	"context"
	"testing"
	"time"

	"aodb/internal/faults"
)

// TestChaosSoakReplicated is the replication capstone: acknowledged
// ledger writes through an N=3/W=2/R=2 quorum coordinator while silos
// crash AND replica disks are wiped to nothing mid-flight. Every
// acknowledged write must survive (the surviving copies and anti-entropy
// must cover every wipe), and every client-visible error must be
// classified.
//
// The drops-only row is the fault class that used to lose writes on its
// own: with no crash, wipe or panic nothing may deactivate a ledger, so
// each activates exactly once and no write is ever fenced. The stand-ins
// row runs the full faults on N+2 silos, so every key has two live silos
// that are not its homes while one of its homes is down; strict quorums
// must not let them answer for it.
func TestChaosSoakReplicated(t *testing.T) {
	duration := 6 * time.Second
	if testing.Short() {
		duration = 2 * time.Second
	}
	full := faults.Config{
		Drop:     0.02,
		Dup:      0.01,
		Delay:    0.02,
		MaxDelay: 2 * time.Millisecond,
		KVWrite:  0.01,
		Panic:    0.005,
		Wipe:     0.75, // most wipe ticks fire (at most one rebuild at a time regardless)
	}
	for _, row := range []struct {
		name       string
		silos      int
		crashEvery time.Duration
		faults     faults.Config
		stable     bool // no crash, wipe or panic: nothing may deactivate a ledger
	}{
		{name: "full", silos: 3, crashEvery: duration / 5, faults: full},
		{name: "drops only", silos: 3, crashEvery: time.Hour, faults: faults.Config{Drop: 0.02}, stable: true},
		{name: "stand-ins", silos: 5, crashEvery: duration / 5, faults: full},
	} {
		t.Run(row.name, func(t *testing.T) {
			cfg := ReplChaosConfig{
				Silos:      row.silos,
				N:          3,
				R:          2,
				W:          2,
				Ledgers:    8,
				Clients:    8,
				Duration:   duration,
				CrashEvery: row.crashEvery,
				WipeEvery:  duration / 6,
				OpTimeout:  2 * time.Second,
				Seed:       42,
				StoreDir:   t.TempDir(),
				Durable:    true,
				Faults:     row.faults,
			}
			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
			defer cancel()
			res, err := RunChaosReplicated(ctx, cfg)
			if err != nil {
				t.Fatalf("replicated chaos harness: %v", err)
			}

			if len(res.LostWrites) != 0 {
				t.Errorf("LOST %d acknowledged replicated writes: %v", len(res.LostWrites), res.LostWrites)
				for _, e := range res.LossTimeline {
					t.Logf("%-30s %-17s %s %s", e.Time, e.Kind, e.Actor, e.Detail)
				}
			}
			if len(res.Unclassified) != 0 {
				t.Errorf("unclassified errors: %v", res.Unclassified)
			}
			if res.AckedWrites == 0 {
				t.Error("no writes were acknowledged; the soak exercised nothing")
			}
			if row.stable {
				if res.Activations != int64(cfg.Ledgers) || res.StaleFences != 0 {
					t.Errorf("activations=%d staleFences=%d, want %d and 0: nothing in this row may deactivate a ledger",
						res.Activations, res.StaleFences, cfg.Ledgers)
				}
			} else {
				if res.Crashes == 0 {
					t.Error("no silo crashes happened; the soak exercised nothing")
				}
				if res.Wipes == 0 {
					t.Error("no storage wipes happened; the soak never lost a replica disk")
				}
			}
			if res.VerifyElapsed > 30*time.Second {
				t.Errorf("healing audit took %v", res.VerifyElapsed)
			}
			t.Logf("acked=%d crashes=%d restarts=%d wipes=%d retriedOps=%d activations=%d staleFences=%d "+
				"injected(drop=%d dup=%d delay=%d kv=%d panic=%d) "+
				"readRepairs=%d divergentKeys=%d breakerTrips=%v verify=%v",
				res.AckedWrites, res.Crashes, res.Restarts, res.Wipes, res.RetriedOps, res.Activations, res.StaleFences,
				res.InjectedDrops, res.InjectedDups, res.InjectedDelays, res.InjectedKVErrs,
				res.InjectedPanics, res.ReadRepairs, res.DivergentKeys, res.BreakerTrips, res.VerifyElapsed)
		})
	}
}

// TestChaosReplicatedCalmRunIsClean: zero fault probabilities, no
// crashes, no wipes — the replicated harness itself introduces no
// errors, losses, or client retries, so soak failures are attributable
// to the injected chaos.
func TestChaosReplicatedCalmRunIsClean(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	res, err := RunChaosReplicated(ctx, ReplChaosConfig{
		Silos:      3,
		Ledgers:    2,
		Clients:    2,
		Duration:   400 * time.Millisecond,
		CrashEvery: time.Hour, // never fires inside the window
		WipeEvery:  time.Hour,
		Seed:       7,
		StoreDir:   t.TempDir(),
		Durable:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LostWrites) != 0 || len(res.Unclassified) != 0 {
		t.Fatalf("calm run dirty: lost=%v unclassified=%v", res.LostWrites, res.Unclassified)
	}
	if res.AckedWrites == 0 {
		t.Fatal("calm run acked nothing")
	}
	if res.RetriedOps != 0 {
		t.Fatalf("calm run needed %d client retries", res.RetriedOps)
	}
	if res.Wipes != 0 {
		t.Fatalf("calm run wiped %d replicas", res.Wipes)
	}
}

// TestQuorumLatencyN1FastPath pins the acceptance criterion that
// replication is pay-for-what-you-use: a single-replica (N=1)
// coordinator put through the Local-map fast path stays within 10% of a
// bare durable table put. Latency assertions are noisy in CI, so the
// bound carries slack via repetition: the check passes if any of three
// attempts lands inside the envelope.
func TestQuorumLatencyN1FastPath(t *testing.T) {
	if testing.Short() {
		t.Skip("latency measurement; skipped in -short")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const slack = 1.10
	var last QuorumLatencyResult
	for attempt := 0; attempt < 3; attempt++ {
		res, err := RunQuorumLatency(ctx, QuorumLatencyConfig{
			Silos: 1, N: 1, R: 1, W: 1,
			Ops: 3000, Dir: t.TempDir(), Durable: true,
		})
		if err != nil {
			t.Fatalf("quorum latency harness: %v", err)
		}
		last = res
		t.Logf("attempt %d: N=1 quorum p50=%v mean=%v; baseline p50=%v mean=%v",
			attempt, res.P50, res.Mean, res.BaselineP50, res.BaselineMean)
		if float64(res.P50) <= float64(res.BaselineP50)*slack {
			return
		}
	}
	t.Errorf("N=1 quorum put p50 %v exceeds baseline %v by more than %.0f%%",
		last.P50, last.BaselineP50, (slack-1)*100)
}
