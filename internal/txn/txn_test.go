package txn

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"aodb/internal/core"
)

// account is a transactional test actor holding a balance.
type account struct {
	balance int
	txn     State
}

type depositOp struct{ N int }
type withdrawOp struct{ N int }
type balanceMsg struct{}

func (a *account) Receive(ctx *core.Context, msg any) (any, error) {
	resp, handled, err := a.txn.Handle(ctx.Clock().Now(), msg, Hooks{
		Validate: func(op any) error {
			if w, ok := op.(withdrawOp); ok && a.balance < w.N {
				return fmt.Errorf("insufficient funds: have %d, want %d", a.balance, w.N)
			}
			return nil
		},
		Apply: func(op any) error {
			switch o := op.(type) {
			case depositOp:
				a.balance += o.N
			case withdrawOp:
				a.balance -= o.N
			}
			return nil
		},
	})
	if handled {
		return resp, err
	}
	switch msg.(type) {
	case balanceMsg:
		return a.balance, nil
	}
	return nil, fmt.Errorf("unknown message %T", msg)
}

func newBankRuntime(t *testing.T) (*core.Runtime, *Coordinator) {
	t.Helper()
	rt, err := core.New(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		rt.Shutdown(ctx)
	})
	if err := rt.RegisterKind("Account", func() core.Actor { return &account{} }); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddSilo("silo-1", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddSilo("silo-2", nil); err != nil {
		t.Fatal(err)
	}
	return rt, NewCoordinator(rt)
}

func balance(t *testing.T, rt *core.Runtime, key string) int {
	t.Helper()
	v, err := rt.Call(context.Background(), core.ID{Kind: "Account", Key: key}, balanceMsg{})
	if err != nil {
		t.Fatal(err)
	}
	return v.(int)
}

func transfer(c *Coordinator, from, to string, n int) error {
	return c.Run(context.Background(), []Op{
		{Target: core.ID{Kind: "Account", Key: from}, Op: withdrawOp{N: n}},
		{Target: core.ID{Kind: "Account", Key: to}, Op: depositOp{N: n}},
	})
}

func TestCommitAppliesAllOps(t *testing.T) {
	rt, c := newBankRuntime(t)
	if err := c.Run(context.Background(), []Op{
		{Target: core.ID{Kind: "Account", Key: "a"}, Op: depositOp{100}},
		{Target: core.ID{Kind: "Account", Key: "b"}, Op: depositOp{50}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := balance(t, rt, "a"); got != 100 {
		t.Fatalf("a = %d", got)
	}
	if got := balance(t, rt, "b"); got != 50 {
		t.Fatalf("b = %d", got)
	}
}

func TestValidationFailureAbortsAll(t *testing.T) {
	rt, c := newBankRuntime(t)
	if err := c.Run(context.Background(), []Op{
		{Target: core.ID{Kind: "Account", Key: "a"}, Op: depositOp{100}},
	}); err != nil {
		t.Fatal(err)
	}
	// Transfer more than b has: must abort and leave a untouched.
	err := transfer(c, "b", "a", 10)
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if got := balance(t, rt, "a"); got != 100 {
		t.Fatalf("a = %d after aborted txn, want 100", got)
	}
	if got := balance(t, rt, "b"); got != 0 {
		t.Fatalf("b = %d after aborted txn, want 0", got)
	}
}

func TestEmptyTransaction(t *testing.T) {
	_, c := newBankRuntime(t)
	if err := c.Run(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentTransfersConserveMoney(t *testing.T) {
	rt, c := newBankRuntime(t)
	ctx := context.Background()
	const accounts = 8
	const initial = 1000
	for i := 0; i < accounts; i++ {
		if err := c.Run(ctx, []Op{{Target: core.ID{Kind: "Account", Key: fmt.Sprintf("acct-%d", i)}, Op: depositOp{initial}}}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var failures int32
	var mu sync.Mutex
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				from := fmt.Sprintf("acct-%d", (w+i)%accounts)
				to := fmt.Sprintf("acct-%d", (w+i+1)%accounts)
				if err := transfer(c, from, to, 7); err != nil {
					mu.Lock()
					failures++
					mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for i := 0; i < accounts; i++ {
		total += balance(t, rt, fmt.Sprintf("acct-%d", i))
	}
	if total != accounts*initial {
		t.Fatalf("total = %d, want %d: money not conserved (failures=%d)", total, accounts*initial, failures)
	}
	// Under randomized backoff nearly all transfers should eventually
	// succeed; a high failure rate means retry logic is broken.
	if failures > 100 {
		t.Fatalf("%d of 200 transfers aborted permanently", failures)
	}
}

func TestParticipantStateLockAndLease(t *testing.T) {
	now := time.Unix(1000, 0)
	var s State
	hooks := Hooks{}
	// First txn prepares.
	if _, handled, err := s.Handle(now, Prepare{TxnID: "t1", Op: 1}, hooks); !handled || err != nil {
		t.Fatalf("prepare t1: handled=%v err=%v", handled, err)
	}
	if !s.locked(now) {
		t.Fatal("not locked after prepare")
	}
	// Second txn conflicts while the lease is live.
	if _, _, err := s.Handle(now.Add(time.Second), Prepare{TxnID: "t2", Op: 2}, hooks); !errors.Is(err, ErrConflict) {
		t.Fatalf("err = %v, want ErrConflict", err)
	}
	// After the lease expires, t2 steals the lock.
	late := now.Add(DefaultLease + time.Second)
	if _, _, err := s.Handle(late, Prepare{TxnID: "t2", Op: 2}, hooks); err != nil {
		t.Fatalf("steal after lease: %v", err)
	}
	// t1's commit must now fail: it lost the lock.
	if _, _, err := s.Handle(late, Commit{TxnID: "t1"}, hooks); !errors.Is(err, ErrNotPrepared) {
		t.Fatalf("stale commit = %v, want ErrNotPrepared", err)
	}
	// t2 commits fine.
	applied := 0
	h2 := Hooks{Apply: func(op any) error { applied = op.(int); return nil }}
	if _, _, err := s.Handle(late, Commit{TxnID: "t2"}, h2); err != nil {
		t.Fatalf("commit t2: %v", err)
	}
	if applied != 2 {
		t.Fatalf("applied = %d, want 2", applied)
	}
}

func TestAbortForeignTxnIsNoop(t *testing.T) {
	now := time.Unix(0, 0)
	var s State
	s.Handle(now, Prepare{TxnID: "t1", Op: 1}, Hooks{})
	s.Handle(now, Abort{TxnID: "other"}, Hooks{})
	if !s.locked(now) {
		t.Fatal("abort of foreign txn released the lock")
	}
	s.Handle(now, Abort{TxnID: "t1"}, Hooks{})
	if s.locked(now) {
		t.Fatal("abort of own txn did not release the lock")
	}
}

func TestReprepareSameTxnRefreshesStage(t *testing.T) {
	now := time.Unix(0, 0)
	var s State
	s.Handle(now, Prepare{TxnID: "t1", Op: 1}, Hooks{})
	if _, _, err := s.Handle(now, Prepare{TxnID: "t1", Op: 9}, Hooks{}); err != nil {
		t.Fatalf("re-prepare same txn: %v", err)
	}
	applied := 0
	s.Handle(now, Commit{TxnID: "t1"}, Hooks{Apply: func(op any) error { applied = op.(int); return nil }})
	if applied != 9 {
		t.Fatalf("applied = %d, want 9 (latest stage)", applied)
	}
}

func TestNonTxnMessagePassesThrough(t *testing.T) {
	var s State
	_, handled, _ := s.Handle(time.Unix(0, 0), "hello", Hooks{})
	if handled {
		t.Fatal("ordinary message claimed by txn state")
	}
}

// locked reports whether a transaction holds this participant at now.
func (s *State) locked(now time.Time) bool {
	return s.holder != "" && now.Before(s.expires)
}
