package bench

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"aodb/internal/core"
	"aodb/internal/kvstore"
)

var errRefused = errors.New("ledger: refused outside the taxonomy")

// lossyLedger is a ledger that acks seq drop without keeping it and
// answers seq refuse with an error no soak classifies.
type lossyLedger struct {
	ledgerActor
	drop, refuse uint64
}

func (l *lossyLedger) Receive(ctx *core.Context, msg any) (any, error) {
	if m, ok := msg.(ledgerPut); ok {
		switch m.Seq {
		case l.drop:
			return true, nil
		case l.refuse:
			return nil, errRefused
		}
	}
	return l.ledgerActor.Receive(ctx, msg)
}

// TestAuditReportsLoss checks the oracle every soak trusts: fed a ledger
// that loses one acknowledged write and refuses another with an
// unclassified error, the shared audit must report exactly that seq lost
// and that error unclassified. Without it a soak could pass while
// losing writes.
func TestAuditReportsLoss(t *testing.T) {
	const drop, refuse = 3, 5
	store, err := kvstore.Open(kvstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	rt, err := core.New(core.Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = rt.Shutdown(shCtx)
	}()
	if err := rt.RegisterKind("Ledger", func() core.Actor { return &lossyLedger{drop: drop, refuse: refuse} },
		core.WithPersistence(core.PersistExplicit)); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.AddSilo("silo-1", nil); err != nil {
		t.Fatal(err)
	}

	// One writer, so seqs 1..refuse are settled before refuse+1 is drawn.
	ctx, cancel := context.WithCancel(context.Background())
	load := &ledgerLoad{rt: rt, ledgers: 2, opTimeout: time.Second, classified: classified}
	load.start(ctx, 1)
	for stuck := time.Now().Add(10 * time.Second); load.seq.Load() <= refuse; time.Sleep(time.Millisecond) {
		if time.Now().After(stuck) {
			cancel()
			t.Fatalf("the writer never got past seq %d", load.seq.Load())
		}
	}
	cancel()
	load.clients.Wait()

	res, _, err := load.audit(context.Background(), time.Now().Add(10*time.Second))
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if !reflect.DeepEqual(res.LostWrites, []uint64{drop}) {
		t.Errorf("LostWrites = %v, want [%d]", res.LostWrites, drop)
	}
	if len(res.Unclassified) != 1 || !strings.Contains(res.Unclassified[0], errRefused.Error()) {
		t.Errorf("Unclassified = %q, want the one refusal %q", res.Unclassified, errRefused)
	}
	if res.AckedWrites < refuse-1 {
		t.Errorf("AckedWrites = %d, want at least %d", res.AckedWrites, refuse-1)
	}
	if res.Failed() == nil {
		t.Error("Failed() passes a run that lost a write")
	}
}
