package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"aodb/internal/codec"
	"aodb/internal/codec/codectest"
	"aodb/internal/core"
	"aodb/internal/shm"
)

// TestCallManyRoutesAsCall: CallMany renders all its targets into one
// string and resolves each by a slice of it, so every target must reach
// the silo a single Call reaches, whatever the targets before it look
// like — other kinds, other key lengths, invalid ids, an unknown kind. The
// targets are cold: each is placed by its key alone, and a slice taken at
// the wrong offset places it by some other string.
func TestCallManyRoutesAsCall(t *testing.T) {
	ids := []core.ID{{Kind: "Bad/Kind", Key: "an-invalid-target-first"}}
	for i := 0; i < 30; i++ {
		ids = append(ids, core.ID{Kind: eqKinds[i%2], Key: fmt.Sprintf("%s-%d", strings.Repeat("k", 1+i*7%23), i)})
		switch i {
		case 11:
			ids = append(ids, core.ID{Kind: "", Key: "an-invalid-target-in-the-middle"})
		case 19:
			ids = append(ids, core.ID{Kind: "Nope", Key: "a-target-of-an-unknown-kind"})
		}
	}
	ctx := context.Background()
	many := bootLocal(t)
	got := many.client.CallMany(ctx, ids, eqGet{})
	single := bootLocal(t)
	silos := map[string]bool{}
	for i, id := range ids {
		want, wantErr := single.client.Call(ctx, id, eqGet{})
		if wantErr != nil {
			if got[i].Err == nil || got[i].Err.Error() != wantErr.Error() ||
				errors.Is(got[i].Err, core.ErrUnknownKind) != errors.Is(wantErr, core.ErrUnknownKind) {
				t.Errorf("%q: CallMany err = %v, Call err = %v", id, got[i].Err, wantErr)
			}
			continue
		}
		if got[i].Err != nil || got[i].Value != want {
			t.Errorf("%s: CallMany = %+v, Call = %+v", id, got[i], want)
		}
		home := single.home(id)
		if at := many.home(id); at != home {
			t.Errorf("%s: CallMany ran it on %q, Call on %q", id, at, home)
		}
		silos[home] = true
	}
	if len(silos) != len(siloNames) {
		t.Errorf("targets placed on %d silos, want %d", len(silos), len(siloNames))
	}
}

// TestMultiReplyDecodeAllocs pins what a LiveData reply costs the client
// to decode: a 210-slot multiReply of DataPoints travels as a run and
// decodes into the reply's box, one []DataPoint and that slice's box — 3,
// where the per-slot form cost a box a slot (212).
func TestMultiReplyDecodeAllocs(t *testing.T) {
	at := time.Date(2026, 7, 5, 10, 0, 0, 0, time.UTC)
	values := make([]any, 210)
	for i := range values {
		values[i] = shm.DataPoint{At: at.Add(time.Duration(i) * time.Second), Value: float64(i) + 0.5}
	}
	f := &codec.Frame{Kind: codec.FrameResponse, Payload: core.MultiReply(values)}
	const most = 3.3 // measured 3, + 10 %
	if got := codectest.RoundTripAllocs(t, f); got > most {
		t.Errorf("210-slot DataPoint reply: %.0f allocations a round trip, want at most %.1f", got, most)
	} else {
		t.Logf("210-slot DataPoint reply: %.0f allocations a round trip", got)
	}
}
