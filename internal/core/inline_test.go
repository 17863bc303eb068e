package core_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"aodb/internal/capacity"
	"aodb/internal/codec"
	"aodb/internal/core"
	"aodb/internal/transport"
)

// eqPeek reads an actor as eqGet does, but is core.NonBlocking, so a
// multi-actor frame runs its turns inline where a target is idle. The
// actor whose key is Panic panics, the one whose key is Bye asks to be
// deactivated once idle, and the one whose key is Asker first Calls Ask
// and adds 1000 times its value to its own.
type eqPeek struct {
	Panic, Bye, Asker string
	Ask               core.ID
}

func (eqPeek) NonBlocking() {}

func init() { codec.Register(eqPeek{}) }

func (a *eqActor) peek(ctx *core.Context, m eqPeek) (any, error) {
	key := ctx.Self().Key
	v := a.v
	switch key {
	case m.Panic:
		panic("peek: " + key)
	case m.Bye:
		ctx.DeactivateOnIdle()
	case m.Asker:
		r, err := ctx.Call(m.Ask, eqPeek{})
		if err != nil {
			return nil, err
		}
		v += 1000 * r.(eqVal).V
	}
	return eqVal{Kind: a.kind, Key: key, V: v}, nil
}

// inlined sums core.multi.inline over the harness's silo runtimes.
func (h *harness) inlined() int64 {
	seen := map[*core.Runtime]bool{}
	var n int64
	for _, rt := range h.silos {
		if !seen[rt] {
			seen[rt] = true
			n += rt.Metrics().Counter("core.multi.inline").Value()
		}
	}
	return n
}

// settle waits until no worker owns a mailbox of ids.
func (h *harness) settle(t *testing.T, ids []core.ID) {
	t.Helper()
	waitFor(t, "idle targets", func() bool {
		for _, rt := range h.silos {
			for _, id := range ids {
				if core.Busy(rt, id) {
					return false
				}
			}
		}
		return true
	})
}

// waitFor polls cond for up to 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestCallManyInline: a NonBlocking multi-actor call runs the turns of
// idle targets on the goroutine serving the frame, and answers, orders,
// fails and deactivates exactly as the worker path does.
func TestCallManyInline(t *testing.T) {
	for _, on := range []struct {
		name string
		boot func(*testing.T) *harness
	}{{"local", bootLocal}, {"tcp", bootTCP}} {
		run := func(sub string, f func(t *testing.T, h *harness, ids []core.ID)) {
			t.Run(on.name+"/"+sub, func(t *testing.T) {
				h := on.boot(t)
				ids := batch(prefixOn(t), 4)
				warm(t, h.client, ids)
				h.settle(t, ids)
				f(t, h, ids)
			})
		}

		// Every slot answers what eqGet answers on the worker path, a cold
		// target included. Every warm target runs inline; the cold one is
		// activated on a worker, and its turn runs inline only if that
		// worker has let the new mailbox go by the time of the push.
		run("answers", func(t *testing.T, h *harness, ids []core.ID) {
			cold := core.ID{Kind: "EqB", Key: ids[4].Key + "-cold"}
			all := append(append([]core.ID(nil), ids...), cold)
			ctx := context.Background()
			before := h.inlined()
			got := callMany[any](t, ctx, h.client, all, eqPeek{})
			if d := h.inlined() - before; d != int64(len(ids)) && d != int64(len(all)) {
				t.Errorf("%d turns ran inline, want the %d warm targets' and at most the cold one's", d, len(ids))
			}
			for i, want := range callMany[any](t, ctx, h.client, all, eqGet{}) {
				sameOutcome(t, all[i], got[i], want.Value, want.Err)
			}
		})

		// A target whose worker is busy with a told backlog answers after
		// that backlog, in FIFO order, and its turn stays on the worker.
		run("backlog", func(t *testing.T, h *harness, ids []core.ID) {
			ctx := context.Background()
			busy := ids[1]
			g := &gate{entered: make(chan string, 1), release: make(chan struct{})}
			curGate.Store(g)
			if err := h.client.Tell(ctx, busy, eqGet{Hold: busy.Key}); err != nil {
				t.Fatal(err)
			}
			<-g.entered
			if err := h.client.Tell(ctx, busy, eqSet{V: 42}); err != nil {
				t.Fatal(err)
			}
			before := h.inlined()
			done := make(chan []outcome, 1)
			go func() { done <- callMany[eqVal](t, ctx, h.client, ids, eqPeek{}) }()
			// Every frame has pushed all its targets once the counter moves
			// for the last of them.
			waitFor(t, "the idle targets' inline turns", func() bool { return h.inlined()-before == int64(len(ids)-1) })
			close(g.release)
			got := <-done
			for i, r := range got {
				want := i + 1
				if ids[i] == busy {
					want = 42
				}
				if r.Err != nil || r.Value.(eqVal).V != want {
					t.Errorf("%s = %+v, want V=%d", ids[i], r, want)
				}
			}
			if d := h.inlined() - before; d != int64(len(ids)-1) {
				t.Errorf("%d turns ran inline, want %d: the busy target's turn left its worker", d, len(ids)-1)
			}
		})

		// A panicking handler fails its own slot and poisons its own
		// activation; the rest of its frame answers and keeps its state.
		run("panic", func(t *testing.T, h *harness, ids []core.ID) {
			ctx := context.Background()
			bad := ids[4]
			got := callMany[any](t, ctx, h.client, ids, eqPeek{Panic: bad.Key})
			for i, r := range got {
				if ids[i] != bad {
					if r.Err != nil || r.Value.(eqVal).V != i+1 {
						t.Errorf("%s = %+v", ids[i], r)
					}
					continue
				}
				var perr *core.PanicError
				if r.Err == nil || core.Transient(r.Err) || !strings.Contains(r.Err.Error(), "panic") ||
					!h.tcp && !errors.As(r.Err, &perr) {
					t.Errorf("panicking slot: %v", r.Err)
				}
			}
			// The poisoned activation is torn down: the next call reaches a
			// fresh one, whose volatile state is new.
			for i, r := range callMany[any](t, ctx, h.client, ids, eqGet{}) {
				want := i + 1
				if ids[i] == bad {
					want = 0
				}
				if r.Err != nil || r.Value.(eqVal).V != want {
					t.Errorf("after the panic: %s = %+v, want V=%d", ids[i], r, want)
				}
			}
		})

		// DeactivateOnIdle in an inline turn tears the target down after it.
		run("deactivate", func(t *testing.T, h *harness, ids []core.ID) {
			ctx := context.Background()
			bye := ids[2]
			if home := h.home(bye); home == "" {
				t.Fatalf("%s is not active", bye)
			}
			for i, r := range callMany[any](t, ctx, h.client, ids, eqPeek{Bye: bye.Key}) {
				if r.Err != nil || r.Value.(eqVal).V != i+1 {
					t.Errorf("%s = %+v", ids[i], r)
				}
			}
			waitFor(t, bye.String()+"'s teardown", func() bool { return h.home(bye) == "" })
			for i, id := range ids {
				if id != bye && h.home(id) == "" {
					t.Errorf("%s (slot %d) was torn down too", id, i)
				}
			}
		})

		// Frames racing told writes to the same targets: a target is idle,
		// busy or flipped mid-frame, and every answer is still its own.
		run("concurrent", func(t *testing.T, h *harness, ids []core.ID) {
			ctx := context.Background()
			done := make(chan error, 6)
			for w := 0; w < 4; w++ {
				go func() {
					for round := 0; round < 50; round++ {
						vals, errs := core.CallManyOf[eqVal](ctx, h.client, ids, eqPeek{})
						for i := range ids {
							if errs != nil && errs[i] != nil || vals[i].V != i+1 {
								done <- fmt.Errorf("round %d: %s = %+v, %v", round, ids[i], vals[i], errs)
								return
							}
						}
					}
					done <- nil
				}()
			}
			for w := 0; w < 2; w++ {
				go func() {
					for round := 0; round < 50; round++ {
						for i, id := range ids {
							if err := h.client.Tell(ctx, id, eqSet{V: i + 1}); err != nil {
								done <- err
								return
							}
						}
					}
					done <- nil
				}()
			}
			for range 6 {
				if err := <-done; err != nil {
					t.Error(err)
				}
			}
		})

		// A handler that does Call a later target of its own frame finds it
		// not yet pushed, so the call completes instead of deadlocking.
		run("calls-later-target", func(t *testing.T, h *harness, ids []core.ID) {
			asker, asked := ids[1], ids[4] // both on silo-2, in one frame
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for i, r := range callMany[any](t, ctx, h.client, ids, eqPeek{Asker: asker.Key, Ask: asked}) {
				want := i + 1
				if ids[i] == asker {
					want += 1000 * 5
				}
				if r.Err != nil || r.Value.(eqVal).V != want {
					t.Errorf("%s = %+v, want V=%d", ids[i], r, want)
				}
			}
		})
	}
}

// TestCallManyLimitedSiloUsesWorkers: on a silo with a capacity limiter a
// turn sleeps its modeled cost, so even a NonBlocking frame hands every
// turn to a worker; run in series, the sleeps would add up.
func TestCallManyLimitedSiloUsesWorkers(t *testing.T) {
	rt, err := core.New(core.Config{Transport: transport.NewLocal(nil, nil), Placement: newHash()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { shutdown(rt) })
	registerEq(t, rt)
	if _, err := rt.AddSilo("silo-1", capacity.NewLimiter(capacity.M5Large, rt.Clock())); err != nil {
		t.Fatal(err)
	}
	ids := make([]core.ID, 20)
	for i := range ids {
		ids[i] = core.ID{Kind: eqKinds[i%2], Key: fmt.Sprintf("lim@%d", i)}
	}
	warm(t, rt, ids)
	inline := rt.Metrics().Counter("core.multi.inline")
	for i, r := range callMany[eqVal](t, context.Background(), rt, ids, eqPeek{}) {
		if r.Err != nil || r.Value.(eqVal).V != i+1 {
			t.Errorf("%s = %+v", ids[i], r)
		}
	}
	if n := inline.Value(); n != 0 {
		t.Errorf("a limited silo ran %d turns inline, want 0", n)
	}
}
