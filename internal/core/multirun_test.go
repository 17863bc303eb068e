package core_test

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"aodb/internal/cluster"
	"aodb/internal/codec"
	"aodb/internal/codec/codectest"
	"aodb/internal/core"
	"aodb/internal/shm"
	"aodb/internal/transport"
)

// runTypes are the slot value types the run-form tests cover, in the order
// testdata/multireply-0x41.frames holds them.
var runTypes = []string{"DataPoint", "int64", "string", "RangeQuery"}

// runValue is slot i's value of a reply of typ; slot 0 holds the type's
// zero value. The golden frames were written from these values.
func runValue(typ string, i int) any {
	at := time.Date(2026, 7, 5, 10, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second)
	switch typ {
	case "DataPoint":
		if i == 0 {
			return shm.DataPoint{}
		}
		return shm.DataPoint{At: at, Value: float64(i) + 0.5}
	case "int64":
		return int64(i*i - 300*i)
	case "string":
		if i == 0 {
			return ""
		}
		return fmt.Sprintf("org-3@sensor-%d/ch-%d", i/2, i%2)
	case "RangeQuery":
		if i == 0 {
			return shm.RangeQuery{}
		}
		return shm.RangeQuery{From: at, To: at.Add(time.Hour)}
	}
	panic(typ)
}

func runValues(typ string, n int) []any {
	vs := make([]any, n)
	for i := range vs {
		vs[i] = runValue(typ, i)
	}
	return vs
}

// TestMultiReplyRunForm: replies of DataPoints, int64s, strings and a
// registered struct — one slot holding the zero value, and 600 slots —
// travel in the run form and decode to the per-target values the per-slot
// form gives. The per-slot frames in testdata were written by the code
// before the run form existed (0x41), and must still decode.
func TestMultiReplyRunForm(t *testing.T) {
	raw, err := os.ReadFile("testdata/multireply-0x41.frames")
	if err != nil {
		t.Fatal(err)
	}
	golden := codec.NewBufferedStream(bytes.NewBuffer(raw), 0)
	at := len(codectest.Encode(t, nil)) - 1
	for _, typ := range runTypes {
		for _, n := range []int{1, 600} {
			f, err := golden.Read()
			if err != nil {
				t.Fatalf("golden %d-slot %s reply: %v", n, typ, err)
			}
			perSlot, run := core.ReplyValues(f.Payload)
			if run || len(perSlot) != n {
				t.Fatalf("golden %d-slot %s reply decoded as %d slots (run %v)", n, typ, len(perSlot), run)
			}
			want := runValues(typ, n)
			reply := core.MultiReply(want)
			if tag := codectest.Encode(t, reply)[at]; tag != 0x42 {
				t.Errorf("%d-slot %s reply: tag %#x, want the run form 0x42", n, typ, tag)
			}
			got, run := core.ReplyValues(codectest.StreamRoundTrip(t, reply))
			if !run || len(got) != n {
				t.Fatalf("%d-slot %s reply came back as %d slots (run %v)", n, typ, len(got), run)
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], perSlot[i]) || !reflect.DeepEqual(perSlot[i], want[i]) {
					t.Errorf("%s slot %d of %d: run %#v, per-slot %#v, sent %#v", typ, i, n, got[i], perSlot[i], want[i])
				}
			}
		}
	}
	if _, err := golden.Read(); err != io.EOF {
		t.Errorf("golden frames: %v after the last, want io.EOF", err)
	}
}

// TestCallManyOfAllocs holds a LiveData over TCP in tier-1, from the
// client's side: 210 channel targets across a TCP pair, answered by a silo
// stand-in that returns one prepared channel list and one prepared
// 210-slot DataPoint reply, so what is counted is the client's call plus
// one frame each way. It guards CallManyOf alone and Platform.LiveData,
// which calls it; the bounds are the counts measured once send requests
// and reply channels were recycled (13 and 21; 15 and 25 before), plus
// 10 %.
func TestCallManyOfAllocs(t *testing.T) {
	codectest.SkipUnderRace(t)
	silo, err := transport.NewTCPWithOptions("silo-1", "127.0.0.1:0", transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer silo.Close()
	client, err := transport.NewTCPWithOptions("client", "127.0.0.1:0", transport.TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	client.SetPeer("silo-1", silo.Addr())
	const n = 210
	channels := make([]string, n)
	ids := make([]core.ID, n)
	for i := range ids {
		channels[i] = shm.ChannelKey(shm.SensorKey(shm.OrgKey(0), i/2), i%2)
		ids[i] = core.ID{Kind: shm.KindPhysicalChannel, Key: channels[i]}
	}
	reply := core.MultiReply(runValues("DataPoint", n))
	if err := silo.Register("silo-1", func(_ context.Context, req transport.Request) (any, error) {
		if req.TargetKind == shm.KindOrganization {
			return channels, nil
		}
		return reply, nil
	}); err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(core.Config{Transport: client, View: cluster.NewStaticView("silo-1")})
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(rt)
	p, err := shm.NewPlatform(rt, shm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	typed := func() {
		points, errs := core.CallManyOf[shm.DataPoint](ctx, rt, ids, shm.Latest{})
		if errs != nil || points[n-1] != runValue("DataPoint", n-1) {
			t.Fatalf("CallManyOf: %v", errs)
		}
	}
	live := func() {
		readings, err := p.LiveData(ctx, shm.OrgKey(0))
		if err != nil || len(readings) != n {
			t.Fatalf("LiveData: %d readings, %v", len(readings), err)
		}
	}
	for _, c := range []struct {
		name string
		call func()
		most float64
	}{
		{"CallManyOf", typed, 14.3}, // measured 13, + 10 %
		{"LiveData", live, 23.1},    // measured 21, + 10 %
	} {
		c.call()
		got := testing.AllocsPerRun(100, c.call)
		if got > c.most {
			t.Errorf("a %d-target %s over TCP: %.0f allocations, want at most %.1f", n, c.name, got, c.most)
		} else {
			t.Logf("a %d-target %s over TCP: %.0f allocations", n, c.name, got)
		}
	}
}
