package replication

import (
	"bytes"
	"testing"

	"aodb/internal/codec"
	"aodb/internal/codec/codectest"
)

// wireEnvelope is a stored envelope around a size-byte state.
func wireEnvelope(size int) []byte {
	return Envelope{Version: Version{Epoch: 3, Seq: 41}, Value: bytes.Repeat([]byte(`{"Window":1}`), size/12)}.Encode()
}

// TestWireEqualsGob: the quorum write and read RPCs decode from their
// binary form to what a gob round trip gives.
func TestWireEqualsGob(t *testing.T) {
	for _, v := range []any{
		rpcApply{}, rpcApply{Key: "k", Env: []byte{}}, rpcApply{Key: "PhysicalChannel/org-1@sensor-2/ch-0", Env: wireEnvelope(2048)},
		rpcApplyResp{}, rpcApplyResp{Outcome: uint8(Applied)}, rpcApplyResp{Outcome: 255},
		rpcFetch{}, rpcFetch{Key: "Sensor/org-1@sensor-2"},
		rpcFetchResp{}, rpcFetchResp{Found: true}, rpcFetchResp{Found: true, Env: wireEnvelope(2048)},
	} {
		codectest.EqualsGob(t, v)
	}
}

// TestReplicaApplyAllocs holds the cost of a replica write's frame in
// tier-1: target key, state key, envelope bytes and the boxed message.
func TestReplicaApplyAllocs(t *testing.T) {
	f := &codec.Frame{Kind: codec.FrameRequest, TargetKind: TargetKind, TargetKey: "silo-2", Method: "call", Sender: "silo-1",
		Payload: rpcApply{Key: "PhysicalChannel/org-1@sensor-2/ch-0", Env: wireEnvelope(2048)}}
	if got := codectest.RoundTripAllocs(t, f); got > 5 {
		t.Errorf("replica apply: %.0f allocations a round trip, want at most 5", got)
	} else {
		t.Logf("replica apply: %.0f allocations a round trip", got)
	}
}
