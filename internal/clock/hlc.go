package clock

import (
	"fmt"
	"sync/atomic"
	"time"
)

// HLC is a hybrid logical clock timestamp: 48 bits of physical time in
// milliseconds since the Unix epoch, packed above a 16-bit logical
// counter. Packing into one uint64 keeps HLC comparison a plain integer
// compare, makes the zero value "no timestamp", and lets the codec ship
// it as a flat field (the same dependency-free treatment trace IDs get).
//
// The ordering guarantee is the classic HLC one (Kulkarni et al.): if
// event a happens-before event b (same process, or a's timestamp was
// observed before b was stamped), then HLC(a) < HLC(b). Timestamps stay
// within ~one NTP error bound of physical time, so they double as
// human-readable wall-clock estimates in timelines.
type HLC uint64

// hlcLogicalBits is how much of the word the logical counter occupies.
// 16 bits allows 65k causally-chained events per physical millisecond
// before the counter bleeds into the physical part — at which point the
// clock runs ahead of wall time by a millisecond, which HLC semantics
// tolerate (physical time catches up and resets the counter).
const hlcLogicalBits = 16

// WallMillis returns the physical component in Unix milliseconds.
func (h HLC) WallMillis() int64 { return int64(h >> hlcLogicalBits) }

// Logical returns the logical counter component.
func (h HLC) Logical() uint16 { return uint16(h) }

// Time returns the physical component as a time.Time (UTC).
func (h HLC) Time() time.Time { return time.UnixMilli(h.WallMillis()).UTC() }

// IsZero reports whether h is the absent timestamp.
func (h HLC) IsZero() bool { return h == 0 }

// String renders "physical-rfc3339.logical", the form timelines print.
func (h HLC) String() string {
	if h.IsZero() {
		return "hlc:0"
	}
	return fmt.Sprintf("%s.%d", h.Time().Format("15:04:05.000"), h.Logical())
}

// HLCSource mints and merges HLC timestamps for one process. All methods
// are safe for concurrent use; the state is a single uint64 advanced with
// CAS, so minting a timestamp costs a clock read plus one CAS on the
// uncontended path.
type HLCSource struct {
	clk  Clock
	last atomic.Uint64
}

// NewHLC returns an HLC source driven by clk (nil means the real clock).
func NewHLC(clk Clock) *HLCSource {
	if clk == nil {
		clk = Real()
	}
	return &HLCSource{clk: clk}
}

// Now mints the timestamp for a local or send event: the max of physical
// time and the last issued timestamp plus one logical tick.
func (s *HLCSource) Now() HLC {
	pt := uint64(s.clk.Now().UnixMilli()) << hlcLogicalBits
	for {
		last := s.last.Load()
		next := pt
		if last+1 > next {
			next = last + 1
		}
		if s.last.CompareAndSwap(last, next) {
			return HLC(next)
		}
	}
}

// Observe merges a remote timestamp on message receipt and returns the
// timestamp for the receive event, which is strictly greater than both
// the remote stamp and every timestamp this source issued before.
func (s *HLCSource) Observe(remote HLC) HLC {
	pt := uint64(s.clk.Now().UnixMilli()) << hlcLogicalBits
	for {
		last := s.last.Load()
		next := pt
		if last+1 > next {
			next = last + 1
		}
		if uint64(remote)+1 > next {
			next = uint64(remote) + 1
		}
		if s.last.CompareAndSwap(last, next) {
			return HLC(next)
		}
	}
}
