// Package netsim models network cost between simulated hosts.
//
// The paper's evaluation runs silos on separate EC2 instances inside one
// AWS region, so cross-silo actor calls pay a LAN round trip while calls
// between co-located actors are free. The in-process transport consults a
// Model to decide how long to delay each delivery, which is what makes the
// prefer-local vs random placement ablation measurable on one machine.
package netsim

import (
	"math/rand"
	"sync"
	"time"
)

// Profile describes one link class.
type Profile struct {
	// Base is the fixed one-way latency per message.
	Base time.Duration
	// PerKB adds serialization/bandwidth cost per KiB of payload.
	PerKB time.Duration
	// JitterFrac adds uniform jitter in [0, JitterFrac] of Base.
	JitterFrac float64
}

// Common link profiles.
var (
	// Loopback models two actors on the same silo: no network at all.
	Loopback = Profile{}
	// SameAZ models EC2 instances in one availability zone, the paper's
	// deployment: ~100µs one-way plus serialization cost.
	SameAZ = Profile{Base: 100 * time.Microsecond, PerKB: 2 * time.Microsecond, JitterFrac: 0.2}
)

// Model maps (from, to) host pairs to a link profile. The zero Model treats
// every link as loopback.
type Model struct {
	mu     sync.Mutex
	rng    *rand.Rand
	local  Profile // from == to
	remote Profile // from != to
}

// NewModel returns a model with the given local and remote profiles.
// Deterministic for a given seed.
func NewModel(seed int64, local, remote Profile) *Model {
	return &Model{rng: rand.New(rand.NewSource(seed)), local: local, remote: remote}
}

// Delay returns the simulated one-way latency for a message of size bytes
// from one host to another.
func (m *Model) Delay(from, to string, bytes int) time.Duration {
	if m == nil {
		return 0
	}
	p := m.remote
	if from == to {
		p = m.local
	}
	d := p.Base + time.Duration(bytes/1024)*p.PerKB
	if p.JitterFrac > 0 && p.Base > 0 {
		m.mu.Lock()
		j := m.rng.Float64()
		m.mu.Unlock()
		d += time.Duration(j * p.JitterFrac * float64(p.Base))
	}
	return d
}
