// Package bench is the benchmark harness that regenerates the paper's
// evaluation (Figures 6-9) and the ablation experiments DESIGN.md lists,
// against the simulated-EC2 capacity model.
//
// # Calibration
//
// Per-message CPU costs are expressed in m5.large vCPU time and chosen so
// that one ingestion request (1 sensor turn + 2 channel turns + amortized
// virtual-channel and aggregator turns) costs ~1.1 vCPU-ms, which makes a
// 2-vCPU m5.large saturate at ~1,800 requests/s — the paper's Figure 6
// result. The m5.xlarge profile is 1.5x by ECU, giving the 2,100
// sensors/silo baseline the paper derives for scale-out.
//
// # Scale
//
// Experiments accept a Scale >= 1 that divides the sensor population and
// multiplies per-turn cost. Utilization, saturation points (relative),
// and every shape under study are preserved, while the host only has to
// move 1/Scale as many messages per second. On small machines Figure 7's
// 8-silo/16,800-sensor point is run at Scale 10 (840 sensors, 60 ms
// insert cost); latency-sensitive figures run at Scale 1.
package bench

import (
	"time"

	"aodb/internal/core"
	"aodb/internal/shm"
)

// Per-message costs in reference (m5.large) vCPU time.
const (
	costInsertBatch  = 600 * time.Microsecond
	costInsertPoints = 200 * time.Microsecond
	costVirtualInput = 100 * time.Microsecond
	costStatUpdate   = 10 * time.Microsecond
	costRaiseAlert   = 10 * time.Microsecond
	costLatest       = 50 * time.Microsecond
	costRangeQuery   = 300 * time.Microsecond
	costGetChannels  = 20 * time.Microsecond
)

// SHMCost returns the cost model for the SHM workload at the given scale
// factor (>= 1). Setup/configuration messages are free so populating a
// large experiment does not burn simulated hours.
func SHMCost(scale int) core.CostFunc {
	orDefault(&scale, 1)
	s := time.Duration(scale)
	return func(_ core.ID, msg any) time.Duration {
		switch msg.(type) {
		case shm.InsertBatch:
			return costInsertBatch * s
		case shm.InsertPoints:
			return costInsertPoints * s
		case shm.VirtualInput:
			return costVirtualInput * s
		case shm.StatUpdate:
			return costStatUpdate * s
		case shm.RaiseAlert:
			return costRaiseAlert * s
		case shm.Latest:
			return costLatest * s
		case shm.RangeQuery:
			return costRangeQuery * s
		case shm.GetChannels:
			return costGetChannels * s
		default:
			return 0
		}
	}
}

// InsertRequestCost returns the expected total vCPU cost of one ingestion
// request under the population rules (2 channels, every 10th sensor
// virtual, 3 aggregator levels), used to size offered load.
func InsertRequestCost(scale int) time.Duration {
	orDefault(&scale, 1)
	base := costInsertBatch + // sensor turn
		2*costInsertPoints + // two channel turns
		2*costVirtualInput/10 + // virtual inputs, 1 in 10 sensors
		6*costStatUpdate // hour, day, month per channel
	return base * time.Duration(scale)
}
