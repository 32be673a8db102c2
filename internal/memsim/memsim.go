// Package memsim is the deterministic memory-system timing model that
// substitutes for the paper's hardware testbed (Xeon E-2174G + DDR4 server
// storage, RTX 1080 Ti client; §VII). Every quantity the paper's figures
// report is a ratio of traffic and eviction counts, so a model that charges
// per-request latency plus bytes/bandwidth reproduces the comparison
// structure (see DESIGN.md, "Substitutions").
//
// The model is intentionally simple and fully deterministic: simulated time
// is a pure function of a run's counts (Model.Time), computed after the
// fact; nothing on the access path charges a clock. Speedups are computed as
// simTime(baseline)/simTime(config), mirroring Fig. 7.
package memsim

import (
	"fmt"
	"time"

	"repro/internal/oram"
)

// Model holds the cost parameters of the simulated memory system.
type Model struct {
	// RequestLatency is charged once per path-granularity round trip
	// (client → server storage → client): request dispatch, DRAM row
	// activation, interconnect overhead.
	RequestLatency time.Duration
	// BytesPerSecond is the sustained server-storage bandwidth for bulk
	// path transfers.
	BytesPerSecond float64
	// PerBlockCPU is charged per real block of client-side metadata work
	// (stash insert/scan share, position-map update).
	PerBlockCPU time.Duration
}

// DDR4Default approximates the paper's testbed: ~19.2 GB/s DDR4-2400
// sustained bandwidth, ~1 µs per request round trip (DRAM + kernel/driver
// overhead at path granularity), 20 ns of client bookkeeping per block.
// Absolute values are not claims — only ratios are reported.
func DDR4Default() Model {
	return Model{
		RequestLatency: time.Microsecond,
		BytesPerSecond: 19.2e9,
		PerBlockCPU:    20 * time.Nanosecond,
	}
}

// Validate checks the model parameters.
func (m Model) Validate() error {
	if m.BytesPerSecond <= 0 {
		return fmt.Errorf("memsim: BytesPerSecond must be positive, got %g", m.BytesPerSecond)
	}
	if m.RequestLatency < 0 || m.PerBlockCPU < 0 {
		return fmt.Errorf("memsim: negative latency parameters")
	}
	return nil
}

// Time returns the simulated time of the traffic in c and the client work
// in s on a tree of geometry g:
//
//   - bandwidth: every bucket transfer at level l costs
//     BucketSize(l)·BlockSize bytes over BytesPerSecond, truncated to a
//     whole nanosecond per transfer, times c.LevelTransfers[l];
//   - latency: one RequestLatency per path-granularity round trip. A real
//     path read and its write-back are one each and a dummy read is both, so
//     requests = PathReads + PathWrites + 2·DummyReads (a joint fetch of k
//     paths is k requests, as PathReads counts it);
//   - client CPU: PerBlockCPU per real block the client moved
//     (s.BlocksMoved).
//
// The counters and the stats must cover the same window: reset both
// together.
func (m Model) Time(g *oram.Geometry, c oram.Counters, s oram.AccessStats) time.Duration {
	var t time.Duration
	for lvl := 0; lvl < g.Levels(); lvl++ {
		bytes := g.BucketSize(lvl) * g.BlockSize()
		t += time.Duration(c.LevelTransfers[lvl]) * time.Duration(float64(bytes)/m.BytesPerSecond*float64(time.Second))
	}
	requests := s.PathReads + s.PathWrites + 2*s.DummyReads
	t += time.Duration(requests) * m.RequestLatency
	t += time.Duration(s.BlocksMoved) * m.PerBlockCPU
	return t
}

// Speedup returns base/this as a ratio of simulated times; it is the
// paper's Fig. 7 metric.
func Speedup(base, cfg time.Duration) float64 {
	if cfg <= 0 {
		return 0
	}
	return float64(base) / float64(cfg)
}
