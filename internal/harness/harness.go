// Package harness regenerates every table and figure of the paper's
// evaluation (§VII–§VIII) plus the ablations listed in DESIGN.md. Each
// experiment is a pure function from a Scale (problem sizing) and seed to a
// Result that renders the same rows/series the paper reports.
//
// Absolute numbers come from the memsim timing model (see DESIGN.md,
// "Substitutions"); the claims under reproduction are the comparative
// shapes: who wins, by what factor, where the crossovers fall.
package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/oram"
	"repro/internal/superblock"
	"repro/internal/trace"
)

// Scale sizes the experiments. The paper's full sizes need tens of GB of
// metadata and hours of simulation; scaled-down trees keep every behaviour
// (occupancy ratio, eviction dynamics) while fitting CI budgets.
type Scale struct {
	// Name tags output tables.
	Name string
	// EntriesSmall stands in for the paper's 8M-entry tables.
	EntriesSmall uint64
	// EntriesLarge stands in for 16M.
	EntriesLarge uint64
	// KaggleRows stands in for the 10,131,227-row DLRM table.
	KaggleRows uint64
	// XNLIRows stands in for the 262,144-row XLM-R vocabulary.
	XNLIRows uint64
	// Accesses is the measured access count per run.
	Accesses int
}

// CIScale fits unit-test budgets (seconds).
func CIScale() Scale {
	return Scale{
		Name:         "ci",
		EntriesSmall: 1 << 13,
		EntriesLarge: 1 << 14,
		KaggleRows:   1 << 13,
		XNLIRows:     1 << 13,
		Accesses:     6000,
	}
}

// DefaultScale is the laorambench default (tens of seconds per figure).
func DefaultScale() Scale {
	return Scale{
		Name:         "default",
		EntriesSmall: 1 << 17,
		EntriesLarge: 1 << 18,
		KaggleRows:   1 << 17,
		XNLIRows:     1 << 17,
		Accesses:     40000,
	}
}

// FullScale is the paper's sizing (metadata-only stores; hours, ~tens of
// GB of RAM for the 16M tree).
func FullScale() Scale {
	return Scale{
		Name:         "full",
		EntriesSmall: 8 << 20,
		EntriesLarge: 16 << 20,
		KaggleRows:   10131227,
		XNLIRows:     262144,
		Accesses:     200000,
	}
}

// Variant is one bar of Fig. 7: PathORAM (S=1) or LAORAM with a superblock
// size, on a normal or fat tree.
type Variant struct {
	Name string
	S    int
	Fat  bool
}

// StandardVariants returns the paper's seven configurations in figure
// order: PathORAM, Normal/S{2,4,8}, Fat/S{2,4,8}.
func StandardVariants() []Variant {
	return []Variant{
		{Name: "PathORAM", S: 1},
		{Name: "Normal/S2", S: 2},
		{Name: "Normal/S4", S: 4},
		{Name: "Normal/S8", S: 8},
		{Name: "Fat/S2", S: 2, Fat: true},
		{Name: "Fat/S4", S: 4, Fat: true},
		{Name: "Fat/S8", S: 8, Fat: true},
	}
}

// RunSpec describes one simulated run.
type RunSpec struct {
	Entries   uint64
	BlockSize int
	LeafZ     int // default 4 (the paper's bucket size)
	Variant   Variant
	Stream    []uint64
	Evict     oram.EvictConfig
	// PrePlace starts LAORAM variants in the converged steady state
	// (default true; see core.LoadPrePlaced).
	PrePlace bool
	Seed     int64
	// Model is the timing model (zero value → memsim.DDR4Default).
	Model memsim.Model
	// StashSampler, if non-nil, is called after every logical access
	// with (accessIndex, stashSize) — the Fig. 8 probe.
	StashSampler func(access int, stash int)
	// Geometry, if non-nil, is the tree to run on instead of the one
	// Entries/LeafZ/Variant.Fat describe (non-standard shapes like
	// §VIII-C's 9→5 fat tree).
	Geometry *oram.Geometry
}

// RunResult carries everything the experiments need.
type RunResult struct {
	Variant    Variant
	SimTime    time.Duration
	Stats      oram.AccessStats
	Core       core.Stats // populated for LAORAM variants
	Counters   oram.Counters
	StashPeak  int
	PosBytes   int64
	PlanBytes  int64
	WallTime   time.Duration
	ServerGeom *oram.Geometry
}

// BytesMoved returns total server traffic (the Fig. 9 numerator).
func (r *RunResult) BytesMoved() uint64 {
	return r.Counters.BytesRead + r.Counters.BytesWritten
}

// DummyPerAccess returns Table II's metric.
func (r *RunResult) DummyPerAccess() float64 { return r.Stats.DummyReadsPerAccess() }

// buildGeometry constructs the tree for a spec.
func buildGeometry(spec *RunSpec) (*oram.Geometry, error) {
	leafZ := spec.LeafZ
	if leafZ == 0 {
		leafZ = 4
	}
	cfg := oram.GeometryConfig{
		LeafBits:  oram.LeafBitsFor(spec.Entries),
		LeafZ:     leafZ,
		BlockSize: spec.BlockSize,
	}
	if spec.Variant.Fat {
		cfg.RootZ = 2 * leafZ
		cfg.Profile = oram.ProfileLinear
	}
	return oram.NewGeometry(cfg)
}

// Run executes one spec on a metadata-only store with the memsim clock and
// traffic counters attached.
func Run(spec RunSpec) (RunResult, error) {
	var out RunResult
	out.Variant = spec.Variant
	g := spec.Geometry
	if g == nil {
		var err error
		if g, err = buildGeometry(&spec); err != nil {
			return out, err
		}
	}
	out.ServerGeom = g
	model := spec.Model
	if model.BytesPerSecond == 0 {
		model = memsim.DDR4Default()
	}
	meter := memsim.NewMeter(model)
	cs := oram.NewCountingStore(oram.NewMetaStore(g), meter)
	base, err := oram.NewClient(oram.ClientConfig{
		Store:     cs,
		Rand:      trace.NewRNG(spec.Seed),
		Evict:     spec.Evict,
		Timer:     meter,
		StashHits: true,
		Blocks:    spec.Entries,
	})
	if err != nil {
		return out, err
	}

	wallStart := time.Now()
	if spec.Variant.S <= 1 {
		// PathORAM baseline.
		if err := base.Load(spec.Entries, nil, nil); err != nil {
			return out, err
		}
		cs.ResetCounters()
		meter.Reset()
		base.ResetStats()
		base.Stash().ResetPeak()
		for i, a := range spec.Stream {
			if _, err := base.Access(oram.OpRead, oram.BlockID(a), nil); err != nil {
				return out, fmt.Errorf("harness: access %d: %w", i, err)
			}
			if spec.StashSampler != nil {
				spec.StashSampler(i+1, base.Stash().Len())
			}
		}
		out.Stats = base.Stats()
	} else {
		plan, err := superblock.NewPlan(spec.Stream, superblock.PlanConfig{
			S: spec.Variant.S, Leaves: g.Leaves(), Rand: trace.NewRNG(spec.Seed + 1),
		})
		if err != nil {
			return out, err
		}
		la, err := core.New(core.Config{Base: base, Plan: plan})
		if err != nil {
			return out, err
		}
		if spec.PrePlace {
			if err := la.LoadPrePlaced(spec.Entries, nil); err != nil {
				return out, err
			}
		} else {
			if err := base.Load(spec.Entries, nil, nil); err != nil {
				return out, err
			}
		}
		cs.ResetCounters()
		meter.Reset()
		la.ResetStats()
		base.Stash().ResetPeak()
		for !la.Done() {
			if _, err := la.Step(1, nil); err != nil {
				return out, err
			}
			if spec.StashSampler != nil {
				spec.StashSampler(int(la.Stats().Accesses), base.Stash().Len())
			}
		}
		out.Core = la.Stats()
		out.Stats = out.Core.AccessStats
		out.PlanBytes = plan.MetadataBytes()
	}
	out.WallTime = time.Since(wallStart)
	out.SimTime = meter.Now()
	out.Counters = cs.Counters()
	out.StashPeak = base.Stash().Peak()
	out.PosBytes = base.PosMap().Bytes()
	return out, nil
}

// workloadStream generates the access stream for a paper workload at the
// given table size.
func workloadStream(kind trace.Kind, n uint64, count int, seed int64) ([]uint64, error) {
	return trace.Generate(trace.Config{Kind: kind, N: n, Count: count, Seed: seed})
}
