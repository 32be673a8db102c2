// Package harness regenerates every table and figure of the paper's
// evaluation (§VII–§VIII) plus the ablations listed in DESIGN.md. Each
// experiment is a pure function from a Scale (problem sizing) and seed to a
// Result that renders the same rows/series the paper reports.
//
// Absolute numbers come from the memsim timing model (see DESIGN.md,
// "Substitutions"); the claims under reproduction are the comparative
// shapes: who wins, by what factor, where the crossovers fall.
//
// The figures run through the product: Run drives a metadata-only
// laoram.New instance (Train, or Load and Read for PathORAM), and so do
// abl-batch, abl-window and the drills, so a fault in the product's
// assembly moves a figure digest. Four runs need what Options or
// laoram.Stats cannot express and take the hand path, runHand, which
// TestHandPathMatchesProduct holds to Run:
//   - fig8 samples the stash after every bin;
//   - abl-profile runs step and exp trees;
//   - memneutral runs a 9→5 fat tree;
//   - abl-model re-prices per-level transfers under three memory models.
//
// Four more build their own stacks on purpose: abl-shards (shard.New, for
// the per-shard stash maximum laoram.Stats does not keep), Security (the
// §VI leaf observations read the client's position map), RingExp
// (RingORAM is not the product) and enginebench (it measures layers).
package harness

import (
	"context"
	"fmt"
	"math"
	"time"

	laoram "repro"
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
	Seed      int64
}

// RunResult is what the experiments read of a run: the instance's Stats
// over the measured phase (after the load).
type RunResult struct {
	laoram.Stats
	// SimTime is SimTimeSeconds to the nanosecond: the DDR4 model's time
	// (memsim.DDR4Default) for the measured phase.
	SimTime time.Duration
}

// result wraps an instance's Stats.
func result(st laoram.Stats) RunResult {
	return RunResult{Stats: st, SimTime: time.Duration(math.Round(st.SimTimeSeconds * 1e9))}
}

// DummyPerAccess returns Table II's metric.
func (r *RunResult) DummyPerAccess() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.DummyReads) / float64(r.Accesses)
}

// Run executes one spec through the product: a metadata-only laoram
// instance on the spec's tree. LAORAM variants train the whole stream as
// one pre-placed window, one bin per step; PathORAM loads the table and
// reads each access. Every figure whose inputs Options can express runs
// here; the rest use runHand.
func Run(spec RunSpec) (RunResult, error) {
	high, low := -1, 0
	if spec.Evict.Enabled {
		high, low = spec.Evict.High, spec.Evict.Low
	}
	db, err := laoram.New(laoram.Options{
		Entries: spec.Entries, BlockSize: spec.BlockSize, BucketSize: spec.LeafZ,
		FatTree: spec.Variant.Fat, MetadataOnly: true,
		EvictHigh: high, EvictLow: low, Seed: spec.Seed,
	})
	if err != nil {
		return RunResult{}, err
	}
	defer db.Close()
	if spec.Variant.S <= 1 {
		if err := db.Load(spec.Entries, nil); err != nil {
			return RunResult{}, err
		}
		db.ResetStats()
		for i, a := range spec.Stream {
			if _, err := db.Read(a); err != nil {
				return RunResult{}, fmt.Errorf("harness: access %d: %w", i, err)
			}
		}
	} else if _, err := db.Train(context.Background(), laoram.TrainOptions{
		Source: laoram.FromSlice(spec.Stream), Superblock: spec.Variant.S,
		BatchBins: 1, PrePlace: true,
	}); err != nil {
		return RunResult{}, err
	}
	return result(db.Stats()), nil
}

// handRun is a run on the hand path: what Run reports, plus the counts
// laoram.Stats does not carry, which abl-model re-prices.
type handRun struct {
	RunResult
	geom     *oram.Geometry
	counters oram.Counters
	access   oram.AccessStats
}

// Time prices the measured phase's traffic under model m.
func (r *handRun) Time(m memsim.Model) time.Duration {
	return m.Time(r.geom, r.counters, r.access)
}

// buildGeometry constructs the tree Options would build for a spec.
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

// runHand is the hand path (see the package doc): the client and plan that
// Run reaches through laoram.New, assembled directly on a counted
// metadata-only store. g, when non-nil, replaces the spec's tree (abl-profile,
// memneutral); sample, when non-nil, sees the stash after every access or
// bin (fig8); handRun.Time re-prices the run (abl-model).
// TestHandPathMatchesProduct holds it to Run on every count and on SimTime.
func runHand(spec RunSpec, g *oram.Geometry, sample func(access, stash int)) (*handRun, error) {
	var err error
	if g == nil {
		if g, err = buildGeometry(&spec); err != nil {
			return nil, err
		}
	}
	cs := oram.NewCountingStore(oram.NewMetaStore(g), nil)
	base, err := oram.NewClient(oram.ClientConfig{
		Store: cs, Rand: trace.NewRNG(spec.Seed), Evict: spec.Evict,
		StashHits: true, Blocks: spec.Entries,
	})
	if err != nil {
		return nil, err
	}
	var la *core.LAORAM
	if spec.Variant.S <= 1 {
		err = base.Load(spec.Entries, nil, nil)
	} else {
		var plan *superblock.Plan
		plan, err = superblock.NewPlan(spec.Stream, superblock.PlanConfig{
			S: spec.Variant.S, Leaves: g.Leaves(), Rand: trace.NewRNG(spec.Seed + 1),
		})
		if err == nil {
			la, err = core.New(core.Config{Base: base, Plan: plan})
		}
		if err == nil {
			err = la.LoadPrePlaced(spec.Entries, nil)
		}
	}
	if err != nil {
		return nil, err
	}
	cs.ResetCounters()
	base.ResetStats()
	base.Stash().ResetPeak()
	if sample == nil {
		sample = func(int, int) {}
	}
	if la == nil {
		for i, a := range spec.Stream {
			if _, err := base.Access(oram.OpRead, oram.BlockID(a), nil); err != nil {
				return nil, fmt.Errorf("harness: access %d: %w", i, err)
			}
			sample(i+1, base.Stash().Len())
		}
	}
	for la != nil && !la.Done() {
		if _, err := la.Step(1, nil); err != nil {
			return nil, err
		}
		sample(int(base.Stats().Accesses), base.Stash().Len())
	}
	r := &handRun{geom: g, counters: cs.Counters(), access: base.Stats()}
	a := r.access
	r.RunResult = result(laoram.Stats{
		Accesses: a.Accesses, PathReads: a.PathReads, PathWrites: a.PathWrites,
		DummyReads: a.DummyReads, StashHits: a.StashHits,
		StashSize: base.Stash().Len(), StashPeak: base.Stash().Peak(),
		BytesMoved:  r.counters.BytesRead + r.counters.BytesWritten,
		ServerBytes: g.ServerBytes(), PositionBytes: base.PosMap().Bytes(),
		SimTimeSeconds: r.Time(memsim.DDR4Default()).Seconds(),
	})
	return r, nil
}

// workloadStream generates the access stream for a paper workload at the
// given table size.
func workloadStream(kind trace.Kind, n uint64, count int, seed int64) ([]uint64, error) {
	return trace.Generate(trace.Config{Kind: kind, N: n, Count: count, Seed: seed})
}
