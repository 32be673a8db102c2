package harness

import (
	"context"
	"fmt"
	"time"

	laoram "repro"
	"repro/internal/memsim"
	"repro/internal/oram"
	"repro/internal/trace"
)

// WindowRow is one point of the look-ahead-window ablation.
type WindowRow struct {
	WindowAccesses int
	Windows        int
	PathReads      uint64
	ReadsPerAccess float64
}

// WindowSweepResult probes the paper's core premise (abl-window in
// DESIGN.md): how far ahead must the preprocessor see? Once the window
// drops below the workload's reuse distance, blocks leave the horizon with
// uniform paths and superblock fetches splinter into cold path reads.
type WindowSweepResult struct {
	Entries uint64
	S       int
	Shards  int
	Rows    []WindowRow
}

// WindowSweep runs the permutation workload through the streaming Trainer
// (TrainOptions.Window on the sharded engine) at decreasing look-ahead
// windows. The full-stream point (Window = 0) is the one-shot flow's
// behaviour; every smaller window trades planner memory and latency for
// cold path reads.
func WindowSweep(sc Scale, seed int64) (*WindowSweepResult, error) {
	entries := sc.EntriesSmall
	const S = 4
	const shards = 4
	accesses := sc.Accesses
	stream, err := workloadStream(trace.KindPermutation, entries, accesses, seed)
	if err != nil {
		return nil, err
	}
	res := &WindowSweepResult{Entries: entries, S: S, Shards: shards}
	windows := []int{0, accesses / 2, accesses / 4, accesses / 16, accesses / 64}
	for _, w := range windows {
		if w != 0 && w < S {
			continue
		}
		db, err := laoram.New(laoram.Options{
			Entries:      entries,
			MetadataOnly: true,
			Shards:       shards,
			Seed:         seed + 22,
		})
		if err != nil {
			return nil, err
		}
		st, err := db.Train(context.Background(), laoram.TrainOptions{
			Source:     laoram.FromSlice(stream),
			Superblock: S,
			Window:     w,
			Depth:      2,
			// One bin per step, so two bins of a step never share a
			// fetched path and the sweep isolates the horizon.
			BatchBins: 1,
			PrePlace:  true,
		})
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("window %d: %w", w, err)
		}
		pub := db.Stats()
		db.Close()
		label := w
		if w == 0 {
			label = accesses
		}
		res.Rows = append(res.Rows, WindowRow{
			WindowAccesses: label,
			Windows:        st.Windows,
			PathReads:      pub.PathReads,
			ReadsPerAccess: float64(pub.PathReads) / float64(pub.Accesses),
		})
	}
	return res, nil
}

// Render formats the window sweep.
func (r *WindowSweepResult) Render() string {
	t := Table{
		Title:   fmt.Sprintf("Ablation — look-ahead window vs path reads (permutation, N=%d, S=%d, %d shards)", r.Entries, r.S, r.Shards),
		Headers: []string{"window (accesses)", "windows", "path reads", "reads/access"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.WindowAccesses), fmt.Sprintf("%d", row.Windows),
			fmt.Sprintf("%d", row.PathReads), f3(row.ReadsPerAccess))
	}
	t.AddNote("PathORAM would be 1.0 reads/access; perfect lookahead approaches 1/S = %.3f", 1.0/float64(r.S))
	return t.Render()
}

// ProfileRow is one fat-tree capacity profile.
type ProfileRow struct {
	Profile     string
	ServerBytes int64
	DummyReads  uint64
	StashPeak   int
	SimTime     time.Duration
}

// ProfileSweepResult is the abl-profile ablation: §V chooses linear decay
// over the "ideal" exponential growth; this measures the alternatives.
type ProfileSweepResult struct {
	Entries uint64
	S       int
	Rows    []ProfileRow
}

// ProfileSweep compares uniform, linear, step and capped-exponential trees
// under S=8 superblock pressure.
func ProfileSweep(sc Scale, seed int64) (*ProfileSweepResult, error) {
	entries := sc.EntriesSmall
	const S = 8
	stream, err := workloadStream(trace.KindPermutation, entries, sc.Accesses, seed)
	if err != nil {
		return nil, err
	}
	res := &ProfileSweepResult{Entries: entries, S: S}
	leafBits := oram.LeafBitsFor(entries)
	profiles := []struct {
		name  string
		build func() (*oram.Geometry, error)
	}{
		{"uniform Z=4", func() (*oram.Geometry, error) {
			return oram.NewGeometry(oram.GeometryConfig{LeafBits: leafBits, LeafZ: 4, BlockSize: 128})
		}},
		{"linear 8→4", func() (*oram.Geometry, error) {
			return oram.NewGeometry(oram.GeometryConfig{LeafBits: leafBits, LeafZ: 4, RootZ: 8, Profile: oram.ProfileLinear, BlockSize: 128})
		}},
		{"step 8/4", func() (*oram.Geometry, error) {
			return oram.NewGeometry(oram.GeometryConfig{LeafBits: leafBits, LeafZ: 4, RootZ: 8, Profile: oram.ProfileStep, BlockSize: 128})
		}},
		{"exp cap16", func() (*oram.Geometry, error) {
			return oram.NewGeometry(oram.GeometryConfig{LeafBits: leafBits, LeafZ: 4, RootZ: 16, Profile: oram.ProfileExp, BlockSize: 128})
		}},
	}
	for _, p := range profiles {
		g, err := p.build()
		if err != nil {
			return nil, err
		}
		rr, err := Run(RunSpec{
			Entries: entries, BlockSize: 128, Variant: Variant{Name: p.name, S: S},
			Stream: stream, Evict: oram.PaperEvict, PrePlace: true, Seed: seed + 23, Geometry: g,
		})
		if err != nil {
			return nil, fmt.Errorf("profile %s: %w", p.name, err)
		}
		res.Rows = append(res.Rows, ProfileRow{
			Profile: p.name, ServerBytes: g.ServerBytes(),
			DummyReads: rr.Stats.DummyReads, StashPeak: rr.StashPeak, SimTime: rr.SimTime,
		})
	}
	return res, nil
}

// Render formats the profile sweep.
func (r *ProfileSweepResult) Render() string {
	t := Table{
		Title:   fmt.Sprintf("Ablation — fat-tree capacity profile (permutation, N=%d, S=%d)", r.Entries, r.S),
		Headers: []string{"profile", "server bytes", "dummy reads", "stash peak", "sim time"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Profile, gb(row.ServerBytes), fmt.Sprintf("%d", row.DummyReads),
			fmt.Sprintf("%d", row.StashPeak), row.SimTime.Round(time.Microsecond).String())
	}
	t.AddNote("§V argues exponential growth is ideal but impractical at the root; linear captures most of the dummy-read win at a fraction of the memory")
	return t.Render()
}

// ThreshRow is one eviction-threshold configuration.
type ThreshRow struct {
	High, Low      int
	DummyPerAccess float64
	StashPeak      int
	SimTime        time.Duration
}

// ThreshSweepResult is the abl-thresh ablation over background-eviction
// watermarks (§VIII-E uses 500/50).
type ThreshSweepResult struct {
	Entries uint64
	Rows    []ThreshRow
}

// ThreshSweep sweeps the high/low watermarks under Normal/S4 permutation.
func ThreshSweep(sc Scale, seed int64) (*ThreshSweepResult, error) {
	entries := sc.EntriesSmall
	stream, err := workloadStream(trace.KindPermutation, entries, sc.Accesses, seed)
	if err != nil {
		return nil, err
	}
	res := &ThreshSweepResult{Entries: entries}
	for _, th := range [][2]int{{100, 10}, {500, 50}, {2000, 200}} {
		rr, err := Run(RunSpec{
			Entries: entries, BlockSize: 128, Variant: Variant{Name: "Normal/S4", S: 4},
			Stream: stream, PrePlace: true, Seed: seed + 25,
			Evict: oram.EvictConfig{Enabled: true, High: th[0], Low: th[1]},
		})
		if err != nil {
			return nil, fmt.Errorf("thresh %v: %w", th, err)
		}
		res.Rows = append(res.Rows, ThreshRow{
			High: th[0], Low: th[1],
			DummyPerAccess: rr.DummyPerAccess(), StashPeak: rr.StashPeak, SimTime: rr.SimTime,
		})
	}
	return res, nil
}

// Render formats the threshold sweep.
func (r *ThreshSweepResult) Render() string {
	t := Table{
		Title:   fmt.Sprintf("Ablation — background-eviction watermarks (permutation, N=%d, Normal/S4)", r.Entries),
		Headers: []string{"high/low", "dummy/access", "stash peak", "sim time"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d/%d", row.High, row.Low), f3(row.DummyPerAccess),
			fmt.Sprintf("%d", row.StashPeak), row.SimTime.Round(time.Microsecond).String())
	}
	t.AddNote("the paper measures with 500/50 (§VIII-E)")
	return t.Render()
}

// ZRow is one bucket-size configuration.
type ZRow struct {
	Z              int
	Fat            bool
	ServerBytes    int64
	DummyPerAccess float64
	SimTime        time.Duration
}

// ZSweepResult is the abl-z ablation: leaf bucket size × tree shape.
type ZSweepResult struct {
	Entries uint64
	Rows    []ZRow
}

// ZSweep sweeps the leaf bucket size for normal and fat trees at S=4.
func ZSweep(sc Scale, seed int64) (*ZSweepResult, error) {
	entries := sc.EntriesSmall
	stream, err := workloadStream(trace.KindPermutation, entries, sc.Accesses, seed)
	if err != nil {
		return nil, err
	}
	res := &ZSweepResult{Entries: entries}
	for _, z := range []int{3, 4, 5, 6, 8} {
		for _, fat := range []bool{false, true} {
			name := fmt.Sprintf("Z=%d", z)
			if fat {
				name += " fat"
			}
			rr, err := Run(RunSpec{
				Entries: entries, BlockSize: 128, LeafZ: z,
				Variant: Variant{Name: name, S: 4, Fat: fat},
				Stream:  stream, Evict: oram.PaperEvict, PrePlace: true, Seed: seed + 27,
			})
			if err != nil {
				return nil, fmt.Errorf("z=%d fat=%v: %w", z, fat, err)
			}
			res.Rows = append(res.Rows, ZRow{
				Z: z, Fat: fat, ServerBytes: rr.ServerGeom.ServerBytes(),
				DummyPerAccess: rr.DummyPerAccess(), SimTime: rr.SimTime,
			})
		}
	}
	return res, nil
}

// Render formats the bucket-size sweep.
func (r *ZSweepResult) Render() string {
	t := Table{
		Title:   fmt.Sprintf("Ablation — bucket size × tree shape (permutation, N=%d, S=4)", r.Entries),
		Headers: []string{"leaf Z", "tree", "server bytes", "dummy/access", "sim time"},
	}
	for _, row := range r.Rows {
		shape := "normal"
		if row.Fat {
			shape = "fat 2x→x"
		}
		t.AddRow(fmt.Sprintf("%d", row.Z), shape, gb(row.ServerBytes),
			f3(row.DummyPerAccess), row.SimTime.Round(time.Microsecond).String())
	}
	return t.Render()
}

// ModelSweepResult shows speedups are robust to the timing model — ratios,
// not absolute DDR4 parameters, drive Fig. 7 (a robustness check for the
// hardware substitution documented in DESIGN.md).
type ModelSweepResult struct {
	Entries uint64
	Models  []string
	// Speedup[model] for Fat/S4 on permutation.
	Speedup []float64
}

// ModelSweep prices one PathORAM run and one Fat/S4 run under three
// bandwidth/latency regimes: the counts are the model's only input.
func ModelSweep(sc Scale, seed int64) (*ModelSweepResult, error) {
	entries := sc.EntriesSmall
	stream, err := workloadStream(trace.KindPermutation, entries, sc.Accesses, seed)
	if err != nil {
		return nil, err
	}
	var runs [2]RunResult
	for i, v := range []Variant{{Name: "PathORAM", S: 1}, {Name: "Fat/S4", S: 4, Fat: true}} {
		if runs[i], err = Run(RunSpec{
			Entries: entries, BlockSize: 128, Variant: v,
			Stream: stream, Evict: oram.PaperEvict, PrePlace: true,
			Seed: seed + 29,
		}); err != nil {
			return nil, err
		}
	}
	models := []struct {
		name string
		m    memsim.Model
	}{
		{"DDR4 default", memsim.DDR4Default()},
		{"half bandwidth", memsim.Model{RequestLatency: time.Microsecond, BytesPerSecond: 9.6e9, PerBlockCPU: 20 * time.Nanosecond}},
		{"high latency", memsim.Model{RequestLatency: 10 * time.Microsecond, BytesPerSecond: 19.2e9, PerBlockCPU: 20 * time.Nanosecond}},
	}
	res := &ModelSweepResult{Entries: entries}
	for _, mm := range models {
		res.Models = append(res.Models, mm.name)
		res.Speedup = append(res.Speedup, memsim.Speedup(runs[0].Time(mm.m), runs[1].Time(mm.m)))
	}
	return res, nil
}

// Render formats the model sweep.
func (r *ModelSweepResult) Render() string {
	t := Table{
		Title:   fmt.Sprintf("Ablation — timing-model robustness (Fat/S4 speedup, permutation, N=%d)", r.Entries),
		Headers: []string{"memory model", "Fat/S4 speedup"},
	}
	for i := range r.Models {
		t.AddRow(r.Models[i], f2(r.Speedup[i])+"x")
	}
	t.AddNote("speedups are traffic-ratio-driven; they should move little across plausible memory models")
	return t.Render()
}
