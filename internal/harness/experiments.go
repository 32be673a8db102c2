package harness

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/oram"
	"repro/internal/ringoram"
	"repro/internal/stats"
	"repro/internal/superblock"
	"repro/internal/trace"
)

// SpeedupRow is one bar of a Fig. 7 panel.
type SpeedupRow struct {
	Variant        string
	SimTime        time.Duration
	Speedup        float64
	DummyPerAccess float64
	StashPeak      int
	BytesMoved     uint64
}

// Fig7Result is one panel (a–f) of Fig. 7.
type Fig7Result struct {
	Panel    string
	Workload trace.Kind
	Entries  uint64
	Rows     []SpeedupRow
}

// Render formats the panel like the paper's bar chart, as a table.
func (r *Fig7Result) Render() string {
	t := Table{
		Title:   fmt.Sprintf("Fig. 7%s — Speedups, %s (N=%d)", r.Panel, r.Workload, r.Entries),
		Headers: []string{"config", "sim time", "speedup", "dummy/access", "stash peak"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Variant, row.SimTime.Round(time.Microsecond).String(),
			f2(row.Speedup)+"x", f3(row.DummyPerAccess), fmt.Sprintf("%d", row.StashPeak))
	}
	t.AddNote("speedup = simTime(PathORAM)/simTime(config) on the memsim DDR4 model")
	return t.Render()
}

// fig7Panel runs the seven standard variants on one workload.
func fig7Panel(panel string, kind trace.Kind, entries uint64, blockSize int, sc Scale, seed int64) (*Fig7Result, error) {
	stream, err := workloadStream(kind, entries, sc.Accesses, seed)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{Panel: panel, Workload: kind, Entries: entries}
	var baseTime time.Duration
	for _, v := range StandardVariants() {
		rr, err := Run(RunSpec{
			Entries: entries, BlockSize: blockSize, Variant: v,
			Stream: stream, Evict: oram.PaperEvict, Seed: seed + 100,
		})
		if err != nil {
			return nil, fmt.Errorf("fig7%s %s: %w", panel, v.Name, err)
		}
		if v.S <= 1 {
			baseTime = rr.SimTime
		}
		res.Rows = append(res.Rows, SpeedupRow{
			Variant:        v.Name,
			SimTime:        rr.SimTime,
			Speedup:        memsim.Speedup(baseTime, rr.SimTime),
			DummyPerAccess: rr.DummyPerAccess(),
			StashPeak:      rr.StashPeak,
			BytesMoved:     rr.BytesMoved,
		})
	}
	return res, nil
}

// Fig7a — Permutation at the 8M-equivalent size (128 B blocks).
func Fig7a(sc Scale, seed int64) (*Fig7Result, error) {
	return fig7Panel("a", trace.KindPermutation, sc.EntriesSmall, 128, sc, seed)
}

// Fig7b — Permutation at the 16M-equivalent size.
func Fig7b(sc Scale, seed int64) (*Fig7Result, error) {
	return fig7Panel("b", trace.KindPermutation, sc.EntriesLarge, 128, sc, seed)
}

// Fig7c — Gaussian at the 8M-equivalent size.
func Fig7c(sc Scale, seed int64) (*Fig7Result, error) {
	return fig7Panel("c", trace.KindGaussian, sc.EntriesSmall, 128, sc, seed)
}

// Fig7d — Gaussian at the 16M-equivalent size.
func Fig7d(sc Scale, seed int64) (*Fig7Result, error) {
	return fig7Panel("d", trace.KindGaussian, sc.EntriesLarge, 128, sc, seed)
}

// Fig7e — DLRM with the Kaggle-like trace (128 B rows).
func Fig7e(sc Scale, seed int64) (*Fig7Result, error) {
	return fig7Panel("e", trace.KindKaggle, sc.KaggleRows, 128, sc, seed)
}

// Fig7f — XLM-R with the XNLI-like trace (4 KB rows).
func Fig7f(sc Scale, seed int64) (*Fig7Result, error) {
	return fig7Panel("f", trace.KindXNLI, sc.XNLIRows, 4096, sc, seed)
}

// Fig8Series is one line of Fig. 8: stash size sampled along the run.
type Fig8Series struct {
	Config  string
	Access  []int
	Stash   []int
	FinalAt int
}

// Fig8Result reproduces Fig. 8: stash growth without background eviction,
// permutation workload, configs Normal/Fat × S4/S8 (bucket 4 / fat 8→4 and
// bucket 8 / fat 16→8 per the paper's text).
type Fig8Result struct {
	Entries uint64
	Series  []Fig8Series
}

// Fig8 samples stash occupancy every sampleEvery accesses for the paper's
// four configurations.
func Fig8(sc Scale, seed int64) (*Fig8Result, error) {
	const sampleEvery = 250
	// The paper plots 12,500 accesses; honour the scale's budget.
	accesses := 12500
	if accesses > sc.Accesses {
		accesses = sc.Accesses
	}
	entries := sc.EntriesSmall
	stream, err := workloadStream(trace.KindPermutation, entries, accesses, seed)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{Entries: entries}
	configs := []struct {
		name  string
		s     int
		fat   bool
		leafZ int
	}{
		{"Normal-4", 4, false, 4},
		{"Fat-4", 4, true, 4},
		{"Normal-8", 8, false, 8},
		{"Fat-8", 8, true, 8},
	}
	for _, cfg := range configs {
		series := Fig8Series{Config: cfg.name}
		spec := RunSpec{
			Entries: entries, BlockSize: 128, LeafZ: cfg.leafZ,
			Variant: Variant{Name: cfg.name, S: cfg.s, Fat: cfg.fat},
			Stream:  stream, Evict: oram.EvictConfig{}, Seed: seed + 7,
		}
		// Sample on each crossing of a sampleEvery boundary; bins advance
		// the access counter in steps of S, so equality with the boundary
		// cannot be relied on.
		rr, err := runHand(spec, nil, func(access, stash int) {
			for (len(series.Access)+1)*sampleEvery <= access {
				series.Access = append(series.Access, (len(series.Access)+1)*sampleEvery)
				series.Stash = append(series.Stash, stash)
			}
		})
		if err != nil {
			return nil, fmt.Errorf("fig8 %s: %w", cfg.name, err)
		}
		series.FinalAt = rr.StashPeak
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Render prints the stash series side by side.
func (r *Fig8Result) Render() string {
	t := Table{
		Title:   fmt.Sprintf("Fig. 8 — Stash growth without background eviction (permutation, N=%d)", r.Entries),
		Headers: []string{"accesses"},
	}
	for _, s := range r.Series {
		t.Headers = append(t.Headers, s.Config)
	}
	if len(r.Series) == 0 || len(r.Series[0].Access) == 0 {
		return t.Render()
	}
	n := len(r.Series[0].Access)
	for i := 0; i < n; i++ {
		row := []string{fmt.Sprintf("%d", r.Series[0].Access[i])}
		for _, s := range r.Series {
			if i < len(s.Stash) {
				row = append(row, fmt.Sprintf("%d", s.Stash[i]))
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	t.AddNote("paper (12500 accesses, 8M entries): Normal-4≈10600, Fat-4≈3600, Normal-8≈15500, Fat-8≈4700")
	return t.Render()
}

// Fig9Row is one bar of Fig. 9.
type Fig9Row struct {
	Variant    string
	BytesMoved uint64
	Reduction  float64
	Bound      float64
}

// Fig9Result reproduces Fig. 9: memory traffic reduction vs PathORAM on the
// Kaggle-like workload, with the paper's theoretical bounds.
type Fig9Result struct {
	Entries uint64
	Rows    []Fig9Row
}

// Fig9 measures byte traffic per variant on the DLRM/Kaggle workload.
func Fig9(sc Scale, seed int64) (*Fig9Result, error) {
	stream, err := workloadStream(trace.KindKaggle, sc.KaggleRows, sc.Accesses, seed)
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{Entries: sc.KaggleRows}
	var baseBytes uint64
	const Z = 4.0
	for _, v := range StandardVariants() {
		rr, err := Run(RunSpec{
			Entries: sc.KaggleRows, BlockSize: 128, Variant: v,
			Stream: stream, Evict: oram.PaperEvict, Seed: seed + 3,
		})
		if err != nil {
			return nil, fmt.Errorf("fig9 %s: %w", v.Name, err)
		}
		moved := rr.BytesMoved
		if v.S <= 1 {
			baseBytes = moved
		}
		bound := float64(v.S)
		if v.Fat {
			// §VIII-F: fat-tree bound = 2(Z+1)/(3Z+1) · S.
			bound = 2 * (Z + 1) / (3*Z + 1) * float64(v.S)
		}
		red := 0.0
		if moved > 0 {
			red = float64(baseBytes) / float64(moved)
		}
		res.Rows = append(res.Rows, Fig9Row{
			Variant: v.Name, BytesMoved: moved, Reduction: red, Bound: bound,
		})
	}
	return res, nil
}

// Render formats Fig. 9 with measured vs theoretical-bound columns.
func (r *Fig9Result) Render() string {
	t := Table{
		Title:   fmt.Sprintf("Fig. 9 — Memory traffic reduction vs PathORAM (Kaggle-like, N=%d)", r.Entries),
		Headers: []string{"config", "bytes moved", "reduction", "theoretical bound"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Variant, fmt.Sprintf("%d", row.BytesMoved), f2(row.Reduction)+"x", f2(row.Bound)+"x")
	}
	t.AddNote("paper: Normal/S2 = 2.0x (meets bound), Normal/S4 = 3.30x (< 4x bound); fat bounds use 2(Z+1)/(3Z+1)·S")
	return t.Render()
}

// Table1Row is one configuration of Table I.
type Table1Row struct {
	Name      string
	Entries   uint64
	BlockSize int
	Insecure  int64
	PathORAM  int64
	LAORAM    int64
	Fat       int64
}

// Table1Result reproduces Table I (embedding table memory requirement).
type Table1Result struct {
	Rows []Table1Row
}

// Table1 computes server-storage sizes from tree geometry. scaled=false
// uses the paper's full sizes regardless of sc (Table I is arithmetic, not
// simulation).
func Table1(sc Scale, scaled bool) (*Table1Result, error) {
	type cfg struct {
		name      string
		entries   uint64
		blockSize int
	}
	var cfgs []cfg
	if scaled {
		cfgs = []cfg{
			{"small", sc.EntriesSmall, 128},
			{"large", sc.EntriesLarge, 128},
			{"Kaggle", sc.KaggleRows, 128},
			{"XNLI", sc.XNLIRows, 4096},
		}
	} else {
		cfgs = []cfg{
			{"8M", 8 << 20, 128},
			{"16M", 16 << 20, 128},
			{"Kaggle", 10131227, 128},
			{"XNLI", 262144, 4096},
		}
	}
	res := &Table1Result{}
	for _, c := range cfgs {
		leafBits := oram.LeafBitsFor(c.entries)
		normal, err := oram.NewGeometry(oram.GeometryConfig{
			LeafBits: leafBits, LeafZ: 4, BlockSize: c.blockSize,
		})
		if err != nil {
			return nil, err
		}
		fat, err := oram.NewGeometry(oram.GeometryConfig{
			LeafBits: leafBits, LeafZ: 4, RootZ: 8, Profile: oram.ProfileLinear, BlockSize: c.blockSize,
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table1Row{
			Name: c.name, Entries: c.entries, BlockSize: c.blockSize,
			Insecure: int64(c.entries) * int64(c.blockSize),
			PathORAM: normal.ServerBytes(),
			LAORAM:   normal.ServerBytes(), // same tree; LAORAM adds only client metadata
			Fat:      fat.ServerBytes(),
		})
	}
	return res, nil
}

// Render formats Table I next to the paper's reported values.
func (r *Table1Result) Render() string {
	t := Table{
		Title:   "Table I — Embedding table memory requirement",
		Headers: []string{"config", "entries", "insecure", "PathORAM", "LAORAM", "Fat"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, fmt.Sprintf("%d", row.Entries),
			gb(row.Insecure), gb(row.PathORAM), gb(row.LAORAM), gb(row.Fat))
	}
	t.AddNote("paper (GB): 8M: 1/8/8/10 · 16M: 2/16/16/24 · Kaggle: 1.2/16/16/20.3 · XNLI: 1/16/16/20.5")
	t.AddNote("fat-tree overhead under the paper's own linear profile (§V) computes to ~+5%%; the paper's +25-50%% Table I rows are inconsistent with §V (see DESIGN.md)")
	return t.Render()
}

// Table2Result reproduces Table II: average dummy reads per access.
type Table2Result struct {
	Workloads []string
	Configs   []string
	// Values[config][workload]
	Values map[string]map[string]float64
}

// Table2 measures dummy reads per access for the paper's grid.
func Table2(sc Scale, seed int64) (*Table2Result, error) {
	workloads := []struct {
		name string
		kind trace.Kind
		n    uint64
	}{
		{"Permutation", trace.KindPermutation, sc.EntriesSmall},
		{"Gaussian", trace.KindGaussian, sc.EntriesSmall},
		{"Kaggle", trace.KindKaggle, sc.KaggleRows},
		{"XNLI", trace.KindXNLI, sc.XNLIRows},
	}
	configs := []Variant{
		{Name: "Fat/S8", S: 8, Fat: true},
		{Name: "Fat/S4", S: 4, Fat: true},
		{Name: "Normal/S8", S: 8},
		{Name: "Normal/S4", S: 4},
	}
	res := &Table2Result{Values: make(map[string]map[string]float64)}
	for _, c := range configs {
		res.Configs = append(res.Configs, c.Name)
		res.Values[c.Name] = make(map[string]float64)
	}
	for _, w := range workloads {
		res.Workloads = append(res.Workloads, w.name)
		stream, err := workloadStream(w.kind, w.n, sc.Accesses, seed)
		if err != nil {
			return nil, err
		}
		for _, c := range configs {
			rr, err := Run(RunSpec{
				Entries: w.n, BlockSize: 128, Variant: c,
				Stream: stream, Evict: oram.PaperEvict, Seed: seed + 9,
			})
			if err != nil {
				return nil, fmt.Errorf("table2 %s/%s: %w", c.Name, w.name, err)
			}
			res.Values[c.Name][w.name] = rr.DummyPerAccess()
		}
	}
	return res, nil
}

// Render formats Table II in the paper's layout.
func (r *Table2Result) Render() string {
	t := Table{
		Title:   "Table II — Average dummy reads per data access",
		Headers: append([]string{"config"}, r.Workloads...),
	}
	for _, c := range r.Configs {
		row := []string{c}
		for _, w := range r.Workloads {
			row = append(row, f3(r.Values[c][w]))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: Fat/S8 0.35/0.24/0.025/0.009 · Fat/S4 0.14/0.10/0/0 · Normal/S8 1.19/0.65/0.19/0.16 · Normal/S4 0.57/0.46/0.053/0")
	return t.Render()
}

// MemNeutralResult reproduces §VIII-C: fat 9→5 vs uniform Z=6 at equal-or-
// less memory.
type MemNeutralResult struct {
	FatBytes, WideBytes   int64
	MemorySaving          float64
	FatDummies, WideDummy uint64
	DummyReduction        float64
}

// MemNeutral runs the §VIII-C comparison on the permutation workload.
func MemNeutral(sc Scale, seed int64) (*MemNeutralResult, error) {
	entries := sc.EntriesSmall
	stream, err := workloadStream(trace.KindPermutation, entries, sc.Accesses, seed)
	if err != nil {
		return nil, err
	}
	leafBits := oram.LeafBitsFor(entries)
	fatGeom, err := oram.NewGeometry(oram.GeometryConfig{
		LeafBits: leafBits, LeafZ: 5, RootZ: 9, Profile: oram.ProfileLinear, BlockSize: 128,
	})
	if err != nil {
		return nil, err
	}
	wideGeom, err := oram.NewGeometry(oram.GeometryConfig{
		LeafBits: leafBits, LeafZ: 6, BlockSize: 128,
	})
	if err != nil {
		return nil, err
	}
	res := &MemNeutralResult{
		FatBytes:  fatGeom.ServerBytes(),
		WideBytes: wideGeom.ServerBytes(),
	}
	res.MemorySaving = 1 - float64(res.FatBytes)/float64(res.WideBytes)

	// The §VIII-C fat tree is 9→5, not FatTree's 2×, so both trees run on
	// the hand path.
	run := func(g *oram.Geometry) (uint64, error) {
		rr, err := runHand(RunSpec{
			Entries: entries, BlockSize: 128, Variant: Variant{Name: "memneutral", S: 4},
			Stream: stream, Evict: oram.PaperEvict, Seed: seed + 11,
		}, g, nil)
		if err != nil {
			return 0, err
		}
		return rr.Stats.DummyReads, nil
	}
	if res.FatDummies, err = run(fatGeom); err != nil {
		return nil, err
	}
	if res.WideDummy, err = run(wideGeom); err != nil {
		return nil, err
	}
	if res.WideDummy > 0 {
		res.DummyReduction = 1 - float64(res.FatDummies)/float64(res.WideDummy)
	}
	return res, nil
}

// Render formats the §VIII-C comparison.
func (r *MemNeutralResult) Render() string {
	t := Table{
		Title:   "§VIII-C — Memory-neutral comparison: fat 9→5 vs uniform Z=6 (S=4, permutation)",
		Headers: []string{"tree", "server bytes", "dummy reads"},
	}
	t.AddRow("fat 9→5", gb(r.FatBytes), fmt.Sprintf("%d", r.FatDummies))
	t.AddRow("uniform Z=6", gb(r.WideBytes), fmt.Sprintf("%d", r.WideDummy))
	t.AddNote("memory saving %.1f%% (paper: 16.6%%), dummy-read reduction %.1f%% (paper: 12.4%%)",
		r.MemorySaving*100, r.DummyReduction*100)
	return t.Render()
}

// RingRow is one line of the §VIII-G comparison.
type RingRow struct {
	Config     string
	BlocksRead uint64
	PerAccess  float64
	Reduction  float64
}

// RingResult reproduces §VIII-G: RingORAM vs LAORAM-on-Ring block reads.
type RingResult struct {
	Entries uint64
	S       int
	Rows    []RingRow
	Formula float64 // predicted reads/access = logN/S (path-walk term)
}

// RingExp measures plain RingORAM against LAORAM-on-Ring.
func RingExp(sc Scale, seed int64) (*RingResult, error) {
	entries := sc.EntriesSmall
	const S = 4
	stream, err := workloadStream(trace.KindPermutation, entries, sc.Accesses, seed)
	if err != nil {
		return nil, err
	}
	res := &RingResult{Entries: entries, S: S}

	plain, err := ringoram.New(ringoram.Config{Blocks: entries, Rand: trace.NewRNG(seed + 15)})
	if err != nil {
		return nil, err
	}
	if err := plain.Load(entries, nil); err != nil {
		return nil, err
	}
	plain.ResetStats()
	for _, a := range stream {
		if _, err := plain.Access(oram.OpRead, oram.BlockID(a), nil); err != nil {
			return nil, err
		}
	}
	pst := plain.Stats()
	res.Rows = append(res.Rows, RingRow{
		Config: "RingORAM", BlocksRead: pst.BlocksRead,
		PerAccess: float64(pst.BlocksRead) / float64(pst.Accesses), Reduction: 1,
	})

	ring, err := ringoram.New(ringoram.Config{Blocks: entries, Rand: trace.NewRNG(seed + 15)})
	if err != nil {
		return nil, err
	}
	plan, err := superblock.NewPlan(stream, superblock.PlanConfig{
		S: S, Leaves: ring.Geometry().Leaves(), Rand: trace.NewRNG(seed + 16),
	})
	if err != nil {
		return nil, err
	}
	lr, err := ringoram.NewLAORing(ring, plan)
	if err != nil {
		return nil, err
	}
	if err := lr.LoadPrePlaced(entries, nil); err != nil {
		return nil, err
	}
	ring.ResetStats()
	if err := lr.Run(nil); err != nil {
		return nil, err
	}
	lst := ring.Stats()
	res.Rows = append(res.Rows, RingRow{
		Config: "LAORAM-on-Ring/S4", BlocksRead: lst.BlocksRead,
		PerAccess: float64(lst.BlocksRead) / float64(lst.Accesses),
		Reduction: float64(pst.BlocksRead) / float64(lst.BlocksRead),
	})
	res.Formula = float64(ring.Geometry().Levels()) / float64(S)
	return res, nil
}

// Render formats the §VIII-G comparison.
func (r *RingResult) Render() string {
	t := Table{
		Title:   fmt.Sprintf("§VIII-G — RingORAM vs LAORAM-on-Ring (N=%d, S=%d, permutation)", r.Entries, r.S),
		Headers: []string{"config", "blocks read", "reads/access", "reduction"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Config, fmt.Sprintf("%d", row.BlocksRead), f2(row.PerAccess), f2(row.Reduction)+"x")
	}
	t.AddNote("paper formula: per n accesses, [n·logN]/S + S block fetches → path-walk term %.1f reads/access", r.Formula)
	return t.Render()
}

// SecurityResult holds the §VI empirical checks.
type SecurityResult struct {
	PathORAMLeafP  float64
	LAORAMLeafP    float64
	TwoSampleP     float64
	BinPathP       float64
	LeavesObserved int
}

// Security runs the §VI empirical analysis: uniformity of observed leaves
// for PathORAM and LAORAM, indistinguishability of two different training
// streams, and uniformity of preprocessor bin paths.
func Security(sc Scale, seed int64) (*SecurityResult, error) {
	entries := sc.EntriesSmall
	if entries > 1<<14 {
		entries = 1 << 14 // uniformity tests need dense leaf histograms
	}
	accesses := sc.Accesses
	res := &SecurityResult{}

	observe := func(kind trace.Kind, s int, sd int64) (*stats.Histogram, error) {
		stream, err := workloadStream(kind, entries, accesses, sd)
		if err != nil {
			return nil, err
		}
		g, err := oram.NewGeometry(oram.GeometryConfig{
			LeafBits: oram.LeafBitsFor(entries), LeafZ: 4, BlockSize: 128,
		})
		if err != nil {
			return nil, err
		}
		h := stats.NewHistogram(int(g.Leaves()))
		base, err := oram.NewClient(oram.ClientConfig{
			Store: oram.NewCountingStore(oram.NewMetaStore(g), nil),
			Rand:  trace.NewRNG(sd + 1), Evict: oram.PaperEvict,
			StashHits: true, Blocks: entries,
		})
		if err != nil {
			return nil, err
		}
		if s <= 1 {
			if err := base.Load(entries, nil, nil); err != nil {
				return nil, err
			}
			for _, a := range stream {
				id := oram.BlockID(a)
				if !base.Stash().Contains(id) {
					h.Add(uint64(base.PosMap().Get(id)))
				}
				if _, err := base.Access(oram.OpRead, id, nil); err != nil {
					return nil, err
				}
			}
			return h, nil
		}
		plan, err := superblock.NewPlan(stream, superblock.PlanConfig{
			S: s, Leaves: g.Leaves(), Rand: trace.NewRNG(sd + 2),
		})
		if err != nil {
			return nil, err
		}
		la, err := core.New(core.Config{Base: base, Plan: plan})
		if err != nil {
			return nil, err
		}
		if err := la.LoadPrePlaced(entries, nil); err != nil {
			return nil, err
		}
		for !la.Done() {
			bin := plan.Bin(int(la.Stats().Bins))
			for _, id := range bin.Blocks {
				if !base.Stash().Contains(id) {
					h.Add(uint64(base.PosMap().Get(id)))
					break
				}
			}
			if _, err := la.Step(1, nil); err != nil {
				return nil, err
			}
		}
		return h, nil
	}

	hp, err := observe(trace.KindPermutation, 1, seed+20)
	if err != nil {
		return nil, err
	}
	if _, _, p, err := stats.ChiSquareUniform(hp); err == nil {
		res.PathORAMLeafP = p
	} else {
		return nil, err
	}
	hl, err := observe(trace.KindPermutation, 4, seed+30)
	if err != nil {
		return nil, err
	}
	if _, _, p, err := stats.ChiSquareUniform(hl); err == nil {
		res.LAORAMLeafP = p
	} else {
		return nil, err
	}
	hx, err := observe(trace.KindXNLI, 4, seed+40)
	if err != nil {
		return nil, err
	}
	if _, _, p, err := stats.ChiSquareTwoSample(hl, hx); err == nil {
		res.TwoSampleP = p
	} else {
		return nil, err
	}

	// Bin-path uniformity straight from the preprocessor.
	stream, err := workloadStream(trace.KindKaggle, entries, accesses, seed+50)
	if err != nil {
		return nil, err
	}
	plan, err := superblock.NewPlan(stream, superblock.PlanConfig{
		S: 4, Leaves: 1 << oram.LeafBitsFor(entries), Rand: trace.NewRNG(seed + 51),
	})
	if err != nil {
		return nil, err
	}
	hb := stats.NewHistogram(1 << oram.LeafBitsFor(entries))
	for i := 0; i < plan.Len(); i++ {
		hb.Add(uint64(plan.Bin(i).Leaf))
	}
	if _, _, p, err := stats.ChiSquareUniform(hb); err == nil {
		res.BinPathP = p
	} else {
		return nil, err
	}
	res.LeavesObserved = hb.Bins()
	return res, nil
}

// Render formats the §VI empirical results.
func (r *SecurityResult) Render() string {
	t := Table{
		Title:   "§VI — Empirical security analysis (chi-square p-values; pass = p ≥ 0.001)",
		Headers: []string{"check", "p-value", "verdict"},
	}
	verdict := func(p float64) string {
		if p >= 0.001 {
			return "uniform / indistinguishable"
		}
		return "FAIL"
	}
	t.AddRow("PathORAM observed leaves uniform", fmt.Sprintf("%.4f", r.PathORAMLeafP), verdict(r.PathORAMLeafP))
	t.AddRow("LAORAM observed leaves uniform", fmt.Sprintf("%.4f", r.LAORAMLeafP), verdict(r.LAORAMLeafP))
	t.AddRow("two training streams indistinguishable", fmt.Sprintf("%.4f", r.TwoSampleP), verdict(r.TwoSampleP))
	t.AddRow("preprocessor bin paths uniform", fmt.Sprintf("%.4f", r.BinPathP), verdict(r.BinPathP))
	return t.Render()
}

// Fig2Result reproduces Fig. 2: the first 10,000 accesses of the
// Kaggle-like trace.
type Fig2Result struct {
	Entries uint64
	Stream  []uint64
	Repeat  float64
}

// Fig2 generates the trace.
func Fig2(sc Scale, seed int64) (*Fig2Result, error) {
	count := 10000
	if count > sc.Accesses {
		count = sc.Accesses
	}
	stream, err := workloadStream(trace.KindKaggle, sc.KaggleRows, count, seed)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{
		Entries: sc.KaggleRows,
		Stream:  stream,
		Repeat:  trace.RepeatFraction(stream),
	}, nil
}

// Render draws the ASCII density plot with the hot band at the bottom.
func (r *Fig2Result) Render() string {
	art := trace.ASCIIScatter(r.Stream, r.Entries, 72, 20)
	return fmt.Sprintf("Fig. 2 — %d accesses to the Kaggle-like embedding table (N=%d)\n"+
		"(index ↑, access time →; repeat fraction %.2f — the dark band at the bottom)\n%s",
		len(r.Stream), r.Entries, r.Repeat, art)
}
