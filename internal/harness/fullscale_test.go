package harness

import (
	"testing"

	"repro/internal/oram"
	"repro/internal/trace"
)

// TestFullScaleSpotCheck validates the headline comparison at the paper's
// real 8M-entry scale (leaf depth 23, ~67M slots, ~1 GB of metadata-only
// server state): Fat/S4 must beat PathORAM on the permutation workload
// with the paper's eviction thresholds. Run with -short to skip (it needs
// ~1–2 GB RAM and tens of seconds).
func TestFullScaleSpotCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale spot check skipped in -short mode")
	}
	const entries = 8 << 20 // the paper's 8M configuration
	const accesses = 20000
	stream, err := workloadStream(trace.KindPermutation, entries, accesses, 77)
	if err != nil {
		t.Fatal(err)
	}
	run := func(v Variant) RunResult {
		rr, err := Run(RunSpec{
			Entries: entries, BlockSize: 128, Variant: v,
			Stream: stream, Evict: oram.PaperEvict, Seed: 78,
		})
		if err != nil {
			t.Fatalf("%s: %v", v.Name, err)
		}
		return rr
	}
	base := run(Variant{Name: "PathORAM", S: 1})
	fat4 := run(Variant{Name: "Fat/S4", S: 4, Fat: true})

	// The paper's 8M config is a depth-23 tree: one level less or more
	// would halve or double its 8 GB.
	gotGB := float64(base.Stats.ServerBytes) / (1 << 30)
	if gotGB < 7 || gotGB > 9 {
		t.Errorf("server bytes %.2f GB, Table I says 8 GB", gotGB)
	}
	speedup := float64(base.SimTime) / float64(fat4.SimTime)
	t.Logf("full scale (8M): PathORAM %v, Fat/S4 %v → speedup %.2fx (paper ~1.9x); Fat/S4 dummies/access %.3f (paper 0.14)",
		base.SimTime, fat4.SimTime, speedup, fat4.DummyPerAccess())
	if speedup < 1.3 {
		t.Errorf("Fat/S4 speedup %.2fx at full scale, expected >= 1.3x", speedup)
	}
	if fat4.DummyPerAccess() > 0.6 {
		t.Errorf("Fat/S4 dummy rate %.3f implausibly high (paper: 0.14)", fat4.DummyPerAccess())
	}
}
