package harness

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"regexp"
	"slices"
	"testing"
)

// TestEngineBenchTrajectory runs the laorambench -json pipeline at CI scale
// and enforces the PR's acceptance bar: every engine microbenchmark must
// show at least a 50% reduction in allocs/op against the pinned
// pre-refactor baseline (ns/op is host-dependent, so only the allocation
// counts — which are deterministic — gate here). It also pins the
// document's shape: exactly the sections -baseline judges, the Fig. 7e lines
// rendered in figure order, and the committed BENCH_engine.json readable
// into the same struct with nothing left over.
func TestEngineBenchTrajectory(t *testing.T) {
	if testing.Short() {
		t.Skip("engine bench takes several seconds")
	}
	res, err := EngineBench(CIScale(), 42)
	if err != nil {
		t.Fatal(err)
	}
	base := make(map[string]EngineBenchRow, len(res.Baseline))
	for _, b := range res.Baseline {
		base[b.Name] = b
	}
	want := []string{"AccessSteadyState", "WriteBackPath", "WriteBackPathsBatch", "StepBinCold", "BulkLoad", "AccessSealed", "AccessSealedTreetop", "SealOpen", "SealOpen4K"}
	got := make(map[string]EngineBenchRow, len(res.Rows))
	for _, r := range res.Rows {
		got[r.Name] = r
	}
	for _, name := range want {
		row, ok := got[name]
		if !ok {
			t.Errorf("benchmark %s missing from trajectory", name)
			continue
		}
		b, ok := base[name]
		if !ok {
			t.Errorf("benchmark %s has no pinned baseline", name)
			continue
		}
		if row.AllocsPerOp*2 > b.AllocsPerOp {
			t.Errorf("%s: %d allocs/op vs baseline %d — less than the required 50%% reduction",
				name, row.AllocsPerOp, b.AllocsPerOp)
		}
	}
	var wantFig []string
	for _, v := range StandardVariants()[1:] { // every variant but the PathORAM baseline
		wantFig = append(wantFig, v.Name)
		if _, ok := res.Speedups[v.Name]; !ok {
			t.Errorf("trajectory carries no fig7e speedup for %s", v.Name)
		}
	}
	var gotFig []string
	for _, m := range regexp.MustCompile(`(?m)^fig7e (\S+)`).FindAllStringSubmatch(res.Render(), -1) {
		gotFig = append(gotFig, m[1])
	}
	if !slices.Equal(gotFig, wantFig) {
		t.Errorf("Render prints the fig7e lines as %v, want figure order %v", gotFig, wantFig)
	}

	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var sections map[string]json.RawMessage
	if err := json.Unmarshal(data, &sections); err != nil {
		t.Fatal(err)
	}
	gotKeys := slices.Sorted(maps.Keys(sections))
	wantKeys := []string{"baseline_pre_refactor", "benchmarks", "fig7e_sim_speedups",
		"goarch", "goos", "go_version", "scale", "seed", "tiered"}
	slices.Sort(wantKeys)
	if !slices.Equal(gotKeys, wantKeys) {
		t.Errorf("trajectory keys %v, want exactly %v", gotKeys, wantKeys)
	}
	committed, err := os.ReadFile("../../BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	var recorded EngineBenchResult
	dec := json.NewDecoder(bytes.NewReader(committed))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&recorded); err != nil {
		t.Fatalf("committed BENCH_engine.json does not fit the trajectory struct: %v", err)
	}
	for _, name := range want {
		if !slices.ContainsFunc(recorded.Rows, func(r EngineBenchRow) bool { return r.Name == name }) {
			t.Errorf("committed BENCH_engine.json has no %s row", name)
		}
	}
	if recorded.Tiered == nil || len(recorded.Tiered.Rows) != len(res.Tiered.Rows) {
		t.Error("committed BENCH_engine.json does not carry the tiered sweep the run produces")
	}
	var back EngineBenchResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("trajectory does not round-trip through JSON: %v", err)
	}
	if len(back.Rows) != len(res.Rows) || len(back.Baseline) != len(res.Baseline) {
		t.Error("JSON round trip lost rows")
	}
}
