package harness

import (
	"encoding/json"
	"testing"
)

// TestEngineBenchTrajectory runs the laorambench -json pipeline at CI scale
// and enforces the PR's acceptance bar: every engine microbenchmark must
// show at least a 50% reduction in allocs/op against the pinned
// pre-refactor baseline (ns/op is host-dependent, so only the allocation
// counts — which are deterministic — gate here).
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
	want := []string{"AccessSteadyState", "WriteBackPath", "WriteBackPathsBatch", "AccessSealed", "SealOpen", "SealOpen4K"}
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
	if len(res.Speedups) == 0 {
		t.Error("trajectory carries no fig7e speedups")
	}
	data, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back EngineBenchResult
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("trajectory does not round-trip through JSON: %v", err)
	}
	if len(back.Rows) != len(res.Rows) || len(back.Baseline) != len(res.Baseline) {
		t.Error("JSON round trip lost rows")
	}
}
