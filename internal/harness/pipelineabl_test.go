package harness

import "testing"

// TestPipelineExperiment runs the §VIII-A overlap measurement at CI scale
// and enforces the streaming-API acceptance bar: the pipelined Trainer
// must be at least 1.3x faster wall-clock than the sequential
// arrive-plan-run schedule the one-shot API forces. The feed is
// calibrated to 1/1.5x the host's measured training throughput (the
// arrival-bound regime), so the expected overlap win is ~1.6x on any
// hardware — race detector included, since calibration absorbs its
// slowdown — and 1.3 leaves margin for loaded hosts. The same run also
// carries §VIII-A's "planning is cheaper than execution" bar: the
// pipelined run's PlanTime and TrainTime cover the same accesses, so
// PlanTime < TrainTime is the per-access comparison, and preprocessing
// stays off the critical path.
func TestPipelineExperiment(t *testing.T) {
	res, err := PipelineExp(CIScale(), 42)
	if err != nil {
		t.Fatal(err)
	}
	// Wall-clock measurement on a shared host: take the best of two runs
	// before judging the bar (the serve experiment's convention).
	const bar = 1.3
	if res.Speedup < bar {
		res2, err := PipelineExp(CIScale(), 42)
		if err != nil {
			t.Fatal(err)
		}
		if res2.Speedup > res.Speedup {
			res = res2
		}
	}
	if res.Windows != 16 {
		t.Errorf("expected 16 windows, got %d", res.Windows)
	}
	if res.SeqWall <= 0 || res.PipeWall <= 0 || res.PlanTime <= 0 || res.TrainTime <= 0 {
		t.Errorf("empty measurement: %+v", res)
	}
	if res.Speedup < bar {
		t.Errorf("pipelined wall %v is only %.2fx the sequential %v; want >= %.1fx",
			res.PipeWall, res.Speedup, res.SeqWall, bar)
	}
	if res.PlanTime >= res.TrainTime {
		t.Errorf("planning (%v) should cost less than executing (%v) the same %d accesses",
			res.PlanTime, res.TrainTime, res.Accesses)
	}
	t.Logf("\n%s", res.Render())
}
