package harness

import (
	"testing"
	"time"
)

// TestOverloadExperiment runs the serve-overload drill at CI scale and
// enforces the ISSUE 10 acceptance bars:
//
//   - with the aggressor present and fair queueing on, the well-behaved
//     clients' p99 stays within 3x of the no-aggressor baseline;
//   - each well-behaved client keeps at least 80% of its offered goodput
//     (the 20% fair-share band);
//   - the identity phase forced real sheds and the final reads were
//     byte-identical to the unloaded seed-42 run.
func TestOverloadExperiment(t *testing.T) {
	gate := func(res *OverloadResult) (string, bool) {
		base, fair := res.Row("baseline"), res.Row("fair")
		if base == nil || fair == nil {
			return "missing baseline or fair row", false
		}
		if base.FairP99 <= 0 || fair.FairP99 <= 0 {
			return "empty p99 measurement", false
		}
		// Capacity is calibrated once, up front; when the host speeds up
		// between calibration and measurement the "10x" aggressor fits
		// under the real capacity and nothing queues long enough to shed.
		if fair.Shed == 0 {
			return "fair row shed nothing; the aggressor was not actually over budget", false
		}
		// Wall-clock tails on a shared CI host are noisy near zero: judge
		// the 3x band above a 25ms floor so a 2ms-vs-7ms flutter cannot
		// fail the drill (real starvation shows up as hundreds of ms —
		// arrival slots queue for the whole window).
		basis := base.FairP99
		if basis < 25*time.Millisecond {
			basis = 25 * time.Millisecond
		}
		if fair.FairP99 > 3*basis {
			return "fair p99 out of band", false
		}
		if fair.FairMinGoodput < 0.8*fair.OfferedFair {
			return "fair goodput below 80% of offered", false
		}
		return "", true
	}

	res, err := OverloadExp(CIScale(), 7)
	if err != nil {
		t.Fatal(err)
	}
	if why, ok := gate(res); !ok {
		// Wall-clock drill on a shared host: retry once before judging.
		t.Logf("first run failed gate (%s); retrying\n%s", why, res.Render())
		res, err = OverloadExp(CIScale(), 7)
		if err != nil {
			t.Fatal(err)
		}
	}

	if len(res.Rows) != 3 {
		t.Fatalf("expected 3 rows, got %d", len(res.Rows))
	}
	if res.Capacity <= 0 {
		t.Fatalf("calibration produced capacity %v", res.Capacity)
	}
	for _, row := range res.Rows {
		if row.FairGoodput <= 0 {
			t.Errorf("%s: no fair goodput: %+v", row.Config, row)
		}
		if row.FairP50 > row.FairP95 || row.FairP95 > row.FairP99 {
			t.Errorf("%s: percentiles out of order: %v %v %v", row.Config, row.FairP50, row.FairP95, row.FairP99)
		}
	}
	base, fair, fifo := res.Row("baseline"), res.Row("fair"), res.Row("fifo")
	if base == nil || fair == nil || fifo == nil {
		t.Fatal("missing rows")
	}
	if base.Shed != 0 {
		t.Errorf("baseline (no aggressor, under capacity) shed %d requests", base.Shed)
	}
	if why, ok := gate(res); !ok {
		t.Errorf("acceptance gate failed after retry: %s (baseline p99 %v, fair p99 %v, fair min goodput %.1f of %.1f offered)",
			why, base.FairP99, fair.FairP99, fair.FairMinGoodput, fair.OfferedFair)
	}
	if res.IdentitySheds == 0 {
		t.Errorf("identity phase shed nothing; byte-transparency was not exercised")
	}
	if !res.IdentityIdentical {
		t.Errorf("identity phase: reads under admission control differ from the unloaded run")
	}
	t.Logf("\n%s", res.Render())
}
