package harness

import (
	"runtime"
	"strings"
	"testing"
)

// TestSealedExperiment runs the sealed crypto fan-out sweep at CI scale.
// The hard assertion is the one SealedExp makes itself: every width
// reproduces the serial run's session and engine counters, or the sweep
// returns an error. Wall-clock is recorded, not judged — with one-pass
// sealing crypto is about 40% of a serial sealed session, so no width can
// reach the 2x the old bar asked for — and only for widths the host has
// CPUs for: wider rows must read "skipped", never a number.
func TestSealedExperiment(t *testing.T) {
	res, err := SealedExp(CIScale(), 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(sealedWorkerSweep) {
		t.Fatalf("expected %d rows, got %d", len(sealedWorkerSweep), len(res.Rows))
	}
	if res.BlockSize != 4096 {
		t.Errorf("sweep ran on %d B rows, want 4096", res.BlockSize)
	}
	csv := strings.Split(strings.TrimSpace(res.CSV()), "\n")[1:]
	for i, row := range res.Rows {
		if want := row.Workers > runtime.NumCPU(); row.Skipped != want {
			t.Errorf("workers=%d on %d cpus: skipped=%v, want %v", row.Workers, runtime.NumCPU(), row.Skipped, want)
		}
		if row.Skipped {
			if row.Wall != 0 || row.Throughput != 0 || row.Speedup != 0 {
				t.Errorf("workers=%d: skipped row carries a measurement: %+v", row.Workers, row)
			}
			if !strings.HasSuffix(csv[i], ",skipped,skipped,skipped") {
				t.Errorf("workers=%d: CSV row %q does not say skipped", row.Workers, csv[i])
			}
		} else if row.Throughput <= 0 || row.Wall <= 0 {
			t.Errorf("workers=%d: empty measurement: %+v", row.Workers, row)
		}
	}
	t.Logf("\n%s", res.Render())
}
