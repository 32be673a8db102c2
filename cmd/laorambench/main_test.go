package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/harness"
)

func trajectory(rows ...harness.EngineBenchRow) *harness.EngineBenchResult {
	return &harness.EngineBenchResult{Rows: rows}
}

// TestCheckRegression drives the -baseline gate with hand-built
// trajectories: it must pass an unchanged run, catch a ns/op regression and
// an allocs/op increase, and refuse a baseline it could compare nothing
// against.
func TestCheckRegression(t *testing.T) {
	committed := trajectory(
		harness.EngineBenchRow{Name: "AccessSteadyState", NsPerOp: 1000, AllocsPerOp: 0},
		harness.EngineBenchRow{Name: "SealOpen", NsPerOp: 200, AllocsPerOp: 1},
	)

	cases := []struct {
		name     string
		baseline *harness.EngineBenchResult
		run      *harness.EngineBenchResult
		wantErr  string // "" = the gate passes
	}{
		{"unchanged", committed, committed, ""},
		{"within tolerance, one row retired, one added", committed, trajectory(
			harness.EngineBenchRow{Name: "AccessSteadyState", NsPerOp: 1190, AllocsPerOp: 0},
			harness.EngineBenchRow{Name: "BrandNew", NsPerOp: 1e9, AllocsPerOp: 99},
		), ""},
		{"ns/op regression", committed, trajectory(
			harness.EngineBenchRow{Name: "AccessSteadyState", NsPerOp: 1300, AllocsPerOp: 0},
		), "AccessSteadyState: 1300 ns/op vs baseline 1000"},
		{"allocs/op increase", committed, trajectory(
			harness.EngineBenchRow{Name: "SealOpen", NsPerOp: 100, AllocsPerOp: 2},
		), "SealOpen: 2 allocs/op vs baseline 1"},
		{"empty baseline", trajectory(), committed, "nothing was compared"},
		{"renamed rows", trajectory(harness.EngineBenchRow{Name: "access_steady_state", NsPerOp: 1000}),
			committed, "nothing was compared"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data, err := tc.baseline.JSON()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "baseline.json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			err = checkRegression(tc.run, path)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatalf("gate failed on a clean run: %v", err)
			case tc.wantErr != "" && err == nil:
				t.Fatalf("gate passed, want an error containing %q", tc.wantErr)
			case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
				t.Fatalf("gate error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
