package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// waitGoroutines fails the test unless the goroutine count falls back to
// base: nodes and their connections run on goroutines that Close waits for.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, %d before the run", runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func entries(t *testing.T, dir string) []string {
	t.Helper()
	des, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
	var names []string
	for _, de := range des {
		names = append(names, de.Name())
	}
	return names
}

// TestUntracedRunReportsEveryMetric drives every workload at smoke scale the
// way the timed run does, and checks what it leaves behind: nothing.
func TestUntracedRunReportsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := &env{tmpRoot: filepath.Join(t.TempDir(), "tmp")}
			oc, err := e.run(context.Background(), runConfig{w: smoke(t, w.name), seed: 11, measure: 200 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			if oc.failed != 0 || oc.attempted == 0 {
				t.Errorf("%d of %d failed: %s", oc.failed, oc.attempted, strings.Join(oc.notes, "\n"))
			}
			for _, d := range endToEnd {
				if v, ok := oc.metrics[d.name]; !ok || v <= 0 {
					t.Errorf("metric %s = %v, want > 0", d.name, v)
				}
			}
			if left := entries(t, e.tmpRoot); len(left) > 0 {
				t.Errorf("temp arenas left behind: %v", left)
			}
			waitGoroutines(t, base)
		})
	}
}

// TestCountMetricsRepeatPerSeed: the count phase is the same work on every
// run of a seed, so its metrics are equal to the last digit.
func TestCountMetricsRepeatPerSeed(t *testing.T) {
	var prev metrics
	for i := 0; i < 2; i++ {
		e := &env{tmpRoot: filepath.Join(t.TempDir(), "tmp")}
		oc, err := e.run(context.Background(), runConfig{w: smoke(t, "train-mem"), seed: 3, measure: 100 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if prev != nil {
			for _, name := range []string{"path_reads_per_op", "bytes_moved_per_op"} {
				if oc.metrics[name] != prev[name] {
					t.Errorf("%s: %v then %v for one seed", name, prev[name], oc.metrics[name])
				}
			}
		}
		prev = oc.metrics
	}
}

// TestOpenCleansUpAfterFailure: a set-up that fails half-way stops the nodes
// it started and removes the arena directory it made.
func TestOpenCleansUpAfterFailure(t *testing.T) {
	base := runtime.NumGoroutine()
	e := &env{tmpRoot: filepath.Join(t.TempDir(), "tmp")}

	// Three nodes over two shards: the third has no store to serve, after two
	// are already listening.
	w := smoke(t, "train-remote")
	w.nodes = shards + 1
	if _, err := e.open(context.Background(), w, 1, nil); err == nil {
		t.Fatal("open with an empty node succeeded")
	}
	waitGoroutines(t, base)

	// One entry cannot be split over two shards: laoram.New fails after the
	// arena directory exists.
	w = smoke(t, "train-disk")
	w.entries = 1
	if _, err := e.open(context.Background(), w, 1, nil); err == nil {
		t.Fatal("open of a one-entry table over two shards succeeded")
	}
	if left := entries(t, e.tmpRoot); len(left) > 0 {
		t.Errorf("arena directory left behind: %v", left)
	}
	waitGoroutines(t, base)
}

func TestSkippedOnOneCPU(t *testing.T) {
	set := filepath.Join(t.TempDir(), "set.jsonl")
	var out, errb bytes.Buffer
	code := realMain(context.Background(), []string{"--workload", "train-mem", "--seed", "1", "--seconds", "1", "--trace", "0", "-scale", "smoke", "-out", set}, &out, &errb, 1)
	if code != 0 || !strings.Contains(out.String(), `{"skipped":`) || strings.Contains(out.String(), "ops_per_s") {
		t.Fatalf("exit %d, stdout %q, stderr %q", code, out.String(), errb.String())
	}
	recs, err := readSet(set)
	if err != nil || len(recs) != 1 || recs[0].Skipped == "" || recs[0].Result != nil || recs[0].Host.CPUs != 1 {
		t.Fatalf("set file: %+v, %v", recs, err)
	}
}

// TestResultLine runs the command as the driver does (on a host that can) and
// checks the last line is the contract's object.
func TestResultLine(t *testing.T) {
	t.Chdir(t.TempDir())
	var out, errb bytes.Buffer
	code := realMain(context.Background(), []string{"--workload", "lookup-remote", "--seed", "9", "--seconds", "1", "--trace", "0", "-scale", "smoke"}, &out, &errb, 2)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Errorf("result keys: %v", got)
	}
	var ms map[string]metricValue
	if err := json.Unmarshal(got["metrics"], &ms); err != nil || len(ms) != len(endToEnd) {
		t.Errorf("metrics %v: %v", ms, err)
	}
	if left := entries(t, "."); len(left) > 0 {
		t.Errorf("run left %v in its directory", left)
	}
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "train-mem", "-seconds", "0"},
		{"-workload", "train-mem", "-trace", "2"},
		{"-workload", "train-mem", "-scale", "huge"},
		{"-workload", "train-mem", "stray"},
		{"compare", "only-one"},
	} {
		var out, errb bytes.Buffer
		if code := realMain(context.Background(), args, &out, &errb, 2); code != 2 || errb.Len() == 0 {
			t.Errorf("%v: exit %d, stderr %q", args, code, errb.String())
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTheCode: the file the driver reads and the tables
// the program reports from name the same workloads, metrics, units and bounds.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		t.Fatal(err)
	}
	if len(f.Paths) != 1 || f.Paths[0] != "benchmark" || strings.Join(f.Command, " ") != "bash benchmark/run.sh" {
		t.Errorf("command %v, paths %v", f.Command, f.Paths)
	}
	if len(f.Workloads) != len(workloads) || len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("%d workloads, %d end-to-end, %d per-layer; code has %d, %d, %d",
			len(f.Workloads), len(f.EndToEnd), len(f.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q", i, f.Workloads[i].Name)
		}
	}
	setup := false
	for i, d := range endToEnd {
		if g := f.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end %d: file has %+v, code %+v", i, g, d)
		}
		setup = setup || d == metricDef{"setup_s", "s", "lower", d.bound}
	}
	if !setup {
		t.Error("no setup_s metric in s, lower is better")
	}
	for i, d := range perLayer {
		if g := f.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer %d: file has %+v, code %+v", i, g, d)
		}
	}
}

func writeSet(t *testing.T, name string, opsPerSec ...float64) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	for i, v := range opsPerSec {
		rec := record{Workload: "train-mem", Seed: int64(i), Seconds: 10, Scale: "full", Host: hostInfo(2),
			Result: &Result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"ops_per_s": {v, "1/s"}, "setup_s": {0.2, "s"}}}}
		if err := appendRecord(path, rec); err != nil {
			t.Fatal(err)
		}
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	parent := writeSet(t, "parent.jsonl", 100, 101, 99, 100, 102)
	same := writeSet(t, "same.jsonl", 99, 100, 101, 98, 100)
	slower := writeSet(t, "slower.jsonl", 70, 71, 69, 70, 72)
	noisy := writeSet(t, "noisy.jsonl", 70, 100, 130, 90, 110)

	var out, errb bytes.Buffer
	if code := compareMain([]string{parent, same}, &out, &errb); code != 0 || !strings.Contains(out.String(), " ok") {
		t.Errorf("equal sets: exit %d\n%s%s", code, out.String(), errb.String())
	}
	out.Reset()
	if code := compareMain([]string{parent, slower}, &out, &errb); code != 1 || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("30%% slower set: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{slower, parent}, &out, &errb); code != 0 {
		t.Errorf("a faster set is not a regression: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareMain([]string{parent, noisy}, &out, &errb); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("noisy set: exit %d\n%s", code, out.String())
	}
}
