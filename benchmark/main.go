// Command benchmark is the repository's end-to-end benchmark: five
// Train/lookup workloads across the in-memory, sealed, disk-tiered and remote
// deployment shapes, driven through the public API, with wall-clock
// end-to-end metrics (tracing off) and an outside-in per-layer trace. See
// README.md for the metrics, the phases and how to read a run.
//
//	benchmark -workload <name|all> -seed <n> -seconds <s> -trace <0|1> [-out runs.jsonl] [-runs <k>] [-spans spans.jsonl]
//	benchmark compare <setA.jsonl> <setB.jsonl>
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := realMain(ctx, os.Args[1:], os.Stdout, os.Stderr, runtime.NumCPU())
	stop()
	os.Exit(code)
}

// metricValue is the contract's form of one measured value.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the last line a run prints: exactly these keys.
type Result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one line of a set file (-out): the result plus what identifies
// the run. A host that cannot show two lanes records why it skipped instead.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Scale    string `json:"scale"`
	Host     host   `json:"host"`
	Skipped  string `json:"skipped,omitempty"`
	*Result
}

// host describes where a run was taken.
type host struct {
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func hostInfo(cpus int) host {
	h := host{CPUs: cpus, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.Commit = s.Value
			}
		}
	}
	return h
}

func realMain(ctx context.Context, args []string, stdout, stderr io.Writer, cpus int) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run, or all")
	seed := fs.Int64("seed", 42, "seed of the workload's inputs and of Options.Seed")
	secs := fs.Int("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	scale := fs.String("scale", "full", "full, or smoke (about 1% of the size, for the tests)")
	out := fs.String("out", "", "append each run's record to this JSON-lines set file")
	runs := fs.Int("runs", 1, "repeat with seeds seed, seed+1, ... (each run in its own process)")
	spans := fs.String("spans", "", "traced run: write the spans to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *secs < 1 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: need -workload <name|all>, -seconds >= 1, -runs >= 1, -trace 0|1 and no other arguments")
		return 2
	}
	if *name == "all" || *runs > 1 {
		return runSet(ctx, *name, *seed, *runs, args, stdout, stderr)
	}
	w, err := findWorkload(*name)
	if err == nil {
		w, err = w.scaled(*scale)
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}

	rec := record{Workload: w.name, Seed: *seed, Seconds: *secs, Trace: *trace, Scale: *scale, Host: hostInfo(cpus)}
	if cpus < 2 {
		// Two lanes on one CPU time-slice: the numbers would describe the
		// scheduler. Say so instead of reporting them.
		rec.Skipped = fmt.Sprintf("needs >= 2 CPUs for %d lanes, host has %d", shards, cpus)
		if err := appendRecord(*out, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintf(stdout, "{\"skipped\":%s}\n", strconv.Quote(rec.Skipped))
		return 0
	}

	cfg := runConfig{w: w, seed: *seed, measure: time.Duration(*secs) * time.Second, traced: *trace == 1}
	if *spans != "" && cfg.traced {
		f, err := os.Create(*spans)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		defer f.Close()
		cfg.spans = f
	}
	e := &env{tmpRoot: ".bench_tmp"}
	oc, err := e.run(ctx, cfg)
	os.Remove(e.tmpRoot) // only succeeds once the last arena directory is gone
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", w.name+":", err)
		return 1
	}

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	rec.Result = &Result{Correct: oc.failed == 0, Attempted: oc.attempted, Failed: oc.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(stdout, "%s seed=%d seconds=%d trace=%d cpus=%d gomaxprocs=%d %s commit=%s\n",
		w.name, *seed, *secs, *trace, rec.Host.CPUs, rec.Host.GOMAXPROCS, rec.Host.GoVersion, rec.Host.Commit)
	for _, d := range defs {
		v := oc.metrics[d.name]
		rec.Metrics[d.name] = metricValue{v, d.unit}
		fmt.Fprintf(stdout, "  %-34s %16.6g %s\n", d.name, v, d.unit)
	}
	for _, n := range oc.notes {
		fmt.Fprintln(stdout, " ", n)
	}
	if err := appendRecord(*out, rec); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !rec.Correct {
		return 1
	}
	return 0
}

func appendRecord(path string, rec record) error {
	if path == "" {
		return nil
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSet runs a set: every requested workload at every seed, each in its own
// process so that peak memory belongs to one run. The children append to the
// -out file themselves.
func runSet(ctx context.Context, name string, seed int64, runs int, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	names := []string{name}
	if name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	code := 0
	for i := 0; i < runs; i++ {
		for _, n := range names {
			// Later flags win, so the child's own values go last.
			child := append(append([]string(nil), args...),
				"-workload", n, "-seed", strconv.FormatInt(seed+int64(i), 10), "-runs", "1")
			cmd := exec.CommandContext(ctx, self, child...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", n, seed+int64(i), err)
				code = 1
			}
		}
	}
	return code
}
