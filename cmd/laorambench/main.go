// Command laorambench regenerates the paper's tables and figures.
//
// Usage:
//
//	laorambench -exp all                 # every experiment at default scale
//	laorambench -exp fig7e -scale full   # one experiment at paper scale
//	laorambench -exp fig8 -csv out/      # also write CSV series
//	laorambench -list                    # list experiment IDs
//	laorambench -json BENCH_engine.json  # engine microbench trajectory
//	laorambench -json /tmp/b.json -baseline BENCH_engine.json  # CI gate
//	laorambench -exp fig7e -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -json runs the engine microbenchmarks (steady-state access, single and
// joint write-back, a cold superblock bin, sealed access, seal/open at 128 B
// and 4 KB), the
// Fig. 7e simulated speedups and the tiered sweep, and writes what
// -baseline judges — ns/op, B/op, allocs/op, the pinned pre-refactor
// baseline, and the tiered hit/miss counts and identity flags — to the
// given file. The wall-clock experiments (pipeline, elastic) are not part
// of it: run them with -exp; their tests are their gates. With -baseline
// the fresh numbers are compared against a committed trajectory: >20%
// ns/op regression, any allocs/op increase, a tiered row that diverged or
// lost its prefetch win, or a baseline the run shares no row with fails
// the run (the CI gate that keeps the allocation-free hot path from
// rotting). -cpuprofile/-memprofile wrap the whole run with runtime/pprof
// for hot-path inspection.
//
// Experiment IDs follow DESIGN.md's experiment index: fig2, fig7a..fig7f,
// fig8, fig9, table1, table2, memneutral, ring, security, pipeline,
// elastic, tiered, and the ablations abl-window, abl-profile, abl-thresh,
// abl-z, abl-model, abl-batch, abl-shards.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/trace"
)

type experiment struct {
	id   string
	desc string
	run  func(sc harness.Scale, seed int64) (renderer, error)
}

type renderer interface{ Render() string }

// csvAble lets experiments export raw series.
type csvAble interface{ CSV() string }

func experiments() []experiment {
	wrap := func(f func(harness.Scale, int64) (*harness.Fig7Result, error)) func(harness.Scale, int64) (renderer, error) {
		return func(sc harness.Scale, seed int64) (renderer, error) { return f(sc, seed) }
	}
	return []experiment{
		{"fig2", "Kaggle-like access scatter (first 10k accesses)", func(sc harness.Scale, seed int64) (renderer, error) { return harness.Fig2(sc, seed) }},
		{"fig7a", "speedups, Permutation (8M-class)", wrap(harness.Fig7a)},
		{"fig7b", "speedups, Permutation (16M-class)", wrap(harness.Fig7b)},
		{"fig7c", "speedups, Gaussian (8M-class)", wrap(harness.Fig7c)},
		{"fig7d", "speedups, Gaussian (16M-class)", wrap(harness.Fig7d)},
		{"fig7e", "speedups, DLRM with Kaggle-like trace", wrap(harness.Fig7e)},
		{"fig7f", "speedups, XLM-R with XNLI-like trace", wrap(harness.Fig7f)},
		{"fig8", "stash growth without background eviction", func(sc harness.Scale, seed int64) (renderer, error) { return harness.Fig8(sc, seed) }},
		{"fig9", "memory traffic reduction (Kaggle-like)", func(sc harness.Scale, seed int64) (renderer, error) { return harness.Fig9(sc, seed) }},
		{"table1", "embedding table memory requirement", func(sc harness.Scale, seed int64) (renderer, error) { return harness.Table1(sc, false) }},
		{"table2", "average dummy reads per access", func(sc harness.Scale, seed int64) (renderer, error) { return harness.Table2(sc, seed) }},
		{"memneutral", "§VIII-C fat 9→5 vs uniform Z=6", func(sc harness.Scale, seed int64) (renderer, error) { return harness.MemNeutral(sc, seed) }},
		{"ring", "§VIII-G RingORAM vs LAORAM-on-Ring", func(sc harness.Scale, seed int64) (renderer, error) { return harness.RingExp(sc, seed) }},
		{"security", "§VI empirical uniformity/indistinguishability", func(sc harness.Scale, seed int64) (renderer, error) { return harness.Security(sc, seed) }},
		{"abl-window", "ablation: look-ahead window size", func(sc harness.Scale, seed int64) (renderer, error) { return harness.WindowSweep(sc, seed) }},
		{"abl-profile", "ablation: fat-tree capacity profile", func(sc harness.Scale, seed int64) (renderer, error) { return harness.ProfileSweep(sc, seed) }},
		{"abl-thresh", "ablation: eviction watermarks", func(sc harness.Scale, seed int64) (renderer, error) { return harness.ThreshSweep(sc, seed) }},
		{"abl-z", "ablation: bucket size × tree shape", func(sc harness.Scale, seed int64) (renderer, error) { return harness.ZSweep(sc, seed) }},
		{"abl-model", "ablation: timing-model robustness", func(sc harness.Scale, seed int64) (renderer, error) { return harness.ModelSweep(sc, seed) }},
		{"abl-batch", "ablation: batch-granularity fetch", func(sc harness.Scale, seed int64) (renderer, error) { return harness.BatchSweep(sc, seed) }},
		{"abl-shards", "ablation: shard count vs batch throughput", func(sc harness.Scale, seed int64) (renderer, error) { return harness.ShardSweep(sc, seed) }},
		{"pipeline", "§VIII-A overlap: streaming Trainer vs sequential plan-then-run", func(sc harness.Scale, seed int64) (renderer, error) { return harness.PipelineExp(sc, seed) }},
		{"elastic", "elastic serving: live migration blackout + re-placement vs rollback MTTR", func(sc harness.Scale, seed int64) (renderer, error) { return harness.ElasticExp(sc, seed) }},
		{"tiered", "tiered storage: disk-backed tree hit/miss curve vs memory budget, prefetch on/off", func(sc harness.Scale, seed int64) (renderer, error) { return harness.TieredExp(sc, seed) }},
	}
}

func main() {
	var (
		expFlag    = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		scaleFlag  = flag.String("scale", "default", "scale preset: ci, default, full")
		seedFlag   = flag.Int64("seed", 42, "deterministic experiment seed")
		csvDir     = flag.String("csv", "", "directory to also write CSV output into")
		listFlag   = flag.Bool("list", false, "list experiment ids and exit")
		jsonFlag   = flag.String("json", "", "run engine microbenchmarks and write the JSON trajectory to this file (skips -exp)")
		baseline   = flag.String("baseline", "", "with -json: compare against this committed trajectory and fail on >20% ns/op regression or any allocs/op increase")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile at the end of the run to this file")
	)
	flag.Parse()
	// All error paths return through run() rather than os.Exit so the
	// deferred profile writers always flush (a truncated CPU profile is
	// unreadable by pprof).
	os.Exit(run(*expFlag, *scaleFlag, *seedFlag, *csvDir, *listFlag, *jsonFlag, *baseline, *cpuProfile, *memProfile))
}

func run(expFlag, scaleFlag string, seed int64, csvDir string, list bool, jsonPath, baselinePath, cpuProfile, memProfile string) (code int) {
	if cpuProfile != "" {
		f, err := os.Create(cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "laorambench: cpuprofile: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "laorambench: cpuprofile: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}
	if memProfile != "" {
		defer func() {
			f, err := os.Create(memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "laorambench: memprofile: %v\n", err)
				code = 1
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "laorambench: memprofile: %v\n", err)
				code = 1
			}
		}()
	}

	exps := experiments()
	if list {
		for _, e := range exps {
			fmt.Printf("%-12s %s\n", e.id, e.desc)
		}
		return 0
	}

	var sc harness.Scale
	switch scaleFlag {
	case "ci":
		sc = harness.CIScale()
	case "default":
		sc = harness.DefaultScale()
	case "full":
		sc = harness.FullScale()
	default:
		fmt.Fprintf(os.Stderr, "laorambench: unknown scale %q (ci|default|full)\n", scaleFlag)
		return 2
	}

	if jsonPath != "" {
		start := time.Now()
		res, err := harness.EngineBench(sc, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "laorambench: engine bench: %v\n", err)
			return 1
		}
		data, err := res.JSON()
		if err != nil {
			fmt.Fprintf(os.Stderr, "laorambench: engine bench: %v\n", err)
			return 1
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "laorambench: engine bench: %v\n", err)
			return 1
		}
		fmt.Println(res.Render())
		fmt.Printf("[engine bench completed in %v; wrote %s]\n", time.Since(start).Round(time.Millisecond), jsonPath)
		if baselinePath != "" {
			if err := checkRegression(res, baselinePath); err != nil {
				fmt.Fprintf(os.Stderr, "laorambench: bench regression gate: %v\n", err)
				return 1
			}
			fmt.Printf("[bench regression gate passed against %s]\n", baselinePath)
		}
		return 0
	}

	wanted := map[string]bool{}
	runAll := expFlag == "all"
	if !runAll {
		for _, id := range strings.Split(expFlag, ",") {
			wanted[strings.TrimSpace(id)] = true
		}
		known := map[string]bool{}
		for _, e := range exps {
			known[e.id] = true
		}
		var unknown []string
		for id := range wanted {
			if !known[id] {
				unknown = append(unknown, id)
			}
		}
		if len(unknown) > 0 {
			sort.Strings(unknown)
			fmt.Fprintf(os.Stderr, "laorambench: unknown experiment(s): %s (try -list)\n", strings.Join(unknown, ", "))
			return 2
		}
	}

	fmt.Printf("LAORAM reproduction harness — scale=%s seed=%d\n\n", sc.Name, seed)
	for _, e := range exps {
		if !runAll && !wanted[e.id] {
			continue
		}
		start := time.Now()
		res, err := e.run(sc, seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "laorambench: %s: %v\n", e.id, err)
			return 1
		}
		fmt.Println(res.Render())
		fmt.Printf("[%s completed in %v]\n\n", e.id, time.Since(start).Round(time.Millisecond))
		if csvDir != "" {
			if err := writeCSV(csvDir, e.id, res); err != nil {
				fmt.Fprintf(os.Stderr, "laorambench: csv %s: %v\n", e.id, err)
				return 1
			}
		}
	}
	return 0
}

// nsRegressionTolerance is how much slower a microbenchmark may measure
// before the -baseline gate fails: wall-clock on shared CI hosts is noisy,
// so the bar is 20%. allocs/op is deterministic and gets no tolerance.
const nsRegressionTolerance = 1.20

// checkRegression compares the fresh trajectory against the committed
// BENCH_engine.json: every benchmark present in both must stay within the
// ns/op tolerance and must not allocate more. Benchmarks only one side has
// (added or retired rows) are skipped — the gate protects standing wins,
// not the row set — but a baseline that shares no row with the run, or has
// no tiered section to hold the run's against, compared nothing and is
// refused.
func checkRegression(res *harness.EngineBenchResult, baselinePath string) error {
	data, err := os.ReadFile(baselinePath)
	if err != nil {
		return err
	}
	var base harness.EngineBenchResult
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", baselinePath, err)
	}
	byName := make(map[string]harness.EngineBenchRow, len(base.Rows))
	for _, row := range base.Rows {
		byName[row.Name] = row
	}
	var failures []string
	compared := 0
	for _, row := range res.Rows {
		b, ok := byName[row.Name]
		if !ok {
			continue
		}
		compared++
		if b.NsPerOp > 0 && row.NsPerOp > b.NsPerOp*nsRegressionTolerance {
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (>%.0f%% regression)",
				row.Name, row.NsPerOp, b.NsPerOp, (nsRegressionTolerance-1)*100))
		}
		if row.AllocsPerOp > b.AllocsPerOp {
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op vs baseline %d (allocation count regressed)",
				row.Name, row.AllocsPerOp, b.AllocsPerOp))
		}
	}
	if compared == 0 {
		return fmt.Errorf("%s has none of the run's %d benchmark rows: nothing was compared", baselinePath, len(res.Rows))
	}
	if res.Tiered != nil && base.Tiered == nil {
		return fmt.Errorf("%s has no tiered section to compare the run's against", baselinePath)
	}
	failures = append(failures, checkTieredRegression(res.Tiered, base.Tiered)...)
	if len(failures) > 0 {
		return fmt.Errorf("%d regression(s) vs %s:\n  %s\n(ns/op is host-dependent; if the hardware class changed rather than the code, refresh the baseline with `go run ./cmd/laorambench -scale ci -json %s` and commit it)",
			len(failures), baselinePath, strings.Join(failures, "\n  "), baselinePath)
	}
	return nil
}

// missRegressionTolerance bounds how much the tiered demand-miss counts
// may grow over the committed baseline. Only prefetch-off rows are held
// to it: their counts are fully determined by cache geometry and the
// access plan, whereas prefetch-on counts vary run to run with how far
// ahead the worker gets (host-scheduling jitter).
const missRegressionTolerance = 1.20

// checkTieredRegression guards the tiered-storage acceptance properties:
// every sweep row must remain byte-identical to the in-memory baseline,
// the 5%-budget prefetcher must keep beating prefetch-off on demand
// misses, and per-row miss counts must not grow past the committed
// baseline by more than the tolerance.
func checkTieredRegression(cur, base *harness.TieredBench) []string {
	if cur == nil {
		return nil
	}
	var failures []string
	var on5, off5 *harness.TieredBenchRow
	baseRow := func(pct int, pf bool) *harness.TieredBenchRow {
		for i := range base.Rows {
			if base.Rows[i].BudgetPct == pct && base.Rows[i].Prefetch == pf {
				return &base.Rows[i]
			}
		}
		return nil
	}
	for i := range cur.Rows {
		row := &cur.Rows[i]
		if !row.Identical {
			failures = append(failures, fmt.Sprintf("tiered budget=%d%% prefetch=%v: diverged from the in-memory baseline",
				row.BudgetPct, row.Prefetch))
		}
		if b := baseRow(row.BudgetPct, row.Prefetch); !row.Prefetch && b != nil && b.Misses > 0 &&
			float64(row.Misses) > float64(b.Misses)*missRegressionTolerance {
			failures = append(failures, fmt.Sprintf("tiered budget=%d%% prefetch=%v: %d demand misses vs baseline %d (>%.0f%% regression)",
				row.BudgetPct, row.Prefetch, row.Misses, b.Misses, (missRegressionTolerance-1)*100))
		}
		if row.BudgetPct == 5 {
			if row.Prefetch {
				on5 = row
			} else {
				off5 = row
			}
		}
	}
	if on5 != nil && off5 != nil && on5.Misses >= off5.Misses {
		failures = append(failures, fmt.Sprintf("tiered budget=5%%: prefetch on suffered %d demand misses vs %d with prefetch off (look-ahead no longer hides miss cost)",
			on5.Misses, off5.Misses))
	}
	return failures
}

func writeCSV(dir, id string, res renderer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, id+".csv")
	switch r := res.(type) {
	case csvAble:
		return os.WriteFile(path, []byte(r.CSV()), 0o644)
	case *harness.Fig2Result:
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		return trace.WriteCSV(f, r.Stream)
	case *harness.Fig8Result:
		var sb strings.Builder
		sb.WriteString("accesses")
		for _, s := range r.Series {
			sb.WriteString("," + s.Config)
		}
		sb.WriteByte('\n')
		if len(r.Series) > 0 {
			for i := range r.Series[0].Access {
				sb.WriteString(fmt.Sprintf("%d", r.Series[0].Access[i]))
				for _, s := range r.Series {
					sb.WriteString(fmt.Sprintf(",%d", s.Stash[i]))
				}
				sb.WriteByte('\n')
			}
		}
		return os.WriteFile(path, []byte(sb.String()), 0o644)
	default:
		// Text render as fallback.
		return os.WriteFile(filepath.Join(dir, id+".txt"), []byte(res.Render()), 0o644)
	}
}
