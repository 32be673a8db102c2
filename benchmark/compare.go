package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// compare reads two set files and judges the second against the first:
//
//	benchmark compare parent.jsonl change.jsonl   # a change against its parent
//	benchmark compare setA.jsonl setB.jsonl       # two sets of one commit
//
// For every (workload, end-to-end metric) it prints both medians, how much
// worse B's median is than A's as a share of A's, the bound, and each set's
// spread: the distance between the quartiles as a share of the median. It
// exits 1 when a metric is worse by more than its bound. A metric whose spread
// exceeds its bound in either set is marked unresolved: the sets cannot show
// a difference that small.

func readSet(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// quartiles returns the cut points Python's statistics.quantiles(vs, n=4)
// gives (the exclusive method), so the spread here is the one the acceptance
// check computes. It needs at least two values.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the interquartile distance as a share of the median.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(vs)
	return ratio(q3-q1, median(vs))
}

// worsening is how much worse b is than a, as a share of a (negative when b
// is better).
func worsening(d metricDef, a, b float64) float64 {
	if d.better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// values collects metric name of workload w over a set's runs of one kind.
func values(recs []record, w string, trace int, name string) []float64 {
	var vs []float64
	for _, r := range recs {
		if r.Workload != w || r.Trace != trace || r.Result == nil {
			continue
		}
		if m, ok := r.Metrics[name]; ok {
			vs = append(vs, m.Value)
		}
	}
	return vs
}

func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: benchmark compare <setA.jsonl> <setB.jsonl>")
		return 2
	}
	a, err := readSet(args[0])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	b, err := readSet(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "benchmark compare:", err)
		return 2
	}
	regressions, compared := 0, 0
	for _, r := range append(a[:len(a):len(a)], b...) {
		if r.Result != nil && !r.Correct {
			fmt.Fprintf(stdout, "FAILED RUN  %s seed %d trace %d: %d of %d failed\n", r.Workload, r.Seed, r.Trace, r.Failed, r.Attempted)
			regressions++
		}
	}
	fmt.Fprintf(stdout, "%-14s %-28s %14s %14s %9s %7s %9s %9s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "bound", "spread A", "spread B", "verdict")
	for _, w := range workloads {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				va, vb := values(a, w.name, trace, d.name), values(b, w.name, trace, d.name)
				if len(va) == 0 || len(vb) == 0 {
					continue
				}
				ma, mb := median(va), median(vb)
				worse := worsening(d, ma, mb)
				sa, sb := spread(va), spread(vb)
				verdict := ""
				if trace == 0 {
					compared++
					switch {
					case worse > d.bound:
						verdict = "REGRESSION"
						regressions++
					case sa > d.bound || sb > d.bound:
						verdict = "unresolved (spread > bound)"
					default:
						verdict = "ok"
					}
				}
				fmt.Fprintf(stdout, "%-14s %-28s %14.6g %14.6g %+8.2f%% %6.1f%% %8.2f%% %8.2f%%  %s\n",
					w.name, d.name, ma, mb, 100*worse, 100*d.bound, 100*sa, 100*sb, verdict)
			}
		}
	}
	if compared == 0 {
		fmt.Fprintln(stderr, "benchmark compare: the sets share no untraced run of any workload")
		return 2
	}
	if regressions > 0 {
		fmt.Fprintf(stdout, "%d regression(s) or failed run(s)\n", regressions)
		return 1
	}
	return 0
}
