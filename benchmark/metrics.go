package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// metricDef names one metric of the benchmark. bound is the share of the
// parent's median by which an end-to-end metric may get worse before a change
// counts as a regression; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
}

// endToEnd is what a user of the system sees, measured with tracing off.
// Every workload reports every one of them, so a step is a chunk of visitor
// calls in train-* and one request in lookup-remote, and an op is one
// trained stream index or one looked-up key.
//
// The timing bounds are the widest the contract allows, and the step tail is
// not here at all: the sizing host's memory system swings these workloads'
// speed by a fifth from minute to minute (README.md, "Spread"), which no
// estimator inside a 10 s run removes. The counts are exact per seed; their
// bounds cover the difference between seeds.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"step_ms_p50", "ms", "lower", 0.25},
	{"path_reads_per_op", "count", "lower", 0.03},
	{"bytes_moved_per_op", "B", "lower", 0.03},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer lists the traced run's metrics in the order README.md explains
// them. All are reported on every workload, zero where the layer is bypassed.
var perLayer = []metricDef{
	{"laoram.new_s", "s", "lower", 0},
	{"laoram.load_s", "s", "lower", 0},
	{"laoram.warmup_s", "s", "lower", 0},
	{"laoram.close_s", "s", "lower", 0},
	{"laoram.visit_s", "s", "lower", 0},
	{"laoram.allocs_per_op", "count", "lower", 0},
	{"laoram.alloc_bytes_per_op", "B", "lower", 0},
	{"laoram.gc_pause_ms", "ms", "lower", 0},
	{"laoram.step_ms_p95", "ms", "lower", 0},
	{"laoram.step_ms_tail", "ms", "lower", 0},
	{"laoram.step_tail_pct", "%", "higher", 0},
	{"laoram.step_samples", "count", "higher", 0},
	{"batch.exec_s", "s", "lower", 0},
	{"batch.plan_s", "s", "lower", 0},
	{"batch.trainer_stalled_s", "s", "lower", 0},
	{"batch.trainer_stalls", "count", "lower", 0},
	{"batch.planner_stalled_s", "s", "higher", 0},
	{"batch.plan_queue_mean", "count", "higher", 0},
	{"batch.windows", "count", "higher", 0},
	{"shard.bins", "count", "lower", 0},
	{"shard.ops_per_bin", "count", "higher", 0},
	{"shard.cold_path_reads", "count", "lower", 0},
	{"shard.lookahead_remap_share", "ratio", "higher", 0},
	{"oram.path_reads", "count", "lower", 0},
	{"oram.path_writes", "count", "lower", 0},
	{"oram.dummy_reads", "count", "lower", 0},
	{"oram.stash_hits", "count", "higher", 0},
	{"oram.stash_peak", "count", "lower", 0},
	{"oram.position_bytes", "B", "lower", 0},
	{"oram.store_calls", "count", "lower", 0},
	{"oram.store_slots_read", "count", "lower", 0},
	{"oram.store_slots_written", "count", "lower", 0},
	{"oram.store_s", "s", "lower", 0},
	{"oram.client_busy_s", "s", "lower", 0},
	{"crypto.seal_ns_per_slot", "ns", "lower", 0},
	{"crypto.open_ns_per_slot", "ns", "lower", 0},
	{"crypto.est_s", "s", "lower", 0},
	{"crypto.est_share", "ratio", "lower", 0},
	{"diskstore.store_s", "s", "lower", 0},
	{"diskstore.demand_stall_s", "s", "lower", 0},
	{"diskstore.hits", "count", "higher", 0},
	{"diskstore.misses", "count", "lower", 0},
	{"diskstore.hit_ratio", "ratio", "higher", 0},
	{"diskstore.prefetch_issued", "count", "lower", 0},
	{"diskstore.prefetch_useful_ratio", "ratio", "higher", 0},
	{"diskstore.arena_bytes", "B", "lower", 0},
	{"diskstore.budget_bytes", "B", "lower", 0},
	{"remote.client_calls", "count", "lower", 0},
	{"remote.calls_per_op", "count", "lower", 0},
	{"remote.client_call_s", "s", "lower", 0},
	{"remote.call_ms_p50", "ms", "lower", 0},
	{"remote.call_ms_p99", "ms", "lower", 0},
	{"remote.server_store_s", "s", "lower", 0},
	{"remote.wire_s", "s", "lower", 0},
	{"remote.admitted", "count", "higher", 0},
	{"remote.shed", "count", "lower", 0},
	{"trace.spans", "count", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
}

// metrics is one run's values by name.
type metrics map[string]float64

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 when it is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailPercent is the reporting rule for timings: beside the median, the
// highest of the usual percentiles that still has at least ten samples
// beyond it. It returns 50 when even p90 has not.
func tailPercent(samples int) float64 {
	for _, permille := range []int{999, 990, 950, 900} {
		if samples*(1000-permille) >= 10*1000 {
			return float64(permille) / 10
		}
	}
	return 50
}

// stepStats summarises step durations (ms).
type stepStats struct {
	samples       int
	p50, p95      float64
	tail, tailPct float64
}

func summariseSteps(ms []float64) stepStats {
	sort.Float64s(ms)
	pct := tailPercent(len(ms))
	return stepStats{
		samples: len(ms),
		p50:     percentile(ms, 50),
		p95:     percentile(ms, 95),
		tail:    percentile(ms, pct),
		tailPct: pct,
	}
}

// stamper samples progress inside Train from outside: the lanes' visitors
// count their calls on one atomic counter, and the call that completes a
// chunk stamps the clock. Each stamp slot is written by exactly one call, so
// lanes never contend on it; durations are read after Train has returned.
type stamper struct {
	chunk  uint64
	calls  atomic.Uint64 // every visitor call of the instance
	base   uint64        // calls made before the current phase
	start  time.Time
	stamps []time.Time
}

func newStamper(chunk, maxCalls int) *stamper {
	return &stamper{chunk: uint64(chunk), stamps: make([]time.Time, maxCalls/chunk+1)}
}

// begin starts a phase; it is called between Train calls, when no lane runs.
func (s *stamper) begin() {
	s.base = s.calls.Load()
	clear(s.stamps)
	s.start = time.Now()
}

func (s *stamper) visit() {
	if n := s.calls.Add(1) - s.base; n%s.chunk == 0 {
		if i := n/s.chunk - 1; i < uint64(len(s.stamps)) {
			s.stamps[i] = time.Now()
		}
	}
}

// chunkMs returns the duration of every completed chunk since begin.
func (s *stamper) chunkMs() []float64 {
	done := min(int((s.calls.Load()-s.base)/s.chunk), len(s.stamps))
	out := make([]float64, 0, done)
	prev := s.start
	for _, t := range s.stamps[:done] {
		out = append(out, float64(t.Sub(prev))/1e6)
		prev = t
	}
	return out
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// median returns the middle of vs (mean of the two middles when even).
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
