package harness

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	laoram "repro"
	"repro/internal/trace"
)

// tieredabl.go measures the tiered storage backend (internal/diskstore):
// the ORAM tree lives in a disk arena and a bounded bucket cache absorbs
// the working set, with the §IV-B look-ahead plan doubling as a prefetch
// oracle. The experiment sweeps the memory budget over {100%, 25%, 5%} of
// the tree size, with the plan-driven prefetcher on and off, against one
// in-memory baseline, and reports the hit/miss curve, how much demand
// stall the prefetcher hides, and throughput. Every configuration must be
// byte-identical to the in-memory run (DESIGN.md invariant #14: prefetch
// and cache policy move disk I/O in time, never client-visible state).

// tieredBudgetSweep is the measured budgets as percent of tree size.
var tieredBudgetSweep = []int{100, 25, 5}

// TieredRow is one (budget, prefetch) configuration of the sweep.
type TieredRow struct {
	// BudgetPct is the memory budget as a percentage of the tree size.
	BudgetPct int
	// Prefetch reports whether the look-ahead prefetcher was enabled.
	Prefetch bool
	// Hits and Misses are the store tier's cache counters for the run.
	Hits, Misses uint64
	// PrefetchIssued / PrefetchUseful count buckets the prefetcher
	// faulted in, and how many of those a later demand access hit.
	PrefetchIssued, PrefetchUseful uint64
	// DemandStall is wall-clock the client spent blocked on demand reads.
	DemandStall time.Duration
	// Wall is the batched training session's wall-clock.
	Wall time.Duration
	// Throughput is logical accesses per second.
	Throughput float64
	// Identical reports byte-identity with the in-memory baseline (read
	// payloads and session counters).
	Identical bool
}

// TieredResult is the tiered experiment outcome.
type TieredResult struct {
	Entries   uint64
	BlockSize int
	S         int
	BatchBins int
	// TreeBytes is the whole-tree cache requirement the budgets scale.
	TreeBytes int64
	// MemWall / MemThroughput are the in-memory baseline.
	MemWall       time.Duration
	MemThroughput float64
	Rows          []TieredRow
}

// tieredRun is one configuration's observable outcome plus telemetry.
type tieredRun struct {
	wall  time.Duration
	stats laoram.Stats
	sess  laoram.SessionStats
	reads [][]byte
	tree  int64
}

// runTiered executes the standard batched training run (the stream as one
// pre-placed §IV-B window, read-modify-write visitor) on either the
// in-memory store (dataDir == "") or the disk tier.
func runTiered(entries uint64, blockSize int, seed int64, stream []uint64, s, batchBins int, dataDir string, budget int64, prefetch bool) (tieredRun, error) {
	var out tieredRun
	db, err := laoram.New(laoram.Options{
		Entries:         entries,
		BlockSize:       blockSize,
		FatTree:         true,
		Seed:            seed,
		DataDir:         dataDir,
		MemBudget:       budget,
		DisablePrefetch: dataDir != "" && !prefetch,
	})
	if err != nil {
		return out, err
	}
	defer db.Close()
	ts, err := db.Train(context.Background(), laoram.TrainOptions{
		Source:     laoram.FromSlice(stream),
		Superblock: s,
		BatchBins:  batchBins,
		PrePlace:   true,
		Payload: func(id uint64) []byte {
			row := make([]byte, blockSize)
			row[0] = byte(id)
			row[1] = byte(id >> 8)
			return row
		},
		Visit: func(id uint64, row []byte) []byte {
			row[0]++
			return row
		},
	})
	if err != nil {
		return out, err
	}
	out.wall = ts.TrainTime
	for i := uint64(0); i < 64; i++ {
		row, err := db.Read((i * 131) % entries)
		if err != nil {
			return out, err
		}
		out.reads = append(out.reads, row)
	}
	out.stats = db.Stats()
	out.sess = ts.Session
	out.tree = db.TierBytes()
	return out, nil
}

// tieredIdentical compares a disk run against the in-memory baseline on
// everything the client can observe: read payloads and session counters,
// plus the engine stats with the disk run's own tier telemetry masked out.
func tieredIdentical(mem, disk tieredRun) bool {
	if len(mem.reads) != len(disk.reads) {
		return false
	}
	for i := range mem.reads {
		if !bytes.Equal(mem.reads[i], disk.reads[i]) {
			return false
		}
	}
	ds := disk.stats
	ds.TierHits, ds.TierMisses = 0, 0
	ds.TierPrefetchIssued, ds.TierPrefetchUseful = 0, 0
	ds.TierStallSeconds = 0
	return mem.sess == disk.sess && mem.stats == ds
}

// TieredExp sweeps the disk tier's memory budget with the prefetcher on
// and off. The arenas live in a throwaway temp directory; each
// configuration gets a fresh one so every run starts cold.
func TieredExp(sc Scale, seed int64) (*TieredResult, error) {
	const s = 8
	const batchBins = 16
	entries := sc.EntriesSmall
	blockSize := 128
	stream, err := workloadStream(trace.KindKaggle, entries, sc.Accesses, seed+71)
	if err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp("", "laoram-tiered-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	mem, err := runTiered(entries, blockSize, seed, stream, s, batchBins, "", 0, false)
	if err != nil {
		return nil, fmt.Errorf("tiered in-memory baseline: %w", err)
	}
	res := &TieredResult{
		Entries: entries, BlockSize: blockSize, S: s, BatchBins: batchBins,
		MemWall: mem.wall,
	}
	if mem.wall > 0 {
		res.MemThroughput = float64(len(stream)) / mem.wall.Seconds()
	}

	for _, pct := range tieredBudgetSweep {
		for _, prefetch := range []bool{true, false} {
			dir := fmt.Sprintf("%s/pct%d-pf%v", root, pct, prefetch)
			budget := int64(0) // 100%: unbounded — the whole tree fits
			if pct < 100 {
				if res.TreeBytes == 0 {
					return nil, fmt.Errorf("tiered: tree size unknown before partial-budget runs")
				}
				budget = res.TreeBytes * int64(pct) / 100
			}
			run, err := runTiered(entries, blockSize, seed, stream, s, batchBins, dir, budget, prefetch)
			if err != nil {
				return nil, fmt.Errorf("tiered budget=%d%% prefetch=%v: %w", pct, prefetch, err)
			}
			if res.TreeBytes == 0 {
				res.TreeBytes = run.tree
			}
			row := TieredRow{
				BudgetPct:      pct,
				Prefetch:       prefetch,
				Hits:           run.stats.TierHits,
				Misses:         run.stats.TierMisses,
				PrefetchIssued: run.stats.TierPrefetchIssued,
				PrefetchUseful: run.stats.TierPrefetchUseful,
				DemandStall:    time.Duration(run.stats.TierStallSeconds * float64(time.Second)),
				Wall:           run.wall,
				Identical:      tieredIdentical(mem, run),
			}
			if run.wall > 0 {
				row.Throughput = float64(len(stream)) / run.wall.Seconds()
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Row returns the (budget, prefetch) row, or nil.
func (r *TieredResult) Row(pct int, prefetch bool) *TieredRow {
	for i := range r.Rows {
		if r.Rows[i].BudgetPct == pct && r.Rows[i].Prefetch == prefetch {
			return &r.Rows[i]
		}
	}
	return nil
}

// Render formats the tiered sweep.
func (r *TieredResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("Tiered — disk-backed tree, look-ahead prefetch (N=%d, %d B blocks, S=%d, tree %.1f MB, memory baseline %s)",
			r.Entries, r.BlockSize, r.S, float64(r.TreeBytes)/(1<<20), r.MemWall.Round(time.Millisecond)),
		Headers: []string{"budget", "prefetch", "hits", "demand misses", "pf issued", "pf useful", "demand stall", "acc/s", "identical"},
	}
	for _, row := range r.Rows {
		pf := "off"
		if row.Prefetch {
			pf = "on"
		}
		t.AddRow(fmt.Sprintf("%d%%", row.BudgetPct), pf,
			fmt.Sprintf("%d", row.Hits), fmt.Sprintf("%d", row.Misses),
			fmt.Sprintf("%d", row.PrefetchIssued), fmt.Sprintf("%d", row.PrefetchUseful),
			row.DemandStall.Round(time.Microsecond).String(),
			f2(row.Throughput), fmt.Sprintf("%v", row.Identical))
	}
	t.AddNote("every configuration is byte-identical to the in-memory run (DESIGN.md invariant #14)")
	t.AddNote("at the 5%% budget the plan-driven prefetcher absorbs demand misses the cache cannot")
	return t.Render()
}

// CSV exports the sweep.
func (r *TieredResult) CSV() string {
	var sb strings.Builder
	sb.WriteString("budget_pct,prefetch,cache_hits,demand_misses,prefetch_issued,prefetch_useful,demand_stall_ns,wall_ns,throughput,identical\n")
	for _, row := range r.Rows {
		sb.WriteString(fmt.Sprintf("%d,%v,%d,%d,%d,%d,%d,%d,%.2f,%v\n",
			row.BudgetPct, row.Prefetch, row.Hits, row.Misses,
			row.PrefetchIssued, row.PrefetchUseful,
			row.DemandStall.Nanoseconds(), row.Wall.Nanoseconds(), row.Throughput, row.Identical))
	}
	return sb.String()
}
