package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/memsim"
	"repro/internal/oram"
	"repro/internal/superblock"
	"repro/internal/trace"
)

// BatchRow is one batch-size configuration.
type BatchRow struct {
	BatchBins  int
	SlotsMoved uint64
	SimTime    time.Duration
	Speedup    float64 // vs batch=1
}

// BatchSweepResult is the abl-batch ablation: fetching several superblock
// bins per server round trip dedups shared buckets (§IV-A's per-batch
// fetch), trading client buffering for traffic.
type BatchSweepResult struct {
	Entries uint64
	S       int
	Rows    []BatchRow
}

// BatchSweep measures traffic and simulated time across batch sizes.
func BatchSweep(sc Scale, seed int64) (*BatchSweepResult, error) {
	entries := sc.EntriesSmall
	const S = 4
	stream, err := workloadStream(trace.KindKaggle, entries, sc.Accesses, seed)
	if err != nil {
		return nil, err
	}
	res := &BatchSweepResult{Entries: entries, S: S}
	var baseTime time.Duration
	for _, batch := range []int{1, 4, 16, 64} {
		g, err := oram.NewGeometry(oram.GeometryConfig{
			LeafBits: oram.LeafBitsFor(entries), LeafZ: 4, BlockSize: 128,
		})
		if err != nil {
			return nil, err
		}
		meter := memsim.NewMeter(memsim.DDR4Default())
		cs := oram.NewCountingStore(oram.NewMetaStore(g), meter)
		base, err := oram.NewClient(oram.ClientConfig{
			Store: cs, Rand: trace.NewRNG(seed + 31), Evict: oram.PaperEvict,
			Timer: meter, StashHits: true, Blocks: entries,
		})
		if err != nil {
			return nil, err
		}
		plan, err := superblock.NewPlan(stream, superblock.PlanConfig{
			S: S, Leaves: g.Leaves(), Rand: trace.NewRNG(seed + 32),
		})
		if err != nil {
			return nil, err
		}
		la, err := core.New(core.Config{Base: base, Plan: plan})
		if err != nil {
			return nil, err
		}
		if err := la.LoadPrePlaced(entries, nil); err != nil {
			return nil, err
		}
		cs.ResetCounters()
		meter.Reset()
		if err := la.Run(context.Background(), batch, nil); err != nil {
			return nil, fmt.Errorf("batch %d: %w", batch, err)
		}
		c := cs.Counters()
		if batch == 1 {
			baseTime = meter.Now()
		}
		res.Rows = append(res.Rows, BatchRow{
			BatchBins:  batch,
			SlotsMoved: c.SlotReads + c.SlotWrites,
			SimTime:    meter.Now(),
			Speedup:    memsim.Speedup(baseTime, meter.Now()),
		})
	}
	return res, nil
}

// Render formats the batch sweep.
func (r *BatchSweepResult) Render() string {
	t := Table{
		Title:   fmt.Sprintf("Ablation — batch-granularity fetch (Kaggle-like, N=%d, S=%d)", r.Entries, r.S),
		Headers: []string{"bins/batch", "slots moved", "sim time", "speedup vs batch=1"},
	}
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%d", row.BatchBins), fmt.Sprintf("%d", row.SlotsMoved),
			row.SimTime.Round(time.Microsecond).String(), f2(row.Speedup)+"x")
	}
	t.AddNote("batched fetches read/write buckets shared between the batch's paths once (§IV-A's per-training-batch flow)")
	return t.Render()
}
