package harness

import (
	"context"
	"fmt"
	"time"

	laoram "repro"
	"repro/internal/memsim"
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
	const S, blockSize = 4, 128
	stream, err := workloadStream(trace.KindKaggle, entries, sc.Accesses, seed)
	if err != nil {
		return nil, err
	}
	res := &BatchSweepResult{Entries: entries, S: S}
	var baseTime time.Duration
	for _, batch := range []int{1, 4, 16, 64} {
		db, err := laoram.New(laoram.Options{
			Entries: entries, BlockSize: blockSize, MetadataOnly: true, Seed: seed + 31,
		})
		if err != nil {
			return nil, err
		}
		_, err = db.Train(context.Background(), laoram.TrainOptions{
			Source: laoram.FromSlice(stream), Superblock: S, BatchBins: batch, PrePlace: true,
		})
		rr := result(db.Stats())
		db.Close()
		if err != nil {
			return nil, fmt.Errorf("batch %d: %w", batch, err)
		}
		if batch == 1 {
			baseTime = rr.SimTime
		}
		res.Rows = append(res.Rows, BatchRow{
			BatchBins:  batch,
			SlotsMoved: rr.BytesMoved / blockSize,
			SimTime:    rr.SimTime,
			Speedup:    memsim.Speedup(baseTime, rr.SimTime),
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
