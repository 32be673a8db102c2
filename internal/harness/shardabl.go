package harness

import (
	"context"
	"fmt"
	"time"

	laoram "repro"
	"repro/internal/batch"
	"repro/internal/memsim"
	"repro/internal/oram"
	"repro/internal/shard"
	"repro/internal/trace"
)

// ShardRow is one shard-count configuration of the abl-shards ablation.
type ShardRow struct {
	Shards int
	// SimTime is the slowest shard's simulated clock over the session
	// (shards are independent memory channels; elapsed time is the
	// critical lane).
	SimTime time.Duration
	// Throughput is logical accesses per second of simulated time.
	Throughput float64
	// Speedup is Throughput relative to the 1-shard row.
	Speedup float64
	// WallTime is the host wall clock for the same run (one worker
	// goroutine per shard; tracks SimTime's shape on multicore hosts).
	WallTime time.Duration
	// StashPeakSum is total trusted stash occupancy at peak, summed
	// across shards; StashPeakMax is the largest single shard's peak.
	StashPeakSum int
	StashPeakMax int
	// SlotsMoved is total server traffic across shards (slot reads +
	// writes; metadata-only stores move no payload bytes).
	SlotsMoved uint64
}

// ShardSweepResult is the abl-shards ablation: LAORAM batch throughput and
// stash occupancy vs shard count. Per-shard trees are both smaller
// (fewer levels per path) and independent (paths fetch in parallel), so
// simulated throughput scales close to linearly while per-shard stash
// pressure drops with the partition size.
type ShardSweepResult struct {
	Entries  uint64
	S        int
	Accesses int
	Rows     []ShardRow
}

// buildShardEngine assembles an n-shard metadata-only engine with
// per-shard meters and traffic counters (the harness measurement stack).
func buildShardEngine(entries uint64, n int, seed int64) (*shard.Engine, error) {
	return shard.New(shard.Config{
		Shards:  n,
		Entries: entries,
		Seed:    seed,
		Build: func(s int, per uint64, sd int64) (shard.Sub, error) {
			g, err := oram.NewGeometry(oram.GeometryConfig{
				LeafBits: oram.LeafBitsFor(per), LeafZ: 4,
			})
			if err != nil {
				return shard.Sub{}, err
			}
			meter := memsim.NewMeter(memsim.DDR4Default())
			cs := oram.NewCountingStore(oram.NewMetaStore(g), meter)
			client, err := oram.NewClient(oram.ClientConfig{
				Store: cs, Rand: trace.NewRNG(sd), Evict: oram.PaperEvict,
				Timer: meter, StashHits: true, Blocks: per,
			})
			if err != nil {
				return shard.Sub{}, err
			}
			return shard.Sub{Client: client, Store: cs, Meter: meter}, nil
		},
	})
}

// ShardSweep measures the sharded engine across shard counts on the
// Kaggle-like workload: the whole stream planned as one window, pre-placed,
// then executed through the concurrent per-shard scheduler.
func ShardSweep(sc Scale, seed int64) (*ShardSweepResult, error) {
	entries := sc.EntriesSmall
	const S = 4
	stream, err := workloadStream(trace.KindKaggle, entries, sc.Accesses, seed)
	if err != nil {
		return nil, err
	}
	res := &ShardSweepResult{Entries: entries, S: S, Accesses: sc.Accesses}
	var baseThroughput float64
	for _, n := range []int{1, 2, 4, 8} {
		e, err := buildShardEngine(entries, n, seed)
		if err != nil {
			return nil, err
		}
		// One whole-stream pre-placed window: byte-identical to
		// Preprocess → LoadForPlan → Session.Run (DESIGN.md invariant #9).
		ts, err := batch.Train(context.Background(), e, laoram.FromSlice(stream), batch.TrainConfig{S: S, PrePlace: true})
		if err != nil {
			return nil, fmt.Errorf("shards=%d: %w", n, err)
		}
		st := e.Stats()
		row := ShardRow{
			Shards:     n,
			SimTime:    st.SimTime,
			WallTime:   ts.TrainTime,
			SlotsMoved: st.Counters.SlotReads + st.Counters.SlotWrites,
		}
		if st.SimTime > 0 {
			row.Throughput = float64(st.Access.Accesses) / st.SimTime.Seconds()
		}
		for i := 0; i < n; i++ {
			p := e.Sub(i).Client.Stash().Peak()
			row.StashPeakSum += p
			if p > row.StashPeakMax {
				row.StashPeakMax = p
			}
		}
		if n == 1 {
			baseThroughput = row.Throughput
		}
		if baseThroughput > 0 {
			row.Speedup = row.Throughput / baseThroughput
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the shard sweep.
func (r *ShardSweepResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("Ablation — shard count (Kaggle-like, N=%d, S=%d, %d accesses)",
			r.Entries, r.S, r.Accesses),
		Headers: []string{"shards", "sim time", "Kacc/s (sim)", "speedup", "wall time", "stash peak Σ/max", "slots moved"},
	}
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%d", row.Shards),
			row.SimTime.Round(time.Microsecond).String(),
			f2(row.Throughput/1e3),
			f2(row.Speedup)+"x",
			row.WallTime.Round(time.Millisecond).String(),
			fmt.Sprintf("%d/%d", row.StashPeakSum, row.StashPeakMax),
			fmt.Sprintf("%d", row.SlotsMoved),
		)
	}
	t.AddNote("each shard is an independent tree with its own DDR4 channel meter; sim time is the slowest shard's clock (the critical lane)")
	t.AddNote("per-shard trees are log2(shards) levels shorter, so traffic also drops as shards increase")
	return t.Render()
}
