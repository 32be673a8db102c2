package harness

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"repro/internal/crypto"
	"repro/internal/oram"
)

// enginebench.go runs the engine microbenchmarks (ISSUE 3: the
// allocation-free hot path) through testing.Benchmark so `laorambench
// -json` can emit a machine-readable performance trajectory,
// BENCH_engine.json: ns/op, B/op and allocs/op per benchmark, the pinned
// pre-refactor baseline for comparison, and the simulated Fig. 7e speedups
// at the chosen scale.

// EngineBenchRow is one microbenchmark measurement.
type EngineBenchRow struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// engineBaseline pins the pre-refactor numbers (measured at the commit
// preceding the allocation-free hot path, Intel Xeon @ 2.10 GHz,
// go1.24 linux/amd64) so the JSON trajectory always carries the reference
// point the ≥50% allocs/op reduction is judged against. ns/op is
// host-dependent and indicative; allocs/op and B/op are deterministic.
var engineBaseline = []EngineBenchRow{
	{Name: "AccessSteadyState", NsPerOp: 5470, BytesPerOp: 1800, AllocsPerOp: 40},
	{Name: "WriteBackPath", NsPerOp: 2123, BytesPerOp: 813, AllocsPerOp: 7},
	{Name: "AccessSealed", NsPerOp: 29808, BytesPerOp: 28887, AllocsPerOp: 221},
	{Name: "SealOpen", NsPerOp: 1860, BytesPerOp: 2336, AllocsPerOp: 16},
	// The joint write-back row's reference point is the commit preceding
	// the linear-time placement sweep (ISSUE 14; 2-vCPU container, go1.24):
	// already allocation-free, quadratic in stash × bucket union.
	{Name: "WriteBackPathsBatch", NsPerOp: 27966000, BytesPerOp: 0, AllocsPerOp: 0},
	// The 4 KB row's reference point is the commit preceding one-pass
	// AES-GCM sealing (ISSUE 15; same container): SealTo+OpenTo through the
	// per-block CTR loop and HMAC-SHA-256, already allocation-free.
	{Name: "SealOpen4K", NsPerOp: 18420, BytesPerOp: 0, AllocsPerOp: 0},
}

// PipelineBench is the streaming-pipeline point of the trajectory: the
// §VIII-A overlap speedup of the pipelined Trainer over the sequential
// arrive-plan-run schedule (see PipelineExp).
type PipelineBench struct {
	SeqWallMs  float64 `json:"seq_wall_ms"`
	PipeWallMs float64 `json:"pipelined_wall_ms"`
	PlanMs     float64 `json:"plan_ms"`
	TrainMs    float64 `json:"train_ms"`
	StalledMs  float64 `json:"stalled_ms"`
	// The first-class TrainStats pipeline counters (previously stalled_ms
	// was the only stall observability and was inferred externally).
	TrainerStalls    int     `json:"trainer_stalls"`
	PlannerStalledMs float64 `json:"planner_stalled_ms"`
	QueuePeak        int     `json:"plan_queue_peak"`
	QueueMean        float64 `json:"plan_queue_mean"`
	Windows          int     `json:"windows"`
	FeedRate         int     `json:"feed_rate_idx_per_s"`
	OverlapGain      float64 `json:"overlap_speedup"`
}

// SealedBenchRow is one point of the crypto fan-out sweep. A width above
// the recording host's cpus carries "skipped" and no numbers.
type SealedBenchRow struct {
	Workers     int     `json:"workers"`
	Skipped     bool    `json:"skipped,omitempty"`
	NsPerAccess float64 `json:"ns_per_access,omitempty"`
	Speedup     float64 `json:"speedup_vs_serial,omitempty"`
}

// SealedBench records the sealed worker sweep: batched sealed-session
// throughput on 4 KB rows vs Options.CryptoWorkers, for the widths the
// recording host (cpus) can show. TestSealedExperiment gates the sweep's
// cross-width identity, not its wall-clock.
type SealedBench struct {
	CPUs      int              `json:"cpus"`
	Entries   uint64           `json:"entries"`
	BlockSize int              `json:"block_size"`
	Rows      []SealedBenchRow `json:"sweep"`
}

// ElasticBench records the elastic-serving points of the trajectory (the
// PR 8 acceptance metrics): the live-migration blackout per shard and the
// repair-time (MTTR) and replay-volume comparison between health-based
// re-placement and the full rollback on the same fault schedule.
type ElasticBench struct {
	MigratedShards       int     `json:"migrated_shards"`
	MigrationBlackoutMs  float64 `json:"migration_blackout_ms"`
	ReplaceMTTRMs        float64 `json:"replace_mttr_ms"`
	RollbackMTTRMs       float64 `json:"rollback_mttr_ms"`
	ReplaceRewound       uint64  `json:"replace_rewound_accesses"`
	RollbackRewound      uint64  `json:"rollback_rewound_accesses"`
	MigrationIdentical   bool    `json:"migration_identical"`
	ReplacementIdentical bool    `json:"replacement_identical"`
}

// TieredBenchRow is one (budget, prefetch) point of the tiered sweep.
type TieredBenchRow struct {
	BudgetPct      int     `json:"budget_pct"`
	Prefetch       bool    `json:"prefetch"`
	Hits           uint64  `json:"cache_hits"`
	Misses         uint64  `json:"demand_misses"`
	PrefetchIssued uint64  `json:"prefetch_issued"`
	PrefetchUseful uint64  `json:"prefetch_useful"`
	DemandStallMs  float64 `json:"demand_stall_ms"`
	Throughput     float64 `json:"accesses_per_sec"`
	Identical      bool    `json:"identical"`
}

// TieredBench records the tiered-storage sweep (PR 9's acceptance curve):
// the disk-backed store's hit/miss curve over memory budgets of
// {100, 25, 5}% of tree size, with the look-ahead prefetcher on and off.
// Every row must be byte-identical to the in-memory baseline, and at the
// 5% budget prefetch must reduce effective miss cost (fewer demand
// misses, less demand stall).
type TieredBench struct {
	TreeBytes     int64            `json:"tree_bytes"`
	MemThroughput float64          `json:"mem_accesses_per_sec"`
	Rows          []TieredBenchRow `json:"sweep"`
}

// OverloadBenchRow is one configuration of the serve-overload drill.
type OverloadBenchRow struct {
	Config         string  `json:"config"`
	Aggressor      bool    `json:"aggressor"`
	OfferedFair    float64 `json:"offered_fair_req_s"`
	FairGoodput    float64 `json:"fair_goodput_req_s"`
	FairMinGoodput float64 `json:"fair_min_goodput_req_s"`
	FairP50Ms      float64 `json:"fair_p50_ms"`
	FairP95Ms      float64 `json:"fair_p95_ms"`
	FairP99Ms      float64 `json:"fair_p99_ms"`
	FairShedRate   float64 `json:"fair_shed_rate"`
	AggrGoodput    float64 `json:"aggr_goodput_req_s"`
	AggrShedRate   float64 `json:"aggr_shed_rate"`
	ServerShed     uint64  `json:"server_shed"`
}

// OverloadBench records the serve-overload drill (PR 10's acceptance
// curves): well-behaved-client goodput and tail latency with and without
// an aggressor connection, under FIFO dispatch vs per-connection fair
// queueing, plus the byte-transparency identity verdict (invariant 15).
type OverloadBench struct {
	CapacityReqS      float64            `json:"capacity_req_s"`
	Workers           int                `json:"workers"`
	FairClients       int                `json:"fair_clients"`
	Rows              []OverloadBenchRow `json:"rows"`
	IdentitySheds     uint64             `json:"identity_sheds"`
	IdentityIdentical bool               `json:"identity_identical"`
}

// EngineBenchResult is the BENCH_engine.json document.
type EngineBenchResult struct {
	GoVersion string             `json:"go_version"`
	GOOS      string             `json:"goos"`
	GOARCH    string             `json:"goarch"`
	Scale     string             `json:"scale"`
	Seed      int64              `json:"seed"`
	Rows      []EngineBenchRow   `json:"benchmarks"`
	Baseline  []EngineBenchRow   `json:"baseline_pre_refactor"`
	Speedups  map[string]float64 `json:"fig7e_sim_speedups"`
	Pipeline  *PipelineBench     `json:"pipeline_overlap,omitempty"`
	Sealed    *SealedBench       `json:"sealed_workers,omitempty"`
	Elastic   *ElasticBench      `json:"elastic,omitempty"`
	Tiered    *TieredBench       `json:"tiered,omitempty"`
	Overload  *OverloadBench     `json:"overload,omitempty"`
}

// JSON renders the document with stable indentation.
func (r *EngineBenchResult) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Render implements the harness renderer: a compact before/after table.
func (r *EngineBenchResult) Render() string {
	var sb strings.Builder
	sb.WriteString("Engine microbenchmarks (current vs pre-refactor baseline)\n")
	sb.WriteString(fmt.Sprintf("%-20s %12s %10s %12s %14s\n", "benchmark", "ns/op", "allocs/op", "base-ns/op", "base-allocs/op"))
	base := make(map[string]EngineBenchRow, len(r.Baseline))
	for _, b := range r.Baseline {
		base[b.Name] = b
	}
	for _, row := range r.Rows {
		b := base[row.Name]
		sb.WriteString(fmt.Sprintf("%-20s %12.0f %10d %12.0f %14d\n",
			row.Name, row.NsPerOp, row.AllocsPerOp, b.NsPerOp, b.AllocsPerOp))
	}
	for k, v := range r.Speedups {
		sb.WriteString(fmt.Sprintf("fig7e %-24s %.2fx\n", k, v))
	}
	if p := r.Pipeline; p != nil {
		sb.WriteString(fmt.Sprintf("pipeline overlap            %.2fx (seq %.0fms → pipelined %.0fms, %d windows, %d stalls, queue mean %.2f)\n",
			p.OverlapGain, p.SeqWallMs, p.PipeWallMs, p.Windows, p.TrainerStalls, p.QueueMean))
	}
	if s := r.Sealed; s != nil {
		for _, row := range s.Rows {
			if row.Skipped {
				sb.WriteString(fmt.Sprintf("sealed workers=%d            skipped\n", row.Workers))
				continue
			}
			sb.WriteString(fmt.Sprintf("sealed workers=%d            %8.0f ns/access  %.2fx\n",
				row.Workers, row.NsPerAccess, row.Speedup))
		}
		sb.WriteString(fmt.Sprintf("sealed sweep on %d cpu(s) — wider rows are not recorded\n", s.CPUs))
	}
	if e := r.Elastic; e != nil {
		sb.WriteString(fmt.Sprintf("elastic migration           %d shard(s), %.2fms blackout, identical=%v\n",
			e.MigratedShards, e.MigrationBlackoutMs, e.MigrationIdentical))
		sb.WriteString(fmt.Sprintf("elastic re-placement        MTTR %.2fms vs rollback %.2fms; replayed %d vs %d accesses, identical=%v\n",
			e.ReplaceMTTRMs, e.RollbackMTTRMs, e.ReplaceRewound, e.RollbackRewound, e.ReplacementIdentical))
	}
	if o := r.Overload; o != nil {
		for _, row := range o.Rows {
			aggr := "-"
			if row.Aggressor {
				aggr = "10x"
			}
			sb.WriteString(fmt.Sprintf("overload %-8s aggr=%-3s   fair %6.1f/%.1f req/s  p99 %.1fms  aggr shed %.0f%%\n",
				row.Config, aggr, row.FairGoodput, row.OfferedFair*float64(o.FairClients), row.FairP99Ms, row.AggrShedRate*100))
		}
		sb.WriteString(fmt.Sprintf("overload capacity %.0f req/s, identity sheds %d, byte-identical=%v\n",
			o.CapacityReqS, o.IdentitySheds, o.IdentityIdentical))
	}
	if td := r.Tiered; td != nil {
		for _, row := range td.Rows {
			pf := "off"
			if row.Prefetch {
				pf = "on"
			}
			sb.WriteString(fmt.Sprintf("tiered budget=%3d%% pf=%-3s   %6d hits %6d misses  stall %.2fms  identical=%v\n",
				row.BudgetPct, pf, row.Hits, row.Misses, row.DemandStallMs, row.Identical))
		}
		sb.WriteString(fmt.Sprintf("tiered tree %.1f MB, in-memory baseline %.0f acc/s\n",
			float64(td.TreeBytes)/(1<<20), td.MemThroughput))
	}
	return sb.String()
}

func benchRow(name string, fn func(b *testing.B)) EngineBenchRow {
	res := testing.Benchmark(fn)
	return EngineBenchRow{
		Name:        name,
		NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
		BytesPerOp:  res.AllocedBytesPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
	}
}

// engineClient builds a loaded steady-state PathORAM client for the
// microbenchmarks (mirrors internal/oram's hotpath benchmarks).
func engineClient(leafBits int, sealer oram.Sealer, blockSize int) (*oram.Client, error) {
	g, err := oram.NewGeometry(oram.GeometryConfig{LeafBits: leafBits, LeafZ: 4, BlockSize: blockSize})
	if err != nil {
		return nil, err
	}
	var inner oram.Store
	if blockSize > 0 {
		ps, err := oram.NewPayloadStore(g, sealer)
		if err != nil {
			return nil, err
		}
		inner = ps
	} else {
		inner = oram.NewMetaStore(g)
	}
	blocks := uint64(1) << uint(leafBits+1)
	c, err := oram.NewClient(oram.ClientConfig{
		Store:     oram.NewCountingStore(inner, nil),
		Rand:      rand.New(rand.NewSource(1)),
		Evict:     oram.PaperEvict,
		StashHits: true,
		Blocks:    blocks,
	})
	if err != nil {
		return nil, err
	}
	var payload func(oram.BlockID) []byte
	if blockSize > 0 {
		row := make([]byte, blockSize)
		payload = func(oram.BlockID) []byte { return row }
	}
	if err := c.Load(blocks, nil, payload); err != nil {
		return nil, err
	}
	for i := uint64(0); i < 512; i++ {
		if _, err := c.Access(oram.OpRead, oram.BlockID(i%blocks), nil); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// batchShape drives the per-shard ORAM client of batched remote training
// (mirrors internal/oram's BenchmarkWriteBackPathsBatch, which documents the
// construction): 2^16 blocks on a fat tree, L=16, buckets 8→4; every round
// fetches the paths of 64 blocks jointly, remaps each block and writes the
// paths back jointly, placing from a stash of about 2 000 blocks — 1400 of
// them waiting for paths no round fetches — into a union of about 650
// buckets.
type batchShape struct {
	c      *oram.Client
	rng    *rand.Rand
	ids    []oram.BlockID
	leaves []oram.Leaf
}

func newBatchShape() (*batchShape, error) {
	const blocks, paths, waiting, warmRounds = 1 << 16, 64, 1400, 1000
	g, err := oram.NewGeometry(oram.GeometryConfig{LeafBits: 16, LeafZ: 4, RootZ: 8, Profile: oram.ProfileLinear})
	if err != nil {
		return nil, err
	}
	c, err := oram.NewClient(oram.ClientConfig{
		Store:  oram.NewCountingStore(oram.NewMetaStore(g), nil),
		Rand:   rand.New(rand.NewSource(6)),
		Blocks: blocks,
	})
	if err != nil {
		return nil, err
	}
	half := int64(g.Leaves() / 2)
	if err := c.Load(blocks, func(oram.BlockID) oram.Leaf { return oram.Leaf(c.Rand().Int63n(half)) }, nil); err != nil {
		return nil, err
	}
	for i := 0; i < waiting; i++ {
		if err := c.Stash().Put(oram.BlockID(blocks+i), oram.Leaf(half+c.Rand().Int63n(half)), nil); err != nil {
			return nil, err
		}
	}
	s := &batchShape{
		c:      c,
		rng:    rand.New(rand.NewSource(7)),
		ids:    make([]oram.BlockID, paths),
		leaves: make([]oram.Leaf, paths),
	}
	// Remapped blocks settle in the wide upper levels until those are full;
	// the stash a joint fetch produces is steady from there on.
	for i := 0; i < warmRounds; i++ {
		if err := s.round(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *batchShape) round() error {
	c := s.c
	half := int64(c.Geometry().Leaves() / 2)
	for i := range s.ids {
		s.ids[i] = oram.BlockID(s.rng.Int63n(int64(c.PosMap().Len())))
		s.leaves[i] = c.PosMap().Get(s.ids[i])
	}
	if err := c.ReadPaths(s.leaves); err != nil {
		return err
	}
	for _, id := range s.ids {
		l := oram.Leaf(s.rng.Int63n(half))
		c.PosMap().Set(id, l)
		c.Stash().SetLeaf(id, l)
	}
	return c.WriteBackPaths(s.leaves)
}

// EngineBench measures the engine hot path and the Fig. 7e simulated
// speedups at the given scale, producing the BENCH_engine.json document.
func EngineBench(sc Scale, seed int64) (*EngineBenchResult, error) {
	out := &EngineBenchResult{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Scale:     sc.Name,
		Seed:      seed,
		Baseline:  engineBaseline,
		Speedups:  map[string]float64{},
	}

	metaClient, err := engineClient(12, nil, 0)
	if err != nil {
		return nil, err
	}
	blocks := int64(metaClient.PosMap().Len())
	rng := rand.New(rand.NewSource(2))
	out.Rows = append(out.Rows, benchRow("AccessSteadyState", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := metaClient.Access(oram.OpRead, oram.BlockID(uint64(rng.Int63n(blocks))), nil); err != nil {
				b.Fatal(err)
			}
		}
	}))

	wbClient, err := engineClient(12, nil, 0)
	if err != nil {
		return nil, err
	}
	leaves := int64(wbClient.Geometry().Leaves())
	wbRng := rand.New(rand.NewSource(3))
	out.Rows = append(out.Rows, benchRow("WriteBackPath", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			leaf := oram.Leaf(wbRng.Int63n(leaves))
			if err := wbClient.ReadPath(leaf); err != nil {
				b.Fatal(err)
			}
			if err := wbClient.WriteBackPath(leaf); err != nil {
				b.Fatal(err)
			}
		}
	}))

	batch, err := newBatchShape()
	if err != nil {
		return nil, err
	}
	out.Rows = append(out.Rows, benchRow("WriteBackPathsBatch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := batch.round(); err != nil {
				b.Fatal(err)
			}
		}
	}))

	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 3)
	}
	sealer, err := crypto.NewSealer(key)
	if err != nil {
		return nil, err
	}
	sealedClient, err := engineClient(10, sealer, 128)
	if err != nil {
		return nil, err
	}
	sealedBlocks := int64(sealedClient.PosMap().Len())
	sealedRng := rand.New(rand.NewSource(4))
	sealedBuf := make([]byte, 128)
	out.Rows = append(out.Rows, benchRow("AccessSealed", func(b *testing.B) {
		// ReadInto with a recycled result buffer is the steady-state
		// training read; since ISSUE 5 the whole sealed cycle is
		// allocation-free (TestAccessSealedAllocs gates it at 0).
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := sealedClient.ReadInto(oram.BlockID(uint64(sealedRng.Int63n(sealedBlocks))), sealedBuf); err != nil {
				b.Fatal(err)
			}
		}
	}))

	for _, so := range []struct {
		name string
		size int
	}{{"SealOpen", 128}, {"SealOpen4K", 4096}} {
		plain := make([]byte, so.size)
		sealed := make([]byte, sealer.SealedSize(so.size))
		out.Rows = append(out.Rows, benchRow(so.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := sealer.SealTo(sealed, plain); err != nil {
					b.Fatal(err)
				}
				if err := sealer.OpenTo(plain, sealed); err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// Simulated end-to-end speedups: the trajectory ties the microbench
	// deltas back to the paper's headline figure.
	fig7e, err := Fig7e(sc, seed)
	if err != nil {
		return nil, err
	}
	for _, row := range fig7e.Rows {
		if row.Variant == "PathORAM" {
			continue
		}
		out.Speedups[row.Variant] = row.Speedup
	}

	// Streaming-pipeline overlap: the §VIII-A wall-clock win of planning
	// window k+1 while window k trains (ISSUE 4's acceptance metric).
	pr, err := PipelineExp(sc, seed)
	if err != nil {
		return nil, err
	}
	out.Pipeline = &PipelineBench{
		SeqWallMs:        float64(pr.SeqWall.Microseconds()) / 1000,
		PipeWallMs:       float64(pr.PipeWall.Microseconds()) / 1000,
		PlanMs:           float64(pr.PlanTime.Microseconds()) / 1000,
		TrainMs:          float64(pr.TrainTime.Microseconds()) / 1000,
		StalledMs:        float64(pr.Stalled.Microseconds()) / 1000,
		TrainerStalls:    pr.TrainerStalls,
		PlannerStalledMs: float64(pr.PlannerStalled.Microseconds()) / 1000,
		QueuePeak:        pr.QueuePeak,
		QueueMean:        pr.QueueMean,
		Windows:          pr.Windows,
		FeedRate:         pr.FeedRate,
		OverlapGain:      pr.Speedup,
	}

	// Sealed crypto fan-out curve: batched sealed-session throughput vs
	// Options.CryptoWorkers.
	sr, err := SealedExp(sc, seed)
	if err != nil {
		return nil, err
	}
	out.Sealed = &SealedBench{CPUs: sr.CPUs, Entries: sr.Entries, BlockSize: sr.BlockSize}
	for _, row := range sr.Rows {
		b := SealedBenchRow{Workers: row.Workers, Skipped: row.Skipped, Speedup: row.Speedup}
		if !row.Skipped && row.Accesses > 0 {
			b.NsPerAccess = float64(row.Wall.Nanoseconds()) / float64(row.Accesses)
		}
		out.Sealed.Rows = append(out.Sealed.Rows, b)
	}

	// Elastic serving: live-migration blackout and the re-placement vs
	// rollback MTTR/replay comparison (PR 8's acceptance metrics).
	er, err := ElasticExp(sc, seed)
	if err != nil {
		return nil, err
	}
	out.Elastic = &ElasticBench{
		MigratedShards:       er.Migration.Moved,
		MigrationBlackoutMs:  float64(er.Migration.Blackout.Microseconds()) / 1000,
		ReplaceMTTRMs:        float64(er.Replacement.ReplaceRepair.Microseconds()) / 1000,
		RollbackMTTRMs:       float64(er.Replacement.RollbackRepair.Microseconds()) / 1000,
		ReplaceRewound:       er.Replacement.ReplaceRewound,
		RollbackRewound:      er.Replacement.RollbackRewound,
		MigrationIdentical:   er.Migration.Identical(),
		ReplacementIdentical: er.Replacement.Identical() && er.Replacement.RollbackMatch,
	}

	// Tiered storage: the disk-backed tree's hit/miss curve over shrinking
	// memory budgets, with the look-ahead prefetcher on and off (PR 9's
	// acceptance metrics).
	tr, err := TieredExp(sc, seed)
	if err != nil {
		return nil, err
	}
	out.Tiered = &TieredBench{TreeBytes: tr.TreeBytes, MemThroughput: tr.MemThroughput}
	for _, row := range tr.Rows {
		out.Tiered.Rows = append(out.Tiered.Rows, TieredBenchRow{
			BudgetPct:      row.BudgetPct,
			Prefetch:       row.Prefetch,
			Hits:           row.Hits,
			Misses:         row.Misses,
			PrefetchIssued: row.PrefetchIssued,
			PrefetchUseful: row.PrefetchUseful,
			DemandStallMs:  float64(row.DemandStall.Microseconds()) / 1000,
			Throughput:     row.Throughput,
			Identical:      row.Identical,
		})
	}

	// Serve-overload drill: fair-client goodput and tails under a flooding
	// aggressor, FIFO vs fair queueing, plus the byte-transparency identity
	// verdict (PR 10's acceptance curves).
	or, err := OverloadExp(sc, seed)
	if err != nil {
		return nil, err
	}
	out.Overload = &OverloadBench{
		CapacityReqS:      or.Capacity,
		Workers:           or.Workers,
		FairClients:       or.FairClients,
		IdentitySheds:     or.IdentitySheds,
		IdentityIdentical: or.IdentityIdentical,
	}
	for _, row := range or.Rows {
		out.Overload.Rows = append(out.Overload.Rows, OverloadBenchRow{
			Config:         row.Config,
			Aggressor:      row.Aggressor,
			OfferedFair:    row.OfferedFair,
			FairGoodput:    row.FairGoodput,
			FairMinGoodput: row.FairMinGoodput,
			FairP50Ms:      float64(row.FairP50.Microseconds()) / 1000,
			FairP95Ms:      float64(row.FairP95.Microseconds()) / 1000,
			FairP99Ms:      float64(row.FairP99.Microseconds()) / 1000,
			FairShedRate:   row.FairShedRate,
			AggrGoodput:    row.AggrGoodput,
			AggrShedRate:   row.AggrShedRate,
			ServerShed:     row.Shed,
		})
	}
	return out, nil
}
