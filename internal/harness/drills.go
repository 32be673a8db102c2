package harness

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	laoram "repro"
	"repro/internal/chaos"
)

// Fault drills: the executable form of the multi-node failure model and of
// the elastic-serving story, with ZERO caller-side recovery code. Every
// drill run is the same thing — one epoch of look-ahead training as a
// single db.Train call under TrainOptions.Recovery against a chaos.Cluster,
// the Trainer checkpointing the whole system (client state + every node's
// shard trees, through the opSnapshot coordinator RPC) at window
// boundaries — and differs only in what happens at one trained visit:
//
//   - Failover: a node is killed and a supervisor brings the process back
//     empty; the Trainer, on its own, restores all nodes and the client from
//     the last boundary, rewinds the source, and re-runs.
//
//   - Migration: every shard live-migrates from the starting nodes onto
//     fresh, initially-empty nodes (laoram.Migrate). No rewind, no recovery;
//     the only cost is the per-shard blackout while its tree is in flight.
//
//   - Replacement: a node is killed and never comes back. With
//     Recovery.Replace the Trainer repoints the dead node's shards onto
//     survivors, restores just those shards from the last checkpoint, and
//     replays only their lanes — strictly less re-execution than the full
//     rollback the same fault costs without Replace.
//
// Because all execution randomness flows from the checkpointed counted RNGs
// and windows are replanned from seeds derived only from the engine seed and
// the absolute window index, each run finishes byte-identical to a reference
// run of the same seed in which nothing happened: final reads, session
// stats, client state and decrypted tree bytes all match (DESIGN.md
// invariants #11–#13).

// drillConfig sizes one drill run; the public configs convert into it.
type drillConfig struct {
	Entries   uint64
	BlockSize int
	Shards    int
	Nodes     int // starting serving tier
	Fresh     int // fresh, initially-empty nodes beside it
	Seed      int64
	Accesses  int // epoch length
	Window    int // look-ahead window
	S         int // superblock factor
	At        int // global visit count at which the event fires

	// CheckpointEvery is the checkpoint cadence in windows (0 = every
	// boundary).
	CheckpointEvery int

	// NodeTrees also snapshots the trees out of the serving nodes at the
	// end, which needs every one of them up and still holding its shards.
	NodeTrees bool
}

// drillRun is one drill execution's observable state.
type drillRun struct {
	Windows      int
	Accesses     uint64
	Session      laoram.SessionStats
	Stats        laoram.Stats
	ReadsDigest  []byte   // concatenated final payloads of every touched block
	ClientState  []byte   // final laoram.SaveState: engine state + per-shard trees
	Trees        [][]byte // final per-node, per-shard tree snapshots (NodeTrees)
	Placement    []string // final shard → node-address table
	Recoveries   int
	Replacements int
	Rewound      uint64 // TrainStats.RewoundAccesses
	RepairTime   time.Duration
}

// drillEvent is what a drill does to the running system at visit At. It is
// called synchronously from a lane's visit callback — the lane holds no
// store call mid-visit, so Migrate's placement write lock interleaves
// cleanly with the other lanes' reads. Visits replayed after a recovery
// rewind keep counting, so it fires exactly once.
type drillEvent func(db *laoram.ORAM, cl *chaos.Cluster) error

// killNode crashes serving node k. With supervise, the process comes back
// on its old address with empty stores after a real-world-ish delay and the
// Trainer does the rest; without, the node stays dead.
func killNode(k int, supervise bool) drillEvent {
	return func(_ *laoram.ORAM, cl *chaos.Cluster) error {
		// The fault is the node going away; an error closing its listener
		// changes nothing about that.
		_ = cl.Node(k).Kill()
		if supervise {
			cl.Supervise(k, 50*time.Millisecond, 10*time.Millisecond)
		}
		return nil
	}
}

// drillPayload is the deterministic initial content of block id.
func drillPayload(id uint64, blockSize int) []byte {
	p := make([]byte, blockSize)
	for i := range p {
		p[i] = byte(id*7 + uint64(i))
	}
	return p
}

// runDrill executes the epoch as one self-healing Train call; event (nil
// for a reference run) fires at the At-th trained visit. Every run of a
// drill trains under the same checkpoint cadence — checkpoints are pure
// reads and the epoch numbering must agree — so a reference differs from its
// faulted twin only in the event never firing.
func runDrill(cfg drillConfig, replace bool, event drillEvent) (*drillRun, error) {
	cl, err := chaos.NewCluster(chaos.ClusterConfig{
		Entries: cfg.Entries, Shards: cfg.Shards, BlockSize: cfg.BlockSize,
		Nodes: cfg.Nodes, Fresh: cfg.Fresh,
	})
	if err != nil {
		return nil, err
	}
	defer cl.Close()

	db, err := laoram.New(laoram.Options{
		Entries: cfg.Entries, Seed: cfg.Seed, Shards: cfg.Shards,
		RemoteAddrs: cl.Addrs(), Reconnect: true,
		RetryElapsed: 300 * time.Millisecond, // surface a death quickly
	})
	if err != nil {
		return nil, err
	}
	defer db.Close()

	stream, err := laoram.GenerateTrace(laoram.TraceConfig{
		Kind: laoram.TraceKaggle, N: cfg.Entries, Count: cfg.Accesses, Seed: cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}

	var (
		visits   atomic.Int64
		eventErr error
	)
	visit := func(id uint64, payload []byte) []byte {
		if event != nil && visits.Add(1) == int64(cfg.At) {
			eventErr = event(db, cl)
		}
		out := bytes.Clone(payload)
		out[0] ^= byte(id)
		out[1]++
		return out
	}

	ckEvery := cfg.CheckpointEvery
	if ckEvery == 0 {
		ckEvery = 1
	}
	src := laoram.FromSlice(stream)
	st, err := db.Train(context.Background(), laoram.TrainOptions{
		Source:     src,
		Superblock: cfg.S,
		Window:     cfg.Window,
		Visit:      visit,
		PrePlace:   true,
		Payload: func(id uint64) []byte {
			return drillPayload(id, cfg.BlockSize)
		},
		Recovery: &laoram.Recovery{
			CheckpointEvery: ckEvery,
			MaxRestarts:     8,
			Backoff:         25 * time.Millisecond,
			Replace:         replace,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("harness: train: %w", err)
	}
	if eventErr != nil {
		return nil, fmt.Errorf("harness: drill event at visit %d: %w", cfg.At, eventErr)
	}
	// Reconciliation across however many rewinds happened: every index was
	// consumed exactly once net, and every one of them trained.
	if got := src.Pos(); got != uint64(len(stream)) {
		return nil, fmt.Errorf("harness: source position %d after the epoch, want %d", got, len(stream))
	}
	if st.Accesses != uint64(len(stream)) {
		return nil, fmt.Errorf("harness: %d trained accesses, want %d", st.Accesses, len(stream))
	}

	out := &drillRun{
		Windows:      st.Windows,
		Accesses:     st.Accesses,
		Session:      st.Session,
		Recoveries:   st.Recoveries,
		Replacements: st.Replacements,
		Rewound:      st.RewoundAccesses,
		RepairTime:   st.RepairTime,
		Placement:    db.Placement(),
	}

	// Capture final state before the probe reads perturb it.
	out.Stats = db.Stats()
	var finalCk bytes.Buffer
	if err := db.SaveState(&finalCk); err != nil {
		return nil, err
	}
	out.ClientState = finalCk.Bytes()
	if cfg.NodeTrees {
		if out.Trees, err = cl.SnapshotAll(); err != nil {
			return nil, err
		}
	}

	// Probe every block the epoch touched, in deterministic order.
	seen := map[uint64]bool{}
	var digest bytes.Buffer
	for _, id := range stream {
		if seen[id] {
			continue
		}
		seen[id] = true
		p, err := db.Read(id)
		if err != nil {
			return nil, err
		}
		digest.Write(p)
	}
	out.ReadsDigest = digest.Bytes()
	return out, nil
}

// DrillMatch is a drill run's identity against its reference run, dimension
// by dimension. ClientMatch covers the per-shard tree bytes too: SaveState
// embeds every shard's tree in shard order, independent of which node
// serves it.
type DrillMatch struct {
	SessionMatch bool
	StatsMatch   bool
	ReadsMatch   bool
	ClientMatch  bool
}

// Identical reports whether every compared dimension matched.
func (m DrillMatch) Identical() bool {
	return m.SessionMatch && m.StatsMatch && m.ReadsMatch && m.ClientMatch
}

func matchRuns(got, want *drillRun) DrillMatch {
	return DrillMatch{
		SessionMatch: got.Session == want.Session &&
			got.Windows == want.Windows && got.Accesses == want.Accesses,
		StatsMatch:  restoredStatsEqual(got.Stats, want.Stats),
		ReadsMatch:  bytes.Equal(got.ReadsDigest, want.ReadsDigest),
		ClientMatch: bytes.Equal(got.ClientState, want.ClientState),
	}
}

// restoredStatsEqual compares the checkpoint-restored dimensions of Stats.
// BytesMoved is store telemetry that checkpoints deliberately do not
// serialise — a recovered run's counters legitimately include the doomed
// windows' partial traffic plus the re-run (real bytes really moved) — and
// SimTimeSeconds, priced from those counters, includes that traffic too.
func restoredStatsEqual(a, b laoram.Stats) bool {
	return a.Accesses == b.Accesses && a.PathReads == b.PathReads &&
		a.PathWrites == b.PathWrites && a.DummyReads == b.DummyReads &&
		a.StashHits == b.StashHits && a.StashSize == b.StashSize &&
		a.StashPeak == b.StashPeak && a.ServerBytes == b.ServerBytes &&
		a.PositionBytes == b.PositionBytes
}

// addVerdict appends one "dimension: yes/NO" row to a drill table.
func (t *Table) addVerdict(name string, ok bool) {
	v := "yes"
	if !ok {
		v = "NO"
	}
	t.AddRow(name, v)
}

// FailoverConfig drives the kill-and-restart drill.
type FailoverConfig struct {
	Entries   uint64
	BlockSize int
	Shards    int
	Nodes     int
	Seed      int64
	Accesses  int // epoch length
	Window    int // look-ahead window
	S         int // superblock factor
	KillAfter int // global visit count at which the node dies (mid-epoch)
	KillNode  int // which node dies

	// CheckpointEvery is the checkpoint cadence in windows (0 = every
	// boundary). A cadence > 1 makes the kill discard fully executed
	// windows, so the drill also exercises the RewoundAccesses accounting
	// (and, in the replacement drill, makes the two recovery modes replay
	// measurably different amounts).
	CheckpointEvery int
}

func (c FailoverConfig) drill() drillConfig {
	return drillConfig{
		Entries: c.Entries, BlockSize: c.BlockSize, Shards: c.Shards, Nodes: c.Nodes,
		Seed: c.Seed, Accesses: c.Accesses, Window: c.Window, S: c.S,
		At: c.KillAfter, CheckpointEvery: c.CheckpointEvery,
	}
}

// FailoverResult compares the faulted run against the unfaulted reference.
type FailoverResult struct {
	Config     FailoverConfig
	Windows    int
	Recoveries int
	Rewound    uint64

	DrillMatch
	// TreesMatch compares the trees as the serving nodes hold them.
	TreesMatch bool
}

// Identical reports whether every compared dimension matched.
func (r *FailoverResult) Identical() bool {
	return r.DrillMatch.Identical() && r.TreesMatch
}

// Failover runs the unfaulted reference and the faulted run — one node
// killed mid-window and brought back empty by a supervisor — and compares
// them dimension by dimension.
func Failover(cfg FailoverConfig) (*FailoverResult, error) {
	if cfg.Nodes > cfg.Shards {
		return nil, fmt.Errorf("harness: %d nodes over %d shards", cfg.Nodes, cfg.Shards)
	}
	d := cfg.drill()
	d.NodeTrees = true
	want, err := runDrill(d, false, nil)
	if err != nil {
		return nil, fmt.Errorf("harness: unfaulted run: %w", err)
	}
	if want.Recoveries != 0 {
		return nil, fmt.Errorf("harness: unfaulted run recovered %d times", want.Recoveries)
	}
	got, err := runDrill(d, false, killNode(cfg.KillNode, true))
	if err != nil {
		return nil, fmt.Errorf("harness: faulted run: %w", err)
	}
	return &FailoverResult{
		Config:     cfg,
		Windows:    want.Windows,
		Recoveries: got.Recoveries,
		Rewound:    got.Rewound,
		DrillMatch: matchRuns(got, want),
		TreesMatch: slices.EqualFunc(got.Trees, want.Trees, bytes.Equal),
	}, nil
}

// Render formats the drill verdict.
func (r *FailoverResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("Failover — %d shards over %d nodes, kill node %d at visit %d (%d windows, seed %d)",
			r.Config.Shards, r.Config.Nodes, r.Config.KillNode, r.Config.KillAfter, r.Windows, r.Config.Seed),
		Headers: []string{"dimension", "identical to unfaulted run"},
	}
	t.addVerdict("final reads", r.ReadsMatch)
	t.addVerdict("session stats", r.SessionMatch)
	t.addVerdict("access stats", r.StatsMatch)
	t.addVerdict("client state", r.ClientMatch)
	t.addVerdict("decrypted trees", r.TreesMatch)
	t.AddNote("self-healed recoveries: %d (%d accesses rewound); zero caller-side recovery code", r.Recoveries, r.Rewound)
	return t.Render()
}

// MigrationConfig drives the live-migration drill.
type MigrationConfig struct {
	Entries   uint64
	BlockSize int
	Shards    int
	Nodes     int // starting serving tier
	Fresh     int // fresh, initially-empty target nodes
	Seed      int64
	Accesses  int // epoch length
	Window    int // look-ahead window
	S         int // superblock factor
	MigrateAt int // global visit count at which every shard migrates

	// CheckpointEvery keeps Recovery armed during the drill (0 = every
	// boundary) — migration must not trip it: the drill asserts zero
	// recoveries and zero rewound accesses.
	CheckpointEvery int
}

// MigrationResult compares the migrated run against the unmigrated
// reference.
type MigrationResult struct {
	Config    MigrationConfig
	Windows   int
	Moved     int           // shards migrated by the drill's own Migrate calls
	Blackout  time.Duration // summed per-shard migration blackout
	Placement []string

	Recoveries int    // must be 0: migration is not a fault
	Rewound    uint64 // must be 0: no rewind happened

	DrillMatch
}

// Migration runs the unmigrated reference and the migrated run — every
// shard moved onto the fresh nodes (round-robin) from inside the training
// loop, the run never pausing beyond the per-shard blackout — and compares
// them dimension by dimension.
func Migration(cfg MigrationConfig) (*MigrationResult, error) {
	if cfg.Nodes > cfg.Shards {
		return nil, fmt.Errorf("harness: %d nodes over %d shards", cfg.Nodes, cfg.Shards)
	}
	if cfg.Fresh < 1 {
		return nil, fmt.Errorf("harness: migration drill needs at least one fresh node")
	}
	d := drillConfig{
		Entries: cfg.Entries, BlockSize: cfg.BlockSize, Shards: cfg.Shards,
		Nodes: cfg.Nodes, Fresh: cfg.Fresh,
		Seed: cfg.Seed, Accesses: cfg.Accesses, Window: cfg.Window, S: cfg.S,
		At: cfg.MigrateAt, CheckpointEvery: cfg.CheckpointEvery,
	}
	want, err := runDrill(d, false, nil)
	if err != nil {
		return nil, fmt.Errorf("harness: reference run: %w", err)
	}
	res := &MigrationResult{Config: cfg, Windows: want.Windows}
	got, err := runDrill(d, false, func(db *laoram.ORAM, cl *chaos.Cluster) error {
		fresh := cl.FreshAddrs()
		for s := 0; s < cfg.Shards; s++ {
			ms, err := db.Migrate(context.Background(), s, fresh[s%len(fresh)])
			if err != nil {
				return fmt.Errorf("migrate shard %d: %w", s, err)
			}
			res.Moved += ms.Moved
			res.Blackout += ms.Blackout
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("harness: migrated run: %w", err)
	}
	res.Placement = got.Placement
	res.Recoveries = got.Recoveries
	res.Rewound = got.Rewound
	res.DrillMatch = matchRuns(got, want)
	return res, nil
}

// Render formats the drill verdict.
func (r *MigrationResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("Live migration — %d shards, %d→%d nodes at visit %d (%d windows, seed %d)",
			r.Config.Shards, r.Config.Nodes, r.Config.Fresh, r.Config.MigrateAt, r.Windows, r.Config.Seed),
		Headers: []string{"dimension", "identical to unmigrated run"},
	}
	t.addVerdict("final reads", r.ReadsMatch)
	t.addVerdict("session stats", r.SessionMatch)
	t.addVerdict("access stats", r.StatsMatch)
	t.addVerdict("client state + trees", r.ClientMatch)
	t.AddNote("moved %d shard(s), total blackout %v; recoveries %d, rewound accesses %d",
		r.Moved, r.Blackout.Round(time.Microsecond), r.Recoveries, r.Rewound)
	return t.Render()
}

// ReplacementConfig drives the re-placement-vs-rollback drill: the failover
// drill's fault schedule, except that under Replace the killed node never
// comes back.
type ReplacementConfig FailoverConfig

// ReplacementResult compares re-placement and full rollback on the same
// fault schedule, each against the unfaulted reference.
type ReplacementResult struct {
	Config  ReplacementConfig
	Windows int

	Replacements    int // replace run: must be >= 1
	ReplaceRewound  uint64
	RollbackRewound uint64
	ReplaceRepair   time.Duration // MTTR: restore + repoint + lane replay
	RollbackRepair  time.Duration // MTTR: wait-for-restart + full restore
	Placement       []string      // replace run's final table (dead node absent)

	// The replace run's identity versus the unfaulted reference.
	DrillMatch
	// RollbackMatch summarises the rollback run's identity (the failover
	// drill proves it dimension by dimension; here it is a cross-check).
	RollbackMatch bool
}

// Replacement runs the reference, the re-placement run (kill, no
// supervisor, Recovery.Replace) and the rollback run (kill, supervised
// restart, full rollback) on one fault schedule and compares them.
func Replacement(cfg ReplacementConfig) (*ReplacementResult, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("harness: re-placement needs at least 2 nodes")
	}
	if cfg.Nodes > cfg.Shards {
		return nil, fmt.Errorf("harness: %d nodes over %d shards", cfg.Nodes, cfg.Shards)
	}
	d := FailoverConfig(cfg).drill()
	want, err := runDrill(d, false, nil)
	if err != nil {
		return nil, fmt.Errorf("harness: unfaulted run: %w", err)
	}
	if want.Recoveries != 0 {
		return nil, fmt.Errorf("harness: unfaulted run recovered %d times", want.Recoveries)
	}
	rep, err := runDrill(d, true, killNode(cfg.KillNode, false))
	if err != nil {
		return nil, fmt.Errorf("harness: replace run: %w", err)
	}
	rb, err := runDrill(d, false, killNode(cfg.KillNode, true))
	if err != nil {
		return nil, fmt.Errorf("harness: rollback run: %w", err)
	}
	return &ReplacementResult{
		Config:          cfg,
		Windows:         want.Windows,
		Replacements:    rep.Replacements,
		ReplaceRewound:  rep.Rewound,
		RollbackRewound: rb.Rewound,
		ReplaceRepair:   rep.RepairTime,
		RollbackRepair:  rb.RepairTime,
		Placement:       rep.Placement,
		DrillMatch:      matchRuns(rep, want),
		RollbackMatch:   matchRuns(rb, want).Identical(),
	}, nil
}

// Render formats the drill verdict.
func (r *ReplacementResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("Re-placement vs rollback — %d shards over %d nodes, kill node %d at visit %d (%d windows, seed %d)",
			r.Config.Shards, r.Config.Nodes, r.Config.KillNode, r.Config.KillAfter, r.Windows, r.Config.Seed),
		Headers: []string{"dimension", "replace run identical"},
	}
	t.addVerdict("final reads", r.ReadsMatch)
	t.addVerdict("session stats", r.SessionMatch)
	t.addVerdict("access stats", r.StatsMatch)
	t.addVerdict("client state + trees", r.ClientMatch)
	t.addVerdict("rollback run (cross-check)", r.RollbackMatch)
	t.AddNote("replayed: replace %d vs rollback %d accesses (%d replacement(s)); MTTR: replace %v vs rollback %v",
		r.ReplaceRewound, r.RollbackRewound, r.Replacements,
		r.ReplaceRepair.Round(time.Microsecond), r.RollbackRepair.Round(time.Microsecond))
	return t.Render()
}

// ElasticResult bundles the migration and replacement drills — the
// `elastic` laorambench experiment.
type ElasticResult struct {
	Migration   *MigrationResult
	Replacement *ReplacementResult
}

// Render concatenates both verdicts.
func (r *ElasticResult) Render() string {
	return r.Migration.Render() + "\n" + r.Replacement.Render()
}

// ElasticExp sizes both drills from the scale and runs them: the migration
// blackout and the re-placement-vs-rollback MTTR numbers of the elastic
// serving story.
func ElasticExp(sc Scale, seed int64) (*ElasticResult, error) {
	entries := sc.EntriesSmall
	if entries > 1<<14 {
		entries = 1 << 14 // remote drills are network-bound; cap the tree
	}
	window := 512
	mig, err := Migration(MigrationConfig{
		Entries: entries, BlockSize: 32, Shards: 4, Nodes: 2, Fresh: 2,
		Seed: seed, Accesses: 6 * window, Window: window, S: 4,
		MigrateAt: 2*window + window/2, CheckpointEvery: 2,
	})
	if err != nil {
		return nil, err
	}
	rep, err := Replacement(ReplacementConfig{
		Entries: entries, BlockSize: 32, Shards: 4, Nodes: 2,
		Seed: seed, Accesses: 6 * window, Window: window, S: 4,
		KillAfter: 3*window + window/8, KillNode: 1, CheckpointEvery: 2,
	})
	if err != nil {
		return nil, err
	}
	return &ElasticResult{Migration: mig, Replacement: rep}, nil
}
