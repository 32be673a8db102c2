// Package batch implements the paper's two-stage training pipeline
// (§VIII-A): "Preprocessing and accessing data are two pipeline stages in
// the 2-stage LAORAM pipeline. Once the preprocessing for the first several
// batches is complete, GPU can generate the LAORAM accesses and start the
// training process. The preprocessing can then run ahead of the GPU
// training process."
//
// A shard.Planner scans an incremental index Source window by window and
// queues per-shard Plans; the trainer stage executes each window through a
// sharded Session, all shard lanes concurrent, while the planner works on
// the next window. Wall-clock time spent in each stage is recorded so the
// harness can reproduce the §VIII-A observation that preprocessing is off
// the critical path. Everything is context-aware: cancelling ctx stops the
// planner, drains the shard workers at the next bin boundary and returns
// ctx.Err().
package batch

import (
	"context"
	"fmt"
	"time"

	"repro/internal/shard"
)

// TrainConfig drives one streaming training run over a shard.Engine.
type TrainConfig struct {
	// S is the superblock size (default 4 when 0).
	S int
	// Window is the number of global accesses per planning window; the
	// look-ahead horizon is Window·(Depth+1). 0 plans the whole stream as
	// one window (the one-shot shape, byte-identical to Preprocess +
	// Session).
	Window int
	// Depth is the bounded plan queue (2 when 0 — double
	// buffering: plan window k+1 while executing window k) and the
	// cross-window horizon: a window executes once the Depth after it are
	// planned, with its blocks' next leaves reaching into them.
	Depth int
	// BatchBins is how many bins each server round trip fetches (§IV-A
	// per-training-batch fetch); 0 is shard.StepBins(S).
	BatchBins int
	// PrePlace bulk-loads the engine before the first window executes,
	// pre-placing every block of window 0 on its first bin's path (the
	// converged steady state of §IV-B). When false the engine must
	// already be loaded.
	PrePlace bool
	// Payload initialises rows during the PrePlace load (may be nil for
	// zero/simulated content). Requires PrePlace.
	Payload func(id uint64) []byte
	// NewVisit builds one trainer callback per shard lane (may be nil).
	NewVisit shard.NewVisit
	// Lanes selects the shard lanes every window executes on (nil runs
	// them all), passed straight to Session.RunContext: the re-placement
	// catch-up replays only the lanes restored from a checkpoint. The
	// session counters then cover the selected lanes only.
	Lanes []bool
	// StartWindow offsets the absolute index of the first planned window:
	// a recovery that rewound the source to the boundary of window B
	// resumes with StartWindow = B, keeping every window's absolute index
	// (and deterministic plan seed) identical to the unfaulted run.
	StartWindow int
	// CheckpointEvery > 0 invokes Checkpoint at every window boundary
	// whose absolute index is a multiple of it, immediately before that
	// window executes — the engine state observed by the hook is exactly
	// the post-(window-1) boundary. Requires Checkpoint.
	CheckpointEvery int
	// Checkpoint is the boundary hook: win is the absolute index of the
	// window about to execute, and sofar a snapshot of the stats
	// accumulated so far this run (sofar.Accesses is the stream offset of
	// the boundary relative to StartWindow's). An error aborts the run.
	Checkpoint func(win int, sofar TrainStats) error
	// SkipStartCheckpoint suppresses the hook at StartWindow itself: a
	// resumed run already holds that boundary's checkpoint, and taking it
	// again would break the one-save-per-boundary epoch parity between
	// faulted and unfaulted runs.
	SkipStartCheckpoint bool
	// Flush, when set, runs once the stream is exhausted after at least
	// one window, and sends the write-backs the stores still hold. It
	// belongs to the last window: a failure fails that window, exactly as
	// a failed step in it would.
	Flush func() error
}

func (c *TrainConfig) fill() error {
	if c.S == 0 {
		c.S = 4
	}
	if c.Depth == 0 {
		c.Depth = 2
	}
	if c.S < 1 {
		return fmt.Errorf("batch: S must be >= 1, got %d", c.S)
	}
	if c.Window < 0 {
		return fmt.Errorf("batch: Window must be >= 0, got %d", c.Window)
	}
	if c.Window > 0 && c.Window < c.S {
		return fmt.Errorf("batch: Window %d must be >= S %d", c.Window, c.S)
	}
	if c.Depth < 1 {
		return fmt.Errorf("batch: Depth must be >= 1, got %d", c.Depth)
	}
	if c.BatchBins < 0 {
		return fmt.Errorf("batch: BatchBins must be >= 0, got %d", c.BatchBins)
	}
	if c.Payload != nil && !c.PrePlace {
		return fmt.Errorf("batch: Payload requires PrePlace")
	}
	if c.StartWindow < 0 {
		return fmt.Errorf("batch: StartWindow must be >= 0, got %d", c.StartWindow)
	}
	if c.CheckpointEvery < 0 {
		return fmt.Errorf("batch: CheckpointEvery must be >= 0, got %d", c.CheckpointEvery)
	}
	if (c.CheckpointEvery > 0) != (c.Checkpoint != nil) {
		return fmt.Errorf("batch: CheckpointEvery and Checkpoint must be set together")
	}
	return nil
}

// TrainStats summarises a streaming run.
type TrainStats struct {
	// Windows is the number of planned-and-executed windows.
	Windows int
	// Accesses is the number of stream indices covered by fully executed
	// windows (on a cancelled run the planner may have read further
	// ahead of this).
	Accesses uint64
	// Bins / ColdPathReads / LookaheadRemaps / UniformRemaps aggregate
	// the LAORAM session counters across windows and shard lanes.
	Bins            uint64
	ColdPathReads   uint64
	LookaheadRemaps uint64
	UniformRemaps   uint64
	// PlanTime is the total wall time the planner stage spent scanning
	// and binning (overlaps TrainTime).
	PlanTime time.Duration
	// TrainTime is the total wall time the trainer stage spent executing
	// windows (ORAM work, all shard lanes).
	TrainTime time.Duration
	// Stalled is how long the trainer waited on the plan queue — near
	// zero when preprocessing keeps ahead, the §VIII-A claim.
	Stalled time.Duration
	// TrainerStalls counts the window fetches that found no released
	// window on offer: the queue-miss count behind Stalled.
	TrainerStalls int
	// PlannerStalled is how long the planning goroutine was blocked
	// handing windows to the full queue — backpressure on the cheap
	// stage, the healthy pipeline regime.
	PlannerStalled time.Duration
	// QueuePeak and QueueMean summarise the plan-queue depth observed at
	// each window fetch: the planned windows waiting behind the one taken,
	// held ones included, or 0 on a stall (bounded by Depth). A mean near
	// Depth means planning stays ahead; near zero means the trainer is
	// starved.
	QueuePeak int
	QueueMean float64
	// CheckpointTime is the total wall time spent inside the Checkpoint
	// boundary hook (zero when checkpointing is off).
	CheckpointTime time.Duration
	// Wall is the elapsed time of the whole run (excluding the PrePlace
	// bulk load).
	Wall time.Duration
	// FailedWindow is the absolute index of the window whose execution
	// error ended the run, or -1 when no window execution failed (success,
	// or a failure outside a session — planner, checkpoint hook, load).
	// A failed window's session counters are already folded into the
	// aggregates above; FailedAccesses and FailedLaneSession let a
	// per-shard recovery reconstruct exactly what that window contributed:
	// its stream-access span and each lane's session counters for just
	// that window.
	FailedWindow      int
	FailedAccesses    int
	FailedLaneSession []LaneSession
}

// LaneSession is one shard lane's session counters for a single window —
// the four LAORAM counters a TrainStats aggregates across lanes and
// windows.
type LaneSession struct {
	Bins, ColdPathReads, LookaheadRemaps, UniformRemaps uint64
}

// Train runs the streaming two-stage pipeline over e: plan windows from
// src on a bounded queue, execute each through a sharded Session. Returns
// ctx.Err() if the run was cancelled; the planner goroutine and all shard
// workers have drained by the time Train returns.
func Train(ctx context.Context, e *shard.Engine, src shard.Source, cfg TrainConfig) (TrainStats, error) {
	var st TrainStats
	st.FailedWindow = -1
	if e == nil {
		return st, fmt.Errorf("batch: nil engine")
	}
	if src == nil {
		return st, fmt.Errorf("batch: nil source")
	}
	if err := cfg.fill(); err != nil {
		return st, err
	}
	planner, err := e.NewPlanner(src, shard.PlannerConfig{
		S: cfg.S, Window: cfg.Window, Depth: cfg.Depth, StartWindow: cfg.StartWindow,
	})
	if err != nil {
		return st, err
	}
	// A child context stops the planner if the trainer bails out early,
	// so Train never leaks the planning goroutine.
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	ch, err := planner.Start(pctx)
	if err != nil {
		return st, err
	}

	wallStart := time.Now()
	loaded := false
	var (
		lastW    shard.PlannedWindow
		lastSess *shard.Session
	)
	// failWindow records window w's failure. The session counters already
	// folded into st still record the interrupted window's partial
	// progress; FailedWindow and the per-lane breakdown let a per-shard
	// recovery subtract the failed lanes' contribution and replay only
	// them.
	failWindow := func(w shard.PlannedWindow, sess *shard.Session, err error) error {
		st.FailedWindow = w.Index
		st.FailedAccesses = w.Accesses
		st.FailedLaneSession = make([]LaneSession, e.Shards())
		for i := range st.FailedLaneSession {
			ls := sess.Lane(i).Stats()
			st.FailedLaneSession[i] = LaneSession{
				Bins: ls.Bins, ColdPathReads: ls.ColdPathReads,
				LookaheadRemaps: ls.LookaheadRemaps, UniformRemaps: ls.UniformRemaps,
			}
		}
		return fmt.Errorf("batch: window %d: %w", w.Index, err)
	}
	execute := func(w shard.PlannedWindow) error {
		if cfg.PrePlace && !loaded {
			// Pre-place window 0 (LoadForPlan leaves the rest of the
			// table uniform). The load is excluded from Wall by shifting
			// the clock origin: the one-shot flow loads before its
			// session too.
			loadStart := time.Now()
			if err := e.LoadForPlanContext(ctx, w.Plan, cfg.Payload); err != nil {
				return err
			}
			// Engine counters (and so SimTime) describe the training run, not
			// the bulk load — the LoadForPlan → ResetStats convention of
			// the one-shot flow, applied internally.
			e.ResetStats()
			wallStart = wallStart.Add(time.Since(loadStart))
			loaded = true
		}
		if cfg.Checkpoint != nil && w.Index%cfg.CheckpointEvery == 0 &&
			!(cfg.SkipStartCheckpoint && w.Index == cfg.StartWindow) {
			// The boundary hook runs with the engine exactly at the
			// post-(w-1) state — window 0's boundary is the freshly
			// pre-placed (and stat-reset) table. Checkpoint time is real
			// run time, not excluded from Wall.
			ckStart := time.Now()
			if err := cfg.Checkpoint(w.Index, st); err != nil {
				return fmt.Errorf("batch: checkpoint at window %d: %w", w.Index, err)
			}
			st.CheckpointTime += time.Since(ckStart)
		}
		sess, err := e.NewSession(w.Plan)
		if err != nil {
			return err
		}
		runStart := time.Now()
		err = sess.RunContext(ctx, cfg.BatchBins, cfg.Lanes, cfg.NewVisit)
		st.TrainTime += time.Since(runStart)
		ss := sess.Stats()
		st.Bins += ss.Bins
		st.ColdPathReads += ss.ColdPathReads
		st.LookaheadRemaps += ss.LookaheadRemaps
		st.UniformRemaps += ss.UniformRemaps
		if err != nil {
			return failWindow(w, sess, err)
		}
		st.Windows++
		st.Accesses += uint64(w.Accesses)
		st.PlanTime += w.PlanTime
		lastW, lastSess = w, sess
		return nil
	}

	fail := func(err error) (TrainStats, error) {
		st.Wall = time.Since(wallStart)
		// Wait for the planner to drain (cancel() above unblocks it),
		// then prefer the context error when the run was cancelled.
		cancel()
		for range ch {
		}
		st.PlannerStalled = planner.Stats().EnqueueStalled
		if ctx.Err() != nil {
			return st, ctx.Err()
		}
		return st, err
	}

	depthSum := 0
	for {
		// A fetch that finds no released window on offer is a genuine
		// pipeline stall and samples depth 0; otherwise it samples the
		// planned windows waiting behind the one it takes — Depth
		// means planning is comfortably ahead.
		var (
			w       shard.PlannedWindow
			ok      bool
			stalled bool
		)
		waitStart := time.Now()
		select {
		case w, ok = <-ch:
		default:
			stalled = true
			w, ok = <-ch
		}
		st.Stalled += time.Since(waitStart)
		if !ok {
			break
		}
		ready := 0
		if stalled {
			st.TrainerStalls++
		} else {
			ready = planner.Ready()
		}
		if ready > st.QueuePeak {
			st.QueuePeak = ready
		}
		depthSum += ready
		if err := execute(w); err != nil {
			return fail(err)
		}
	}
	if st.Windows > 0 {
		st.QueueMean = float64(depthSum) / float64(st.Windows)
	}
	if err := planner.Err(); err != nil {
		return fail(err)
	}
	if cfg.Flush != nil && lastSess != nil {
		if err := cfg.Flush(); err != nil {
			st.Windows--
			st.Accesses -= uint64(lastW.Accesses)
			return fail(failWindow(lastW, lastSess, err))
		}
	}
	st.PlannerStalled = planner.Stats().EnqueueStalled
	st.Wall = time.Since(wallStart)
	if ctx.Err() != nil {
		return st, ctx.Err()
	}
	// A source that produces no indices is a successful no-op (zero
	// windows), matching the one-shot flow's behaviour on an empty
	// stream. Note PrePlace only triggers with at least one window.
	return st, nil
}
