package batch

import (
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/oram"
	"repro/internal/shard"
	"repro/internal/trace"
)

func streamEngine(t *testing.T, shards int, entries uint64, seed int64) *shard.Engine {
	t.Helper()
	e, err := shard.New(shard.Config{
		Shards:  shards,
		Entries: entries,
		Seed:    seed,
		Build: func(s int, per uint64, sd int64) (shard.Sub, error) {
			g, err := oram.NewGeometry(oram.GeometryConfig{
				LeafBits: oram.LeafBitsFor(per), LeafZ: 4,
			})
			if err != nil {
				return shard.Sub{}, err
			}
			cs := oram.NewCountingStore(oram.NewMetaStore(g), nil)
			client, err := oram.NewClient(oram.ClientConfig{
				Store: cs, Rand: trace.NewRNG(sd), Evict: oram.PaperEvict,
				StashHits: true, Blocks: per,
			})
			if err != nil {
				return shard.Sub{}, err
			}
			return shard.Sub{Client: client, Store: cs}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

type sliceSrc struct{ rest []uint64 }

func (s *sliceSrc) Read(ctx context.Context, dst []uint64) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if len(s.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(dst, s.rest)
	s.rest = s.rest[n:]
	return n, nil
}

// TestStreamDeterministic: two identically-seeded runs are identical even
// though planning and execution overlap across goroutines.
func TestStreamDeterministic(t *testing.T) {
	const entries = 512
	stream := trace.PermutationEpochs(trace.NewRNG(9), entries, 2000)
	run := func() shard.Stats {
		e := streamEngine(t, 4, entries, 77)
		if _, err := Train(context.Background(), e, &sliceSrc{rest: stream}, TrainConfig{
			S: 4, Window: 256, Depth: 3, BatchBins: 2, PrePlace: true,
		}); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}
	a, b := run(), run()
	if a.Access != b.Access {
		t.Errorf("runs diverge: %+v vs %+v", a.Access, b.Access)
	}
}

// TestStreamValidation pins the config errors.
func TestStreamValidation(t *testing.T) {
	e := streamEngine(t, 1, 64, 1)
	ctx := context.Background()
	if _, err := Train(ctx, nil, &sliceSrc{}, TrainConfig{}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := Train(ctx, e, nil, TrainConfig{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := Train(ctx, e, &sliceSrc{}, TrainConfig{Window: -1}); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := Train(ctx, e, &sliceSrc{}, TrainConfig{S: 8, Window: 4}); err == nil {
		t.Error("window < S accepted")
	}
	if _, err := Train(ctx, e, &sliceSrc{}, TrainConfig{BatchBins: -1}); err == nil {
		t.Error("negative BatchBins accepted")
	}
	if _, err := Train(ctx, e, &sliceSrc{}, TrainConfig{Payload: func(uint64) []byte { return nil }}); err == nil {
		t.Error("Payload without PrePlace accepted")
	}
	// Empty streams are a successful no-op, matching one-shot Preprocess.
	if st, err := Train(ctx, e, &sliceSrc{}, TrainConfig{}); err != nil || st.Windows != 0 {
		t.Errorf("empty stream: got %+v, %v; want 0-window success", st, err)
	}
}

// TestFlushFailsLastWindow: a failed end-of-stream Flush is the last
// window's failure — that window leaves the completed count and its span
// and per-lane counters are reported as FailedWindow's, as a failed step in
// it would report them — and Flush runs only after a window executed.
func TestFlushFailsLastWindow(t *testing.T) {
	const entries = 512
	stream := trace.PermutationEpochs(trace.NewRNG(5), entries, 1600)
	errFlush := errors.New("flush refused")
	run := func(cfg TrainConfig) (TrainStats, error) {
		cfg.S, cfg.Window, cfg.PrePlace = 4, 400, true
		return Train(context.Background(), streamEngine(t, 2, entries, 13), &sliceSrc{rest: stream}, cfg)
	}
	var last TrainStats // the counters before the last window
	lastWin := -1
	ref, err := run(TrainConfig{CheckpointEvery: 1, Checkpoint: func(win int, sofar TrainStats) error {
		last, lastWin = sofar, win
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	st, err := run(TrainConfig{Flush: func() error { return errFlush }})
	if !errors.Is(err, errFlush) {
		t.Fatalf("Train returned %v, want the flush error", err)
	}
	if st.FailedWindow != lastWin || st.Windows != last.Windows || st.Accesses != last.Accesses ||
		uint64(st.FailedAccesses) != ref.Accesses-last.Accesses {
		t.Errorf("failed flush: window %d, %d windows, %d+%d accesses; want window %d, %d windows, %d+%d accesses",
			st.FailedWindow, st.Windows, st.Accesses, st.FailedAccesses,
			lastWin, last.Windows, last.Accesses, ref.Accesses-last.Accesses)
	}
	var lanes LaneSession
	for _, ls := range st.FailedLaneSession {
		lanes.Bins += ls.Bins
		lanes.UniformRemaps += ls.UniformRemaps
	}
	if st.Bins != ref.Bins || lanes.Bins != ref.Bins-last.Bins || lanes.UniformRemaps != ref.UniformRemaps-last.UniformRemaps {
		t.Errorf("failed flush: %d bins, last window's lanes %+v; want %d, %d bins and %d uniform remaps",
			st.Bins, lanes, ref.Bins, ref.Bins-last.Bins, ref.UniformRemaps-last.UniformRemaps)
	}

	flushes := 0
	e := streamEngine(t, 1, 64, 1)
	if _, err := Train(context.Background(), e, &sliceSrc{}, TrainConfig{Flush: func() error { flushes++; return nil }}); err != nil || flushes != 0 {
		t.Errorf("empty stream: %v, %d flushes; want success and none", err, flushes)
	}
}

// TestLookaheadAcrossWindowsNoColdReads: pre-placement loads every block of
// window 0 and the D windows held behind it on its first bin's path, and a
// block leaving its last bin of a window goes to its first bin in the
// windows after, so a stream that fits in window 0's horizon runs pre-placed
// without one cold path read, at every Depth, however many of its blocks are
// first touched after window 0. Cut at the window boundary, it paid one per
// block crossing it; placing window 0 alone, one per block first touched
// later.
func TestLookaheadAcrossWindowsNoColdReads(t *testing.T) {
	const entries, window = 512, 256
	for depth := 1; depth <= 4; depth++ {
		for _, horizon := range []int{window * depth, 0} {
			// Window w draws from the first (w+1)/(depth+1) of the ids, so
			// every window past 0 brings blocks no earlier one touched.
			rng := trace.NewRNG(int64(5 + depth))
			stream := make([]uint64, 0, (depth+1)*window)
			seen, later := map[uint64]bool{}, 0
			for w := 0; w <= depth; w++ {
				for len(stream) < (w+1)*window {
					id := uint64(rng.Intn((w + 1) * entries / (depth + 1)))
					if !seen[id] && w > 0 {
						later++
					}
					seen[id] = true
					stream = append(stream, id)
				}
			}
			st, err := Train(context.Background(), streamEngine(t, 2, entries, 13), &sliceSrc{rest: stream}, TrainConfig{
				S: 4, Window: window, Depth: depth, Horizon: horizon, PrePlace: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if later == 0 || st.Windows != depth+1 || st.ColdPathReads != 0 {
				t.Errorf("depth %d, horizon %d: %d windows, %d cold path reads over %d blocks first touched after window 0; want %d windows, 0 cold reads, some such blocks",
					depth, horizon, st.Windows, st.ColdPathReads, later, depth+1)
			}
		}
	}
}

// pacedSrc is a sliceSrc whose every Read first waits: a dataloader slower
// than the trainer.
type pacedSrc struct {
	sliceSrc
	pause time.Duration
}

func (s *pacedSrc) Read(ctx context.Context, dst []uint64) (int, error) {
	time.Sleep(s.pause)
	return s.sliceSrc.Read(ctx, dst)
}

// TestQueueStatsTrackPlanning: the plan-queue counters say whether planning
// stayed ahead, held windows and all. A trainer slower than the planner finds
// D windows waiting behind nearly every window it takes — Depth at a horizon
// of Window·Depth, 16 at the default 4·Entries; a source slower than the
// trainer starves it at nearly every fetch.
func TestQueueStatsTrackPlanning(t *testing.T) {
	const entries, window, depth = 256, 64, 2
	ctx := context.Background()

	const windows = 30
	stream := trace.PermutationEpochs(trace.NewRNG(6), entries, window*windows)
	slowTrainer := func(int) shard.Visit {
		visits := 0
		return func(uint64, []byte) []byte {
			if visits++; visits%window == 0 {
				time.Sleep(2 * time.Millisecond)
			}
			return nil
		}
	}
	// minMean allows for the first fetch, which may stall while windows
	// 0..D are binned, and the last D windows' shorter queues.
	for _, c := range []struct {
		horizon, d int
		minMean    float64
	}{{window * depth, depth, depth - 0.5}, {0, 4 * entries / window, 10.4}} {
		st, err := Train(ctx, streamEngine(t, 1, entries, 3), &sliceSrc{rest: stream}, TrainConfig{
			S: 4, Window: window, Depth: depth, Horizon: c.horizon, PrePlace: true, NewVisit: slowTrainer,
		})
		if err != nil {
			t.Fatal(err)
		}
		// The first fetch waits for windows 0..D to be binned, and the
		// last D find fewer windows behind them.
		if st.Windows != windows || st.QueuePeak != c.d || st.QueueMean < c.minMean || st.TrainerStalls > 2 {
			t.Errorf("fast planner, horizon %d: %d windows, queue peak %d mean %.2f, %d stalls; want %d windows, peak %d, mean near it, ≤ 2 stalls",
				c.horizon, st.Windows, st.QueuePeak, st.QueueMean, st.TrainerStalls, windows, c.d)
		}
	}

	const slowWindows = 12
	stream = trace.PermutationEpochs(trace.NewRNG(7), entries, window*slowWindows)
	st, err := Train(ctx, streamEngine(t, 1, entries, 3), &pacedSrc{sliceSrc{rest: stream}, 10 * time.Millisecond}, TrainConfig{
		S: 4, Window: window, Depth: depth, Horizon: window * depth, PrePlace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Windows != slowWindows || st.TrainerStalls < slowWindows/2 || st.QueueMean >= 1 {
		t.Errorf("blocking source: %d windows, %d stalls, queue mean %.2f; want %d windows, most of them stalls, mean below 1",
			st.Windows, st.TrainerStalls, st.QueueMean, slowWindows)
	}
}

// TestWindowBoundariesCauseColdReads: shrinking the look-ahead horizon below
// the reuse distance reintroduces cold path reads (the abl-window effect);
// a full-stream window eliminates them after pre-placement. The tiny window
// looks Window·Depth ahead: the default horizon of 4·Entries would hold the
// whole stream, which pre-placement then places cold-read free.
func TestWindowBoundariesCauseColdReads(t *testing.T) {
	const entries, depth = 512, 2
	stream := trace.PermutationEpochs(trace.NewRNG(3), entries, 2048)
	run := func(window int) (cold, pathReads uint64) {
		e := streamEngine(t, 1, entries, 8)
		st, err := Train(context.Background(), e, &sliceSrc{rest: stream}, TrainConfig{
			S: 4, Window: window, Depth: depth, Horizon: window * depth, PrePlace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Accesses != uint64(len(stream)) {
			t.Fatalf("window %d trained %d of %d accesses", window, st.Accesses, len(stream))
		}
		return st.ColdPathReads, e.Stats().Access.PathReads
	}
	fullCold, fullReads := run(0)
	tinyCold, tinyReads := run(64)
	if fullCold != 0 {
		t.Errorf("full-stream window after pre-placement made %d cold path reads, want 0", fullCold)
	}
	if tinyCold == 0 || tinyReads <= fullReads {
		t.Errorf("tiny window: %d cold / %d path reads should exceed the full window's %d / %d",
			tinyCold, tinyReads, fullCold, fullReads)
	}
}
