package laoram

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/stats"
)

// serverLeafHistogram trains a fresh two-shard instance over stream in
// 1024-access windows (Depth 2: remaps reach two windows ahead) against a
// node whose shard stores are spies, and histograms, in 64 bins, the leaf of
// every path the node was asked to read.
func serverLeafHistogram(t *testing.T, stream []uint64) *stats.Histogram {
	t.Helper()
	const entries, blockSize, shards, bins = 2048, 32, 2, 64
	addr, spies, g := spyNode(t, entries, blockSize, shards)
	db, err := New(Options{Entries: entries, Shards: shards, RemoteAddrs: []string{addr}, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	st, err := db.Train(context.Background(), TrainOptions{
		Source: FromSlice(stream), Superblock: 4, Window: 1024, PrePlace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Windows < 2 {
		t.Fatalf("trained %d windows, want several", st.Windows)
	}
	leafLevel := g.Levels() - 1
	h := stats.NewHistogram(bins)
	for _, spy := range spies {
		for _, c := range spy.take() {
			if c.op != "ReadBuckets" && c.op != "ReadPath" {
				continue
			}
			for _, r := range c.refs {
				if r.Level == leafLevel {
					h.Add(r.Node * bins / g.Leaves())
				}
			}
		}
	}
	return h
}

// TestWindowedTrainServerLeavesUniform is DESIGN.md invariant #3 where the
// adversary sits, for training that looks ahead across windows: the leaves of
// the paths a serving node reads are uniform, and a permutation stream and an
// XNLI stream of equal length are indistinguishable by them.
func TestWindowedTrainServerLeavesUniform(t *testing.T) {
	const n, count = 2048, 16384
	perm, err := GenerateTrace(TraceConfig{Kind: TracePermutation, N: n, Count: count, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	xnli, err := GenerateTrace(TraceConfig{Kind: TraceXNLI, N: n, Count: count, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	hp, hx := serverLeafHistogram(t, perm), serverLeafHistogram(t, xnli)
	for name, h := range map[string]*stats.Histogram{"permutation": hp, "xnli": hx} {
		if _, _, p, err := stats.ChiSquareUniform(h); err != nil || p < 0.001 {
			t.Errorf("%s: leaves the node read are not uniform over %d reads: p=%v err=%v", name, h.Total(), p, err)
		}
	}
	if _, _, p, err := stats.ChiSquareTwoSample(hp, hx); err != nil || p < 0.001 {
		t.Errorf("permutation and xnli leaf streams distinguishable: p=%v err=%v", p, err)
	}
}

// trickleSource delivers one index per Read, pausing before every 16th: the
// most finely cut feed a planner can be handed, and with a pause one slower
// than the trainer.
type trickleSource struct {
	rest  []uint64
	pause time.Duration
}

func (s *trickleSource) Read(ctx context.Context, dst []uint64) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if len(s.rest) == 0 {
		return 0, io.EOF
	}
	if s.pause > 0 && len(s.rest)%16 == 0 {
		time.Sleep(s.pause)
	}
	dst[0], s.rest = s.rest[0], s.rest[1:]
	return 1, nil
}

// gatedSource hands over its first held indices, then blocks until gate is
// closed: a sample pipeline that produces the rest of the stream only once
// training has begun.
type gatedSource struct {
	rest []uint64
	held int
	gate chan struct{}
}

func (s *gatedSource) Read(ctx context.Context, dst []uint64) (int, error) {
	if s.held == 0 {
		select {
		case <-s.gate:
		case <-ctx.Done():
			return 0, ctx.Err()
		}
	} else {
		dst = dst[:min(len(dst), s.held)]
	}
	if len(s.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(dst, s.rest)
	s.rest, s.held = s.rest[n:], max(s.held-n, 0)
	return n, nil
}

// TestTrickleSourceMatchesSlice is DESIGN.md invariant #9's timing clause:
// how the source cuts and paces the stream never changes what executes. A
// source that hands over one index per Read, paced or not, trains to the
// same identity counters and the same SaveState bytes as FromSlice, with
// windows that look ahead across each other at every Depth: D = Depth 1–3
// and D = 5 release windows while the source is still being read; the
// default horizon (4·Entries, 8 windows) bins the whole stream first.
//
// It is also §VIII-A's overlap, in counts rather than wall-clock: a source
// that hands over (D+1)·Window indices and then waits for the first Visit
// finishes training only if window 0 executes while the rest of the stream
// has yet to arrive — a trainer that drained its source first would wait
// out the deadline.
func TestTrickleSourceMatchesSlice(t *testing.T) {
	const entries, blockSize, window = 512, 16, 256
	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: 2000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	run := func(ctx context.Context, src IndexSource, visit Visit, depth, horizon int) (*TrainStats, []byte) {
		t.Helper()
		db, err := New(Options{Entries: entries, BlockSize: blockSize, Shards: 2, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		st, err := db.Train(ctx, TrainOptions{
			Source: src, Superblock: 4, Window: window, Depth: depth, Horizon: horizon,
			PrePlace: true, Payload: trainInit(blockSize), Visit: visit,
		})
		if err != nil {
			t.Fatal(err)
		}
		var state bytes.Buffer
		if err := db.SaveState(&state); err != nil {
			t.Fatal(err)
		}
		return st, state.Bytes()
	}
	check := func(label string, got, want *TrainStats, gotState, wantState []byte) {
		t.Helper()
		if got.Windows != want.Windows || got.Accesses != want.Accesses || got.Session != want.Session {
			t.Errorf("%s: identity counters %d/%d/%+v, FromSlice %d/%d/%+v", label,
				got.Windows, got.Accesses, got.Session, want.Windows, want.Accesses, want.Session)
		}
		if !bytes.Equal(gotState, wantState) {
			t.Errorf("%s: SaveState bytes differ from FromSlice's", label)
		}
	}
	bg := context.Background()
	for _, c := range []struct{ depth, horizon int }{
		{1, window}, {2, 2 * window}, {3, 3 * window}, {2, 5 * window}, {2, 0},
	} {
		want, wantState := run(bg, FromSlice(stream), trainVisit, c.depth, c.horizon)
		d := c.horizon / window
		if c.horizon > 0 && want.Windows < d+2 {
			t.Fatalf("D %d: %d windows, too few to release any before the stream ends", d, want.Windows)
		}
		for _, pause := range []time.Duration{0, 200 * time.Microsecond} {
			got, gotState := run(bg, &trickleSource{rest: stream, pause: pause}, trainVisit, c.depth, c.horizon)
			check(fmt.Sprintf("depth %d, horizon %d, pause %v", c.depth, c.horizon, pause), got, want, gotState, wantState)
		}
		if c.horizon == 0 {
			continue // the default horizon holds the whole stream: nothing to gate
		}
		src := &gatedSource{rest: stream, held: (d + 1) * window, gate: make(chan struct{})}
		var opened sync.Once
		visit := func(id uint64, row []byte) []byte {
			opened.Do(func() { close(src.gate) })
			return trainVisit(id, row)
		}
		ctx, cancel := context.WithTimeout(bg, 10*time.Second)
		got, gotState := run(ctx, src, visit, c.depth, c.horizon)
		cancel()
		check(fmt.Sprintf("D %d, gated after %d windows", d, d+1), got, want, gotState, wantState)
	}
}

// TestPlanningCheaperThanTraining is §VIII-A's premise that preprocessing
// can run ahead of training: over the same accesses, the planner's scan and
// binning (PlanTime) costs less wall time than executing them (TrainTime).
// The shape is a metadata-only table of 8,192 rows, 24,000 Gaussian accesses
// in 16 windows, S 8, Depth 2.
func TestPlanningCheaperThanTraining(t *testing.T) {
	const entries, accesses, windows = 8192, 24000, 16
	stream, err := GenerateTrace(TraceConfig{Kind: TraceGaussian, N: entries, Count: accesses, Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(Options{Entries: entries, MetadataOnly: true, FatTree: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const window = accesses / windows
	st, err := db.Train(context.Background(), TrainOptions{
		Source: FromSlice(stream), Superblock: 8, Window: window, Depth: 2, Horizon: 2 * window, PrePlace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Windows != windows || st.Accesses != accesses {
		t.Fatalf("trained %d windows of %d accesses, want %d of %d", st.Windows, st.Accesses, windows, accesses)
	}
	if st.PlanTime <= 0 || st.PlanTime >= st.TrainTime {
		t.Errorf("planning (%v) should cost less than executing (%v) the same %d accesses", st.PlanTime, st.TrainTime, accesses)
	}
	t.Logf("plan %v, train %v over %d windows", st.PlanTime, st.TrainTime, st.Windows)
}

// horizonRun trains a fresh two-shard instance over a Kaggle trace in
// 4096-access windows at Depth 2 and the given Horizon, and returns its
// Stats and the SHA-256 of every row read back afterwards.
func horizonRun(t *testing.T, horizon int) (Stats, string) {
	t.Helper()
	const entries, blockSize = 8192, 16
	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: 10 * 4096, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(Options{Entries: entries, BlockSize: blockSize, Shards: 2, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Train(context.Background(), TrainOptions{
		Source: FromSlice(stream), Superblock: 4, Window: 4096, Depth: 2, Horizon: horizon,
		PrePlace: true, Payload: trainInit(blockSize), Visit: trainVisit,
	}); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	ids := make([]uint64, entries)
	for i := range ids {
		ids[i] = uint64(i)
	}
	rows, err := db.ReadBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(bytes.Join(rows, nil))
	return st, hex.EncodeToString(sum[:])
}

// TestDefaultHorizonReadsFewerPaths: Horizon 0 looks 4·Entries = 32,768
// accesses past each window (8 windows), so the Kaggle trace's reuse stays in
// the plan and the run reads fewer paths per access than at Horizon 8192
// (Window·Depth). That explicit run is the planner's old horizon of Depth
// windows: its counts and rows are pinned to what the code read before
// Horizon existed.
func TestDefaultHorizonReadsFewerPaths(t *testing.T) {
	// Recorded before Horizon existed, when Depth 2 alone set the horizon.
	const (
		wantPathReads = 21285
		wantStashPeak = 746
		wantRows      = "390eff6c74039c13b25cccb9d9196b7d322cfedf913569b6b7291163c8b15943"
	)
	explicit, rows := horizonRun(t, 8192)
	if explicit.PathReads != wantPathReads || explicit.StashPeak != wantStashPeak || rows != wantRows {
		t.Errorf("Horizon 8192: %d path reads, stash peak %d, rows %s; want %d, %d, %s",
			explicit.PathReads, explicit.StashPeak, rows, wantPathReads, wantStashPeak, wantRows)
	}
	derived, _ := horizonRun(t, 0)
	if derived.Accesses != explicit.Accesses || derived.PathReads >= explicit.PathReads {
		t.Errorf("default horizon: %d path reads over %d accesses, want fewer than Horizon 8192's %d over %d",
			derived.PathReads, derived.Accesses, explicit.PathReads, explicit.Accesses)
	}
	t.Logf("path reads per access: %.3f at Horizon 8192, %.3f at the default",
		float64(explicit.PathReads)/float64(explicit.Accesses), float64(derived.PathReads)/float64(derived.Accesses))
}
