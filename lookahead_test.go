package laoram

import (
	"bytes"
	"context"
	"io"
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

// TestTrickleSourceMatchesSlice is DESIGN.md invariant #9's timing clause:
// how the source cuts and paces the stream never changes what executes. A
// source that hands over one index per Read, paced or not, trains to the
// same identity counters and the same SaveState bytes as FromSlice, with
// windows that look ahead across each other at every Depth.
func TestTrickleSourceMatchesSlice(t *testing.T) {
	const entries, blockSize, window = 512, 16, 256
	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: 2000, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	run := func(src IndexSource, depth int) (*TrainStats, []byte) {
		t.Helper()
		db, err := New(Options{Entries: entries, BlockSize: blockSize, Shards: 2, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		st, err := db.Train(context.Background(), TrainOptions{
			Source: src, Superblock: 4, Window: window, Depth: depth,
			PrePlace: true, Payload: trainInit(blockSize), Visit: trainVisit,
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
	for depth := 1; depth <= 3; depth++ {
		want, wantState := run(FromSlice(stream), depth)
		if want.Windows < 2*depth {
			t.Fatalf("depth %d: %d windows, too few to look ahead across", depth, want.Windows)
		}
		for _, pause := range []time.Duration{0, 200 * time.Microsecond} {
			got, gotState := run(&trickleSource{rest: stream, pause: pause}, depth)
			if got.Windows != want.Windows || got.Accesses != want.Accesses || got.Session != want.Session {
				t.Errorf("depth %d, pause %v: identity counters %d/%d/%+v, FromSlice %d/%d/%+v", depth, pause,
					got.Windows, got.Accesses, got.Session, want.Windows, want.Accesses, want.Session)
			}
			if !bytes.Equal(gotState, wantState) {
				t.Errorf("depth %d, pause %v: SaveState bytes differ from FromSlice's", depth, pause)
			}
		}
	}
}
