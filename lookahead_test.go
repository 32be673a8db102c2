package laoram

import (
	"context"
	"testing"

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
