package superblock

import (
	"math/rand"
	"testing"

	"repro/internal/oram"
	"repro/internal/stats"
)

func planCfg(s int, leaves uint64, seed int64) PlanConfig {
	return PlanConfig{S: s, Leaves: leaves, Rand: rand.New(rand.NewSource(seed))}
}

func TestNewPlanValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []PlanConfig{
		{S: 0, Leaves: 8, Rand: rng},
		{S: 2, Leaves: 0, Rand: rng},
		{S: 2, Leaves: 8, Rand: nil},
	}
	for i, cfg := range bad {
		if _, err := NewPlan([]uint64{1, 2}, cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
}

func TestPlanBinning(t *testing.T) {
	stream := []uint64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	p, err := NewPlan(stream, planCfg(4, 64, 2))
	if err != nil {
		t.Fatal(err)
	}
	if p.S() != 4 {
		t.Errorf("S = %d", p.S())
	}
	if p.Len() != 3 {
		t.Fatalf("bins = %d, want 3", p.Len())
	}
	wantBins := [][]oram.BlockID{{1, 2, 3, 4}, {5, 6, 7, 8}, {9, 10}}
	for i, want := range wantBins {
		b := p.Bin(i)
		if b.Index != i {
			t.Errorf("bin %d index = %d", i, b.Index)
		}
		if len(b.Blocks) != len(want) {
			t.Fatalf("bin %d size = %d, want %d", i, len(b.Blocks), len(want))
		}
		for j := range want {
			if b.Blocks[j] != want[j] {
				t.Errorf("bin %d block %d = %d, want %d", i, j, b.Blocks[j], want[j])
			}
		}
		if uint64(b.Leaf) >= 64 {
			t.Errorf("bin %d leaf %d out of range", i, b.Leaf)
		}
	}
	if p.UniqueBlocks() != 10 {
		t.Errorf("UniqueBlocks = %d", p.UniqueBlocks())
	}
	// Metadata: 3 bin paths + 10 member IDs, 8 bytes each.
	if p.MetadataBytes() != 3*8+10*8 {
		t.Errorf("MetadataBytes = %d", p.MetadataBytes())
	}
}

// TestPlanWithinBinDedupe checks §IV-B2: a bin holds the next S *unique*
// indices; repeats inside an open bin are folded into one membership.
func TestPlanWithinBinDedupe(t *testing.T) {
	stream := []uint64{1, 1, 2, 2, 3, 3, 1, 4}
	p, err := NewPlan(stream, planCfg(2, 16, 3))
	if err != nil {
		t.Fatal(err)
	}
	// Dedupe applies within the *open* bin only: the second "2" arrives
	// just after [1,2] was sealed, so it opens the next bin. Bins:
	// [1,2], [2,3], [3,1], [4].
	want := [][]oram.BlockID{{1, 2}, {2, 3}, {3, 1}, {4}}
	if p.Len() != len(want) {
		t.Fatalf("bins = %d, want %d", p.Len(), len(want))
	}
	for i := range want {
		got := p.Bin(i).Blocks
		if len(got) != len(want[i]) {
			t.Fatalf("bin %d = %v, want %v", i, got, want[i])
		}
		for j := range want[i] {
			if got[j] != want[i][j] {
				t.Errorf("bin %d = %v, want %v", i, got, want[i])
			}
		}
	}
	// Block 1 appears in bins 0 and 2.
	if q := binsOfAll(p)[1]; len(q) != 2 || q[0] != 0 || q[1] != 2 {
		t.Errorf("block 1 in bins %v", q)
	}
	if _, next, _ := NewCursor(p).Advance(); next[0].Leaf() != p.Bin(2).Leaf {
		t.Errorf("block 1's next leaf = %d, want bin 2's %d", next[0], p.Bin(2).Leaf)
	}
	if p.FirstLeaf(1) != p.Bin(0).Leaf {
		t.Error("FirstLeaf(1) wrong")
	}
	if p.FirstLeaf(999) != oram.NoLeaf {
		t.Error("FirstLeaf of absent block should be NoLeaf")
	}
}

func TestPlanEmptyStream(t *testing.T) {
	p, err := NewPlan(nil, planCfg(4, 8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 0 || p.UniqueBlocks() != 0 || p.MetadataBytes() != 0 {
		t.Errorf("empty plan: len=%d unique=%d bytes=%d", p.Len(), p.UniqueBlocks(), p.MetadataBytes())
	}
	c := NewCursor(p)
	if !c.Done() || c.PeekBin(0) != nil {
		t.Error("cursor on empty plan should be done")
	}
	if _, _, err := c.Advance(); err == nil {
		t.Error("Advance on empty plan succeeded")
	}
}

// TestBinLeafUniformity checks §IV-B3/§VI: bin paths are uniform over
// leaves (chi-square, α=0.001).
func TestBinLeafUniformity(t *testing.T) {
	const leaves = 64
	stream := make([]uint64, 40000)
	for i := range stream {
		stream[i] = uint64(i) // all distinct → 10k bins at S=4
	}
	p, err := NewPlan(stream, planCfg(4, leaves, 4))
	if err != nil {
		t.Fatal(err)
	}
	h := stats.NewHistogram(leaves)
	for i := 0; i < p.Len(); i++ {
		h.Add(uint64(p.Bin(i).Leaf))
	}
	if _, _, pval, err := stats.ChiSquareUniform(h); err != nil || pval < 0.001 {
		t.Errorf("bin leaves not uniform: p=%v err=%v", pval, err)
	}
}

func TestCursorAdvance(t *testing.T) {
	// Block 5 appears in bins 0 and 2; block 6 only in bin 0.
	stream := []uint64{5, 6, 7, 8, 5, 9}
	p, err := NewPlan(stream, planCfg(2, 32, 5))
	if err != nil {
		t.Fatal(err)
	}
	// Bins: [5,6], [7,8], [5,9].
	if p.Len() != 3 {
		t.Fatalf("bins = %d", p.Len())
	}
	c := NewCursor(p)
	if c.Done() {
		t.Fatal("fresh cursor done")
	}
	if nb := c.PeekBin(0); nb == nil || nb.Index != 0 {
		t.Fatalf("PeekBin(0) = %+v", nb)
	}
	bin, next, err := c.Advance()
	if err != nil {
		t.Fatal(err)
	}
	if bin.Index != 0 || len(next) != 2 {
		t.Fatalf("bin %d, next %v", bin.Index, next)
	}
	// Block 5's next path is bin 2's leaf; block 6 leaves the horizon.
	if next[0].Leaf() != p.Bin(2).Leaf {
		t.Errorf("next leaf of 5 = %d, want bin2 leaf %d", next[0], p.Bin(2).Leaf)
	}
	if next[1] != NoNext {
		t.Errorf("next leaf of 6 = %d, want NoLeaf", next[1])
	}
	if _, _, err := c.Advance(); err != nil { // bin 1
		t.Fatal(err)
	}
	bin, next, err = c.Advance() // bin 2
	if err != nil {
		t.Fatal(err)
	}
	if next[0] != NoNext || next[1] != NoNext {
		t.Errorf("final bin next leaves = %v", next)
	}
	if !c.Done() {
		t.Error("cursor not done after all bins")
	}
	if _, _, err := c.Advance(); err == nil {
		t.Error("Advance past end succeeded")
	}
	_ = bin
}

func TestPlanDeterminism(t *testing.T) {
	stream := make([]uint64, 1000)
	rng := rand.New(rand.NewSource(99))
	for i := range stream {
		stream[i] = uint64(rng.Intn(500))
	}
	p1, err := NewPlan(stream, planCfg(4, 128, 7))
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlan(stream, planCfg(4, 128, 7))
	if err != nil {
		t.Fatal(err)
	}
	if p1.Len() != p2.Len() {
		t.Fatalf("lengths differ")
	}
	for i := 0; i < p1.Len(); i++ {
		if p1.Bin(i).Leaf != p2.Bin(i).Leaf {
			t.Fatalf("bin %d leaves differ", i)
		}
	}
}
