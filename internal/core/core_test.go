package core

import (
	"context"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/crypto"
	"repro/internal/oram"
	"repro/internal/stats"
	"repro/internal/superblock"
	"repro/internal/trace"
)

type fixture struct {
	laoram *LAORAM
	base   *oram.Client
	store  *oram.CountingStore
	plan   *superblock.Plan
}

type fixtureConfig struct {
	leafBits  int
	blocks    uint64
	blockSize int
	s         int
	fat       bool
	evict     oram.EvictConfig
	stream    []uint64
	prePlace  bool
	seed      int64
	// spy, if set, is put between the CountingStore and the PayloadStore.
	spy *binSpy
	// sealed seals the PayloadStore and puts a Treetop over it, as a
	// laoram instance with Encrypt builds its shards.
	sealed bool
}

func newFixture(t *testing.T, fc fixtureConfig) *fixture {
	t.Helper()
	gc := oram.GeometryConfig{LeafBits: fc.leafBits, LeafZ: 4, BlockSize: fc.blockSize}
	if fc.fat {
		gc.RootZ = 8
		gc.Profile = oram.ProfileLinear
	}
	g := oram.MustGeometry(gc)
	var inner oram.Store
	if fc.blockSize > 0 {
		var sealer oram.Sealer
		if fc.sealed {
			s, err := crypto.NewSealer(make([]byte, 32))
			if err != nil {
				t.Fatal(err)
			}
			sealer = s
		}
		ps, err := oram.NewPayloadStore(g, sealer)
		if err != nil {
			t.Fatal(err)
		}
		inner = ps
		if fc.spy != nil {
			fc.spy.PayloadStore = ps
			inner = fc.spy
		}
		if fc.sealed {
			if inner, err = oram.NewTreetop(inner, true, false); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		inner = oram.NewMetaStore(g)
	}
	cs := oram.NewCountingStore(inner, nil)
	base, err := oram.NewClient(oram.ClientConfig{
		Store:     cs,
		Rand:      rand.New(rand.NewSource(fc.seed)),
		Evict:     fc.evict,
		StashHits: true,
		Blocks:    fc.blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := superblock.NewPlan(fc.stream, superblock.PlanConfig{
		S: fc.s, Leaves: g.Leaves(), Rand: rand.New(rand.NewSource(fc.seed + 1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	la, err := New(Config{Base: base, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	var payload func(oram.BlockID) []byte
	if fc.blockSize > 0 {
		payload = func(id oram.BlockID) []byte {
			b := make([]byte, fc.blockSize)
			binary.LittleEndian.PutUint64(b, uint64(id))
			return b
		}
	}
	if fc.prePlace {
		if err := la.LoadPrePlaced(fc.blocks, payload); err != nil {
			t.Fatal(err)
		}
	} else {
		if err := base.Load(fc.blocks, nil, payload); err != nil {
			t.Fatal(err)
		}
	}
	cs.ResetCounters()
	base.ResetStats()
	return &fixture{laoram: la, base: base, store: cs, plan: plan}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 4, LeafZ: 4})
	base, err := oram.NewClient(oram.ClientConfig{
		Store: oram.NewMetaStore(g), Rand: rand.New(rand.NewSource(1)), Blocks: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Base: base}); err == nil {
		t.Error("missing plan accepted")
	}
}

// TestSteadyStateOnePathPerBin is the core performance claim of §IV: with
// pre-placement (converged look-ahead), every bin costs exactly one path
// read and one path write — 1/S of PathORAM's per-access traffic.
func TestSteadyStateOnePathPerBin(t *testing.T) {
	const blocks = 1 << 10
	stream := trace.PermutationEpochs(trace.NewRNG(5), blocks, 4096)
	f := newFixture(t, fixtureConfig{
		leafBits: 10, blocks: blocks, s: 4,
		evict: oram.PaperEvict, stream: stream, prePlace: true, seed: 2,
	})
	if err := f.laoram.Run(context.Background(), 1, nil); err != nil {
		t.Fatal(err)
	}
	st := f.laoram.Stats()
	if st.ColdPathReads != 0 {
		t.Errorf("pre-placed run had %d cold path reads", st.ColdPathReads)
	}
	// PathReads == bins that needed any fetch (≤ Bins; all-stashed bins
	// read nothing).
	if st.PathReads > st.Bins {
		t.Errorf("PathReads %d > Bins %d", st.PathReads, st.Bins)
	}
	if st.Bins != uint64(f.plan.Len()) {
		t.Errorf("Bins = %d, plan length %d", st.Bins, f.plan.Len())
	}
	if st.Accesses != uint64(len(stream)) {
		t.Errorf("Accesses = %d, stream length %d", st.Accesses, len(stream))
	}
	// Traffic advantage: reads per logical access ≈ 1/S (plus dummies).
	perAccess := float64(st.PathReads) / float64(st.Accesses)
	if perAccess > 1.0/4+0.05 {
		t.Errorf("path reads per access = %.3f, want ≈ 0.25", perAccess)
	}
}

// TestColdStartConverges: without pre-placement the first epoch pays cold
// path reads, but the second epoch is fully formed (§IV-B fixes each
// block's future path at its first access).
func TestColdStartConverges(t *testing.T) {
	const blocks = 512
	stream := trace.PermutationEpochs(trace.NewRNG(6), blocks, 2*blocks)
	f := newFixture(t, fixtureConfig{
		leafBits: 9, blocks: blocks, s: 4,
		evict: oram.PaperEvict, stream: stream, prePlace: false, seed: 3,
	})
	// First epoch: blocks/4 bins.
	firstBins := int(blocks / 4)
	for i := 0; i < firstBins; i++ {
		if _, err := f.laoram.Step(1, nil); err != nil {
			t.Fatal(err)
		}
	}
	cold1 := f.laoram.Stats().ColdPathReads
	if cold1 == 0 {
		t.Error("cold start produced no cold reads — suspicious")
	}
	// Second epoch: every member was remapped by lookahead already.
	if err := f.laoram.Run(context.Background(), 1, nil); err != nil {
		t.Fatal(err)
	}
	cold2 := f.laoram.Stats().ColdPathReads - cold1
	if cold2 != 0 {
		t.Errorf("second epoch still cold: %d extra cold reads", cold2)
	}
}

// TestReadYourWritesThroughPlan: payload mutations through visit persist
// across bins (training updates must survive re-fetches).
func TestReadYourWritesThroughPlan(t *testing.T) {
	const blocks = 256
	stream := trace.PermutationEpochs(trace.NewRNG(7), blocks, 3*blocks)
	f := newFixture(t, fixtureConfig{
		leafBits: 8, blocks: blocks, blockSize: 16, s: 4,
		evict: oram.PaperEvict, stream: stream, prePlace: true, seed: 4,
	})
	// Epoch 1+2: increment a counter in every payload at each visit.
	counts := make(map[oram.BlockID]uint64)
	visit := func(id oram.BlockID, payload []byte) []byte {
		if binary.LittleEndian.Uint64(payload) != uint64(id) {
			t.Fatalf("block %d: identity word corrupted: %x", id, payload)
		}
		c := binary.LittleEndian.Uint64(payload[8:])
		if c != counts[id] {
			t.Fatalf("block %d: visit count %d, want %d", id, c, counts[id])
		}
		counts[id]++
		out := make([]byte, len(payload))
		copy(out, payload)
		binary.LittleEndian.PutUint64(out[8:], c+1)
		return out
	}
	if err := f.laoram.Run(context.Background(), 1, visit); err != nil {
		t.Fatal(err)
	}
	for id, c := range counts {
		if c != 3 {
			t.Errorf("block %d visited %d times, want 3", id, c)
		}
	}
}

// TestLookaheadRemapAccounting: within the horizon remaps come from the
// plan; at the end of the horizon they fall back to uniform.
func TestLookaheadRemapAccounting(t *testing.T) {
	const blocks = 128
	stream := trace.PermutationEpochs(trace.NewRNG(8), blocks, 2*blocks)
	f := newFixture(t, fixtureConfig{
		leafBits: 7, blocks: blocks, s: 4,
		evict: oram.PaperEvict, stream: stream, prePlace: true, seed: 5,
	})
	if err := f.laoram.Run(context.Background(), 1, nil); err != nil {
		t.Fatal(err)
	}
	st := f.laoram.Stats()
	// Each block appears twice (two epochs): first access remaps via
	// lookahead, second (final) via uniform.
	if st.LookaheadRemaps != blocks {
		t.Errorf("LookaheadRemaps = %d, want %d", st.LookaheadRemaps, blocks)
	}
	if st.UniformRemaps != blocks {
		t.Errorf("UniformRemaps = %d, want %d", st.UniformRemaps, blocks)
	}
	if st.Remaps != st.LookaheadRemaps+st.UniformRemaps {
		t.Errorf("Remaps %d != lookahead %d + uniform %d", st.Remaps, st.LookaheadRemaps, st.UniformRemaps)
	}
}

func TestPlanExhaustion(t *testing.T) {
	const blocks = 64
	stream := trace.Sequential(blocks, 16)
	f := newFixture(t, fixtureConfig{
		leafBits: 6, blocks: blocks, s: 4,
		stream: stream, prePlace: true, seed: 6,
	})
	if f.laoram.Done() {
		t.Error("fresh plan reported done")
	}
	if err := f.laoram.Run(context.Background(), 1, nil); err != nil {
		t.Fatal(err)
	}
	if !f.laoram.Done() {
		t.Error("completed plan not done")
	}
	if _, err := f.laoram.Step(1, nil); err == nil {
		t.Error("Step past plan end succeeded")
	}
	if err := f.laoram.Run(context.Background(), 1, nil); err != nil {
		t.Errorf("Run on exhausted plan = %v, want a no-op", err)
	}
}

func TestUnloadedBlockFails(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 6, LeafZ: 4})
	base, err := oram.NewClient(oram.ClientConfig{
		Store: oram.NewMetaStore(g), Rand: rand.New(rand.NewSource(1)),
		StashHits: true, Blocks: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := superblock.NewPlan([]uint64{1, 2, 3, 4}, superblock.PlanConfig{
		S: 4, Leaves: g.Leaves(), Rand: rand.New(rand.NewSource(2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	la, err := New(Config{Base: base, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	// No Load: members unknown to the position map.
	if _, err := la.Step(1, nil); err == nil {
		t.Error("Step with unloaded blocks succeeded")
	}
}

func TestBinReferencesOutOfRangeBlock(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 6, LeafZ: 4})
	base, err := oram.NewClient(oram.ClientConfig{
		Store: oram.NewMetaStore(g), Rand: rand.New(rand.NewSource(1)),
		StashHits: true, Blocks: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := superblock.NewPlan([]uint64{100}, superblock.PlanConfig{
		S: 2, Leaves: g.Leaves(), Rand: rand.New(rand.NewSource(2)),
	})
	if err != nil {
		t.Fatal(err)
	}
	la, err := New(Config{Base: base, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := la.Step(1, nil); err == nil {
		t.Error("bin referencing block beyond table accepted")
	}
}

// TestFatTreeReducesDummyReads reproduces the core §V claim at test scale:
// under superblock pressure (S=8) the fat-tree needs far fewer background
// evictions than the normal tree.
func TestFatTreeReducesDummyReads(t *testing.T) {
	const blocks = 1 << 12
	const S = 8
	stream := trace.PermutationEpochs(trace.NewRNG(9), blocks, 3*blocks)
	run := func(fat bool) oram.AccessStats {
		f := newFixture(t, fixtureConfig{
			leafBits: 12, blocks: blocks, s: S, fat: fat,
			evict: oram.PaperEvict, stream: stream, prePlace: true, seed: 7,
		})
		if err := f.laoram.Run(context.Background(), 1, nil); err != nil {
			t.Fatal(err)
		}
		return f.base.Stats()
	}
	normal := run(false)
	fat := run(true)
	if fat.DummyReads >= normal.DummyReads {
		t.Errorf("fat tree dummy reads %d >= normal %d", fat.DummyReads, normal.DummyReads)
	}
	t.Logf("dummy reads: normal=%d fat=%d (%.1f%% fewer)",
		normal.DummyReads, fat.DummyReads,
		100*(1-float64(fat.DummyReads)/float64(normal.DummyReads)))
}

// TestStashGrowthOrdering reproduces Fig. 8's ordering at test scale: with
// eviction disabled, stash growth is Normal/8 > Normal/4 > Fat/8 > Fat/4
// in the two pairings the paper plots (fat vs normal at fixed S).
func TestStashGrowthOrdering(t *testing.T) {
	const blocks = 1 << 12
	peak := func(s int, fat bool) int {
		stream := trace.PermutationEpochs(trace.NewRNG(10), blocks, 2*blocks)
		f := newFixture(t, fixtureConfig{
			leafBits: 12, blocks: blocks, s: s, fat: fat,
			evict: oram.EvictConfig{}, stream: stream, prePlace: true, seed: 8,
		})
		if err := f.laoram.Run(context.Background(), 1, nil); err != nil {
			t.Fatal(err)
		}
		return f.base.Stash().Peak()
	}
	n4, f4 := peak(4, false), peak(4, true)
	n8, f8 := peak(8, false), peak(8, true)
	t.Logf("stash peaks: normal/4=%d fat/4=%d normal/8=%d fat/8=%d", n4, f4, n8, f8)
	if f4 >= n4 {
		t.Errorf("fat/4 peak %d >= normal/4 peak %d", f4, n4)
	}
	if f8 >= n8 {
		t.Errorf("fat/8 peak %d >= normal/8 peak %d", f8, n8)
	}
	if n8 <= n4 {
		t.Errorf("normal/8 peak %d <= normal/4 peak %d (larger superblocks should stash more)", n8, n4)
	}
}

// TestLeafAccessUniformity checks §VI for LAORAM itself: despite bins
// pinning groups to shared paths, the sequence of leaves observed on the
// server bus stays uniform.
func TestLeafAccessUniformity(t *testing.T) {
	const blocks = 256
	stream := trace.PermutationEpochs(trace.NewRNG(11), blocks, 8*blocks)
	f := newFixture(t, fixtureConfig{
		leafBits: 8, blocks: blocks, s: 4,
		evict: oram.PaperEvict, stream: stream, prePlace: true, seed: 9,
	})
	h := stats.NewHistogram(int(f.base.Geometry().Leaves()))
	for !f.laoram.Done() {
		bin := f.laoram.Plan().Bin(int(f.laoram.Stats().Bins))
		// The leaf about to be fetched for this bin (if any member needs
		// a read) is the members' shared posmap leaf.
		for _, id := range bin.Blocks {
			if !f.base.Stash().Contains(id) {
				h.Add(uint64(f.base.PosMap().Get(id)))
				break
			}
		}
		if _, err := f.laoram.Step(1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, p, err := stats.ChiSquareUniform(h); err != nil || p < 0.001 {
		t.Errorf("LAORAM leaf accesses not uniform: p=%v err=%v", p, err)
	}
}

// TestTwoStreamIndistinguishability: the adversary's leaf histogram from
// two completely different training streams must be statistically
// indistinguishable (§VI's obliviousness guarantee).
func TestTwoStreamIndistinguishability(t *testing.T) {
	const blocks = 256
	observe := func(kind trace.Kind, seed int64) *stats.Histogram {
		stream, err := trace.Generate(trace.Config{Kind: kind, N: blocks, Count: 4096, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		f := newFixture(t, fixtureConfig{
			leafBits: 8, blocks: blocks, s: 4,
			evict: oram.PaperEvict, stream: stream, prePlace: true, seed: seed,
		})
		h := stats.NewHistogram(int(f.base.Geometry().Leaves()))
		for !f.laoram.Done() {
			bin := f.laoram.Plan().Bin(int(f.laoram.Stats().Bins))
			for _, id := range bin.Blocks {
				if !f.base.Stash().Contains(id) {
					h.Add(uint64(f.base.PosMap().Get(id)))
					break
				}
			}
			if _, err := f.laoram.Step(1, nil); err != nil {
				t.Fatal(err)
			}
		}
		return h
	}
	a := observe(trace.KindPermutation, 12)
	b := observe(trace.KindXNLI, 13)
	if _, _, p, err := stats.ChiSquareTwoSample(a, b); err != nil || p < 0.001 {
		t.Errorf("streams distinguishable from leaf histograms: p=%v err=%v", p, err)
	}
}

// TestStatsResetAndSnapshot covers the bookkeeping helpers.
func TestStatsResetAndSnapshot(t *testing.T) {
	const blocks = 64
	stream := trace.Sequential(blocks, 32)
	f := newFixture(t, fixtureConfig{
		leafBits: 6, blocks: blocks, s: 4,
		stream: stream, prePlace: true, seed: 14,
	})
	if _, err := f.laoram.Step(1, nil); err != nil {
		t.Fatal(err)
	}
	if f.laoram.Stats().Bins != 1 {
		t.Errorf("Bins = %d", f.laoram.Stats().Bins)
	}
	if f.laoram.Base() != f.base || f.laoram.Plan() != f.plan {
		t.Error("accessors wrong")
	}
	f.laoram.ResetStats()
	st := f.laoram.Stats()
	if st.Bins != 0 || st.Accesses != 0 || st.ColdPathReads != 0 {
		t.Errorf("reset incomplete: %+v", st)
	}
}
