package ringoram

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/oram"
	"repro/internal/superblock"
	"repro/internal/trace"
)

func newRing(t *testing.T, blocks uint64, blockSize int, seed int64) *Ring {
	t.Helper()
	r, err := New(Config{
		Blocks: blocks, BlockSize: blockSize,
		Rand: rand.New(rand.NewSource(seed)),
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestConfigValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	bad := []Config{
		{Blocks: 0, Rand: rng},
		{Blocks: 8, Rand: nil},
		{Blocks: 8, Rand: rng, Z: -1},
		{Blocks: 8, Rand: rng, Z: 40, S: 40},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
	r := newRing(t, 64, 0, 2)
	if r.Geometry().BucketSize(0) != 8 { // Z=4 + S=4 defaults
		t.Errorf("bucket size = %d, want 8", r.Geometry().BucketSize(0))
	}
}

func TestAccessUnloadedFails(t *testing.T) {
	r := newRing(t, 64, 0, 3)
	if _, err := r.Access(oram.OpRead, 5, nil); err == nil {
		t.Error("unloaded block accepted")
	}
	if _, err := r.Access(oram.OpRead, 9999, nil); err == nil {
		t.Error("out-of-range block accepted")
	}
}

func TestRingReadYourWrites(t *testing.T) {
	const blocks = 128
	r := newRing(t, blocks, 8, 4)
	if err := r.Load(blocks, func(id oram.BlockID) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, uint64(id))
		return b
	}); err != nil {
		t.Fatal(err)
	}
	ref := make(map[oram.BlockID][]byte)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 1500; i++ {
		id := oram.BlockID(rng.Intn(blocks))
		if rng.Intn(2) == 0 {
			v := make([]byte, 8)
			binary.LittleEndian.PutUint64(v, rng.Uint64())
			if _, err := r.Access(oram.OpWrite, id, v); err != nil {
				t.Fatalf("op %d write: %v", i, err)
			}
			ref[id] = v
		} else {
			got, err := r.Access(oram.OpRead, id, nil)
			if err != nil {
				t.Fatalf("op %d read: %v", i, err)
			}
			want := ref[id]
			if want == nil {
				want = make([]byte, 8)
				binary.LittleEndian.PutUint64(want, uint64(id))
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: block %d = %x, want %x", i, id, got, want)
			}
		}
	}
	st := r.Stats()
	if st.EvictionPaths == 0 {
		t.Error("no eviction paths ran")
	}
	if st.StashPeak == 0 {
		t.Error("stash never used — suspicious for RingORAM")
	}
}

// TestRingTrafficBelowPathORAM verifies RingORAM's raison d'être: per-access
// block reads ≈ logN + eviction share, far below PathORAM's 2·Z·logN.
func TestRingTrafficBelowPathORAM(t *testing.T) {
	const blocks = 1 << 10
	r := newRing(t, blocks, 0, 6)
	if err := r.Load(blocks, nil); err != nil {
		t.Fatal(err)
	}
	r.ResetStats()
	stream := trace.Uniform(trace.NewRNG(7), blocks, 3000)
	for _, a := range stream {
		if _, err := r.Access(oram.OpRead, oram.BlockID(a), nil); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	readsPerAccess := float64(st.BlocksRead) / float64(st.Accesses)
	levels := float64(r.Geometry().Levels())
	// One block per bucket (≈ levels) plus reshuffle/eviction reads; the
	// PathORAM equivalent would be Z×levels = 4×levels reads.
	if readsPerAccess > 2.5*levels {
		t.Errorf("reads/access = %.1f, want < 2.5×levels (%.0f)", readsPerAccess, 2.5*levels)
	}
	t.Logf("ring reads/access = %.1f (levels=%d, PathORAM read would be %d)",
		readsPerAccess, r.Geometry().Levels(), 4*r.Geometry().Levels())
}

// TestRingBlockConservation: after arbitrary ops every block is exactly
// once in {unread tree slots} ∪ stash.
func TestRingBlockConservation(t *testing.T) {
	const blocks = 64
	r := newRing(t, blocks, 0, 8)
	if err := r.Load(blocks, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 400; i++ {
		if _, err := r.Access(oram.OpRead, oram.BlockID(rng.Intn(blocks)), nil); err != nil {
			t.Fatal(err)
		}
	}
	count := make(map[oram.BlockID]int)
	g := r.Geometry()
	buf := make([]oram.Slot, g.BucketSize(0))
	for lvl := 0; lvl < g.Levels(); lvl++ {
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			if err := r.store.ReadBucket(lvl, node, buf); err != nil {
				t.Fatal(err)
			}
			mask := r.readMask[r.bucketNo(lvl, node)]
			for i := range buf {
				if buf[i].Dummy() || mask&(1<<uint(i)) != 0 {
					continue // consumed copies are stale by design
				}
				count[buf[i].ID]++
			}
		}
	}
	for id := oram.BlockID(0); id < blocks; id++ {
		n := count[id]
		if r.Stash().Contains(id) {
			n++
		}
		if n != 1 {
			t.Errorf("block %d present %d times", id, n)
		}
	}
}

func TestEarlyReshuffleTriggers(t *testing.T) {
	const blocks = 32
	r := newRing(t, blocks, 0, 10)
	if err := r.Load(blocks, nil); err != nil {
		t.Fatal(err)
	}
	// Hammer a single block: its leaf's path buckets burn dummies fast.
	for i := 0; i < 200; i++ {
		if _, err := r.Access(oram.OpRead, 7, nil); err != nil {
			t.Fatal(err)
		}
	}
	if r.Stats().EarlyReshuffles == 0 {
		t.Error("no early reshuffles under hot-block hammering")
	}
}

func TestNextEvictLeafCyclesReverseLex(t *testing.T) {
	r := newRing(t, 16, 0, 11)
	L := r.Geometry().LeafBits()
	seen := make(map[oram.Leaf]bool)
	for i := uint64(0); i < r.Geometry().Leaves(); i++ {
		seen[r.nextEvictLeaf()] = true
	}
	if len(seen) != int(r.Geometry().Leaves()) {
		t.Errorf("eviction order covered %d/%d leaves in one cycle", len(seen), r.Geometry().Leaves())
	}
	_ = L
}

func TestLAORingValidation(t *testing.T) {
	r := newRing(t, 64, 0, 12)
	if _, err := NewLAORing(nil, nil); err == nil {
		t.Error("nil args accepted")
	}
	plan, err := superblock.NewPlan([]uint64{1, 2}, superblock.PlanConfig{
		S: 2, Leaves: r.Geometry().Leaves(), Rand: rand.New(rand.NewSource(1)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewLAORing(r, nil); err == nil {
		t.Error("nil plan accepted")
	}
	lr, err := NewLAORing(r, plan)
	if err != nil {
		t.Fatal(err)
	}
	if lr.Ring() != r {
		t.Error("Ring accessor wrong")
	}
}

// TestLAORingFormula measures the §VIII-G estimate: per n accesses,
// LAORAM-on-Ring should read ≈ n·logN/S + extras blocks, with extras small
// — i.e. clearly below plain Ring's ≈ n·logN.
func TestLAORingFormula(t *testing.T) {
	const blocks = 1 << 10
	const S = 4
	stream := trace.PermutationEpochs(trace.NewRNG(13), blocks, 3*blocks)

	// Plain ring baseline.
	plain := newRing(t, blocks, 0, 14)
	if err := plain.Load(blocks, nil); err != nil {
		t.Fatal(err)
	}
	plain.ResetStats()
	for _, a := range stream {
		if _, err := plain.Access(oram.OpRead, oram.BlockID(a), nil); err != nil {
			t.Fatal(err)
		}
	}
	plainReads := plain.Stats().BlocksRead

	// LAORAM-on-Ring.
	r := newRing(t, blocks, 0, 14)
	plan, err := superblock.NewPlan(stream, superblock.PlanConfig{
		S: S, Leaves: r.Geometry().Leaves(), Rand: rand.New(rand.NewSource(15)),
	})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := NewLAORing(r, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := lr.LoadPrePlaced(blocks, nil); err != nil {
		t.Fatal(err)
	}
	r.ResetStats()
	if err := lr.Run(nil); err != nil {
		t.Fatal(err)
	}
	laoReads := r.Stats().BlocksRead
	if lr.Bins() != uint64(plan.Len()) {
		t.Errorf("bins executed %d != plan %d", lr.Bins(), plan.Len())
	}
	ratio := float64(plainReads) / float64(laoReads)
	t.Logf("ring reads: plain=%d laoring=%d ratio=%.2f (S=%d)", plainReads, laoReads, ratio, S)
	// The formula predicts close to S× fewer path-walk reads; reshuffles
	// and evictions dilute it, but ≥ 1.8× must hold at S=4.
	if ratio < 1.8 {
		t.Errorf("LAORAM-on-Ring read reduction %.2f×, want >= 1.8×", ratio)
	}
}

// TestLAORingVisitAndPayload: payload updates through the visit callback
// persist across bins.
func TestLAORingVisitAndPayload(t *testing.T) {
	const blocks = 128
	stream := trace.PermutationEpochs(trace.NewRNG(16), blocks, 2*blocks)
	r, err := New(Config{Blocks: blocks, BlockSize: 8, Rand: rand.New(rand.NewSource(17))})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := superblock.NewPlan(stream, superblock.PlanConfig{
		S: 4, Leaves: r.Geometry().Leaves(), Rand: rand.New(rand.NewSource(18)),
	})
	if err != nil {
		t.Fatal(err)
	}
	lr, err := NewLAORing(r, plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := lr.LoadPrePlaced(blocks, func(id oram.BlockID) []byte {
		b := make([]byte, 8)
		binary.LittleEndian.PutUint64(b, 0)
		return b
	}); err != nil {
		t.Fatal(err)
	}
	visits := make(map[oram.BlockID]uint64)
	err = lr.Run(func(id oram.BlockID, payload []byte) []byte {
		c := binary.LittleEndian.Uint64(payload)
		if c != visits[id] {
			t.Fatalf("block %d: payload count %d, want %d", id, c, visits[id])
		}
		visits[id]++
		out := make([]byte, 8)
		binary.LittleEndian.PutUint64(out, c+1)
		return out
	})
	if err != nil {
		t.Fatal(err)
	}
	for id, v := range visits {
		if v != 2 {
			t.Errorf("block %d visited %d times, want 2", id, v)
		}
	}
	if err := lr.StepBin(nil); err == nil {
		t.Error("StepBin past plan end succeeded")
	}
}
