package core

import (
	"testing"

	"repro/internal/oram"
	"repro/internal/trace"
)

// TestStepAllocs gates the LAORAM bin cycle: the steady-state one-bin
// Step — plan consumption, path fetch, per-member remap, joint
// write-back, background eviction — must not allocate. This is the end-to-end
// proof that the slab stash and its index, the reusable evict planner, the
// transfer buffers and the cursor (an index into the plan's next-leaf table)
// compose across the oram and superblock layers. Three shapes: the converged
// one-path bin over a metadata-only store and over a Treetop on a sealed
// PayloadStore (rows handed between the stash, the read arena and the top),
// and the cold bin — two to four paths fetched as one bucket union and
// written back as one — over an unsealed PayloadStore.
func TestStepAllocs(t *testing.T) {
	const blocks = 1 << 11
	stream, err := trace.Generate(trace.Config{
		Kind: trace.KindPermutation, N: blocks, Count: 16 * blocks, Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		cold bool
		fx   *fixture
	}{
		{"one-path/meta", false, newFixture(t, fixtureConfig{
			leafBits: 10, blocks: blocks, s: 4,
			evict: oram.PaperEvict, stream: stream, prePlace: true, seed: 32,
		})},
		{"one-path/sealed-treetop", false, newFixture(t, fixtureConfig{
			leafBits: 10, blocks: blocks, blockSize: 64, s: 4, fat: true, sealed: true,
			evict: oram.PaperEvict, stream: stream, prePlace: true, seed: 32,
		})},
		{"cold/payload", true, coldBinFixture(t, nil)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fx := tc.fx
			// Warm up executor scratch (readLeaves, planner, cursor, stash
			// slab and index, transfer buffers).
			for i := 0; i < 1024; i++ {
				if _, err := fx.laoram.Step(1, nil); err != nil {
					t.Fatal(err)
				}
			}
			cold := fx.laoram.Stats().ColdPathReads
			allocs := testing.AllocsPerRun(500, func() {
				if _, err := fx.laoram.Step(1, nil); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 0 {
				t.Errorf("Step(1) allocates %.2f objects/op in steady state, want 0", allocs)
			}
			if got := fx.laoram.Stats().ColdPathReads - cold; (got > 500) != tc.cold {
				t.Errorf("%d cold path reads in 501 measured bins: not the shape the case is named for", got)
			}
		})
	}
}

// TestStepBatchAllocs gates a k-bin Step the same way: peeking k bins,
// one joint fetch, each bin's next leaves from the cursor, one joint
// write-back. k = 8 is Train's default step at S = 4.
func TestStepBatchAllocs(t *testing.T) {
	const blocks = 1 << 11
	stream, err := trace.Generate(trace.Config{
		Kind: trace.KindPermutation, N: blocks, Count: 16 * blocks, Seed: 33,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{4, 8} {
		fx := newFixture(t, fixtureConfig{
			leafBits: 10, blocks: blocks, s: 4,
			evict: oram.PaperEvict, stream: stream, prePlace: true, seed: 34,
		})
		for i := 0; i < 256; i++ {
			if _, err := fx.laoram.Step(k, nil); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(300, func() {
			if _, err := fx.laoram.Step(k, nil); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("Step(%d) allocates %.2f objects/op in steady state, want 0", k, allocs)
		}
	}
}
