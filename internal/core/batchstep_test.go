package core

import (
	"context"
	"encoding/binary"
	"testing"

	"repro/internal/oram"
	"repro/internal/trace"
)

func TestStepBatchValidation(t *testing.T) {
	const blocks = 64
	stream := trace.Sequential(blocks, 32)
	f := newFixture(t, fixtureConfig{
		leafBits: 6, blocks: blocks, s: 4, stream: stream, prePlace: true, seed: 40,
	})
	if _, err := f.laoram.Step(0, nil); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := f.laoram.Step(-1, nil); err == nil {
		t.Error("k<0 accepted")
	}
}

// TestStepBatchEquivalence: batched execution visits exactly the same
// blocks with the same payloads as bin-at-a-time execution.
func TestStepBatchEquivalence(t *testing.T) {
	const blocks = 512
	stream := trace.PermutationEpochs(trace.NewRNG(41), blocks, 2*blocks)
	runWith := func(batched bool) map[oram.BlockID]uint64 {
		f := newFixture(t, fixtureConfig{
			leafBits: 9, blocks: blocks, blockSize: 16, s: 4,
			evict: oram.PaperEvict, stream: stream, prePlace: true, seed: 42,
		})
		visits := make(map[oram.BlockID]uint64)
		visit := func(id oram.BlockID, payload []byte) []byte {
			visits[id]++
			out := make([]byte, len(payload))
			copy(out, payload)
			binary.LittleEndian.PutUint64(out[8:], visits[id])
			return out
		}
		k := 1
		if batched {
			k = 8
		}
		if err := f.laoram.Run(context.Background(), k, visit); err != nil {
			t.Fatal(err)
		}
		// Verify final payloads agree with visit counts.
		for id, n := range visits {
			p, rerr := f.base.Read(id)
			if rerr != nil {
				t.Fatal(rerr)
			}
			if binary.LittleEndian.Uint64(p[8:]) != n {
				t.Fatalf("block %d payload count %d != visits %d",
					id, binary.LittleEndian.Uint64(p[8:]), n)
			}
		}
		return visits
	}
	seq := runWith(false)
	bat := runWith(true)
	if len(seq) != len(bat) {
		t.Fatalf("visit sets differ: %d vs %d blocks", len(seq), len(bat))
	}
	for id, n := range seq {
		if bat[id] != n {
			t.Errorf("block %d visited %d (batched) vs %d (sequential)", id, bat[id], n)
		}
	}
}

// TestStepBatchSavesTraffic: batched fetches must move fewer bytes than
// bin-at-a-time (shared buckets read/written once).
func TestStepBatchSavesTraffic(t *testing.T) {
	const blocks = 1 << 10
	stream := trace.PermutationEpochs(trace.NewRNG(43), blocks, 2*blocks)
	run := func(batch int) uint64 {
		f := newFixture(t, fixtureConfig{
			leafBits: 10, blocks: blocks, s: 4,
			evict: oram.PaperEvict, stream: stream, prePlace: true, seed: 44,
		})
		if err := f.laoram.Run(context.Background(), batch, nil); err != nil {
			t.Fatal(err)
		}
		c := f.store.Counters()
		return c.SlotReads + c.SlotWrites
	}
	sequential := run(1)
	batched := run(16)
	if batched >= sequential {
		t.Errorf("batched traffic %d >= sequential %d", batched, sequential)
	}
	t.Logf("traffic: sequential=%d batched(16)=%d (%.1f%% saved)",
		sequential, batched, 100*(1-float64(batched)/float64(sequential)))
}

// TestStepBatchPartialFinalBatch: the last batch may be short; counts must
// still line up.
func TestStepBatchPartialFinalBatch(t *testing.T) {
	const blocks = 64
	stream := trace.Sequential(blocks, 40) // 10 bins at S=4
	f := newFixture(t, fixtureConfig{
		leafBits: 6, blocks: blocks, s: 4, stream: stream, prePlace: true, seed: 45,
	})
	total := 0
	for !f.laoram.Done() {
		n, err := f.laoram.Step(4, nil)
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if total != f.plan.Len() {
		t.Errorf("executed %d bins, plan has %d", total, f.plan.Len())
	}
	if _, err := f.laoram.Step(4, nil); err == nil {
		t.Error("Step past plan end succeeded")
	}
	st := f.laoram.Stats()
	if st.Bins != uint64(f.plan.Len()) {
		t.Errorf("Bins = %d", st.Bins)
	}
}

// TestReadPathsDedup (on the oram primitive, via core's usage): fetching
// overlapping paths in one burst reads shared buckets once.
func TestReadPathsDedup(t *testing.T) {
	const blocks = 256
	f := newFixture(t, fixtureConfig{
		leafBits: 8, blocks: blocks, s: 4,
		stream: trace.Sequential(blocks, 16), prePlace: true, seed: 46,
	})
	f.store.ResetCounters()
	leaves := []oram.Leaf{0, 1, 2, 3} // shared prefix: root + more
	if err := f.base.ReadPaths(leaves); err != nil {
		t.Fatal(err)
	}
	c := f.store.Counters()
	// Distinct buckets across paths 0,1,2,3 at depth 8: levels 0..6 are
	// shared pairwise; exact count: level l has min(4, 2^l) ∩ prefix…
	// simply must be < 4 full paths.
	full := uint64(4 * f.base.Geometry().Levels())
	if c.BucketReads >= full {
		t.Errorf("ReadPaths read %d buckets, no dedup vs %d", c.BucketReads, full)
	}
	if err := f.base.WriteBackPaths(leaves); err != nil {
		t.Fatal(err)
	}
}
