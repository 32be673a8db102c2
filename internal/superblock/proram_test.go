package superblock

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"repro/internal/oram"
	"repro/internal/trace"
)

func newBase(t *testing.T, leafBits int, blocks uint64, blockSize int) (*oram.Client, *oram.CountingStore) {
	t.Helper()
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: leafBits, LeafZ: 4, BlockSize: blockSize})
	var inner oram.Store
	if blockSize > 0 {
		ps, err := oram.NewPayloadStore(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		inner = ps
	} else {
		inner = oram.NewMetaStore(g)
	}
	cs := oram.NewCountingStore(inner, nil)
	c, err := oram.NewClient(oram.ClientConfig{
		Store:     cs,
		Rand:      rand.New(rand.NewSource(77)),
		Evict:     oram.PaperEvict,
		StashHits: true,
		Blocks:    blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, cs
}

func u64payload(size int, v uint64) []byte {
	b := make([]byte, size)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

func TestStaticValidation(t *testing.T) {
	base, _ := newBase(t, 6, 64, 0)
	if _, err := NewStaticORAM(base, 0); err == nil {
		t.Error("S=0 accepted")
	}
	so, err := NewStaticORAM(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if so.Base() != base {
		t.Error("Base not retained")
	}
	if _, err := so.Access(oram.OpRead, 9999, nil); err == nil {
		t.Error("out-of-range block accepted")
	}
}

func TestStaticGroupInvariant(t *testing.T) {
	const blocks = 64
	base, _ := newBase(t, 6, blocks, 8)
	so, err := NewStaticORAM(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := so.LoadGrouped(blocks, func(id oram.BlockID) []byte { return u64payload(8, uint64(id)) }); err != nil {
		t.Fatal(err)
	}
	// After load, every group shares one leaf.
	checkInvariant := func() {
		for grp := uint64(0); grp < blocks/4; grp++ {
			l0 := base.PosMap().Get(oram.BlockID(grp * 4))
			for k := uint64(1); k < 4; k++ {
				if l := base.PosMap().Get(oram.BlockID(grp*4 + k)); l != l0 {
					t.Fatalf("group %d split: leaves %d vs %d", grp, l0, l)
				}
			}
		}
	}
	checkInvariant()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		id := oram.BlockID(rng.Intn(blocks))
		got, err := so.Access(oram.OpRead, id, nil)
		if err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
		if binary.LittleEndian.Uint64(got) != uint64(id) {
			t.Fatalf("block %d corrupt: %x", id, got)
		}
		checkInvariant()
	}
}

func TestStaticReadYourWrites(t *testing.T) {
	const blocks = 32
	base, _ := newBase(t, 5, blocks, 8)
	so, err := NewStaticORAM(base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := so.LoadGrouped(blocks, func(id oram.BlockID) []byte { return u64payload(8, 0) }); err != nil {
		t.Fatal(err)
	}
	ref := make(map[oram.BlockID][]byte)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 400; i++ {
		id := oram.BlockID(rng.Intn(blocks))
		if rng.Intn(2) == 0 {
			v := u64payload(8, rng.Uint64())
			if _, err := so.Access(oram.OpWrite, id, v); err != nil {
				t.Fatal(err)
			}
			ref[id] = v
		} else {
			got, err := so.Access(oram.OpRead, id, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := ref[id]
			if want == nil {
				want = u64payload(8, 0)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d: block %d = %x, want %x", i, id, got, want)
			}
		}
	}
}

func TestDynamicValidation(t *testing.T) {
	base, _ := newBase(t, 6, 64, 0)
	if _, err := NewDynamicORAM(base, DynamicConfig{S: 1, MergeThreshold: 3}); err == nil {
		t.Error("S=1 accepted")
	}
	if _, err := NewDynamicORAM(base, DynamicConfig{S: 4, MergeThreshold: 1, SplitThreshold: 2}); err == nil {
		t.Error("split >= merge accepted")
	}
	d, err := NewDynamicORAM(base, DefaultDynamicConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if d.Base() != base {
		t.Error("Base not retained")
	}
	if _, err := d.Access(oram.OpRead, 9999, nil); err == nil {
		t.Error("out-of-range block accepted")
	}
}

// TestDynamicMergesOnSequential: a sequential stream drives the locality
// counters up, groups fuse, and path reads drop below one per access.
func TestDynamicMergesOnSequential(t *testing.T) {
	const blocks = 256
	base, _ := newBase(t, 8, blocks, 0)
	d, err := NewDynamicORAM(base, DefaultDynamicConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	stream := trace.Sequential(blocks, 2048)
	for _, a := range stream {
		if _, err := d.Access(oram.OpRead, oram.BlockID(a), nil); err != nil {
			t.Fatal(err)
		}
	}
	if d.MergeEvents == 0 {
		t.Error("no merges on a sequential stream")
	}
	if d.MergedGroups() == 0 {
		t.Error("no groups remained merged")
	}
}

// TestDynamicDegeneratesOnRandom reproduces the paper's observation
// ("In the absence of good predictability, PrORAM performs similarly to
// the PathORAM"): on a uniform-random stream, the counters never climb, no
// merges happen, and the access path is plain PathORAM.
func TestDynamicDegeneratesOnRandom(t *testing.T) {
	const blocks = 1 << 10
	base, _ := newBase(t, 10, blocks, 0)
	d, err := NewDynamicORAM(base, DefaultDynamicConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	base.ResetStats()
	stream := trace.Uniform(rand.New(rand.NewSource(3)), blocks, 2000)
	for _, a := range stream {
		if _, err := d.Access(oram.OpRead, oram.BlockID(a), nil); err != nil {
			t.Fatal(err)
		}
	}
	if d.MergeEvents != 0 {
		t.Errorf("%d merges on random stream (counters should never reach threshold)", d.MergeEvents)
	}
	st := base.Stats()
	// Every access must be a single path read (+ writes), i.e. PathORAM.
	if st.PathReads+st.StashHits != st.Accesses {
		t.Errorf("random stream deviated from PathORAM: reads=%d hits=%d accesses=%d",
			st.PathReads, st.StashHits, st.Accesses)
	}
}

// TestDynamicMergeSplitCycle: locality that appears and disappears fuses
// then dissolves a group.
func TestDynamicMergeSplitCycle(t *testing.T) {
	const blocks = 64
	base, _ := newBase(t, 6, blocks, 0)
	d, err := NewDynamicORAM(base, DynamicConfig{S: 4, MergeThreshold: 2, SplitThreshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Hammer group 0 (blocks 0..3) to fuse it.
	for i := 0; i < 8; i++ {
		if _, err := d.Access(oram.OpRead, oram.BlockID(i%4), nil); err != nil {
			t.Fatal(err)
		}
	}
	if d.MergedGroups() != 1 {
		t.Fatalf("group 0 not merged (merged=%d)", d.MergedGroups())
	}
	// Alternate far-apart groups to starve the counter.
	for i := 0; i < 16; i++ {
		id := oram.BlockID(8)
		if i%2 == 0 {
			id = oram.BlockID(16)
		}
		if _, err := d.Access(oram.OpRead, id, nil); err != nil {
			t.Fatal(err)
		}
		// Interleave group 0 so its counter decays.
		if _, err := d.Access(oram.OpRead, oram.BlockID(i%4), nil); err != nil {
			t.Fatal(err)
		}
	}
	if d.SplitEvents == 0 {
		t.Error("no splits despite destroyed locality")
	}
}

// TestDynamicReadYourWrites across merge transitions.
func TestDynamicReadYourWrites(t *testing.T) {
	const blocks = 32
	base, _ := newBase(t, 5, blocks, 8)
	d, err := NewDynamicORAM(base, DynamicConfig{S: 4, MergeThreshold: 2, SplitThreshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Load(blocks, nil, func(oram.BlockID) []byte { return u64payload(8, 0) }); err != nil {
		t.Fatal(err)
	}
	ref := make(map[oram.BlockID][]byte)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 500; i++ {
		var id oram.BlockID
		if i%3 == 0 {
			id = oram.BlockID(i % 4) // keep group 0 hot → merges
		} else {
			id = oram.BlockID(rng.Intn(blocks))
		}
		if rng.Intn(2) == 0 {
			v := u64payload(8, rng.Uint64())
			if _, err := d.Access(oram.OpWrite, id, v); err != nil {
				t.Fatal(err)
			}
			ref[id] = v
		} else {
			got, err := d.Access(oram.OpRead, id, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := ref[id]
			if want == nil {
				want = u64payload(8, 0)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("op %d block %d = %x, want %x", i, id, got, want)
			}
		}
	}
	if d.MergeEvents == 0 {
		t.Error("test never exercised the merged path")
	}
}
