package oram

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

func newTestClient(t *testing.T, leafBits int, blocks uint64, blockSize int, evict EvictConfig) (*Client, *CountingStore) {
	t.Helper()
	g := MustGeometry(GeometryConfig{LeafBits: leafBits, LeafZ: 4, BlockSize: blockSize})
	var inner Store
	if blockSize > 0 {
		ps, err := NewPayloadStore(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		inner = ps
	} else {
		inner = NewMetaStore(g)
	}
	cs := NewCountingStore(inner, nil)
	c, err := NewClient(ClientConfig{
		Store:     cs,
		Rand:      rand.New(rand.NewSource(42)),
		Evict:     evict,
		StashHits: true,
		Blocks:    blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, cs
}

func payload8(blockSize int, v uint64) []byte {
	b := make([]byte, blockSize)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// shapeOnlyStore reports a geometry and nothing else: NewClient's checks run
// before it touches the store, so a 2^32-leaf tree costs no memory.
type shapeOnlyStore struct {
	Store
	g *Geometry
}

func (s shapeOnlyStore) Geometry() *Geometry { return s.g }

// TestClientRefusesLeavesBeyondPosMap: a PosMap entry is a uint32 whose top
// value means "no leaf", so a tree of 2^32 leaves must fail NewClient instead
// of panicking in PosMap.Set on the first draw of a high leaf.
func TestClientRefusesLeavesBeyondPosMap(t *testing.T) {
	for _, c := range []struct {
		leafBits int
		ok       bool
	}{{31, true}, {32, false}, {40, false}} {
		g := MustGeometry(GeometryConfig{LeafBits: c.leafBits, LeafZ: 4})
		_, err := NewClient(ClientConfig{
			Store:  shapeOnlyStore{g: g},
			Rand:   rand.New(rand.NewSource(1)),
			Blocks: 1,
		})
		if (err == nil) != c.ok {
			t.Errorf("LeafBits %d: NewClient error %v, want accepted=%v", c.leafBits, err, c.ok)
		}
	}
}

func TestClientConfigValidation(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 4, LeafZ: 4, BlockSize: 0})
	st := NewMetaStore(g)
	rng := rand.New(rand.NewSource(1))
	cases := []ClientConfig{
		{Store: nil, Rand: rng, Blocks: 4},
		{Store: st, Rand: nil, Blocks: 4},
		{Store: st, Rand: rng, Blocks: 0},
		{Store: st, Rand: rng, Blocks: 4, Evict: EvictConfig{Enabled: true, High: 0, Low: 0}},
		{Store: st, Rand: rng, Blocks: 4, Evict: EvictConfig{Enabled: true, High: 5, Low: 9}},
	}
	for i, cfg := range cases {
		if _, err := NewClient(cfg); err == nil {
			t.Errorf("case %d: config accepted: %+v", i, cfg)
		}
	}
}

// TestReadUnwrittenFails: a read of a never-written block, or of an id out
// of range, fails before any state changes: no store traffic, no
// AccessStats (Accesses included), no RNG draw.
func TestReadUnwrittenFails(t *testing.T) {
	c, cs := newTestClient(t, 6, 64, 16, EvictConfig{})
	twin, _ := newTestClient(t, 6, 64, 16, EvictConfig{})
	if _, err := c.Read(3); err == nil {
		t.Error("read of unwritten block succeeded")
	}
	if _, err := c.Read(9999); err == nil {
		t.Error("out-of-range block accepted")
	}
	if st, n := c.Stats(), cs.Counters(); st != (AccessStats{}) || n != (Counters{}) {
		t.Errorf("failed reads moved counters: %+v, %+v", st, n)
	}
	if a, b := c.Rand().Int63(), twin.Rand().Int63(); a != b {
		t.Errorf("failed reads consumed randomness: next draw %d, untouched twin %d", a, b)
	}
}

// TestUnknownOpFailsClean: Access with an op that is neither read nor write
// fails before any store call, and the block it named reads back intact
// afterwards — also after the path it was on is fetched and written back
// again, where a half-done access would have left a stale copy.
func TestUnknownOpFailsClean(t *testing.T) {
	c, cs := newTestClient(t, 6, 64, 16, EvictConfig{})
	want := payload8(16, 0xC0FFEE)
	if err := c.Write(5, want); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(5, want); err != nil { // now on a path of its own
		t.Fatal(err)
	}
	leaf := c.PosMap().Get(5)
	stats0, traffic0 := c.Stats(), cs.Counters()
	if _, err := c.Access(Op(7), 5, nil); err == nil {
		t.Fatal("unknown op accepted")
	}
	if c.Stats() != stats0 || cs.Counters() != traffic0 {
		t.Fatalf("unknown op moved counters: %+v → %+v, %+v → %+v", stats0, c.Stats(), traffic0, cs.Counters())
	}
	newer := payload8(16, 0xBEEF)
	if err := c.Write(5, newer); err != nil {
		t.Fatal(err)
	}
	if err := c.ReadPaths([]Leaf{leaf}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBackPath(leaf); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newer) {
		t.Errorf("block 5 = %x, want %x", got, newer)
	}
}

func TestWriteThenRead(t *testing.T) {
	c, _ := newTestClient(t, 6, 64, 16, EvictConfig{})
	want := payload8(16, 0xDEADBEEF)
	if err := c.Write(5, want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("read back %x, want %x", got, want)
	}
	// Returned slice is a copy.
	got[0] = 0xFF
	got2, err := c.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want) {
		t.Error("payload aliased to caller")
	}
}

// TestReferenceModel drives the ORAM with a random op sequence and checks
// every read against a plain map — the read-your-writes correctness
// invariant (#2 in DESIGN.md).
func TestReferenceModel(t *testing.T) {
	const blocks = 128
	c, _ := newTestClient(t, 7, blocks, 8, PaperEvict)
	rng := rand.New(rand.NewSource(99))
	ref := make(map[BlockID][]byte)
	for i := 0; i < 4000; i++ {
		id := BlockID(rng.Intn(blocks))
		if rng.Intn(2) == 0 || ref[id] == nil {
			v := payload8(8, rng.Uint64())
			if err := c.Write(id, v); err != nil {
				t.Fatalf("op %d: write: %v", i, err)
			}
			ref[id] = v
		} else {
			got, err := c.Read(id)
			if err != nil {
				t.Fatalf("op %d: read: %v", i, err)
			}
			if !bytes.Equal(got, ref[id]) {
				t.Fatalf("op %d: block %d = %x, want %x", i, id, got, ref[id])
			}
		}
	}
}

// scanTree returns a map block → occurrence count across all tree slots.
func scanTree(t *testing.T, st Store) map[BlockID]int {
	t.Helper()
	g := st.Geometry()
	out := make(map[BlockID]int)
	for lvl := 0; lvl < g.Levels(); lvl++ {
		buf := make([]Slot, g.BucketSize(lvl))
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			if err := st.ReadBucket(lvl, node, buf); err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				if !buf[i].Dummy() {
					out[buf[i].ID]++
				}
			}
		}
	}
	return out
}

// TestBlockConservation checks invariant #1: after any number of accesses,
// every written block exists exactly once across tree ∪ stash, and its tree
// copy (if any) lies on the path of its position-map leaf.
func TestBlockConservation(t *testing.T) {
	const blocks = 96
	c, cs := newTestClient(t, 7, blocks, 0, PaperEvict)
	if err := c.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 500; i++ {
		id := BlockID(rng.Intn(blocks))
		if _, err := c.Access(OpRead, id, nil); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
	}
	inTree := scanTree(t, cs)
	for id := BlockID(0); id < blocks; id++ {
		n := inTree[id]
		if c.Stash().Contains(id) {
			n++
		}
		if n != 1 {
			t.Errorf("block %d present %d times (tree=%d stash=%v)", id, n, inTree[id], c.Stash().Contains(id))
		}
	}
	// Leaf-consistency: tree copies must lie on their posmap path.
	g := c.Geometry()
	for lvl := 0; lvl < g.Levels(); lvl++ {
		buf := make([]Slot, g.BucketSize(lvl))
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			if err := cs.ReadBucket(lvl, node, buf); err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				if buf[i].Dummy() {
					continue
				}
				want := c.PosMap().Get(buf[i].ID)
				if buf[i].Leaf != want {
					t.Errorf("block %d: slot leaf %d != posmap leaf %d", buf[i].ID, buf[i].Leaf, want)
				}
				if g.NodeAt(want, lvl) != node {
					t.Errorf("block %d stored off-path (level %d node %d, leaf %d)", buf[i].ID, lvl, node, want)
				}
			}
		}
	}
}

func TestLoadPlacesEverything(t *testing.T) {
	const blocks = 1 << 10
	c, cs := newTestClient(t, 10, blocks, 0, EvictConfig{})
	if err := c.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	inTree := scanTree(t, cs)
	missing := 0
	for id := BlockID(0); id < blocks; id++ {
		if inTree[id] == 0 && !c.Stash().Contains(id) {
			missing++
		}
	}
	if missing > 0 {
		t.Errorf("%d blocks lost during load", missing)
	}
	// With leaves == blocks and Z=4 the load stash should be tiny.
	if c.Stash().Len() > blocks/64 {
		t.Errorf("load stash unexpectedly large: %d", c.Stash().Len())
	}
}

func TestLoadWithExplicitLeaves(t *testing.T) {
	const blocks = 32
	c, _ := newTestClient(t, 6, blocks, 0, EvictConfig{})
	leafOf := func(id BlockID) Leaf { return Leaf(uint64(id) % 64) }
	if err := c.Load(blocks, leafOf, nil); err != nil {
		t.Fatal(err)
	}
	for id := BlockID(0); id < blocks; id++ {
		if got := c.PosMap().Get(id); got != leafOf(id) {
			t.Errorf("posmap(%d) = %d, want %d", id, got, leafOf(id))
		}
	}
	// Invalid leaf from callback is rejected.
	c2, _ := newTestClient(t, 6, blocks, 0, EvictConfig{})
	if err := c2.Load(blocks, func(BlockID) Leaf { return Leaf(1 << 40) }, nil); err == nil {
		t.Error("invalid leafOf accepted")
	}
}

// TestStashResidentWithoutHitsReadsCoverPath: with StashHits off, an access
// to a block already in the stash reads one uniformly drawn cover path — not
// the block's own position-map leaf, which it already holds — and remaps the
// block, as AccessBatch treats any hit.
func TestStashResidentWithoutHitsReadsCoverPath(t *testing.T) {
	const blocks = 64
	g := MustGeometry(GeometryConfig{LeafBits: 6, LeafZ: 4})
	rec := &leafRecorder{Store: NewMetaStore(g), leafLevel: 6}
	c, err := NewClient(ClientConfig{Store: rec, Rand: rand.New(rand.NewSource(5)), Blocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	own := c.PosMap().Get(9)
	if err := c.ReadPaths([]Leaf{own}); err != nil {
		t.Fatal(err)
	}
	if !c.Stash().Contains(9) {
		t.Fatal("block 9 not in the stash after reading its path")
	}
	twin := rand.New(rand.NewSource(5))
	for range blocks { // Load drew one leaf per block
		twin.Int63n(int64(g.Leaves()))
	}
	cover := Leaf(twin.Int63n(int64(g.Leaves())))
	rec.fetched = nil
	c.ResetStats()
	if _, err := c.Read(9); err != nil {
		t.Fatal(err)
	}
	if len(rec.fetched) != 1 || rec.fetched[0] != cover || cover == own {
		t.Errorf("fetched %v, want the cover draw %d (own leaf %d)", rec.fetched, cover, own)
	}
	if st := c.Stats(); st.PathReads != 1 || st.Remaps != 1 || st.StashHits != 0 || c.PosMap().Get(9) == own {
		t.Errorf("stats %+v, leaf %d → %d: want one path, one remap, no hit", st, own, c.PosMap().Get(9))
	}
}

func TestStashHitServesWithoutTraffic(t *testing.T) {
	const blocks = 16
	// Tiny tree + no eviction so a block is likely to stay stashed.
	g := MustGeometry(GeometryConfig{LeafBits: 4, LeafZ: 4, BlockSize: 8})
	ps, err := NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCountingStore(ps, nil)
	c, err := NewClient(ClientConfig{Store: cs, Rand: rand.New(rand.NewSource(3)), StashHits: true, Blocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(1, payload8(8, 7)); err != nil {
		t.Fatal(err)
	}
	// Force the block into the stash directly to make the hit deterministic.
	if err := c.Stash().Put(1, c.PosMap().Get(1), payload8(8, 7)); err == nil {
		// If it was already there this is a replace; either way it is stashed now.
		_ = err
	}
	before := cs.Counters()
	if _, err := c.Read(1); err != nil {
		t.Fatal(err)
	}
	d := cs.Counters().Sub(before)
	if d.SlotReads != 0 || d.SlotWrites != 0 {
		t.Errorf("stash hit generated traffic: %+v", d)
	}
	if c.Stats().StashHits == 0 {
		t.Error("stash hit not counted")
	}
}

func TestBackgroundEvictionTriggers(t *testing.T) {
	const blocks = 512
	// Z=1 leaf buckets and a low threshold force stash pressure.
	g := MustGeometry(GeometryConfig{LeafBits: 9, LeafZ: 1, BlockSize: 0})
	cs := NewCountingStore(NewMetaStore(g), nil)
	c, err := NewClient(ClientConfig{
		Store:     cs,
		Rand:      rand.New(rand.NewSource(11)),
		Evict:     EvictConfig{Enabled: true, High: 30, Low: 10},
		StashHits: true,
		Blocks:    blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		if _, err := c.Access(OpRead, BlockID(rng.Intn(blocks)), nil); err != nil {
			t.Fatalf("access %d: %v", i, err)
		}
		if c.Stash().Len() > 30+c.Geometry().PathSlots() {
			t.Fatalf("stash exceeded bound: %d", c.Stash().Len())
		}
	}
	if c.Stats().DummyReads == 0 {
		t.Error("expected background evictions under Z=1 pressure")
	}
	if c.Stats().DummyReadsPerAccess() <= 0 {
		t.Error("DummyReadsPerAccess should be positive")
	}
}

// TestRemapUniformity checks §VI empirically for the PathORAM baseline: the
// leaves assigned by remapping are uniform (chi-square, α=0.001).
func TestRemapUniformity(t *testing.T) {
	const blocks = 64
	c, _ := newTestClient(t, 6, blocks, 0, PaperEvict)
	if err := c.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	h := stats.NewHistogram(int(c.Geometry().Leaves()))
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 8000; i++ {
		id := BlockID(rng.Intn(blocks))
		if _, err := c.Access(OpRead, id, nil); err != nil {
			t.Fatal(err)
		}
		if l := c.PosMap().Get(id); l != NoLeaf {
			h.Add(uint64(l))
		}
	}
	stat, df, p, err := stats.ChiSquareUniform(h)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Errorf("remap distribution non-uniform: chi2=%.1f df=%d p=%g", stat, df, p)
	}
}

// TestAccessedLeafUniformity checks the adversary's view: the sequence of
// leaves fetched from the server is uniform.
func TestAccessedLeafUniformity(t *testing.T) {
	const blocks = 64
	c, _ := newTestClient(t, 6, blocks, 0, PaperEvict)
	if err := c.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	h := stats.NewHistogram(int(c.Geometry().Leaves()))
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 8000; i++ {
		id := BlockID(rng.Intn(blocks))
		// The leaf about to be fetched is the current posmap entry.
		if !c.Stash().Contains(id) {
			h.Add(uint64(c.PosMap().Get(id)))
		}
		if _, err := c.Access(OpRead, id, nil); err != nil {
			t.Fatal(err)
		}
	}
	_, _, p, err := stats.ChiSquareUniform(h)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Errorf("accessed-leaf distribution non-uniform: p=%g", p)
	}
}

func TestStatsAccounting(t *testing.T) {
	const blocks = 32
	c, _ := newTestClient(t, 5, blocks, 0, EvictConfig{})
	if err := c.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	for i := BlockID(0); i < 10; i++ {
		if _, err := c.Access(OpRead, i, nil); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.Accesses != 10 {
		t.Errorf("Accesses = %d", s.Accesses)
	}
	if s.PathReads+s.StashHits != 10 {
		t.Errorf("PathReads %d + StashHits %d != 10", s.PathReads, s.StashHits)
	}
	if s.PathWrites != s.PathReads {
		t.Errorf("PathWrites %d != PathReads %d", s.PathWrites, s.PathReads)
	}
	prev := s
	if _, err := c.Access(OpRead, 0, nil); err != nil {
		t.Fatal(err)
	}
	d := c.Stats().Sub(prev)
	if d.Accesses != 1 {
		t.Errorf("windowed Accesses = %d", d.Accesses)
	}
}

func TestFatTreeClientWorks(t *testing.T) {
	const blocks = 256
	g := MustGeometry(GeometryConfig{LeafBits: 8, LeafZ: 4, RootZ: 8, Profile: ProfileLinear, BlockSize: 8})
	ps, err := NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{
		Store: NewCountingStore(ps, nil), Rand: rand.New(rand.NewSource(2)),
		Evict: PaperEvict, StashHits: true, Blocks: blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < blocks; i++ {
		if err := c.Write(BlockID(i), payload8(8, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < blocks; i++ {
		got, err := c.Read(BlockID(i))
		if err != nil {
			t.Fatal(err)
		}
		if binary.LittleEndian.Uint64(got) != i {
			t.Fatalf("block %d corrupt", i)
		}
	}
}

func TestOpString(t *testing.T) {
	if OpRead.String() != "read" || OpWrite.String() != "write" {
		t.Error("Op strings wrong")
	}
	if Op(9).String() != fmt.Sprintf("Op(%d)", 9) {
		t.Error("unknown Op string wrong")
	}
}

func TestDummySlotAndClear(t *testing.T) {
	s := Slot{ID: 4, Leaf: 2, Payload: []byte{1}}
	s.Clear()
	if !s.Dummy() || s.Payload != nil {
		t.Errorf("Clear left %+v", s)
	}
	d := DummySlot()
	if !d.Dummy() {
		t.Error("DummySlot not dummy")
	}
}
