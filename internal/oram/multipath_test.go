package oram

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
)

// scanUnion is pathUnion as a per-level scan of the refs already emitted:
// O(leaves²) per level, and the order pathUnion must keep.
func scanUnion(g *Geometry, leaves []Leaf) []BucketRef {
	var refs []BucketRef
	for lvl := 0; lvl < g.Levels() && len(leaves) > 0; lvl++ {
		start := len(refs)
		for _, l := range leaves {
			if b := (BucketRef{Level: lvl, Node: g.NodeAt(l, lvl)}); !slices.Contains(refs[start:], b) {
				refs = append(refs, b)
			}
		}
	}
	return refs
}

// TestPathUnionMatchesScan: the group-tracking dedup emits exactly the refs,
// in exactly the order, of the scan it replaced — on random leaf sets with
// repeats, a single leaf, all leaves equal, and every leaf of a small tree in
// ascending and shuffled order.
func TestPathUnionMatchesScan(t *testing.T) {
	for _, bits := range []int{1, 3, 7, 12} {
		g := MustGeometry(GeometryConfig{LeafBits: bits, LeafZ: 2})
		c, err := NewClient(ClientConfig{Store: NewMetaStore(g), Rand: rand.New(rand.NewSource(1)), Blocks: 1})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(bits)))
		leaves := int64(g.Leaves())
		var sets [][]Leaf
		for round := 0; round < 200; round++ {
			set := make([]Leaf, 1+rng.Intn(48))
			for i := range set {
				set[i] = Leaf(rng.Int63n(leaves))
				if i > 0 && rng.Intn(4) == 0 {
					set[i] = set[rng.Intn(i)] // a repeat
				}
			}
			sets = append(sets, set)
		}
		same := make([]Leaf, 9)
		for i := range same {
			same[i] = Leaf(leaves - 1)
		}
		all := make([]Leaf, min(leaves, 1<<7))
		for i := range all {
			all[i] = Leaf(i)
		}
		shuffled := slices.Clone(all)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		sets = append(sets, nil, []Leaf{Leaf(leaves / 2)}, same, all, shuffled)
		for _, set := range sets {
			want := scanUnion(g, set)
			if got := c.pathUnion(set); !slices.Equal(got, want) {
				t.Fatalf("LeafBits %d, leaves %v:\n got %v\nwant %v", bits, set, got, want)
			}
		}
	}
}

// TestWriteBackPathsConservation is the regression test for the multi-path
// clobbering bug: reading several overlapping paths and writing them back
// jointly must preserve every block exactly once (tree ∪ stash).
func TestWriteBackPathsConservation(t *testing.T) {
	const blocks = 128
	c, cs := newTestClient(t, 7, blocks, 0, EvictConfig{})
	if err := c.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for round := 0; round < 60; round++ {
		k := 2 + rng.Intn(3) // 2..4 paths per round
		leaves := make([]Leaf, 0, k)
		seen := map[Leaf]bool{}
		for len(leaves) < k {
			l := Leaf(rng.Int63n(int64(c.Geometry().Leaves())))
			if !seen[l] {
				seen[l] = true
				leaves = append(leaves, l)
			}
		}
		for _, l := range leaves {
			if err := c.ReadPaths([]Leaf{l}); err != nil {
				t.Fatal(err)
			}
		}
		// Remap a few stashed blocks to fresh leaves (as a superblock
		// client would).
		for _, id := range c.Stash().IDs() {
			if rng.Intn(2) == 0 {
				nl := c.RandomLeaf()
				c.PosMap().Set(id, nl)
				c.Stash().SetLeaf(id, nl)
			}
		}
		if err := c.WriteBackPaths(leaves); err != nil {
			t.Fatal(err)
		}
		inTree := scanTree(t, cs)
		for id := BlockID(0); id < blocks; id++ {
			n := inTree[id]
			if c.Stash().Contains(id) {
				n++
			}
			if n != 1 {
				t.Fatalf("round %d: block %d present %d times", round, id, n)
			}
		}
	}
}

// TestWriteBackPathsPlacementLegality: every block written must land on the
// path of its assigned leaf.
func TestWriteBackPathsPlacementLegality(t *testing.T) {
	const blocks = 64
	c, cs := newTestClient(t, 6, blocks, 0, EvictConfig{})
	if err := c.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	leaves := []Leaf{0, 31, 32, 63}
	for _, l := range leaves {
		if err := c.ReadPaths([]Leaf{l}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteBackPaths(leaves); err != nil {
		t.Fatal(err)
	}
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
				if g.NodeAt(buf[i].Leaf, lvl) != node {
					t.Errorf("block %d (leaf %d) stored off-path at level %d node %d",
						buf[i].ID, buf[i].Leaf, lvl, node)
				}
			}
		}
	}
}

func TestWriteBackPathsEdgeCases(t *testing.T) {
	const blocks = 16
	c, _ := newTestClient(t, 4, blocks, 0, EvictConfig{})
	if err := c.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Empty set is a no-op.
	if err := c.WriteBackPaths(nil); err != nil {
		t.Fatal(err)
	}
	// Single path delegates to WriteBackPath.
	if err := c.ReadPaths([]Leaf{3}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBackPaths([]Leaf{3}); err != nil {
		t.Fatal(err)
	}
	// Invalid leaf rejected.
	if err := c.WriteBackPaths([]Leaf{1, Leaf(1 << 40)}); err == nil {
		t.Error("invalid leaf accepted")
	}
	// Duplicate leaves collapse (shared buckets written once).
	if err := c.ReadPaths([]Leaf{5}); err != nil {
		t.Fatal(err)
	}
	if err := c.WriteBackPaths([]Leaf{5, 5}); err != nil {
		t.Fatal(err)
	}
}

// TestWriteBackPathsDrainsStash: with enough room, the joint write-back
// should place read blocks back rather than strand them in the stash.
func TestWriteBackPathsDrainsStash(t *testing.T) {
	const blocks = 64
	c, _ := newTestClient(t, 6, blocks, 0, EvictConfig{})
	if err := c.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	start := c.Stash().Len()
	leaves := []Leaf{7, 21}
	for _, l := range leaves {
		if err := c.ReadPaths([]Leaf{l}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteBackPaths(leaves); err != nil {
		t.Fatal(err)
	}
	// Nothing was remapped, so every block read must fit back exactly
	// where it was.
	if c.Stash().Len() != start {
		t.Errorf("stash grew from %d to %d without remaps", start, c.Stash().Len())
	}
}

// workSpy is a bucket-only store that tallies what the timing model prices:
// leaf-level buckets moved (one per path, a path having one leaf bucket) and
// real blocks read and written.
type workSpy struct {
	*MetaStore
	leafReads, leafWrites, realRead, realWritten uint64
}

func (w *workSpy) ReadBucket(level int, node uint64, dst []Slot) error {
	if err := w.MetaStore.ReadBucket(level, node, dst); err != nil {
		return err
	}
	if level == w.geom.LeafBits() {
		w.leafReads++
	}
	w.realRead += realSlots(dst)
	return nil
}

func (w *workSpy) WriteBucket(level int, node uint64, src []Slot) error {
	if level == w.geom.LeafBits() {
		w.leafWrites++
	}
	w.realWritten += realSlots(src)
	return w.MetaStore.WriteBucket(level, node, src)
}

func realSlots(b []Slot) (n uint64) {
	for _, s := range b {
		if !s.Dummy() {
			n++
		}
	}
	return n
}

// downStore is a store whose every transfer fails; downBatch is the same
// store seen batch-native, so the joint operations reach ReadBuckets and
// WriteBuckets instead of the bucket loop.
type downStore struct{ *MetaStore }

type downBatch struct{ downStore }

var errStoreDown = errors.New("store down")

func (downStore) ReadBucket(int, uint64, []Slot) error     { return errStoreDown }
func (downStore) WriteBucket(int, uint64, []Slot) error    { return errStoreDown }
func (downBatch) ReadBuckets([]BucketRef, [][]Slot) error  { return errStoreDown }
func (downBatch) WriteBuckets([]BucketRef, [][]Slot) error { return errStoreDown }

// TestClientCountsPricedWork: the client's AccessStats carry everything the
// timing model prices besides the store's per-level transfers. Every path
// moved is one request, so the paths the store saw equal PathReads +
// PathWrites + 2·DummyReads, and BlocksMoved equals the real blocks the
// store handed up plus those written down — over single accesses, first
// writes, joint batches and dummy reads. A call that fails counts no blocks,
// over the bucket loop or a batch-native store.
func TestClientCountsPricedWork(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 5, LeafZ: 4})
	spy := &workSpy{MetaStore: NewMetaStore(g)}
	c, err := NewClient(ClientConfig{
		Store: spy, Rand: rand.New(rand.NewSource(1)), StashHits: true, Blocks: 80,
		Evict: EvictConfig{Enabled: true, High: 6, Low: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(64, nil, nil); err != nil {
		t.Fatal(err)
	}
	*spy = workSpy{MetaStore: spy.MetaStore}
	c.ResetStats()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		if _, err := c.Access(OpRead, BlockID(rng.Intn(64)), nil); err != nil {
			t.Fatal(err)
		}
	}
	for id := BlockID(64); id < 80; id++ { // first writes: a cover path each
		if _, err := c.Access(OpWrite, id, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		ids := make([]BlockID, 6)
		for k := range ids {
			ids[k] = BlockID(rng.Intn(80))
		}
		if err := c.AccessBatch(OpRead, ids, nil, make([][]byte, len(ids))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := c.DummyRead(); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.DummyReads == 0 || st.BlocksMoved == 0 {
		t.Fatalf("workload too light: %+v", st)
	}
	if paths, requests := spy.leafReads+spy.leafWrites, st.PathReads+st.PathWrites+2*st.DummyReads; paths != requests {
		t.Errorf("store moved %d paths, stats price %d requests (%+v)", paths, requests, st)
	}
	if blocks := spy.realRead + spy.realWritten; blocks != st.BlocksMoved {
		t.Errorf("store moved %d real blocks, BlocksMoved = %d", blocks, st.BlocksMoved)
	}

	for _, native := range []bool{false, true} {
		var down Store = downStore{NewMetaStore(g)}
		if native {
			down = downBatch{downStore{NewMetaStore(g)}}
		}
		c, err := NewClient(ClientConfig{Store: down, Rand: rand.New(rand.NewSource(1)), Blocks: 16})
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			call func() error
		}{
			{"ReadPaths/1", func() error { return c.ReadPaths([]Leaf{3}) }},
			{"ReadPaths/3", func() error { return c.ReadPaths([]Leaf{3, 17, 30}) }},
			{"WriteBackPath", func() error { return c.WriteBackPath(3) }},
			{"WriteBackPaths/3", func() error { return c.WriteBackPaths([]Leaf{3, 17, 30}) }},
		} {
			if err := tc.call(); !errors.Is(err, errStoreDown) {
				t.Fatalf("native=%v %s: err = %v, want the store's", native, tc.name, err)
			}
			if st := c.Stats(); st != (AccessStats{}) {
				t.Errorf("native=%v %s: failed call counted %+v", native, tc.name, st)
			}
		}
	}
}
