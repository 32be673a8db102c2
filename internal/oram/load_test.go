package oram_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/diskstore"
	"repro/internal/oram"
	"repro/internal/superblock"
)

// loadSlotAtATime is the bulk loader as it was before Load placed first and
// wrote whole buckets: one WriteSlot per block, in id order, as soon as the
// block's bucket is known. It is the reference Load's placement, slot order,
// stash and RNG consumption are compared against.
func loadSlotAtATime(c *oram.Client, n uint64, leafOf func(oram.BlockID) oram.Leaf, payload func(oram.BlockID) []byte) error {
	if n > c.PosMap().Len() {
		return fmt.Errorf("Load of %d blocks exceeds configured %d", n, c.PosMap().Len())
	}
	g := c.Geometry()
	fill := make([]uint8, g.TotalBuckets())
	for i := uint64(0); i < n; i++ {
		id := oram.BlockID(i)
		leaf := oram.NoLeaf
		if leafOf != nil {
			leaf = leafOf(id)
		}
		if leaf == oram.NoLeaf {
			leaf = c.RandomLeaf()
			c.PosMap().SetDrawn(id, leaf)
		} else if g.ValidLeaf(leaf) {
			c.PosMap().Set(id, leaf)
		} else {
			return fmt.Errorf("leafOf(%d) = %d invalid", id, leaf)
		}
		var data []byte
		if payload != nil {
			data = payload(id)
		}
		placed := false
		for lvl := g.Levels() - 1; lvl >= 0 && !placed; lvl-- {
			node := g.NodeAt(leaf, lvl)
			b := uint64(1)<<uint(lvl) - 1 + node
			if int(fill[b]) >= g.BucketSize(lvl) {
				continue
			}
			if err := c.Store().WriteSlot(lvl, node, int(fill[b]), oram.Slot{ID: id, Leaf: leaf, Payload: data}); err != nil {
				return err
			}
			fill[b]++
			placed = true
		}
		if !placed {
			if err := c.Stash().Put(id, leaf, data); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadStores are the store shapes the differential runs over. Both sides of a
// pair are opened by the same row (a sealed pair has two keys: it is compared
// through ReadBucket, never byte for byte).
var loadStores = []struct {
	name      string
	blockSize int
	sealed    bool
	open      func(t *testing.T, g *oram.Geometry) oram.Store
}{
	{name: "MetaStore", open: func(_ *testing.T, g *oram.Geometry) oram.Store { return oram.NewMetaStore(g) }},
	{name: "PayloadStore", blockSize: 24, open: func(t *testing.T, g *oram.Geometry) oram.Store {
		ps, err := oram.NewPayloadStore(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}},
	{name: "PayloadStore/sealed", blockSize: 24, sealed: true, open: func(t *testing.T, g *oram.Geometry) oram.Store {
		s, err := crypto.NewRandomSealer()
		if err != nil {
			t.Fatal(err)
		}
		ps, err := oram.NewPayloadStore(g, s)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}},
	// The floor budget: buckets written early are evicted to the arena and
	// read back from it by the comparison.
	{name: "diskstore", blockSize: 24, open: func(t *testing.T, g *oram.Geometry) oram.Store {
		ds, err := diskstore.Open(diskstore.Config{Path: filepath.Join(t.TempDir(), "arena"), Geometry: g, MemBudget: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ds.Close() })
		return ds
	}},
}

// loadRow is the row every block of the differential is loaded with.
func loadRow(id oram.BlockID, blockSize int) []byte {
	if blockSize == 0 {
		return nil
	}
	row := bytes.Repeat([]byte{byte(id)}, blockSize)
	binary.LittleEndian.PutUint64(row, uint64(id))
	return row
}

// sameLoad fails unless the two clients, one loaded by each loader, hold the
// same position map, the same stash in the same order, the same slots in every
// bucket, and an RNG in the same state.
func sameLoad(t *testing.T, got, want *oram.Client, n uint64, sealed bool) {
	t.Helper()
	for id := oram.BlockID(0); uint64(id) < n; id++ {
		gl, glend := got.PosMap().Lendable(id)
		wl, wlend := want.PosMap().Lendable(id)
		if gl != wl || glend != wlend {
			t.Fatalf("block %d: leaf %d (lendable %v), slot loader %d (%v)", id, gl, glend, wl, wlend)
		}
	}
	gotIDs, wantIDs := got.Stash().IDs(), want.Stash().IDs()
	if fmt.Sprint(gotIDs) != fmt.Sprint(wantIDs) {
		t.Fatalf("stash holds %v, slot loader %v", gotIDs, wantIDs)
	}
	for _, id := range wantIDs {
		gl, _ := got.Stash().Leaf(id)
		wl, _ := want.Stash().Leaf(id)
		gp, _ := got.Stash().Payload(id)
		wp, _ := want.Stash().Payload(id)
		if gl != wl || !bytes.Equal(gp, wp) {
			t.Fatalf("stashed block %d: (%d, %x), slot loader (%d, %x)", id, gl, gp, wl, wp)
		}
	}
	g := want.Geometry()
	for lvl := 0; lvl < g.Levels(); lvl++ {
		gs, ws := make([]oram.Slot, g.BucketSize(lvl)), make([]oram.Slot, g.BucketSize(lvl))
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			if err := got.Store().ReadBucket(lvl, node, gs); err != nil {
				t.Fatal(err)
			}
			if err := want.Store().ReadBucket(lvl, node, ws); err != nil {
				t.Fatal(err)
			}
			for k := range ws {
				if gs[k].ID != ws[k].ID || gs[k].Leaf != ws[k].Leaf || !bytes.Equal(gs[k].Payload, ws[k].Payload) {
					t.Fatalf("bucket (%d,%d) slot %d: %+v, slot loader %+v", lvl, node, k, gs[k], ws[k])
				}
			}
		}
	}
	if gsnap, ok := got.Store().(oram.Snapshotter); ok && !sealed {
		var gb, wb bytes.Buffer
		if err := gsnap.Save(&gb); err != nil {
			t.Fatal(err)
		}
		if err := want.Store().(oram.Snapshotter).Save(&wb); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
			t.Fatal("store snapshots differ from the slot loader's")
		}
	}
	if g, w := got.RandomLeaf(), want.RandomLeaf(); g != w {
		t.Fatalf("RNG diverged: next leaf %d, slot loader %d", g, w)
	}
}

// TestLoadMatchesSlotAtATime: the two-pass loader leaves client and store in
// exactly the state the one-WriteSlot-per-block loader did — {fat, uniform
// tree} × {full table, partial table, every block pinned to one leaf so blocks
// climb the path and spill into the stash, a table of several unions} × every
// store shape — and core.LoadPrePlaced, whose unplanned blocks Load draws for
// between placements, goes through the same comparison.
func TestLoadMatchesSlotAtATime(t *testing.T) {
	trees := []struct {
		name string
		cfg  oram.GeometryConfig
	}{
		{"uniform", oram.GeometryConfig{LeafBits: 6, LeafZ: 4}},
		{"fat", oram.GeometryConfig{LeafBits: 6, LeafZ: 3, RootZ: 7, Profile: oram.ProfileLinear}},
	}
	pinned := func(oram.BlockID) oram.Leaf { return 37 }
	cases := []struct {
		name     string
		leafBits int // 0: the tree's own
		blocks   uint64
		n        uint64
		leafOf   func(oram.BlockID) oram.Leaf
	}{
		{name: "full", blocks: 64, n: 64},
		{name: "partial", blocks: 64, n: 41},
		{name: "pinned", blocks: 64, n: 64, leafOf: pinned},
		// Enough slots that pass 2 writes more than one union.
		{name: "unions", leafBits: 15, blocks: 1 << 15, n: 1 << 15},
	}
	for _, tree := range trees {
		for _, tc := range cases {
			for _, st := range loadStores {
				t.Run(tree.name+"/"+tc.name+"/"+st.name, func(t *testing.T) {
					cfg := tree.cfg
					cfg.BlockSize = st.blockSize
					if tc.leafBits != 0 {
						cfg.LeafBits = tc.leafBits
					}
					g := oram.MustGeometry(cfg)
					build := func() *oram.Client {
						c, err := oram.NewClient(oram.ClientConfig{
							Store: st.open(t, g), Rand: rand.New(rand.NewSource(7)),
							Evict: oram.PaperEvict, StashHits: true, Blocks: tc.blocks,
						})
						if err != nil {
							t.Fatal(err)
						}
						return c
					}
					payload := func(id oram.BlockID) []byte { return loadRow(id, st.blockSize) }
					got, want := build(), build()
					if err := got.Load(tc.n, tc.leafOf, payload); err != nil {
						t.Fatal(err)
					}
					if err := loadSlotAtATime(want, tc.n, tc.leafOf, payload); err != nil {
						t.Fatal(err)
					}
					if tc.leafOf != nil && want.Stash().Len() == 0 {
						t.Fatal("pinned case did not reach the stash")
					}
					sameLoad(t, got, want, tc.n, st.sealed)
				})
			}
		}
	}

	t.Run("LoadPrePlaced", func(t *testing.T) {
		const blocks = 256
		g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 8, LeafZ: 4, BlockSize: 16})
		// Half the table appears in the plan; the other half is placed by
		// RandomLeaf draws interleaved with the planned placements.
		stream := make([]uint64, 0, blocks)
		for i := uint64(0); i < blocks; i += 2 {
			stream = append(stream, i)
		}
		build := func() (*oram.Client, *superblock.Plan) {
			ps, err := oram.NewPayloadStore(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			c, err := oram.NewClient(oram.ClientConfig{
				Store: ps, Rand: rand.New(rand.NewSource(11)),
				Evict: oram.PaperEvict, StashHits: true, Blocks: blocks,
			})
			if err != nil {
				t.Fatal(err)
			}
			plan, err := superblock.NewPlan(stream, superblock.PlanConfig{S: 4, Leaves: g.Leaves(), Rand: rand.New(rand.NewSource(12))})
			if err != nil {
				t.Fatal(err)
			}
			return c, plan
		}
		payload := func(id oram.BlockID) []byte { return loadRow(id, g.BlockSize()) }
		got, plan := build()
		la, err := core.New(core.Config{Base: got, Plan: plan})
		if err != nil {
			t.Fatal(err)
		}
		if err := la.LoadPrePlaced(blocks, payload); err != nil {
			t.Fatal(err)
		}
		want, plan := build()
		err = loadSlotAtATime(want, blocks, plan.FirstLeaf, payload)
		if err != nil {
			t.Fatal(err)
		}
		sameLoad(t, got, want, blocks, false)
	})
}

// TestLoadInvalidLeafWritesNothing: placement is validated whole before the
// first write, so a Load that fails — on its last block's leaf, or on its size
// — has made no store call at all.
func TestLoadInvalidLeafWritesNothing(t *testing.T) {
	const blocks = 64
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 6, LeafZ: 4, BlockSize: 16})
	ps, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := oram.NewCountingStore(ps, nil)
	c, err := oram.NewClient(oram.ClientConfig{
		Store: cs, Rand: rand.New(rand.NewSource(3)),
		Evict: oram.PaperEvict, StashHits: true, Blocks: blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := func(id oram.BlockID) []byte { return loadRow(id, g.BlockSize()) }
	lastInvalid := func(id oram.BlockID) oram.Leaf {
		if id == blocks-1 {
			return oram.Leaf(g.Leaves())
		}
		return oram.Leaf(id)
	}
	if err := c.Load(blocks, lastInvalid, payload); err == nil {
		t.Fatal("Load accepted an out-of-range leaf")
	}
	if err := c.Load(blocks+1, nil, payload); err == nil {
		t.Fatal("Load accepted more blocks than the client was configured for")
	}
	if got := cs.Counters(); got != (oram.Counters{}) {
		t.Fatalf("failed Loads reached the store: %+v", got)
	}
}
