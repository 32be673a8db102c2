package oram

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestPosMapLendableBit: SetDrawn marks a leaf lendable and Set does not;
// Get and Lendable read the leaf through the bit; Unlend clears every bit
// and keeps every leaf; the widest tree's last leaf, whose marked entry
// would read as no leaf, stays unmarked; and the bit rides through
// SaveState/LoadState, so a snapshot whose entries never had it — all of
// them before the bit existed — loads as nothing lendable.
func TestPosMapLendableBit(t *testing.T) {
	pm := NewPosMap(4)
	pm.SetDrawn(0, 5)
	pm.Set(1, 5)
	pm.SetDrawn(2, maxPosMapLeaves-1)
	for _, c := range []struct {
		id       BlockID
		leaf     Leaf
		lendable bool
	}{{0, 5, true}, {1, 5, false}, {2, maxPosMapLeaves - 1, false}, {3, NoLeaf, false}} {
		if got := pm.Get(c.id); got != c.leaf {
			t.Errorf("block %d: Get %d, want %d", c.id, got, c.leaf)
		}
		if l, ok := pm.Lendable(c.id); ok != c.lendable || (c.leaf != NoLeaf && l != c.leaf) {
			t.Errorf("block %d: Lendable (%d, %v), want (%d, %v)", c.id, l, ok, c.leaf, c.lendable)
		}
	}
	pm.Unlend()
	if l, ok := pm.Lendable(0); ok || l != 5 || pm.Get(3) != NoLeaf {
		t.Errorf("after Unlend: block 0 (%d, %v), block 3 %d", l, ok, pm.Get(3))
	}

	g := MustGeometry(GeometryConfig{LeafBits: 4, LeafZ: 4})
	client := func() *Client {
		c, err := NewClient(ClientConfig{Store: NewMetaStore(g), Rand: rand.New(rand.NewSource(3)), Evict: PaperEvict, Blocks: 8})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, c := range []struct {
		name     string
		leafOf   func(BlockID) Leaf
		lendable bool
	}{{"drawn", nil, true}, {"placed", func(id BlockID) Leaf { return Leaf(id) }, false}} {
		src, dst := client(), client()
		if err := src.Load(8, c.leafOf, nil); err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := src.SaveState(&snap); err != nil {
			t.Fatal(err)
		}
		if err := dst.LoadState(&snap); err != nil {
			t.Fatal(err)
		}
		for id := BlockID(0); id < 8; id++ {
			if l, ok := dst.PosMap().Lendable(id); ok != c.lendable || l != src.PosMap().Get(id) {
				t.Errorf("%s: restored block %d (%d, %v), want (%d, %v)", c.name, id, l, ok, src.PosMap().Get(id), c.lendable)
			}
		}
	}
}
