package oram

import "fmt"

// PosMap is the client's position map, the block ID → leaf mapping of
// §II-C. It is flat and lives in trusted client memory — the trainer GPU's
// HBM in the paper's threat model (§III), invisible to the adversary. IDs
// are dense (0..N-1) so a slice suffices; a leaf is a uint32 with
// ^uint32(0) meaning "no leaf", so NewClient refuses a tree of more than
// maxPosMapLeaves leaves (the paper's configurations have ≤ 2^24).
//
// The entry's top bit, spare below maxPosMapLeaves, marks the leaf
// *lendable*: a uniform draw that no path read has revealed and no other
// block shares. SetDrawn sets it, Set clears it, and a look-ahead executor
// may lend a lendable leaf to the bin the block is next accessed in
// (core.LAORAM.Step).
type PosMap struct {
	leaves []uint32
}

// maxPosMapLeaves is the widest tree (LeafBits 31) whose every leaf fits a
// PosMap entry below the lendable bit.
const maxPosMapLeaves = 1 << 31

const (
	noLeaf32 = ^uint32(0)
	lendBit  = uint32(1) << 31
)

// NewPosMap creates a position map for n blocks, all initially unplaced.
func NewPosMap(n uint64) *PosMap {
	pm := &PosMap{leaves: make([]uint32, n)}
	for i := range pm.leaves {
		pm.leaves[i] = noLeaf32
	}
	return pm
}

// Len returns the number of block IDs the map covers.
func (pm *PosMap) Len() uint64 { return uint64(len(pm.leaves)) }

// Get returns the leaf currently assigned to id, or NoLeaf if the block has
// never been placed.
func (pm *PosMap) Get(id BlockID) Leaf {
	v := pm.leaves[id]
	if v == noLeaf32 {
		return NoLeaf
	}
	return Leaf(v &^ lendBit)
}

// Set assigns leaf to id, not lendable: a look-ahead remap or a
// pre-placement, whose leaf other blocks may share.
func (pm *PosMap) Set(id BlockID, l Leaf) {
	if l == NoLeaf {
		pm.leaves[id] = noLeaf32
		return
	}
	if uint64(l) >= maxPosMapLeaves {
		panic(fmt.Sprintf("oram: leaf %d overflows position map entry", l))
	}
	pm.leaves[id] = uint32(l)
}

// SetDrawn assigns id a leaf just drawn uniformly for it alone and marks it
// lendable. The widest tree's last leaf stays unmarked: with the bit it
// would read as no leaf.
func (pm *PosMap) SetDrawn(id BlockID, l Leaf) {
	pm.Set(id, l)
	if v := pm.leaves[id] | lendBit; v != noLeaf32 {
		pm.leaves[id] = v
	}
}

// Lendable returns id's leaf and whether it is lendable.
func (pm *PosMap) Lendable(id BlockID) (Leaf, bool) {
	v := pm.leaves[id]
	return Leaf(v &^ lendBit), v&lendBit != 0 && v != noLeaf32
}

// Unlend clears every block's lendable bit, keeping its leaf.
func (pm *PosMap) Unlend() {
	for i, v := range pm.leaves {
		if v != noLeaf32 {
			pm.leaves[i] = v &^ lendBit
		}
	}
}

// Bytes returns the client memory footprint of the map, for the paper's
// client-storage accounting.
func (pm *PosMap) Bytes() int64 { return int64(len(pm.leaves)) * 4 }
