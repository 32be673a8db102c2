package superblock

import (
	"fmt"
	"math/rand"

	"repro/internal/oram"
)

// Horizon is the streaming form of the §IV-B scan: windows of the access
// stream are binned into it as they arrive and released oldest first as
// Plans whose next-leaf tables reach into every window still held. It keeps
// only what a release needs, in two rings whose buffers are reused across
// windows:
//
//   - per member, its id and a link to the bin of that id's next
//     occurrence in the ring (8 bytes);
//   - per bin, its Next entry: its drawn leaf and its donor, the first
//     member with no earlier occurrence in the ring (8 bytes, so 8/S per
//     member).
//
// A dense last table (4 bytes per id) holds each id's latest member, so a
// new occurrence sets its predecessor's link in O(1), and releasing a
// window costs O(window) however many windows are held behind it.
//
// Window w's bins and leaves depend only on w's own stream and rng, so a
// Plan released with D windows behind it equals NewPlan of w finished from
// the next D windows' plans (TestQuickHorizonMatchesRelease).
type Horizon struct {
	s      int
	leaves uint64

	// Member ring: live slots mhead, mhead+1, … (mod len(ids)), mlen of them.
	ids   []uint32
	links []int32 // bin slot of ids[i]'s next occurrence, or -1
	mhead int
	mlen  int

	// Bin ring: closed bins from bhead, blen of them; the open bin takes
	// the slot after them.
	binNext []Next
	bhead   int
	blen    int

	last []int32 // member slot of each id's latest occurrence in the ring, or -1
}

// Extent is one binned window's share of a Horizon's rings, as Bin returns
// it; the caller keeps the held windows' extents and hands the oldest back
// to Release.
type Extent struct{ members, bins int }

// maxIDs is how many ids a horizon can bin: 32-bit ids with the all-ones id
// spare, so no Next entry reads as NoNext.
const maxIDs = 1<<32 - 1

// maxLeaves is the widest tree a horizon draws for: a leaf fits 31 bits of
// a Next entry, as it fits a position-map entry.
const maxLeaves = 1 << 31

// NewHorizon returns an empty horizon over ids 0..ids-1 that bins S unique
// ids per bin and draws bin leaves from 0..leaves-1.
func NewHorizon(s int, leaves uint64, ids int) (*Horizon, error) {
	if s < 1 {
		return nil, fmt.Errorf("superblock: S must be >= 1, got %d", s)
	}
	if leaves == 0 || leaves > maxLeaves {
		return nil, fmt.Errorf("superblock: Leaves must be in 1..2^31, got %d", leaves)
	}
	if ids < 0 || uint64(ids) > maxIDs {
		return nil, fmt.Errorf("superblock: %d ids do not fit 32-bit member ids", ids)
	}
	h := &Horizon{s: s, leaves: leaves, last: make([]int32, ids)}
	for i := range h.last {
		h.last[i] = -1
	}
	return h, nil
}

func (h *Horizon) mslot(off int) int { return (h.mhead + off) % len(h.ids) }
func (h *Horizon) bslot(off int) int { return (h.bhead + off) % len(h.binNext) }

// moff is the ring offset of member slot i from the oldest live member.
func (h *Horizon) moff(i int32) int {
	return (int(i) - h.mhead + len(h.ids)) % len(h.ids)
}

// Bin appends one window: the §IV-B scan over stream (the next S unique ids
// per bin, the last bin possibly short) with one uniform leaf per bin drawn
// from rng in bin order. Each bin's donor is its first member whose id has
// no occurrence in the ring: every window still held and this one's earlier
// bins. An empty stream bins an empty window, so the horizons of several
// shards stay aligned window for window.
func (h *Horizon) Bin(stream []uint64, rng *rand.Rand) (Extent, error) {
	var w Extent
	open := h.mlen // ring offset of the open bin's first member
	donor := int64(-1)
	for _, a := range stream {
		if a >= uint64(len(h.last)) {
			return Extent{}, fmt.Errorf("superblock: id %d outside the horizon's %d ids", a, len(h.last))
		}
		id := uint32(a)
		if l := h.last[id]; l >= 0 && h.moff(l) >= open {
			continue // §IV-B: a bin holds unique indices
		}
		if h.mlen == len(h.ids) {
			h.growMembers()
		}
		if h.mlen == open && h.blen == len(h.binNext) {
			h.growBins()
		}
		slot, bin := h.mslot(h.mlen), int32(h.bslot(h.blen))
		h.ids[slot], h.links[slot] = id, -1
		if l := h.last[id]; l >= 0 {
			h.links[l] = bin
		} else if donor < 0 {
			donor = int64(id)
		}
		h.last[id] = int32(slot)
		h.mlen++
		w.members++
		if h.mlen-open == h.s {
			h.closeBin(rng, donor)
			open, donor = h.mlen, -1
			w.bins++
		}
	}
	if h.mlen > open {
		h.closeBin(rng, donor)
		w.bins++
	}
	return w, nil
}

// closeBin draws the open bin's leaf and records it with the bin's donor
// (-1 for none).
func (h *Horizon) closeBin(rng *rand.Rand, donor int64) {
	next := Next(rng.Int63n(int64(h.leaves)))
	if donor >= 0 {
		next = lendFrom(oram.Leaf(next), uint32(donor))
	}
	h.binNext[h.bslot(h.blen)] = next
	h.blen++
}

// grown is the next ring capacity: a quarter more, so a full horizon's
// rings stay within a few bytes per access of what it holds.
func grown(n int) int { return max(n+n/4, 1024) }

// growMembers re-lays the member ring from slot 0 at a larger capacity.
func (h *Horizon) growMembers() {
	ids, links := make([]uint32, grown(len(h.ids))), make([]int32, grown(len(h.ids)))
	for off := 0; off < h.mlen; off++ {
		from := h.mslot(off)
		ids[off], links[off] = h.ids[from], h.links[from]
		if h.last[h.ids[from]] == int32(from) {
			h.last[h.ids[from]] = int32(off)
		}
	}
	h.ids, h.links, h.mhead = ids, links, 0
}

// growBins re-lays the bin ring from slot 0 at a larger capacity, with the
// open bin's slot (offset blen) free after the closed ones.
func (h *Horizon) growBins() {
	next := make([]Next, grown(len(h.binNext)))
	for off := 0; off < h.blen; off++ {
		next[off] = h.binNext[h.bslot(off)]
	}
	for off := 0; off < h.mlen; off++ {
		if l := &h.links[h.mslot(off)]; *l >= 0 {
			*l = int32((int(*l) - h.bhead + len(h.binNext)) % len(h.binNext))
		}
	}
	h.binNext, h.bhead = next, 0
}

// FirstLeaves returns, per id, the leaf of the id's first bin in the held
// windows, oldest first, else NoLeaf: pre-placing on it puts every block
// the horizon holds on the path its first bin reads. held are the extents
// of every window binned and not yet released, oldest first. Bins fill in
// member order and only a window's last bin is short, so member j of a
// window is in the window's bin j/S.
//
// A donor has no earlier occurrence in the ring, so this places it on its
// own bin's drawn leaf: FirstLeaves clears every held bin's donor, and a
// pre-placed horizon lends nothing.
func (h *Horizon) FirstLeaves(held []Extent) []oram.Leaf {
	first := make([]oram.Leaf, len(h.last))
	for i := range first {
		first[i] = oram.NoLeaf
	}
	members, bins := 0, 0
	for _, w := range held {
		for j := 0; j < w.members; j++ {
			if id := h.ids[h.mslot(members+j)]; first[id] == oram.NoLeaf {
				first[id] = h.binNext[h.bslot(bins+j/h.s)].Leaf()
			}
		}
		for i := bins; i < bins+w.bins; i++ {
			b := &h.binNext[h.bslot(i)]
			*b = b.drawnOnly()
		}
		members, bins = members+w.members, bins+w.bins
	}
	return first
}

// Release removes the oldest window, whose Extent w is, and returns its
// Plan: its bins, leaves and donors as binned, and each member's next-leaf
// entry the entry of the bin its link points to — its next bin in this
// window or in any window still held — else NoNext. The Plan shares
// nothing with the horizon.
func (h *Horizon) Release(w Extent) *Plan {
	p := &Plan{s: h.s, bins: make([]Bin, w.bins), nextLeaf: make([]Next, w.members)}
	blocks := make([]oram.BlockID, w.members)
	for i := range p.bins {
		lo, hi := i*h.s, min((i+1)*h.s, w.members)
		for j := lo; j < hi; j++ {
			slot := h.mslot(j)
			id := h.ids[slot]
			blocks[j] = oram.BlockID(id)
			p.nextLeaf[j] = NoNext
			if l := h.links[slot]; l >= 0 {
				p.nextLeaf[j] = h.binNext[l]
			}
			if h.last[id] == int32(slot) {
				h.last[id] = -1
			}
		}
		next := h.binNext[h.bslot(i)]
		p.bins[i] = Bin{Index: i, Blocks: blocks[lo:hi:hi], Leaf: next.Leaf(), next: next}
	}
	if w.members > 0 {
		h.mhead, h.mlen = h.mslot(w.members), h.mlen-w.members
	}
	if w.bins > 0 {
		h.bhead, h.blen = h.bslot(w.bins), h.blen-w.bins
	}
	return p
}
