// Package superblock implements the superblock machinery of the paper:
// LAORAM's look-ahead preprocessor (§IV-B). The PrORAM static/dynamic
// baselines it is compared against (§II-D) are discussed, not built.
//
// A superblock is a set of data blocks assigned to the same ORAM path, so
// one path fetch serves the whole set. LAORAM's insight is that training
// makes the future access stream known, so superblocks can be formed from
// blocks that *will* be accessed together rather than blocks that *were*.
package superblock

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/oram"
)

// Bin is one superblock produced by the preprocessor: the next S unique
// embedding indices of the upcoming training stream, plus the uniformly
// random path the whole bin is assigned (§IV-B3).
type Bin struct {
	// Index is the bin's position in plan order.
	Index int
	// Blocks are the member block IDs, unique, in first-appearance order.
	Blocks []oram.BlockID
	// Leaf is the path drawn for the bin.
	Leaf oram.Leaf

	next Next // Leaf, with the bin's donor if it has one
}

// Donor returns the member whose leaf the bin borrows, if the bin has one:
// its first member with no earlier occurrence in any window held when it
// was binned. The bin reads the donor's leaf instead of Leaf when the
// donor's leaf is lendable at the executor (see Next).
func (b *Bin) Donor() (oram.BlockID, bool) { return b.next.Donor() }

// Next is a member's next-leaf entry, the leaf it is remapped to when it
// leaves its bin: NoNext when it has no next bin within the horizon, else
// its next bin's drawn leaf, carrying the bin's donor if it has one. A
// donor's entry means "the donor's leaf if it is lendable, else the drawn
// leaf", resolved from the position map at remap time: a lendable leaf is a
// uniform draw of the donor's alone that no read has revealed, so one read
// of it serves the bin. Layout: drawn leaf in bits 0–30, donor id in bits
// 31–62, bit 63 set when there is a donor. Leaves fit 31 bits (a position
// map's bound) and ids 32 with the all-ones id spare, so no entry reads as
// NoNext. An entry without a donor is numerically its leaf.
type Next uint64

// NoNext is the entry of a member with no next bin within the horizon.
const NoNext = Next(oram.NoLeaf)

const (
	nextDonorShift = 31
	nextLeafMask   = 1<<nextDonorShift - 1
	nextHasDonor   = 1 << 63
)

// lendFrom returns the entry of leaf l lent to by donor id.
func lendFrom(l oram.Leaf, id uint32) Next {
	return Next(l) | Next(id)<<nextDonorShift | nextHasDonor
}

// Leaf returns the drawn leaf, or NoLeaf for NoNext.
func (n Next) Leaf() oram.Leaf {
	if n == NoNext {
		return oram.NoLeaf
	}
	return oram.Leaf(n & nextLeafMask)
}

// Donor returns the donor the entry borrows from, if any.
func (n Next) Donor() (oram.BlockID, bool) {
	if n == NoNext || n&nextHasDonor == 0 {
		return 0, false
	}
	return oram.BlockID(uint32(n >> nextDonorShift)), true
}

// drawnOnly returns the entry without its donor.
func (n Next) drawnOnly() Next {
	if n == NoNext {
		return n
	}
	return n & nextLeafMask
}

// PlanConfig configures the preprocessing scan.
type PlanConfig struct {
	// S is the superblock size: the number of unique indices per bin
	// (the paper evaluates S ∈ {2, 4, 8}).
	S int
	// Leaves is the number of ORAM paths to draw bin paths from.
	Leaves uint64
	// Rand draws the per-bin uniform paths. Required.
	Rand *rand.Rand
}

// Plan is the preprocessor's output: the ordered superblock bins plus the
// (superblock → future path) metadata the trainer GPU consumes to assign
// predetermined future paths to blocks when it accesses them.
type Plan struct {
	s    int
	bins []Bin
	// nextLeaf holds member j of bin i at [i·S + j]: the entry of the
	// member's next bin, or NoNext when it has none within the horizon.
	// Every bin but the last is full, so the layout has no gaps.
	nextLeaf []Next

	firstOnce sync.Once
	first     map[oram.BlockID]int32 // first bin index per block, built on first use
}

// NewPlan runs the two preprocessing steps of §IV-B on the upcoming access
// stream: the dataset scan (binning the next S unique indices together,
// skipping indices already in the open bin) and superblock path generation
// (one uniform path per bin). The final bin may be short. Each member's next
// leaf is its next bin in this stream: NewPlan is a Horizon of one window,
// released. Block IDs must fit 32 bits, the all-ones id excepted.
func NewPlan(stream []uint64, cfg PlanConfig) (*Plan, error) {
	if cfg.Rand == nil {
		return nil, fmt.Errorf("superblock: Rand is required")
	}
	var ids uint64
	for _, a := range stream {
		if a >= maxIDs {
			return nil, fmt.Errorf("superblock: id %d does not fit 32 bits", a)
		}
		ids = max(ids, a+1)
	}
	h, err := NewHorizon(cfg.S, cfg.Leaves, int(ids))
	if err != nil {
		return nil, err
	}
	w, err := h.Bin(stream, cfg.Rand)
	if err != nil {
		return nil, err
	}
	return h.Release(w), nil
}

// S returns the configured superblock size.
func (p *Plan) S() int { return p.s }

// Len returns the number of bins.
func (p *Plan) Len() int { return len(p.bins) }

// Bin returns bin i.
func (p *Plan) Bin(i int) *Bin { return &p.bins[i] }

// FirstLeaf returns the path of the first bin containing id, or NoLeaf if
// the block never appears in the plan. Loading the ORAM with these leaves
// ("pre-placement") is equivalent to having run a converged warm-up epoch:
// each block already sits on the path of its first superblock.
func (p *Plan) FirstLeaf(id oram.BlockID) oram.Leaf {
	i, ok := p.firstBins()[id]
	if !ok {
		return oram.NoLeaf
	}
	return p.bins[i].Leaf
}

// UniqueBlocks returns the number of distinct blocks in the plan.
func (p *Plan) UniqueBlocks() int { return len(p.firstBins()) }

// firstBins returns the first bin index of every block, built once on first
// use: only pre-placement and tests ask, so released windows skip the map.
func (p *Plan) firstBins() map[oram.BlockID]int32 {
	p.firstOnce.Do(func() {
		p.first = make(map[oram.BlockID]int32)
		for i := len(p.bins) - 1; i >= 0; i-- {
			for _, id := range p.bins[i].Blocks {
				p.first[id] = int32(i)
			}
		}
	})
	return p.first
}

// MetadataBytes estimates the size of the (superblock, future path)
// metadata shipped from the preprocessor to the trainer GPU (§IV-B3):
// 8 bytes per member ID plus 8 bytes per bin path.
func (p *Plan) MetadataBytes() int64 {
	var n int64
	for i := range p.bins {
		n += 8 + 8*int64(len(p.bins[i].Blocks))
	}
	return n
}

// Cursor tracks plan consumption for the trainer: the next bin to execute,
// whose members' *next* paths the plan already holds (§IV-A: "the path of
// all four data blocks is changed independently based on their future
// locality").
type Cursor struct {
	plan *Plan
	next int
}

// NewCursor starts consumption at bin 0.
func NewCursor(p *Plan) *Cursor { return &Cursor{plan: p} }

// PeekBin returns the bin offset positions after the next unexecuted one
// (PeekBin(0) is the next bin) without consuming anything, or nil past the
// plan end. Executors use it to gather a step's bins' paths in one fetch.
func (c *Cursor) PeekBin(offset int) *Bin {
	i := c.next + offset
	if offset < 0 || i >= c.plan.Len() {
		return nil
	}
	return c.plan.Bin(i)
}

// Done reports whether all bins were executed.
func (c *Cursor) Done() bool { return c.next >= c.plan.Len() }

// Advance consumes the current bin and returns, for every member, the entry
// of the leaf the block must be remapped to: its next future bin's (see
// Next), or NoNext if the block does not appear again within the plan's
// horizon — the caller then draws a uniform leaf, preserving §VI
// obliviousness.
//
// nextLeaf is the bin's row of the plan's table: read it, never write it.
func (c *Cursor) Advance() (bin *Bin, nextLeaf []Next, err error) {
	if c.next >= c.plan.Len() {
		return nil, nil, fmt.Errorf("superblock: plan exhausted")
	}
	bin = c.plan.Bin(c.next)
	off := c.next * c.plan.s
	c.next++
	return bin, c.plan.nextLeaf[off : off+len(bin.Blocks) : off+len(bin.Blocks)], nil
}
