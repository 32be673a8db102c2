package oram

import (
	"fmt"
	"math/bits"
)

// Profile selects how bucket capacity varies with tree level. The paper's
// baseline PathORAM uses a uniform profile; §V introduces the fat-tree
// (linear decay from a wide root to narrow leaves). Step and capped
// exponential profiles are provided for the ablation studies called out in
// DESIGN.md (§V notes that ideally growth would be exponential toward the
// root but adopts linear growth as the practical choice).
type Profile uint8

const (
	// ProfileUniform gives every bucket LeafZ slots (the normal binary
	// tree of PathORAM and PrORAM).
	ProfileUniform Profile = iota
	// ProfileLinear interpolates bucket capacity linearly from RootZ at
	// the root down to LeafZ at the leaves — the paper's fat-tree: with
	// LeafZ=5 and 6 levels the sizes are 10,9,8,7,6,5 (§V).
	ProfileLinear
	// ProfileStep uses RootZ for the top half of the levels and LeafZ for
	// the bottom half (ablation abl-profile).
	ProfileStep
	// ProfileExp doubles capacity per level walking up from the leaves,
	// capped at RootZ (ablation abl-profile; approximates the
	// "ideal" exponential growth §V mentions and rejects).
	ProfileExp
)

// String implements fmt.Stringer.
func (p Profile) String() string {
	switch p {
	case ProfileUniform:
		return "uniform"
	case ProfileLinear:
		return "linear"
	case ProfileStep:
		return "step"
	case ProfileExp:
		return "exp"
	default:
		return fmt.Sprintf("Profile(%d)", uint8(p))
	}
}

// Geometry describes the shape of an ORAM tree: its depth and the bucket
// capacity at every level. Level 0 is the root; level Levels()-1 holds the
// leaves (the paper's "level L"). All stores, clients and the RingORAM
// variant share this one description of server storage layout.
type Geometry struct {
	leafBits   int     // log2(number of leaves); tree has leafBits+1 levels
	bucketSize []int   // capacity per level, len == leafBits+1
	levelOff   []int64 // linear slot offset of the first slot of each level
	totalSlots int64
	blockSize  int // payload bytes per block (used for byte accounting)
	profile    Profile
}

// maxBucketSize is the widest bucket a Geometry admits. The loader counts a
// bucket's blocks and the in-memory stores keep a bucket's live bound in one
// byte each, so no bucket may hold more than 255 slots.
const maxBucketSize = 255

// GeometryConfig collects the knobs for building a Geometry.
type GeometryConfig struct {
	// LeafBits is log2 of the leaf count. A table of N blocks needs
	// LeafBits >= ceil(log2(N)) for the standard PathORAM stash bound.
	LeafBits int
	// LeafZ is the bucket capacity at the leaf level (paper default 4).
	LeafZ int
	// RootZ is the bucket capacity at the root for non-uniform profiles.
	// Ignored for ProfileUniform. The paper's fat-tree uses RootZ=2*LeafZ;
	// the §VIII-C memory-neutral experiment uses 9→5.
	RootZ int
	// Profile selects the capacity curve.
	Profile Profile
	// BlockSize is the payload size in bytes (128 for DLRM rows, 4096 for
	// XLM-R rows in the paper's configurations).
	BlockSize int
}

// maxLevels bounds Levels: LeafBits is at most 40. Counters sizes its
// per-level array from it.
const maxLevels = 41

// NewGeometry validates cfg and builds the tree shape.
func NewGeometry(cfg GeometryConfig) (*Geometry, error) {
	if cfg.LeafBits < 1 || cfg.LeafBits >= maxLevels {
		return nil, fmt.Errorf("oram: LeafBits %d out of range [1,%d]", cfg.LeafBits, maxLevels-1)
	}
	if cfg.LeafZ < 1 {
		return nil, fmt.Errorf("oram: LeafZ %d must be >= 1", cfg.LeafZ)
	}
	if cfg.BlockSize < 0 {
		return nil, fmt.Errorf("oram: BlockSize %d must be >= 0", cfg.BlockSize)
	}
	if cfg.Profile != ProfileUniform {
		if cfg.RootZ < cfg.LeafZ {
			return nil, fmt.Errorf("oram: RootZ %d must be >= LeafZ %d for profile %v", cfg.RootZ, cfg.LeafZ, cfg.Profile)
		}
	}
	levels := cfg.LeafBits + 1
	g := &Geometry{
		leafBits:   cfg.LeafBits,
		bucketSize: make([]int, levels),
		levelOff:   make([]int64, levels),
		blockSize:  cfg.BlockSize,
		profile:    cfg.Profile,
	}
	L := cfg.LeafBits // index of the leaf level
	for lvl := 0; lvl < levels; lvl++ {
		switch cfg.Profile {
		case ProfileUniform:
			g.bucketSize[lvl] = cfg.LeafZ
		case ProfileLinear:
			// leafZ + round(extra * (L-lvl)/L); root gets RootZ, leaf LeafZ.
			extra := cfg.RootZ - cfg.LeafZ
			g.bucketSize[lvl] = cfg.LeafZ + (extra*(L-lvl)+L/2)/L
		case ProfileStep:
			if lvl < levels/2 {
				g.bucketSize[lvl] = cfg.RootZ
			} else {
				g.bucketSize[lvl] = cfg.LeafZ
			}
		case ProfileExp:
			sz := cfg.LeafZ
			if shift := L - lvl; shift < 30 {
				sz = cfg.LeafZ << shift
			} else {
				sz = cfg.RootZ
			}
			if sz > cfg.RootZ {
				sz = cfg.RootZ
			}
			g.bucketSize[lvl] = sz
		default:
			return nil, fmt.Errorf("oram: unknown profile %v", cfg.Profile)
		}
		if z := g.bucketSize[lvl]; z > maxBucketSize {
			return nil, fmt.Errorf("oram: %d slots per bucket at level %d, at most %d supported", z, lvl, maxBucketSize)
		}
	}
	var off int64
	for lvl := 0; lvl < levels; lvl++ {
		g.levelOff[lvl] = off
		off += int64(g.bucketSize[lvl]) << uint(lvl)
	}
	g.totalSlots = off
	return g, nil
}

// MustGeometry is NewGeometry that panics on error; for tests and tables of
// known-good configurations.
func MustGeometry(cfg GeometryConfig) *Geometry {
	g, err := NewGeometry(cfg)
	if err != nil {
		panic(err)
	}
	return g
}

// Prefix returns the tree's top levels (1 <= levels <= Levels()) as a tree of
// their own: the same bucket size at every level and the same linear slot
// index for every slot, so a store built over it holds exactly the top of a
// store built over g, addressed the same way.
func (g *Geometry) Prefix(levels int) *Geometry {
	if levels < 1 || levels > g.Levels() {
		panic(fmt.Sprintf("oram: prefix of %d levels of a %d-level tree", levels, g.Levels()))
	}
	p := *g
	p.leafBits = levels - 1
	p.bucketSize = g.bucketSize[:levels:levels]
	p.levelOff = g.levelOff[:levels:levels]
	p.totalSlots = g.levelOff[levels-1] + int64(g.bucketSize[levels-1])<<uint(levels-1)
	return &p
}

// LeafBitsFor returns the smallest leafBits such that 2^leafBits >= n,
// the standard PathORAM sizing for n real blocks.
func LeafBitsFor(n uint64) int {
	if n <= 1 {
		return 1
	}
	b := bits.Len64(n - 1)
	if b < 1 {
		b = 1
	}
	return b
}

// Levels returns the number of tree levels (root..leaf inclusive).
func (g *Geometry) Levels() int { return g.leafBits + 1 }

// LeafBits returns log2 of the leaf count.
func (g *Geometry) LeafBits() int { return g.leafBits }

// Leaves returns the number of leaves (= number of distinct paths).
func (g *Geometry) Leaves() uint64 { return 1 << uint(g.leafBits) }

// BucketSize returns the slot capacity of buckets at the given level.
func (g *Geometry) BucketSize(level int) int { return g.bucketSize[level] }

// BlockSize returns the configured payload size in bytes.
func (g *Geometry) BlockSize() int { return g.blockSize }

// Profile returns the capacity profile used to build the geometry.
func (g *Geometry) Profile() Profile { return g.profile }

// TotalSlots returns the total number of block slots in the tree.
func (g *Geometry) TotalSlots() int64 { return g.totalSlots }

// TotalBuckets returns the total number of buckets in the tree.
func (g *Geometry) TotalBuckets() int64 { return (1 << uint(g.leafBits+1)) - 1 }

// ServerBytes returns the server storage requirement in bytes — the
// quantity Table I of the paper reports per configuration.
func (g *Geometry) ServerBytes() int64 { return g.totalSlots * int64(g.blockSize) }

// PathSlots returns the number of slots on one root→leaf path; this is the
// per-access block traffic of a PathORAM read or write.
func (g *Geometry) PathSlots() int {
	n := 0
	for _, z := range g.bucketSize {
		n += z
	}
	return n
}

// NodeAt returns the index within its level of the bucket on the path to
// leaf at the given level: the leading `level` bits of the leaf index.
func (g *Geometry) NodeAt(leaf Leaf, level int) uint64 {
	return uint64(leaf) >> uint(g.leafBits-level)
}

// bucketNo returns the heap index of bucket (level, node): levels in order,
// nodes within a level, root 0. The loader's fill counts and the in-memory
// stores' live bounds are indexed by it.
func (g *Geometry) bucketNo(level int, node uint64) int64 {
	return 1<<uint(level) - 1 + int64(node)
}

// SlotIndex maps (level, nodeInLevel, slotInBucket) to a linear slot index
// in server storage. Linear indices are stable across the whole tree and
// are what the Store implementations address.
func (g *Geometry) SlotIndex(level int, node uint64, slot int) int64 {
	return g.levelOff[level] + int64(node)*int64(g.bucketSize[level]) + int64(slot)
}

// fits reports whether r names a bucket of the tree and n is its size: the
// whole check a union makes per ref, in a few comparisons and no call, so
// the stores and the treetop can run it on every bucket of every union.
func (g *Geometry) fits(r BucketRef, n int) bool {
	return uint(r.Level) < uint(len(g.bucketSize)) && r.Node>>uint(r.Level) == 0 && n == g.bucketSize[r.Level]
}

// CommonLevel returns the deepest level at which the paths to leaves a and
// b intersect. Used by the greedy stash write-back: a block assigned to
// leaf b may be written into the path of leaf a at any level <= CommonLevel.
func (g *Geometry) CommonLevel(a, b Leaf) int {
	x := uint64(a) ^ uint64(b)
	if x == 0 {
		return g.leafBits
	}
	return g.leafBits - bits.Len64(x)
}

// ValidLeaf reports whether the leaf index is within range.
func (g *Geometry) ValidLeaf(l Leaf) bool { return uint64(l) < g.Leaves() }

// String summarises the geometry ("tree L=20 Z=4 uniform", "fat L=20 8→4").
func (g *Geometry) String() string {
	if g.profile == ProfileUniform {
		return fmt.Sprintf("tree L=%d Z=%d uniform", g.leafBits, g.bucketSize[0])
	}
	return fmt.Sprintf("tree L=%d Z=%d→%d %v", g.leafBits, g.bucketSize[0], g.bucketSize[g.leafBits], g.profile)
}
