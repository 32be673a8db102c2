// Package ringoram implements a RingORAM substrate (§VIII-G of the paper;
// Ren et al., "Ring ORAM: Closing the Gap Between Small and Large Client
// Storage Oblivious RAM"). RingORAM reads only one block per bucket on an
// access path — cutting per-access block traffic from ~2·Z·logN (PathORAM)
// to ~logN — at the cost of per-bucket dummy budgets, early reshuffles and
// a periodic eviction path.
//
// The paper argues LAORAM's superblocks are orthogonal to RingORAM and
// estimates the combined cost at [n·logN]/S + S blocks per n accesses;
// laoring.go implements that combination so the estimate can be measured.
//
// Simplifications relative to the full RingORAM paper, documented here and
// in DESIGN.md: bucket metadata (which slot holds which block, read marks)
// is tracked client-side instead of in encrypted bucket headers, and the
// XOR trick for dummy compression is omitted — neither changes the
// block-granularity traffic being compared.
package ringoram

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"

	"repro/internal/oram"
)

// Config sizes a RingORAM client.
type Config struct {
	// Blocks is the number of real blocks (dense IDs 0..Blocks-1).
	Blocks uint64
	// LeafBits is log2(#leaves); 0 derives it from Blocks.
	LeafBits int
	// Z is the number of real slots per bucket (default 4).
	Z int
	// S is the number of dummy slots per bucket (default Z).
	S int
	// A is the eviction rate: one eviction path per A accesses
	// (default 3, the RingORAM paper's A≈2Z/… practical choice).
	A int
	// BlockSize is the payload size in bytes (0 for metadata-only).
	BlockSize int
	// Rand drives leaf and dummy selection. Required.
	Rand *rand.Rand
}

func (c *Config) setDefaults() error {
	if c.Blocks == 0 {
		return fmt.Errorf("ringoram: Blocks must be > 0")
	}
	if c.Rand == nil {
		return fmt.Errorf("ringoram: Rand is required")
	}
	if c.Z == 0 {
		c.Z = 4
	}
	if c.S == 0 {
		c.S = c.Z
	}
	if c.A == 0 {
		c.A = 3
	}
	if c.Z < 1 || c.S < 1 || c.A < 1 {
		return fmt.Errorf("ringoram: Z, S, A must be >= 1 (got %d, %d, %d)", c.Z, c.S, c.A)
	}
	if c.LeafBits == 0 {
		c.LeafBits = oram.LeafBitsFor(c.Blocks)
	}
	if c.Z+c.S > 64 {
		return fmt.Errorf("ringoram: Z+S = %d exceeds the 64-slot read-mark word", c.Z+c.S)
	}
	return nil
}

// Stats tallies RingORAM activity in the units the §VIII-G comparison uses.
type Stats struct {
	Accesses        uint64
	BlocksRead      uint64 // single-slot reads on access paths
	BlocksWritten   uint64 // slots written by reshuffles + evictions
	EarlyReshuffles uint64
	EvictionPaths   uint64
	StashPeak       int
}

// Ring is a RingORAM client.
type Ring struct {
	cfg   Config
	geom  *oram.Geometry // bucket size Z+S
	store oram.Store
	pos   *oram.PosMap
	stash *oram.Stash
	rng   *rand.Rand

	// Per-bucket state, indexed by heap bucket number
	// (2^level - 1 + node).
	readMask []uint64 // bit i set = slot i consumed since last reshuffle
	readCnt  []uint8  // number of consumed slots

	evictG uint64 // eviction-path counter (reverse-lexicographic order)
	stats  Stats

	slotBuf   []oram.Slot // scratch, one bucket
	bucketBuf []oram.Slot
}

// New builds a RingORAM client over a fresh MetaStore or PayloadStore
// depending on BlockSize.
func New(cfg Config) (*Ring, error) {
	if err := cfg.setDefaults(); err != nil {
		return nil, err
	}
	g, err := oram.NewGeometry(oram.GeometryConfig{
		LeafBits:  cfg.LeafBits,
		LeafZ:     cfg.Z + cfg.S,
		BlockSize: cfg.BlockSize,
	})
	if err != nil {
		return nil, err
	}
	var st oram.Store
	if cfg.BlockSize > 0 {
		if st, err = oram.NewPayloadStore(g, nil); err != nil {
			return nil, err
		}
	} else {
		st = oram.NewMetaStore(g)
	}
	r := &Ring{
		cfg:       cfg,
		geom:      g,
		store:     st,
		pos:       oram.NewPosMap(cfg.Blocks),
		stash:     oram.NewStash(),
		rng:       cfg.Rand,
		readMask:  make([]uint64, g.TotalBuckets()),
		readCnt:   make([]uint8, g.TotalBuckets()),
		slotBuf:   make([]oram.Slot, cfg.Z+cfg.S),
		bucketBuf: make([]oram.Slot, cfg.Z+cfg.S),
	}
	return r, nil
}

// Geometry returns the tree shape (bucket capacity Z+S).
func (r *Ring) Geometry() *oram.Geometry { return r.geom }

// Stash exposes the client stash.
func (r *Ring) Stash() *oram.Stash { return r.stash }

// PosMap exposes the position map.
func (r *Ring) PosMap() *oram.PosMap { return r.pos }

// Stats returns a snapshot with the current stash peak folded in.
func (r *Ring) Stats() Stats {
	st := r.stats
	st.StashPeak = r.stash.Peak()
	return st
}

// ResetStats zeroes counters and the stash peak.
func (r *Ring) ResetStats() {
	r.stats = Stats{}
	r.stash.ResetPeak()
}

func (r *Ring) bucketNo(level int, node uint64) int64 {
	return int64((uint64(1)<<uint(level))-1) + int64(node)
}

// Load populates the tree: each block is assigned a random leaf and placed
// in the deepest bucket on its path with a free real slot (at most Z real
// blocks per bucket; the S dummy slots stay dummy).
func (r *Ring) Load(n uint64, payload func(oram.BlockID) []byte) error {
	return r.load(n, payload, func(oram.BlockID) oram.Leaf {
		return oram.Leaf(r.rng.Int63n(int64(r.geom.Leaves())))
	})
}

// load places blocks 0..n-1, each on the leaf leafOf gives it, in the deepest
// bucket on that path with a free real slot (real slots first, dummies after)
// by a read-modify-write of the bucket through bucketBuf, or in the stash when
// every bucket on the path is full.
func (r *Ring) load(n uint64, payload func(oram.BlockID) []byte, leafOf func(oram.BlockID) oram.Leaf) error {
	if n > r.pos.Len() {
		return fmt.Errorf("ringoram: load of %d blocks exceeds configured %d", n, r.pos.Len())
	}
	realFill := make([]uint8, r.geom.TotalBuckets())
	for i := uint64(0); i < n; i++ {
		id := oram.BlockID(i)
		leaf := leafOf(id)
		r.pos.Set(id, leaf)
		var data []byte
		if payload != nil {
			data = payload(id)
		}
		placed := false
		for lvl := r.geom.Levels() - 1; lvl >= 0; lvl-- {
			node := r.geom.NodeAt(leaf, lvl)
			b := r.bucketNo(lvl, node)
			if int(realFill[b]) >= r.cfg.Z {
				continue
			}
			clearPayloads(r.bucketBuf)
			if err := r.store.ReadBucket(lvl, node, r.bucketBuf); err != nil {
				return err
			}
			r.bucketBuf[realFill[b]] = oram.Slot{ID: id, Leaf: leaf, Payload: data}
			if err := r.store.WriteBucket(lvl, node, r.bucketBuf); err != nil {
				return err
			}
			realFill[b]++
			placed = true
			break
		}
		if !placed {
			if err := r.stash.Put(id, leaf, data); err != nil {
				return err
			}
		}
	}
	return nil
}

// clearPayloads drops stale payload references from a reused read buffer
// before handing it to the store: stores may decrypt into the capacity of
// dst payload slices (the ReadBucket contract), and after an eviction these
// buffers still alias live stash slabs.
func clearPayloads(buf []oram.Slot) {
	for i := range buf {
		buf[i].Payload = nil
	}
}

// findSlot scans a bucket's stored metadata for an unread slot holding id
// (or, with id == DummyID, an unread dummy slot chosen at random). In real
// RingORAM this information comes from the bucket's encrypted header; the
// scan itself costs only header bytes, which we exclude from block traffic.
func (r *Ring) findSlot(level int, node uint64, id oram.BlockID) (int, error) {
	clearPayloads(r.bucketBuf)
	if err := r.store.ReadBucket(level, node, r.bucketBuf); err != nil {
		return -1, err
	}
	mask := r.readMask[r.bucketNo(level, node)]
	if id != oram.DummyID {
		for i := range r.bucketBuf {
			if mask&(1<<uint(i)) != 0 {
				continue
			}
			if r.bucketBuf[i].ID == id {
				return i, nil
			}
		}
		return -1, nil
	}
	// Random unread dummy.
	var choices []int
	for i := range r.bucketBuf {
		if mask&(1<<uint(i)) != 0 {
			continue
		}
		if r.bucketBuf[i].Dummy() {
			choices = append(choices, i)
		}
	}
	if len(choices) == 0 {
		return -1, nil
	}
	return choices[r.rng.Intn(len(choices))], nil
}

// Access performs one RingORAM access: one slot read per bucket along the
// block's path (the block where it lies, fresh dummies elsewhere), early
// reshuffles where dummy budgets run out, stash service, and one eviction
// path every A accesses.
func (r *Ring) Access(op oram.Op, id oram.BlockID, data []byte) ([]byte, error) {
	if uint64(id) >= r.pos.Len() {
		return nil, fmt.Errorf("ringoram: block %d out of range", id)
	}
	leaf := r.pos.Get(id)
	if leaf == oram.NoLeaf {
		return nil, fmt.Errorf("ringoram: block %d not loaded", id)
	}
	r.stats.Accesses++

	// Remap now; the block will re-enter the tree via an eviction path.
	newLeaf := oram.Leaf(r.rng.Int63n(int64(r.geom.Leaves())))
	r.pos.Set(id, newLeaf)

	inStash := r.stash.Contains(id)
	found := inStash
	for lvl := 0; lvl < r.geom.Levels(); lvl++ {
		node := r.geom.NodeAt(leaf, lvl)
		want := id
		if found {
			want = oram.DummyID // block already retrieved: burn a dummy
		}
		slot, err := r.findSlot(lvl, node, want)
		if err != nil {
			return nil, err
		}
		if slot < 0 && want != oram.DummyID {
			// Block not in this bucket: read a dummy instead.
			slot, err = r.findSlot(lvl, node, oram.DummyID)
			if err != nil {
				return nil, err
			}
		}
		if slot >= 0 {
			s := r.bucketBuf[slot] // findSlot left this bucket in bucketBuf
			r.stats.BlocksRead++
			b := r.bucketNo(lvl, node)
			r.readMask[b] |= 1 << uint(slot)
			r.readCnt[b]++
			if s.ID == id && !found {
				found = true
				if err := r.stash.Put(id, newLeaf, s.Payload); err != nil {
					return nil, err
				}
			}
			if int(r.readCnt[b]) >= r.cfg.S {
				if err := r.earlyReshuffle(lvl, node); err != nil {
					return nil, err
				}
			}
		}
		// A bucket with no unread slot at all is overdue for reshuffle;
		// handle defensively (can occur right after heavy access runs).
		if slot < 0 {
			if err := r.earlyReshuffle(lvl, node); err != nil {
				return nil, err
			}
		}
	}
	if !found {
		return nil, fmt.Errorf("ringoram: block %d missing from path %d", id, leaf)
	}
	if inStash {
		r.stash.SetLeaf(id, newLeaf)
	}

	out, err := r.serve(op, id, data)
	if err != nil {
		return nil, err
	}
	if r.stats.Accesses%uint64(r.cfg.A) == 0 {
		if err := r.evictPath(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (r *Ring) serve(op oram.Op, id oram.BlockID, data []byte) ([]byte, error) {
	switch op {
	case oram.OpRead:
		p, ok := r.stash.Payload(id)
		if !ok {
			return nil, fmt.Errorf("ringoram: block %d not in stash", id)
		}
		if p == nil {
			return nil, nil
		}
		out := make([]byte, len(p))
		copy(out, p)
		return out, nil
	case oram.OpWrite:
		cp := make([]byte, len(data))
		copy(cp, data)
		if !r.stash.SetPayload(id, cp) {
			return nil, fmt.Errorf("ringoram: block %d not in stash", id)
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("ringoram: unknown op %v", op)
	}
}

// earlyReshuffle rewrites one bucket: surviving (unread) real blocks are
// retained, consumed slots become fresh dummies, read marks reset.
func (r *Ring) earlyReshuffle(level int, node uint64) error {
	clearPayloads(r.slotBuf)
	if err := r.store.ReadBucket(level, node, r.slotBuf); err != nil {
		return err
	}
	b := r.bucketNo(level, node)
	mask := r.readMask[b]
	// Count the unread slots we had to fetch to reshuffle.
	unread := uint64(len(r.slotBuf)) - uint64(bits.OnesCount64(mask&((1<<uint(len(r.slotBuf)))-1)))
	r.stats.BlocksRead += unread
	n := 0
	for i := range r.slotBuf {
		if mask&(1<<uint(i)) != 0 {
			continue // consumed: real copy is stale or dummy burned
		}
		if r.slotBuf[i].Dummy() {
			continue
		}
		r.bucketBuf[n] = r.slotBuf[i]
		n++
	}
	for i := n; i < len(r.bucketBuf); i++ {
		r.bucketBuf[i] = oram.DummySlot()
	}
	if err := r.store.WriteBucket(level, node, r.bucketBuf); err != nil {
		return err
	}
	r.stats.BlocksWritten += uint64(len(r.bucketBuf))
	r.readMask[b] = 0
	r.readCnt[b] = 0
	r.stats.EarlyReshuffles++
	return nil
}

// evictPath performs the periodic eviction: along the next path in
// reverse-lexicographic order, pull every surviving real block into the
// stash, then refill the path's buckets greedily (deepest first) from the
// stash, resetting read marks.
func (r *Ring) evictPath() error {
	leaf := r.nextEvictLeaf()
	// Pull surviving blocks into the stash.
	for lvl := 0; lvl < r.geom.Levels(); lvl++ {
		node := r.geom.NodeAt(leaf, lvl)
		clearPayloads(r.slotBuf)
		if err := r.store.ReadBucket(lvl, node, r.slotBuf); err != nil {
			return err
		}
		b := r.bucketNo(lvl, node)
		mask := r.readMask[b]
		for i := range r.slotBuf {
			if mask&(1<<uint(i)) != 0 || r.slotBuf[i].Dummy() {
				continue
			}
			r.stats.BlocksRead++
			if err := r.stash.Put(r.slotBuf[i].ID, r.slotBuf[i].Leaf, r.slotBuf[i].Payload); err != nil {
				return err
			}
		}
	}
	// Greedy refill, deepest level first, at most Z real blocks/bucket.
	ids := r.stash.IDs()
	slices.Sort(ids)
	placed := make(map[oram.BlockID]bool)
	for lvl := r.geom.Levels() - 1; lvl >= 0; lvl-- {
		node := r.geom.NodeAt(leaf, lvl)
		n := 0
		for _, id := range ids {
			if n == r.cfg.Z {
				break
			}
			if placed[id] {
				continue
			}
			bl, ok := r.stash.Leaf(id)
			if !ok || r.geom.NodeAt(bl, lvl) != node {
				continue
			}
			p, _ := r.stash.Payload(id)
			r.bucketBuf[n] = oram.Slot{ID: id, Leaf: bl, Payload: p}
			placed[id] = true
			n++
		}
		for i := n; i < len(r.bucketBuf); i++ {
			r.bucketBuf[i] = oram.DummySlot()
		}
		if err := r.store.WriteBucket(lvl, node, r.bucketBuf); err != nil {
			return err
		}
		r.stats.BlocksWritten += uint64(len(r.bucketBuf))
		b := r.bucketNo(lvl, node)
		r.readMask[b] = 0
		r.readCnt[b] = 0
	}
	for id := range placed {
		r.stash.Remove(id)
	}
	r.stats.EvictionPaths++
	return nil
}

// nextEvictLeaf returns the next leaf in reverse-lexicographic order (bit
// reversal of a counter), RingORAM's deterministic eviction schedule.
func (r *Ring) nextEvictLeaf() oram.Leaf {
	g := r.evictG
	r.evictG++
	L := uint(r.geom.LeafBits())
	rev := bits.Reverse64(g) >> (64 - L)
	return oram.Leaf(rev % r.geom.Leaves())
}
