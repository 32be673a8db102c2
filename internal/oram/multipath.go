package oram

import (
	"fmt"
	"slices"
)

// multiScratch is the client's one set of transfer buffers plus the scratch
// of the joint operations. A client moves one path or bucket union at a time
// (single-goroutine model), so ReadPath, WriteBackPath, ReadPaths and
// WriteBackPaths all lay their buckets out in the same bufs, and the hot
// paths — an access = one ReadPath + one WriteBackPath, a superblock bin =
// one ReadPaths + one WriteBackPaths — allocate nothing in steady state.
// Everything here is O(stash + bucket union).
type multiScratch struct {
	refs   []BucketRef // bucket union (read order or write order)
	ids    []BlockID   // sorted stash snapshot for deterministic placement
	placed []bool      // per slab slot: written back by the call in flight
	at     []int32     // write order: leaf × level → index of that bucket in refs
	fill   []int       // real blocks placed so far, per union bucket
	leaves []Leaf      // the call's distinct leaves, ascending
	group  []int32     // pathUnion: per leaf, the first leaf sharing its bucket
	split  []int32     // pathUnion: per group and branch, its first leaf
	bufs   [][]Slot    // per-bucket transport buffers, grown on demand
	arena  [][][]byte  // payload backing re-armed into bufs (blockSize > 0)
}

// batchBufs returns n slot buffers with bufs[i] sized to size(i), reusing
// prior capacity. A write-back (blockSize 0) overwrites every slot. For a
// read, every slot's payload is re-armed from a private arena first: stale
// payload pointers from a previous write-back would alias live stash slabs,
// which a store honouring the decrypt-into-capacity contract must never be
// handed, while arena-backed slices let such a store read into recycled
// client memory instead of allocating. Whatever the store leaves behind is
// re-armed before the next read, so nothing the client retains can alias the
// arena — the stash copies on Put. (A geometry without payloads has no slabs
// to alias: its stash holds nil payloads.)
func (m *multiScratch) batchBufs(n, blockSize int, size func(int) int) [][]Slot {
	if cap(m.bufs) < n {
		m.bufs = append(m.bufs[:cap(m.bufs)], make([][]Slot, n-cap(m.bufs))...)
		m.arena = append(m.arena[:cap(m.arena)], make([][][]byte, n-cap(m.arena))...)
	}
	m.bufs = m.bufs[:n]
	m.arena = m.arena[:n]
	for i := 0; i < n; i++ {
		z := size(i)
		if cap(m.bufs[i]) < z {
			m.bufs[i] = make([]Slot, z)
		}
		m.bufs[i] = m.bufs[i][:z]
		if blockSize > 0 {
			// arena[i] only ever grows: one contiguous stripe per growth.
			if have := len(m.arena[i]); have < z {
				stripe := make([]byte, (z-have)*blockSize)
				for ; have < z; have++ {
					m.arena[i] = append(m.arena[i], stripe[:blockSize:blockSize])
					stripe = stripe[blockSize:]
				}
			}
			for j := range m.bufs[i] {
				m.bufs[i][j].Payload = m.arena[i][j]
			}
		}
	}
	return m.bufs
}

// LeafSet is the distinct leaves of one joint fetch in first-seen order: what
// a multi-block access hands to ReadPaths and, after serving, to
// WriteBackPaths. The zero value is ready to use; Reset keeps its capacity,
// so a set owned by a client's scratch allocates nothing in steady state.
type LeafSet struct {
	list []Leaf
	seen map[Leaf]struct{}
}

// Reset empties the set.
func (s *LeafSet) Reset() {
	s.list = s.list[:0]
	clear(s.seen)
}

// Add inserts leaf unless it is already present.
func (s *LeafSet) Add(leaf Leaf) {
	if _, dup := s.seen[leaf]; dup {
		return
	}
	if s.seen == nil {
		s.seen = make(map[Leaf]struct{}, 8)
	}
	s.seen[leaf] = struct{}{}
	s.list = append(s.list, leaf)
}

// Leaves returns the distinct leaves in the order they were first added. The
// slice aliases the set and is valid until the next Reset.
func (s *LeafSet) Leaves() []Leaf { return s.list }

// GatherLeaf adds to set the path a joint fetch must read to bring block id
// into the stash: none when the block is already stashed (reported as hit),
// its position-map leaf otherwise. Every multi-block access — a LAORAM bin, a
// batch of bins, a joint lookup — gathers its fetch set through here, so
// "distinct leaves of the members not already in trusted memory" is defined
// once. An id beyond the position map, or one never placed, is an error.
func (c *Client) GatherLeaf(set *LeafSet, id BlockID) (hit bool, err error) {
	if uint64(id) >= c.pos.Len() {
		return false, fmt.Errorf("oram: block %d out of range (have %d blocks)", id, c.pos.Len())
	}
	if c.stash.Contains(id) {
		return true, nil
	}
	leaf := c.pos.Get(id)
	if leaf == NoLeaf {
		return false, fmt.Errorf("oram: block %d not loaded", id)
	}
	set.Add(leaf)
	return false, nil
}

// pathUnion collects the deduplicated buckets of a set of paths, level by
// level from the root, preserving the leaves' order within a level. This is
// the canonical bucket order of a joint fetch — the order a batch-native
// store is handed and the order the bucket loop issues — so results are
// independent of the transport. The returned slice aliases the client's
// scratch.
//
// Two paths share a bucket at a level only if they shared its parent, so the
// dedup is O(leaves) per level: every leaf carries its group — the first leaf
// that shares its bucket — from the level above, and a group splits into at
// most its left and right branch below.
func (c *Client) pathUnion(leaves []Leaf) []BucketRef {
	g, m := c.geom, &c.multi
	refs := m.refs[:0]
	if len(leaves) == 0 {
		m.refs = refs
		return refs
	}
	n := len(leaves)
	m.group = slices.Grow(m.group[:0], n)[:n]
	m.split = slices.Grow(m.split[:0], 2*n)[:2*n]
	group, split := m.group, m.split
	clear(group) // the root: every leaf in leaf 0's group
	refs = append(refs, BucketRef{Level: 0, Node: 0})
	for lvl := 1; lvl < g.Levels(); lvl++ {
		for i := range split {
			split[i] = -1
		}
		shift := uint(g.LeafBits() - lvl)
		for i, l := range leaves {
			node := uint64(l) >> shift
			k := 2*group[i] + int32(node&1)
			if split[k] < 0 {
				split[k] = int32(i)
				refs = append(refs, BucketRef{Level: lvl, Node: node})
			}
			group[i] = split[k]
		}
	}
	m.refs = refs
	return refs
}

// ReadPaths fetches the union of buckets across several paths in one
// operation, reading each shared bucket exactly once (paths overlap at
// least at the root, and batched fetches of nearby leaves share long
// prefixes). All real blocks land in the stash. This is the paper's
// batch-granularity fetch: "The GPU then issues read request to all the
// paths associated with the embedding entries in the upcoming training
// batch and caches them locally" (§IV-A). The union moves in one ReadBuckets
// call on the store's Face: where the store executes a bucket batch as one
// operation (see BatchNative) that is one pass over a local PayloadStore's
// arena or one network frame on a remote store, and otherwise the bucket
// loop over the same refs.
func (c *Client) ReadPaths(leaves []Leaf) error {
	switch len(leaves) {
	case 0:
		return nil
	case 1:
		return c.ReadPath(leaves[0])
	}
	g := c.geom
	for _, l := range leaves {
		if !g.ValidLeaf(l) {
			return fmt.Errorf("oram: ReadPaths: invalid leaf %d", l)
		}
	}
	// Charged before the fetch, as in ReadPath: a fetch that fails has still
	// cost its round trips.
	c.chargeRequests(len(leaves))
	refs := c.pathUnion(leaves)
	bufs := c.multi.batchBufs(len(refs), g.BlockSize(), func(i int) int { return g.BucketSize(refs[i].Level) })
	if err := c.face.ReadBuckets(refs, bufs); err != nil {
		return fmt.Errorf("oram: ReadPaths: %w", err)
	}
	moved, err := c.ingest(bufs)
	if err != nil {
		return err
	}
	if c.timer != nil && moved > 0 {
		c.timer.OnStashWork(moved)
	}
	return nil
}

// chargeRequests charges the timing model one path request per path of a
// joint operation.
func (c *Client) chargeRequests(paths int) {
	if c.timer != nil {
		for ; paths > 0; paths-- {
			c.timer.OnPathRequest()
		}
	}
}

// WriteBackPaths writes a set of previously read paths back in one joint
// operation. Paths overlap (every path shares at least the root bucket), so
// writing them back one at a time would let a later path's write-back
// clobber blocks the earlier one just placed in a shared bucket. The joint
// plan writes every bucket in the union exactly once, in one WriteBuckets
// call on the store's Face (see ReadPaths).
//
// Superblock clients need this whenever a single logical access fetches
// more than one path: LAORAM bins with cold members (§IV-A) and PrORAM
// dynamic superblocks right after a merge.
//
// Placement is the same greedy rule as WriteBackPath, generalised: levels
// fill deepest first, and each bucket of the union takes, in ascending id,
// the first Z stash blocks that are not placed deeper and whose assigned
// path runs through it. A bucket never prefers a larger id to a smaller one,
// so where a block lands depends on the smaller ids alone — and placing the
// blocks one by one in ascending id, each into the deepest bucket on its
// path that still has room, fills every bucket with the same blocks in the
// same slots. Cost: one O(stash · log stash) snapshot sort, then per block
// one O(log paths) search for the neighbour whose path it shares deepest and
// one array load per level it is turned away at.
func (c *Client) WriteBackPaths(leaves []Leaf) error {
	switch len(leaves) {
	case 0:
		return nil
	case 1:
		return c.WriteBackPath(leaves[0])
	}
	g := c.geom
	for _, l := range leaves {
		if !g.ValidLeaf(l) {
			return fmt.Errorf("oram: WriteBackPaths: invalid leaf %d", l)
		}
	}
	c.chargeRequests(len(leaves))

	// The union of buckets, deepest level first; within a level, ascending
	// by node. NodeAt is monotone in the leaf, so walking the distinct
	// leaves in ascending order yields each level already sorted, with the
	// duplicates (shared prefixes) adjacent. at[p*levels+lvl] is where the
	// level-lvl bucket of the path to sorted[p] sits in the union.
	m := &c.multi
	m.leaves = append(m.leaves[:0], leaves...)
	slices.Sort(m.leaves)
	sorted := slices.Compact(m.leaves)
	levels := g.Levels()
	buckets := m.refs[:0]
	m.at = slices.Grow(m.at[:0], len(sorted)*levels)[:len(sorted)*levels]
	at := m.at
	for lvl := levels - 1; lvl >= 0; lvl-- {
		for p, l := range sorted {
			b := BucketRef{Level: lvl, Node: g.NodeAt(l, lvl)}
			if n := len(buckets); n == 0 || buckets[n-1] != b {
				buckets = append(buckets, b)
			}
			at[p*levels+lvl] = int32(len(buckets) - 1)
		}
	}
	m.refs = buckets

	bufs := m.batchBufs(len(buckets), 0, func(i int) int { return g.BucketSize(buckets[i].Level) })
	m.fill = slices.Grow(m.fill[:0], len(buckets))[:len(buckets)]
	fill := m.fill
	clear(fill)

	// One snapshot of the stash per call, sorted by id; placed marks the slab
	// slots to drop once the write has gone through.
	stash := c.stash
	m.ids = stash.AppendIDs(m.ids[:0])
	slices.Sort(m.ids)
	m.placed = slices.Grow(m.placed[:0], len(m.ids))[:len(m.ids)]
	placed := m.placed
	clear(placed)
	moved := 0
	for _, id := range m.ids {
		slot := stash.slot(id)
		e := &stash.entries[slot]
		p, lvl := deepestShared(g, sorted, e.leaf)
		for path := at[p*levels:]; lvl >= 0; lvl-- {
			k := path[lvl]
			if n := fill[k]; n < len(bufs[k]) {
				bufs[k][n] = Slot{ID: id, Leaf: e.leaf, Payload: e.payload}
				fill[k]++
				placed[slot] = true
				moved++
				break
			}
		}
	}
	for i, buf := range bufs {
		for j := fill[i]; j < len(buf); j++ {
			buf[j] = DummySlot()
		}
	}

	if err := c.face.WriteBuckets(buckets, bufs); err != nil {
		return fmt.Errorf("oram: WriteBackPaths: %w", err)
	}
	c.stash.removeMarked(placed)
	if c.timer != nil && moved > 0 {
		c.timer.OnStashWork(moved)
	}
	return nil
}

// deepestShared returns the deepest level d at which the path to leaf still
// shares a bucket with one of the paths to sorted (ascending, non-empty), and
// which one: down to level d the path to leaf is the path to sorted[p]. The
// longest common prefix with a sorted set is with a neighbour; a leaf on no
// path at all (NoLeaf) gets a negative d.
func deepestShared(g *Geometry, sorted []Leaf, leaf Leaf) (p, d int) {
	k, _ := slices.BinarySearch(sorted, leaf)
	p = min(k, len(sorted)-1)
	d = g.CommonLevel(leaf, sorted[p])
	if p == k && k > 0 {
		if below := g.CommonLevel(leaf, sorted[k-1]); below > d {
			p, d = k-1, below
		}
	}
	return p, d
}
