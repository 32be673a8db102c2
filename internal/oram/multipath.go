package oram

import (
	"fmt"
	"math/bits"
	"slices"
)

// multiScratch is the client's one set of transfer buffers plus the scratch
// of the joint operations. A client moves one bucket union at a time
// (single-goroutine model), so ReadPaths and WriteBackPaths lay their
// buckets out in the same bufs, and the hot paths — an access or a
// superblock bin, each one ReadPaths + one WriteBackPaths of the same leaves
// — allocate nothing in steady state. Everything here is O(stash + bucket
// union).
type multiScratch struct {
	refs       []BucketRef // bucket union (read order or write order)
	placed     []bool      // per slab slot: written back by the call in flight
	at         []int32     // write order: leaf × level → index of that bucket in refs
	parent     []int32     // write order: per union bucket, its parent's index (-1: root), then its skip pointer
	room       []int32     // write order: per union bucket, its slots still free
	nodes      []placeNode // one per stashed block homed below the root, in rank order once sorted
	spareNodes []placeNode // the radix sort's second buffer
	atRoot     []placeNode // the stashed blocks homed at the root, unsorted
	arrived    []placeNode // the blocks that climbed to the root while it had room
	least      []placeNode // the root's pick of atRoot and arrived, in rank order
	prefix     []int32     // per top-bits prefix, the first sorted leaf at or above it
	leaves     []Leaf      // the call's distinct leaves, ascending
	one        [1]Leaf     // the one-leaf set of a single path (onePath)
	group      []int32     // pathUnion: per leaf, the first leaf sharing its bucket
	split      []int32     // pathUnion: per group and branch, its first leaf
	bufs       [][]Slot    // per-bucket transport buffers, grown on demand
	arena      [][][]byte  // payload backing re-armed into bufs (blockSize > 0)
	spare      [][]byte    // rows write-backs got back, to refill the read arena
}

// batchBufs returns n slot buffers with bufs[i] sized to size(i), reusing
// prior capacity. A write-back (blockSize 0) overwrites every slot. For a
// read, every slot's payload is re-armed from a private arena first: stale
// payload pointers from a previous write-back would alias live stash slabs,
// which a store honouring the decrypt-into-capacity contract must never be
// handed, while arena-backed slices let such a store read into recycled
// client memory instead of allocating. A row the stash adopts leaves the
// arena and a spare row takes its place (ingest), so nothing is held twice.
// (A geometry without payloads has no slabs to alias: its stash holds nil
// payloads.)
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

// keepRows takes every real row of a write-back's bufs into the spare rows.
// Once the store has returned, the client owns what those slots hold — the
// block's own row where the store copied it, a row of the store's where it
// kept the block's (Store.WriteBucket) — and the placed blocks have left the
// stash without their rows (Stash.removeMarked).
func (m *multiScratch) keepRows(bufs [][]Slot) {
	for _, buf := range bufs {
		for i := 0; i < len(buf) && !buf[i].Dummy(); i++ {
			if p := buf[i].Payload; p != nil {
				m.spare = append(m.spare, p)
			}
		}
	}
}

// spareRow hands out a spare row, or a fresh one of n bytes when none is left.
func (m *multiScratch) spareRow(n int) []byte {
	k := len(m.spare) - 1
	if k < 0 {
		return make([]byte, n)
	}
	p := m.spare[k]
	m.spare[k], m.spare = nil, m.spare[:k]
	return p
}

// LeafSet is the distinct leaves of one joint fetch in first-seen order: what
// a multi-block access hands to ReadPaths and, after serving, to
// WriteBackPaths. The zero value is ready to use; Reset keeps its capacity,
// so a set owned by a client's scratch allocates nothing in steady state.
// Add finds a duplicate by scanning the list: the largest set a caller builds
// is a ReadBatch chunk of 32 keys or a step of abl-batch's 64 bins, and a
// LAORAM step reads about nine distinct leaves, where a scan beats a hash.
type LeafSet struct {
	list []Leaf
}

// Reset empties the set.
func (s *LeafSet) Reset() { s.list = s.list[:0] }

// Add inserts leaf unless it is already present.
func (s *LeafSet) Add(leaf Leaf) {
	if !slices.Contains(s.list, leaf) {
		s.list = append(s.list, leaf)
	}
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
// the canonical bucket order of a fetch — the order a store's own
// ReadBuckets is handed and the order the bucket loop issues — so results are
// independent of the transport. The returned slice aliases the client's
// scratch.
//
// Two paths share a bucket at a level only if they shared its parent, so the
// dedup is O(leaves) per level: every leaf carries its group — the first leaf
// that shares its bucket — from the level above, and a group splits into at
// most its left and right branch below. A branch's first leaf is recorded as
// lvl·n + i, so entries left from the levels above read as unset without a
// reset per level, and a single path costs one pass down it like any set.
func (c *Client) pathUnion(leaves []Leaf) []BucketRef {
	g, m := c.geom, &c.multi
	refs := m.refs[:0]
	n := len(leaves)
	if n == 0 {
		m.refs = refs
		return refs
	}
	group := slices.Grow(m.group[:0], n)[:n]
	split := slices.Grow(m.split[:0], 2*n)[:2*n]
	m.group, m.split = group, split
	clear(group) // the root: every leaf in leaf 0's group
	clear(split)
	refs = append(refs, BucketRef{Level: 0, Node: 0})
	bits := g.LeafBits()
	for lvl := 1; lvl <= bits; lvl++ {
		base, shift := int32(lvl*n), uint(bits-lvl)
		for i, l := range leaves {
			node := uint64(l) >> shift
			k := uint(2*group[i]) | uint(node&1)
			first := split[k]
			if first < base {
				first = base + int32(i)
				split[k] = first
				refs = append(refs, BucketRef{Level: lvl, Node: node})
			}
			group[i] = first - base
		}
	}
	m.refs = refs
	return refs
}

// onePath returns leaf as a one-leaf set held in the client's scratch: a
// single path is the joint fetch of one leaf.
func (c *Client) onePath(leaf Leaf) []Leaf {
	c.multi.one[0] = leaf
	return c.multi.one[:]
}

// ReadPaths fetches the union of buckets across a set of paths in one
// operation, reading each shared bucket exactly once (paths overlap at
// least at the root, and batched fetches of nearby leaves share long
// prefixes). All real blocks land in the stash — those of the top buckets by
// handle, where they sit (inplace.go) — and dummies are dropped. This is
// the paper's batch-granularity fetch: "The GPU then issues read request to
// all the paths associated with the embedding entries in the upcoming
// training batch and caches them locally" (§IV-A), and a single path is the
// set of one leaf. The union's part below the top moves in one ReadBuckets
// call on the store's Face: one pass over a local PayloadStore's arena or one
// network frame on a remote store, and the bucket loop over the same refs on
// a bucket-only store. It counts only BlocksMoved: callers decide whether the
// read was a real access or a dummy.
func (c *Client) ReadPaths(leaves []Leaf) error {
	if len(leaves) == 0 {
		return nil
	}
	g := c.geom
	for _, l := range leaves {
		if !g.ValidLeaf(l) {
			return fmt.Errorf("oram: ReadPaths: invalid leaf %d", l)
		}
	}
	refs := c.pathUnion(leaves)
	// The union is root first, so its top buckets lead it.
	cut := 0
	for cut < len(refs) && refs[cut].Level < c.top.t {
		cut++
	}
	low := refs[cut:]
	bufs := c.multi.batchBufs(len(low), g.BlockSize(), func(i int) int { return g.BucketSize(low[i].Level) })
	if err := c.top.below(false, low, bufs); err != nil {
		return fmt.Errorf("oram: ReadPaths: %w", err)
	}
	if c.count != nil {
		c.count.charge(true, refs)
	}
	moved, err := c.ingest(bufs)
	if err != nil {
		return err
	}
	held, err := c.hold(refs[:cut])
	c.stats.BlocksMoved += uint64(moved + held)
	return err
}

// WriteBackPaths writes a set of previously read paths back in one joint
// operation. Paths overlap (every path shares at least the root bucket), so
// writing them back one at a time would let a later path's write-back
// clobber blocks the earlier one just placed in a shared bucket. The joint
// plan writes every bucket in the union exactly once: the part below the top
// in one WriteBuckets call on the store's Face (see ReadPaths), the top
// buckets in place.
//
// Superblock clients need this whenever a single logical access fetches
// more than one path: LAORAM bins with cold members (§IV-A) and PrORAM
// dynamic superblocks right after a merge. A single path — an access, a
// dummy read, WriteBackPath — is the set of one leaf.
//
// The result depends on the set of leaves alone, not on order or
// duplicates. Every stashed block is homed in the deepest union bucket on
// its path, and the blocks go in ascending rank, each into the first bucket
// on its home's way to the root that still has room. Two or more distinct
// leaves rank by id: every block goes, in ascending id, into the deepest
// union bucket on its path that still has room. One distinct leaf ranks by
// (home level, id), the PathORAM reference's per-level rule: at each level
// the blocks homed there first, then the spill from below. The two differ
// only where a bucket overflows, where the path rule lets a homed block beat
// a smaller spilled id. Slots are filled in rank order; a single path's
// buckets go to the store root first, a union's deepest level first.
//
// The pass homes each block once (a lower-bound table over the leaves' top
// bits finds its neighbours), orders the homed blocks by rank in one radix
// sort, and first-fits them: a bucket's parent link doubles as a skip
// pointer, compressed past buckets that have filled, so a block that does
// not fit walks each full bucket of its chain about once per call. Blocks
// homed at the root compete for the root alone, so they skip the sort: the
// root takes the smallest ranks among them and the blocks that reach it.
// Cost: O(1) expected per stashed block plus a radix pass per rank byte in
// use.
func (c *Client) WriteBackPaths(leaves []Leaf) error {
	if len(leaves) == 0 {
		return nil
	}
	g := c.geom
	for _, l := range leaves {
		if !g.ValidLeaf(l) {
			return fmt.Errorf("oram: WriteBackPaths: invalid leaf %d", l)
		}
	}
	m := &c.multi
	m.leaves = append(m.leaves[:0], leaves...)
	slices.Sort(m.leaves)
	m.leaves = slices.Compact(m.leaves)
	sorted := m.leaves
	single := len(sorted) == 1

	// The union of buckets, deepest level first; within a level, ascending
	// by node. NodeAt is monotone in the leaf, so walking the distinct
	// leaves in ascending order yields each level already sorted, with the
	// duplicates (shared prefixes) adjacent. at[p*levels+lvl] is where the
	// level-lvl bucket of the path to sorted[p] sits in the union; a
	// bucket's parent is recorded when the level above is built.
	levels := g.Levels()
	buckets, parent := m.refs[:0], m.parent[:0]
	m.at = slices.Grow(m.at[:0], len(sorted)*levels)[:len(sorted)*levels]
	at := m.at
	for lvl := levels - 1; lvl >= 0; lvl-- {
		for p, l := range sorted {
			b := BucketRef{Level: lvl, Node: g.NodeAt(l, lvl)}
			if n := len(buckets); n == 0 || buckets[n-1] != b {
				buckets = append(buckets, b)
				parent = append(parent, -1)
			}
			k := int32(len(buckets) - 1)
			at[p*levels+lvl] = k
			if lvl+1 < levels {
				parent[at[p*levels+lvl+1]] = k
			}
		}
	}
	m.refs, m.parent = buckets, parent

	// prefix[t] is the first index into sorted whose leaf's top `top` bits
	// are >= t, at most 8 entries per leaf: a block's lower bound in sorted
	// is a search of its own prefix's few leaves.
	top := min(bits.Len(uint(len(sorted)))+2, g.LeafBits())
	shift := uint(g.LeafBits() - top)
	m.prefix = slices.Grow(m.prefix[:0], 1<<top+1)[:1<<top+1]
	prefix := m.prefix
	q := 0
	for t := range prefix {
		for q < len(sorted) && int(sorted[q]>>shift) < t {
			q++
		}
		prefix[t] = int32(q)
	}

	// Home every stashed block, one node each, with its rank and home
	// bucket. A block on no path (NoLeaf) has no home and stays. The root is
	// the union's last bucket, and the blocks homed there compete for it
	// alone: they are set aside unsorted.
	entries := c.stash.entries
	candidates := len(entries)
	root := int32(len(buckets) - 1)
	nodes, atRoot := slices.Grow(m.nodes[:0], candidates), m.atRoot[:0]
	for slot := range entries {
		id, leaf := entries[slot].id, entries[slot].leaf
		if !g.ValidLeaf(leaf) {
			continue
		}
		t := leaf >> shift
		lo, hi := int(prefix[t]), int(prefix[t+1])
		for lo < hi { // lower bound within the prefix's leaves
			if mid := int(uint(lo+hi) >> 1); sorted[mid] < leaf {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		p, d := deepestShared(g, sorted, lo, leaf)
		rank := uint64(id)
		if single {
			rank |= uint64(d) << homeShift
		}
		n := placeNode{rank: rank, slot: int32(slot), home: at[p*levels+d]}
		if n.home == root {
			atRoot = append(atRoot, n)
		} else {
			nodes = append(nodes, n)
		}
	}
	nodes, m.spareNodes = orderByRank(nodes, m.spareNodes)
	m.nodes, m.atRoot = nodes, atRoot

	// First fit in rank order: each block takes the first bucket with room
	// on its home's way to the root; every bucket it walks past is full,
	// so its skip pointer jumps to where this block stopped. The root only
	// records the blocks that reach it while it has room. placed marks the
	// slab slots placed, to drop from the stash once the write has gone
	// through.
	bufs := m.batchBufs(len(buckets), 0, func(i int) int { return g.BucketSize(buckets[i].Level) })
	m.room = slices.Grow(m.room[:0], len(bufs))[:len(bufs)]
	room := m.room
	for k, buf := range bufs {
		room[k] = int32(len(buf))
	}
	m.placed = slices.Grow(m.placed[:0], candidates)[:candidates]
	clear(m.placed)
	arrived := m.arrived[:0]
	for _, n := range nodes {
		k := n.home
		for k >= 0 && room[k] == 0 {
			k = parent[k]
		}
		for j := n.home; j != k; {
			j, parent[j] = parent[j], k
		}
		switch {
		case k == root:
			arrived = append(arrived, n)
			room[k]--
		case k >= 0:
			buf := bufs[k]
			c.put(buf, len(buf)-int(room[k]), n)
			room[k]--
		}
	}
	m.arrived = arrived

	// The root takes the smallest ranks among the blocks homed there and
	// the blocks that reached it.
	rootBuf := bufs[root]
	m.least = leastByRank(arrived, leastByRank(atRoot, m.least[:0], len(rootBuf)), len(rootBuf))
	for i, n := range m.least {
		c.put(rootBuf, i, n)
	}
	room[root] = int32(len(rootBuf) - len(m.least))
	moved := 0
	for k, buf := range bufs {
		moved += len(buf) - int(room[k])
		for i := len(buf) - int(room[k]); i < len(buf); i++ {
			buf[i] = DummySlot()
		}
	}

	// The union is deepest first, so its top buckets trail it. The part
	// below the top goes down and the whole union is charged; then the
	// stash drops what was placed, the top buckets take their blocks' rows
	// by handle, and the rows that went below become spares. A block adopted
	// from the top sits in one of its buckets — the leaves written back are
	// those read — so every top slot a placed block left is rewritten, and a
	// block that stays keeps its row alone.
	cut := len(buckets)
	for cut > 0 && buckets[cut-1].Level < c.top.t {
		cut--
	}
	lowRefs, lowBufs, topRefs, topBufs := buckets[:cut], bufs[:cut], buckets[cut:], bufs[cut:]
	if single {
		// A single path goes down root first, the order ReadPaths fetched it in.
		slices.Reverse(lowRefs)
		slices.Reverse(lowBufs)
	}
	for i := range topBufs {
		if err := c.top.rowsFit("WriteBackPaths", cut+i, topBufs[i]); err != nil {
			return err
		}
	}
	if err := c.top.below(true, lowRefs, lowBufs); err != nil {
		return fmt.Errorf("oram: WriteBackPaths: %w", err)
	}
	if c.count != nil {
		c.count.charge(false, buckets)
	}
	c.stash.removeMarked(m.placed, moved)
	c.top.writeTop(topRefs, topBufs, m)
	m.keepRows(lowBufs)
	c.stats.BlocksMoved += uint64(moved)
	return nil
}

// put writes the stashed block of node n into slot i of buf and marks its
// slab slot placed.
func (c *Client) put(buf []Slot, i int, n placeNode) {
	e := &c.stash.entries[n.slot]
	buf[i] = Slot{ID: e.id, Leaf: e.leaf, Payload: e.payload}
	c.multi.placed[n.slot] = true
}

// leastByRank returns the k nodes of smallest rank among nodes and least
// (at most k, in rank order), in least's backing: one pass over nodes, each
// compared with the largest kept so far.
func leastByRank(nodes, least []placeNode, k int) []placeNode {
	for _, x := range nodes {
		if len(least) == k && (k == 0 || x.rank >= least[k-1].rank) {
			continue
		}
		if len(least) < k {
			least = append(least, x)
		}
		j := len(least) - 1
		for ; j > 0 && least[j-1].rank > x.rank; j-- {
			least[j] = least[j-1]
		}
		least[j] = x
	}
	return least
}

// placeNode is one homed candidate of WriteBackPaths.
type placeNode struct {
	rank uint64 // the block's id, under its home level on a single path
	slot int32  // the block's slab slot
	home int32  // the union bucket of the deepest level on its path
}

// homeShift puts a block's home level (≤ 31: LeafBits is capped by the
// position map) above its id in a single path's rank. Ids stay below 2^58:
// the flat position map holds an entry per block.
const homeShift = 58

// deepestShared returns the deepest level d at which the path to leaf still
// shares a bucket with one of the paths to sorted (ascending, non-empty), and
// which one: down to level d the path to leaf is the path to sorted[p]. k is
// leaf's lower bound in sorted; the longest common prefix with a sorted set
// is with a neighbour.
func deepestShared(g *Geometry, sorted []Leaf, k int, leaf Leaf) (p, d int) {
	p = min(k, len(sorted)-1)
	d = g.CommonLevel(leaf, sorted[p])
	if p == k && k > 0 {
		if below := g.CommonLevel(leaf, sorted[k-1]); below > d {
			p, d = k-1, below
		}
	}
	return p, d
}

// radixMin is the fewest nodes orderByRank radix-sorts: below it, where a
// pass's 256 counters would outweigh the nodes, it sorts by insertion
// (leastByRank of all of them).
const radixMin = 64

// orderByRank sorts nodes by rank (ranks are distinct), using spare as the
// second buffer of an LSD radix sort that runs one pass per byte in which
// the ranks differ. It returns the sorted nodes and the other buffer, either
// of which may be the one passed in as nodes.
func orderByRank(nodes, spare []placeNode) (sorted, rest []placeNode) {
	n := len(nodes)
	if n < radixMin {
		return leastByRank(nodes, spare[:0], n), nodes
	}
	or, and := uint64(0), ^uint64(0)
	for _, x := range nodes {
		or |= x.rank
		and &= x.rank
	}
	src, dst := nodes, slices.Grow(spare[:0], n)[:n]
	var count [256]int32
	for shift := uint(0); shift < 64; shift += 8 {
		if (or^and)>>shift&0xff == 0 {
			continue
		}
		clear(count[:])
		for _, x := range src {
			count[x.rank>>shift&0xff]++
		}
		sum := int32(0)
		for i, c := range count {
			count[i], sum = sum, sum+c
		}
		for _, x := range src {
			d := x.rank >> shift & 0xff
			dst[count[d]] = x
			count[d]++
		}
		src, dst = dst, src
	}
	return src, dst
}
