package oram

import "fmt"

// loadUnionBytes bounds the bucket union Load builds before it hands it to the
// store: slot records plus copied rows. A quarter megabyte is about a thousand
// DLRM rows or sixty XLM-R rows: a remote shard's table leaves in a few dozen
// frames, and the union, its frame and the server's copy of it — all garbage
// once the table is in — stay a few per cent of a small table's footprint (at
// 1 MiB they added 17 % to lookup-remote's peak RSS, at no gain in set-up time).
const loadUnionBytes = 1 << 18

// loadGroup is the spacing, in buckets, of the counting sort's start offsets:
// half a byte per bucket instead of eight, for a few additions per block.
const loadGroup = 16

// A placement packs what pass 1 decided for one block: its leaf (< 2^40), the
// slot it took in its bucket (< 256) and that bucket's level (stashedLevel: no
// bucket on its path had room).
const (
	placeSlotShift  = 48
	placeLevelShift = 56
	placeLeafMask   = 1<<placeSlotShift - 1
	stashedLevel    = 0xff
)

// slotRecordBytes is what one Slot of a union costs besides its row.
const slotRecordBytes = 40

// Load bulk-initialises the ORAM with blocks 0..n-1, assigning each block
// the leaf returned by leafOf, or a uniform one drawn here where leafOf is
// nil or returns NoLeaf (only such a leaf is lendable), and the payload
// returned by payload (nil payloads suit metadata-only stores). payload is
// called exactly once per block, in no particular order, so it must depend on
// the id only; the bytes it returns are copied before the next call.
//
// This models the setup phase: in the paper's deployment the client streams
// the (encrypted) embedding table into the tree once before training; setup
// traffic is not part of any measured experiment, so Load writes buckets
// directly instead of performing O(N) full accesses. The tree must be empty:
// Load is called once, before any access, and overwrites whole buckets.
// Callers should reset store counters and client stats afterwards.
//
// Placement is greedy from the leaf up, exactly the invariant the ORAM
// maintains at run time: a block with leaf l may live in any bucket on the
// path to l; within a bucket blocks sit in ascending id order, dummies behind
// them. Blocks that find no free slot on their whole path stay in the stash
// (rare when leaves >= n and leaf buckets hold Z >= 2).
//
// Load makes two passes. The first walks the ids in ascending order and
// decides every block's leaf and bucket without touching the store, so a
// Load that fails validation (n too large, an invalid leafOf result) has
// written nothing. The second walks the non-empty buckets in heap order and
// writes each one whole, in unions of about loadUnionBytes through the store's
// batch face: the store sees one WriteBuckets per union — one frame on a
// remote store — not one WriteSlot per block. Transient memory is 16 bytes
// per loaded block, a byte and a half per bucket and one union, whatever the
// row size and however many slots the tree has.
func (c *Client) Load(n uint64, leafOf func(BlockID) Leaf, payload func(BlockID) []byte) error {
	if n > c.pos.Len() {
		return fmt.Errorf("oram: Load of %d blocks exceeds configured %d", n, c.pos.Len())
	}
	g := c.geom
	maxZ := 0
	for lvl := 0; lvl < g.Levels(); lvl++ {
		maxZ = max(maxZ, g.BucketSize(lvl))
	}

	// Pass 1: placement. fill[b] counts the blocks bucket b (in heap order)
	// holds so far, which is also the slot the next one takes; a byte
	// suffices, as the geometry admits no bucket wider than maxBucketSize.
	fill := make([]uint8, g.TotalBuckets())
	place := make([]uint64, n)
	var placed uint64
	for i := range place {
		id := BlockID(i)
		leaf := NoLeaf
		if leafOf != nil {
			leaf = leafOf(id)
		}
		if leaf == NoLeaf {
			leaf = c.RandomLeaf()
			c.pos.SetDrawn(id, leaf)
		} else if g.ValidLeaf(leaf) {
			c.pos.Set(id, leaf)
		} else {
			return fmt.Errorf("oram: Load: leafOf(%d) = %d invalid", id, leaf)
		}
		level := uint64(stashedLevel)
		var slot uint8
		for lvl := g.Levels() - 1; lvl >= 0; lvl-- {
			b := g.bucketNo(lvl, g.NodeAt(leaf, lvl))
			if int(fill[b]) < g.BucketSize(lvl) {
				level, slot = uint64(lvl), fill[b]
				fill[b]++
				placed++
				break
			}
		}
		place[i] = uint64(leaf) | uint64(slot)<<placeSlotShift | level<<placeLevelShift
		if level == stashedLevel {
			var data []byte
			if payload != nil {
				data = payload(id)
			}
			if err := c.stash.Put(id, leaf, data); err != nil {
				return err
			}
		}
	}

	// Counting sort by bucket: order lists the placed ids bucket by bucket in
	// heap order, ascending within a bucket. A block's rank is the blocks in
	// the buckets before its own — the group's start plus the fill counters
	// between the group's first bucket and it — plus its slot.
	starts := make([]uint64, len(fill)/loadGroup+1)
	var run uint64
	for b, f := range fill {
		if b%loadGroup == 0 {
			starts[b/loadGroup] = run
		}
		run += uint64(f)
	}
	order := make([]uint64, placed)
	for i, p := range place {
		lvl := int(p >> placeLevelShift)
		if lvl == stashedLevel {
			continue
		}
		b := g.bucketNo(lvl, g.NodeAt(Leaf(p&placeLeafMask), lvl))
		at := starts[b/loadGroup] + (p>>placeSlotShift)&0xff
		for _, f := range fill[b&^(loadGroup-1) : b] {
			at += uint64(f)
		}
		order[at] = uint64(i)
	}

	// Pass 2: build the non-empty buckets in heap order, real slots then
	// dummies, and write them a union at a time. The buffers are sized for a
	// union, or for the whole table where that is smaller, and reused.
	small := int(min(placed, loadUnionBytes)) // blocks; more never share a union
	rowBytes := 0
	if payload != nil {
		rowBytes = g.BlockSize()
	}
	var (
		refs  []BucketRef
		bufs  [][]Slot
		slots = make([]Slot, 0, min(loadUnionBytes/slotRecordBytes+maxZ, small*maxZ))
		// Never nil, so that an empty row is not taken for a nil one.
		rows = make([]byte, 0, min(loadUnionBytes+maxZ*rowBytes, small*rowBytes))
	)
	flush := func() error {
		if len(refs) == 0 {
			return nil
		}
		if err := c.face.WriteBuckets(refs, bufs); err != nil {
			return fmt.Errorf("oram: Load: %w", err)
		}
		refs, bufs, slots, rows = refs[:0], bufs[:0], slots[:0], rows[:0]
		return nil
	}
	for lvl := 0; lvl < g.Levels(); lvl++ {
		z := g.BucketSize(lvl)
		for node, f := range fill[g.bucketNo(lvl, 0):g.bucketNo(lvl+1, 0)] {
			cnt := int(f)
			if cnt == 0 {
				continue
			}
			first := len(slots)
			for _, i := range order[:cnt] {
				s := Slot{ID: BlockID(i), Leaf: Leaf(place[i] & placeLeafMask)}
				if payload != nil {
					// Copied, so payload may return the same buffer every
					// call; a regrown rows leaves earlier slots on the old
					// one. A nil row stays nil: the store's zero row.
					if data := payload(s.ID); data != nil {
						at := len(rows)
						rows = append(rows, data...)
						s.Payload = rows[at:len(rows):len(rows)]
					}
				}
				slots = append(slots, s)
			}
			order = order[cnt:]
			for k := cnt; k < z; k++ {
				slots = append(slots, DummySlot())
			}
			refs = append(refs, BucketRef{Level: lvl, Node: uint64(node)})
			bufs = append(bufs, slots[first:])
			if len(slots)*slotRecordBytes+len(rows) >= loadUnionBytes {
				if err := flush(); err != nil {
					return err
				}
			}
		}
	}
	return flush()
}
