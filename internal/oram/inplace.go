package oram

import (
	"fmt"
	"runtime"
)

// A client over a Treetop places into the top in place. ReadPaths moves only
// the part of a union below the top; the real blocks in its top buckets stay
// where they sit and are held there — found by id, remapped and rewritten in
// place — as candidates of the next WriteBackPaths, which places them by the
// same rule as stashed blocks. The top's slots are then reassigned by handle,
// and only blocks that cross the top's edge touch the stash: a held block
// that finds no room joins it, a stashed block placed into the top leaves it.
// The stash, the tree and the calls below the top are what moving the top
// buckets through the Treetop's Store face would leave, and the CountingStore
// above it is charged for the whole union, so counts do not move.

// heldBlock is a block held in the top: its id, its leaf and its linear
// slot there. Its row is its slot's (Treetop.rows), so holding it moves no
// row and stores no pointer.
type heldBlock struct {
	id   BlockID
	leaf Leaf
	at   int32
}

// treetopOf returns the Treetop a client over st places into in place — st
// itself, or the store a CountingStore over st counts — and that
// CountingStore, or nil, nil.
func treetopOf(st Store) (*Treetop, *CountingStore) {
	cs, _ := st.(*CountingStore)
	if cs != nil {
		st = cs.inner.Store
	}
	if tt, ok := st.(*Treetop); ok {
		return tt, cs
	}
	return nil, nil
}

// topCut returns how many refs lead a level-ordered union before it crosses
// the top's edge: the top part of a root-first union, the part below of a
// deepest-first one.
func (c *Client) topCut(refs []BucketRef) int {
	in := refs[0].Level < c.top.t
	for i, r := range refs {
		if (r.Level < c.top.t) != in {
			return i
		}
	}
	return len(refs)
}

// readInPlace is ReadPaths over the top: the union's part below the top
// moves and is ingested, the real blocks of its top buckets are held where
// they sit, and the whole union is charged. The stash's high-water mark
// counts the held blocks, as it would were they stashed.
func (c *Client) readInPlace(refs []BucketRef) error {
	g, cut := c.geom, c.topCut(refs)
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
	moved += c.hold(refs[:cut])
	c.stash.peak = max(c.stash.peak, c.stash.Len()+len(c.held))
	c.stats.BlocksMoved += uint64(moved)
	return nil
}

// hold takes every real block of the top buckets refs into held, once each,
// and returns how many real slots it met.
func (c *Client) hold(refs []BucketRef) int {
	top, x := &c.top.top, &c.heldIndex
	met := 0
	for _, r := range refs {
		base := top.geom.SlotIndex(r.Level, r.Node, 0)
		n := int(top.live[top.geom.bucketNo(r.Level, r.Node)])
		for k := range n {
			j := base + int64(k)
			id, leaf := top.meta.get(j)
			if id == DummyID {
				continue
			}
			met++
			if 2*(len(c.held)+1) > len(x.cells) {
				x.init(max(minIndexCells, 2*len(x.cells)))
				for i, b := range c.held {
					x.put(b.id, i)
				}
			}
			pos, dup := x.find(id)
			if dup {
				continue
			}
			x.cells[pos] = indexCell{id: id, slot: int32(len(c.held) + 1)}
			c.held = append(c.held, heldBlock{id: id, leaf: leaf, at: int32(j)})
		}
	}
	runtime.KeepAlive(c.top)
	return met
}

// heldAt returns the held block id, nil when the top holds it not.
func (c *Client) heldAt(id BlockID) *heldBlock {
	if len(c.held) == 0 {
		return nil
	}
	if pos, ok := c.heldIndex.find(id); ok {
		return &c.held[c.heldIndex.cells[pos].slot-1]
	}
	return nil
}

// Held reports whether block id is in trusted memory: stashed, or held in a
// top bucket of a union read since the last write-back. Between a joint
// fetch and its write-back this, not Stash().Contains, says a fetched block
// is there to serve.
func (c *Client) Held(id BlockID) bool { return c.stash.Contains(id) || c.heldAt(id) != nil }

// SetLeaf reassigns the leaf of a held block (see Held), as Stash.SetLeaf
// does a stashed one's.
func (c *Client) SetLeaf(id BlockID, leaf Leaf) bool {
	if c.stash.SetLeaf(id, leaf) {
		return true
	}
	b := c.heldAt(id)
	if b != nil {
		b.leaf = leaf
	}
	return b != nil
}

// Payload returns the row of a held block: the live bytes, as Stash.Payload
// returns them.
func (c *Client) Payload(id BlockID) ([]byte, bool) {
	if p, ok := c.stash.Payload(id); ok {
		return p, true
	}
	if b := c.heldAt(id); b != nil {
		return c.top.rows[b.at], true
	}
	return nil, false
}

// SetPayload replaces the row of a held block, copying payload in as
// Stash.SetPayload does.
func (c *Client) SetPayload(id BlockID, payload []byte) bool {
	if c.stash.SetPayload(id, payload) {
		return true
	}
	b := c.heldAt(id)
	if b != nil {
		c.top.rows[b.at] = copyInto(c.top.rows[b.at], payload)
	}
	return b != nil
}

// put writes the block of node n into slot i of buf and marks its candidate
// placed: the stash's slab slot n.slot, or past the stash, a held block.
func (c *Client) put(buf []Slot, i int, n placeNode) {
	if k := int(n.slot) - len(c.stash.entries); k >= 0 {
		b := &c.held[k]
		buf[i] = Slot{ID: b.id, Leaf: b.leaf, Payload: c.top.rows[b.at]}
	} else {
		e := &c.stash.entries[n.slot]
		buf[i] = Slot{ID: e.id, Leaf: e.leaf, Payload: e.payload}
	}
	c.multi.placed[n.slot] = true
}

// writeBackInPlace finishes a write-back over the top: bufs, in the order of
// buckets, hold what first-fit placed, and placed marks the candidates it
// placed (the stash's slab slots, then held). The part below the top goes
// down and the whole union is charged; then the stash drops what it placed
// and takes the held blocks that found no room, the top buckets take their
// blocks by handle, and the rows that went below become spares.
func (c *Client) writeBackInPlace(buckets []BucketRef, bufs [][]Slot) error {
	tt, m := c.top, &c.multi
	cut := c.topCut(buckets)
	topRefs, topBufs, lowRefs, lowBufs := buckets[cut:], bufs[cut:], buckets[:cut], bufs[:cut]
	if buckets[0].Level < tt.t {
		topRefs, topBufs, lowRefs, lowBufs = lowRefs, lowBufs, topRefs, topBufs
	}
	for i := range topBufs {
		if err := tt.rowsFit("WriteBackPaths", i, topBufs[i]); err != nil {
			return err
		}
	}
	if err := tt.below(true, lowRefs, lowBufs); err != nil {
		return fmt.Errorf("oram: WriteBackPaths: %w", err)
	}
	if c.count != nil {
		c.count.charge(false, buckets)
	}

	// The stash drops what it placed and takes the held blocks that found no
	// room, with their rows; then the top buckets are rewritten whole, taking
	// their rows by handle. A held block sits in one of them — the leaves
	// written back are those read — so every slot one left is rewritten.
	stashed := c.stash.Len()
	c.stash.removeMarked(m.placed[:stashed])
	for k, b := range c.held {
		if !m.placed[stashed+k] {
			if err := c.stash.Adopt(b.id, b.leaf, tt.rows[b.at]); err != nil {
				return err
			}
		}
	}
	tt.writeTop(topRefs, topBufs, m)
	c.release()
	m.keepRows(lowBufs)
	return nil
}

// release forgets every held block: a write-back placed them, or a Load or
// LoadState replaced the state they were read from.
func (c *Client) release() {
	if len(c.held) > 0 {
		c.held = c.held[:0]
		clear(c.heldIndex.cells)
	}
}
