package oram

import (
	"fmt"
	"slices"
)

// Stash is the client-side buffer for blocks that could not be written back
// into the tree (§II-E). It lives in trusted client memory (the trainer
// GPU's HBM in the paper); its accesses are invisible to the adversary.
//
// Layout: a slab — one flat entry array indexed by a BlockID → slot map —
// instead of a map of heap-allocated entries. Freed slots go on a free
// list and keep their payload backing buffers, so in steady state the
// read → stash → write-back cycle recycles memory instead of allocating:
// Put and SetPayload copy the payload into the slot's recycled buffer (the
// stash owns its bytes; callers keep ownership of what they pass in), and
// Payload returns the live slab slice without copying.
//
// The stash tracks its own high-water mark because stash growth is the
// paper's central scalability concern with superblocks (Fig. 8).
type Stash struct {
	entries []stashEntry
	free    []int32 // indices of vacant slab slots
	index   map[BlockID]int32
	peak    int
}

type stashEntry struct {
	id      BlockID
	leaf    Leaf
	payload []byte // nil, or buf[:n] — nil-ness is observable (metadata-only stores)
	buf     []byte // recycled backing storage; survives Remove
}

// setPayload copies p into the entry's recycled buffer (or records nil).
// Self-aliasing is fine: p may be the entry's own live payload slice.
func (e *stashEntry) setPayload(p []byte) {
	if p == nil {
		e.payload = nil
		return
	}
	if cap(e.buf) < len(p) {
		e.buf = make([]byte, len(p))
	}
	b := e.buf[:len(p)]
	copy(b, p)
	e.payload = b
}

// NewStash returns an empty stash.
func NewStash() *Stash {
	return &Stash{index: make(map[BlockID]int32)}
}

// Len returns the number of blocks currently stashed.
func (s *Stash) Len() int { return len(s.index) }

// Peak returns the high-water mark of Len over the stash's lifetime.
func (s *Stash) Peak() int { return s.peak }

// ResetPeak sets the high-water mark to the current size.
func (s *Stash) ResetPeak() { s.peak = len(s.index) }

// RestorePeak sets the high-water mark to a checkpointed value (clamped up
// to the current size, which is a lower bound by definition). Checkpoint
// restore uses this so post-restart stash statistics continue the original
// run's trajectory instead of restarting from the restored occupancy.
func (s *Stash) RestorePeak(p int) {
	if p < len(s.index) {
		p = len(s.index)
	}
	s.peak = p
}

// Contains reports whether id is stashed.
func (s *Stash) Contains(id BlockID) bool {
	_, ok := s.index[id]
	return ok
}

// Put inserts or replaces a block, copying payload into stash-owned
// (recycled) storage; the caller keeps ownership of payload. Dummy IDs are
// rejected: dummies are dropped at path-read time, never stashed (§II-C
// step 2).
func (s *Stash) Put(id BlockID, leaf Leaf, payload []byte) error {
	if id == DummyID {
		return fmt.Errorf("oram: refusing to stash a dummy block")
	}
	if i, ok := s.index[id]; ok {
		e := &s.entries[i]
		e.leaf = leaf
		e.setPayload(payload)
		return nil
	}
	var i int32
	if n := len(s.free); n > 0 {
		i = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.entries = append(s.entries, stashEntry{})
		i = int32(len(s.entries) - 1)
	}
	e := &s.entries[i]
	e.id = id
	e.leaf = leaf
	e.setPayload(payload)
	s.index[id] = i
	if len(s.index) > s.peak {
		s.peak = len(s.index)
	}
	return nil
}

// Leaf returns the assigned leaf of a stashed block.
func (s *Stash) Leaf(id BlockID) (Leaf, bool) {
	i, ok := s.index[id]
	if !ok {
		return NoLeaf, false
	}
	return s.entries[i].leaf, true
}

// SetLeaf reassigns the leaf of a stashed block.
func (s *Stash) SetLeaf(id BlockID, leaf Leaf) bool {
	i, ok := s.index[id]
	if !ok {
		return false
	}
	s.entries[i].leaf = leaf
	return true
}

// Payload returns the stored payload of a stashed block. The slice is the
// live slab storage, not a copy: it is valid until the block is removed,
// and mutating it mutates the stash (Client.Update relies on this; code
// returning payloads to untrusted callers must copy — see
// Client.serveFromStash).
func (s *Stash) Payload(id BlockID) ([]byte, bool) {
	i, ok := s.index[id]
	if !ok {
		return nil, false
	}
	return s.entries[i].payload, true
}

// SetPayload replaces the payload of a stashed block, copying it into
// stash-owned storage; the caller keeps ownership of payload.
func (s *Stash) SetPayload(id BlockID, payload []byte) bool {
	i, ok := s.index[id]
	if !ok {
		return false
	}
	s.entries[i].setPayload(payload)
	return true
}

// Remove deletes a block from the stash. The slab slot (and its payload
// buffer) is recycled for future inserts.
func (s *Stash) Remove(id BlockID) {
	i, ok := s.index[id]
	if !ok {
		return
	}
	delete(s.index, id)
	e := &s.entries[i]
	e.id = DummyID
	e.leaf = 0
	e.payload = nil
	s.free = append(s.free, i)
}

// ForEach calls fn for every stashed block, in unspecified order. fn must
// not mutate the stash.
func (s *Stash) ForEach(fn func(id BlockID, leaf Leaf)) {
	for id, i := range s.index {
		fn(id, s.entries[i].leaf)
	}
}

// IDs returns the stashed block IDs in unspecified order.
func (s *Stash) IDs() []BlockID {
	return s.AppendIDs(make([]BlockID, 0, len(s.index)))
}

// AppendIDs appends the stashed block IDs (unspecified order) to dst and
// returns the extended slice — the allocation-free form of IDs. It walks
// the slab rather than ranging the index.
func (s *Stash) AppendIDs(dst []BlockID) []BlockID {
	for i := range s.entries {
		if id := s.entries[i].id; id != DummyID {
			dst = append(dst, id)
		}
	}
	return dst
}

// evictPlanner holds the scratch state of the greedy write-back planner so
// a client can plan every eviction without allocating: the per-level
// candidate lists, the output plan and the spill list all keep their
// capacity across calls.
type evictPlanner struct {
	byDeepest [][]BlockID
	plan      [][]BlockID
	spill     []BlockID
}

func (ep *evictPlanner) reset(levels int) {
	if len(ep.byDeepest) != levels {
		ep.byDeepest = make([][]BlockID, levels)
		ep.plan = make([][]BlockID, levels)
	}
	for i := range ep.byDeepest {
		ep.byDeepest[i] = ep.byDeepest[i][:0]
		ep.plan[i] = nil
	}
	ep.spill = ep.spill[:0]
}

// evictPlanInto computes the greedy write-back for one path: which stashed
// blocks go into which level of the path to target. A stashed block with
// assigned leaf b can be placed at any level <= CommonLevel(target, b); the
// greedy policy (identical to the PathORAM reference implementation)
// places blocks as deep as possible, letting unplaced candidates spill
// toward the root.
//
// perLevel[lvl] lists the block IDs to write into the path bucket at lvl;
// each listed block must then be removed from the stash by the caller once
// written. Capacity respects the geometry's per-level bucket size, which is
// exactly where the fat-tree (§V) earns its keep: wider buckets near the
// root absorb the spill that a uniform tree would bounce back into the
// stash.
//
// The returned plan aliases ep's scratch and is valid until the next call
// with the same planner. Zero allocations in steady state.
func (s *Stash) evictPlanInto(ep *evictPlanner, g *Geometry, target Leaf) [][]BlockID {
	L := g.LeafBits()
	ep.reset(L + 1)
	for i := range s.entries {
		e := &s.entries[i]
		if e.id == DummyID {
			continue // vacant slab slot
		}
		d := g.CommonLevel(target, e.leaf)
		ep.byDeepest[d] = append(ep.byDeepest[d], e.id)
	}
	// Slab order depends on slot-recycling history; sort so placement is a
	// function of the stash contents alone.
	for _, ids := range ep.byDeepest {
		slices.Sort(ids)
	}
	for lvl := L; lvl >= 0; lvl-- {
		cand := ep.byDeepest[lvl]
		if len(ep.spill) > 0 {
			// Grow through the scratch slot so the capacity is kept.
			ep.byDeepest[lvl] = append(ep.byDeepest[lvl], ep.spill...)
			cand = ep.byDeepest[lvl]
			ep.spill = ep.spill[:0]
		}
		z := g.BucketSize(lvl)
		if len(cand) <= z {
			ep.plan[lvl] = cand
			continue
		}
		ep.plan[lvl] = cand[:z]
		ep.spill = append(ep.spill, cand[z:]...)
	}
	// Whatever is left in spill stays in the stash.
	return ep.plan
}
