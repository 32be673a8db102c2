package oram

import (
	"fmt"
	"math/bits"
)

// Stash is the client-side buffer for blocks that could not be written back
// into the tree (§II-E). It lives in trusted client memory (the trainer
// GPU's HBM in the paper); its accesses are invisible to the adversary.
// Between a read and its write-back it holds every real block the read met,
// a treetop's included (inplace.go), so it is where a caller finds a fetched
// block.
//
// Layout: a dense slab — entries[:len] are the stashed blocks, in no
// particular order, found through a private open-addressed BlockID → slot
// index — instead of a map of heap-allocated entries. Remove swaps the last
// entry into the hole, and the slots past len keep their payload backing
// buffers, so in steady state the read → stash → write-back cycle recycles
// memory instead of allocating and a walk never visits a vacant slot: Put and
// SetPayload copy the payload into the slot's recycled buffer (the stash owns
// its bytes; callers keep ownership of what they pass in), Adopt takes a
// caller's buffer instead, and Payload returns the live slab slice without
// copying.
//
// The stash tracks its own high-water mark because stash growth is the
// paper's central scalability concern with superblocks (Fig. 8).
type Stash struct {
	entries []stashEntry // live blocks; entries[len:cap] hold recycled buffers
	index   stashIndex
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

// stashIndex maps a stashed BlockID to its slab slot: an open-addressed table
// with linear probing and backward-shift deletion (no tombstones), kept at
// most half full. It is sized by the stash, never by the table — the position
// map already holds the client's one O(N) structure — and a lookup is one
// multiply and, nearly always, one cache line.
type stashIndex struct {
	cells []indexCell // power-of-two length
	shift uint        // 64 − log2(len(cells)): home takes the hash's top bits
}

type indexCell struct {
	id   BlockID
	slot int32 // slab slot + 1; 0 marks a vacant cell
}

const minIndexCells = 64

func (x *stashIndex) home(id BlockID) int {
	return int((uint64(id) * 0x9E3779B97F4A7C15) >> x.shift)
}

// find returns the cell holding id, or the vacant cell that ends its probe
// chain (where an insert of id goes).
func (x *stashIndex) find(id BlockID) (pos int, found bool) {
	mask := len(x.cells) - 1
	for pos = x.home(id); x.cells[pos].slot != 0; pos = (pos + 1) & mask {
		if x.cells[pos].id == id {
			return pos, true
		}
	}
	return pos, false
}

// rebuild re-indexes entries in a fresh table of size cells.
func (x *stashIndex) rebuild(size int, entries []stashEntry) {
	x.init(size)
	for i := range entries {
		x.put(entries[i].id, i)
	}
}

// init empties the table into one of size cells, in the capacity it has
// when that suffices.
func (x *stashIndex) init(size int) {
	if cap(x.cells) >= size {
		x.cells = x.cells[:size]
		clear(x.cells)
	} else {
		x.cells = make([]indexCell, size)
	}
	x.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

// put indexes id, absent, at slot.
func (x *stashIndex) put(id BlockID, slot int) {
	pos, _ := x.find(id)
	x.cells[pos] = indexCell{id: id, slot: int32(slot + 1)}
}

// delete vacates cell pos, shifting back every later cell of the cluster whose
// home lies at or before the hole so that no probe chain is cut.
func (x *stashIndex) delete(pos int) {
	mask := len(x.cells) - 1
	for next := (pos + 1) & mask; x.cells[next].slot != 0; next = (next + 1) & mask {
		if (next-x.home(x.cells[next].id))&mask >= (next-pos)&mask {
			x.cells[pos] = x.cells[next]
			pos = next
		}
	}
	x.cells[pos] = indexCell{}
}

// NewStash returns an empty stash.
func NewStash() *Stash {
	s := &Stash{}
	s.index.rebuild(minIndexCells, nil)
	return s
}

// Len returns the number of blocks currently stashed.
func (s *Stash) Len() int { return len(s.entries) }

// Peak returns the high-water mark of Len over the stash's lifetime.
func (s *Stash) Peak() int { return s.peak }

// ResetPeak sets the high-water mark to the current size.
func (s *Stash) ResetPeak() { s.peak = len(s.entries) }

// RestorePeak sets the high-water mark to a checkpointed value (clamped up
// to the current size, which is a lower bound by definition). Checkpoint
// restore uses this so post-restart stash statistics continue the original
// run's trajectory instead of restarting from the restored occupancy.
func (s *Stash) RestorePeak(p int) { s.peak = max(p, len(s.entries)) }

// slot returns the slab slot of a stashed block, -1 when id is absent.
func (s *Stash) slot(id BlockID) int {
	if pos, ok := s.index.find(id); ok {
		return int(s.index.cells[pos].slot - 1)
	}
	return -1
}

// lookup returns the slab entry of a stashed block, nil when id is absent.
func (s *Stash) lookup(id BlockID) *stashEntry {
	if i := s.slot(id); i >= 0 {
		return &s.entries[i]
	}
	return nil
}

// Contains reports whether id is stashed.
func (s *Stash) Contains(id BlockID) bool {
	_, ok := s.index.find(id)
	return ok
}

// Put inserts or replaces a block, copying payload into stash-owned
// (recycled) storage; the caller keeps ownership of payload. Dummy IDs are
// rejected: dummies are dropped at path-read time, never stashed (§II-C
// step 2).
func (s *Stash) Put(id BlockID, leaf Leaf, payload []byte) error {
	e, err := s.entry(id, leaf)
	if err != nil {
		return err
	}
	e.setPayload(payload)
	return nil
}

// Adopt is Put without the copy: the stash takes payload itself as the
// block's row, and the caller gives it up. A buffer the entry held is
// dropped; a nil payload is stored as Put stores it.
func (s *Stash) Adopt(id BlockID, leaf Leaf, payload []byte) error {
	e, err := s.entry(id, leaf)
	if err != nil {
		return err
	}
	if payload != nil {
		e.buf = payload
	}
	e.payload = payload
	return nil
}

// entry returns id's slab entry with its leaf set, inserting it — into a
// recycled slot, its buffer with it — when id is not stashed yet.
func (s *Stash) entry(id BlockID, leaf Leaf) (*stashEntry, error) {
	if id == DummyID {
		return nil, fmt.Errorf("oram: refusing to stash a dummy block")
	}
	pos, ok := s.index.find(id)
	if ok {
		e := &s.entries[s.index.cells[pos].slot-1]
		e.leaf = leaf
		return e, nil
	}
	n := len(s.entries)
	if 2*(n+1) > len(s.index.cells) {
		s.index.rebuild(2*len(s.index.cells), s.entries)
		pos, _ = s.index.find(id)
	}
	if n < cap(s.entries) {
		s.entries = s.entries[:n+1]
	} else {
		s.entries = append(s.entries, stashEntry{})
	}
	e := &s.entries[n]
	e.id = id
	e.leaf = leaf
	s.index.cells[pos] = indexCell{id: id, slot: int32(n + 1)}
	s.peak = max(s.peak, n+1)
	return e, nil
}

// Leaf returns the assigned leaf of a stashed block.
func (s *Stash) Leaf(id BlockID) (Leaf, bool) {
	if e := s.lookup(id); e != nil {
		return e.leaf, true
	}
	return NoLeaf, false
}

// SetLeaf reassigns the leaf of a stashed block.
func (s *Stash) SetLeaf(id BlockID, leaf Leaf) bool {
	e := s.lookup(id)
	if e != nil {
		e.leaf = leaf
	}
	return e != nil
}

// Payload returns the stored payload of a stashed block. The slice is the
// live slab storage, not a copy: it is valid until the block is removed,
// and mutating it mutates the stash (core's visit passes it to the trainer
// without a copy, so an update may land in place; code returning payloads to
// untrusted callers must copy — see Client.AccessBatch).
func (s *Stash) Payload(id BlockID) ([]byte, bool) {
	if e := s.lookup(id); e != nil {
		return e.payload, true
	}
	return nil, false
}

// SetPayload replaces the payload of a stashed block, copying it into
// stash-owned storage; the caller keeps ownership of payload.
func (s *Stash) SetPayload(id BlockID, payload []byte) bool {
	e := s.lookup(id)
	if e != nil {
		e.setPayload(payload)
	}
	return e != nil
}

// Remove deletes a block from the stash. The slab slot (and its payload
// buffer) is recycled for future inserts.
func (s *Stash) Remove(id BlockID) {
	if pos, ok := s.index.find(id); ok {
		s.removeCell(pos)
	}
}

// removeCell deletes the block index cell pos points at: the last slab entry
// takes its slot, and the vacated entry — buffer kept — becomes the first
// recycled one. Slots below the removed one are not disturbed.
func (s *Stash) removeCell(pos int) {
	i, last := int(s.index.cells[pos].slot-1), len(s.entries)-1
	s.index.delete(pos)
	if i != last {
		s.entries[i], s.entries[last] = s.entries[last], s.entries[i]
		moved, _ := s.index.find(s.entries[i].id)
		s.index.cells[moved].slot = int32(i + 1)
	}
	e := &s.entries[last]
	e.id, e.leaf, e.payload = DummyID, 0, nil
	s.entries = s.entries[:last]
}

// removeMarked removes every block whose slab slot is marked — removed of
// them, the blocks a write-back placed, whose rows it handed out — so their
// entries are recycled without their buffers, which the rows' new owners now
// hold.
// Survivors may change slots; slab order is not observable (Snapshot sorts
// ids and WriteBackPaths orders by rank).
//
// When more blocks leave than stay — a write-back over a treetop places most
// of what its read adopted — the survivors are packed down and the index is
// rebuilt from them, one insert per survivor instead of a delete per leaving
// block. Rebuilding clears at least the smallest table, which costs about as
// much as a few deletes, so a removal that leaves only a few more than stay
// goes the other way: each leaving block's index cell is deleted and each hole
// is filled with the last survivor above it, so only the survivors that move
// are re-indexed.
func (s *Stash) removeMarked(marked []bool, removed int) {
	n := len(s.entries)
	if 2*removed > n+minIndexCells/16 {
		s.pack(marked)
		return
	}
	for i := 0; i < n; i++ {
		if !marked[i] {
			continue
		}
		s.dropMarked(i)
		for n--; n > i && marked[n]; n-- {
			s.dropMarked(n)
		}
		if n > i {
			s.entries[i], s.entries[n] = s.entries[n], s.entries[i]
			pos, _ := s.index.find(s.entries[i].id)
			s.index.cells[pos].slot = int32(i + 1)
		}
	}
	for i := n; i < len(s.entries); i++ {
		e := &s.entries[i]
		e.id, e.leaf, e.payload = DummyID, 0, nil
	}
	s.entries = s.entries[:n]
}

// pack removes the marked blocks by packing the survivors down in slab order
// and indexing them afresh, in a table sized for the stash as it was: the
// next read refills it about as far, and a table left wide by an earlier peak
// is not cleared whole on every call.
func (s *Stash) pack(marked []bool) {
	size := minIndexCells
	for size < 2*len(s.entries) {
		size *= 2
	}
	w := 0
	for i := range s.entries {
		if marked[i] {
			s.entries[i].buf = nil
			continue
		}
		s.entries[w], s.entries[i] = s.entries[i], s.entries[w]
		w++
	}
	s.index.init(size)
	for i := range w {
		s.index.put(s.entries[i].id, i)
	}
	for i := w; i < len(s.entries); i++ {
		e := &s.entries[i]
		e.id, e.leaf, e.payload = DummyID, 0, nil
	}
	s.entries = s.entries[:w]
}

// dropMarked deletes the index cell of the block in slab slot i and lets go
// of the slot's buffer.
func (s *Stash) dropMarked(i int) {
	pos, _ := s.index.find(s.entries[i].id)
	s.index.delete(pos)
	s.entries[i].buf = nil
}

// IDs returns the stashed block IDs in unspecified order.
func (s *Stash) IDs() []BlockID {
	ids := make([]BlockID, len(s.entries))
	for i := range s.entries {
		ids[i] = s.entries[i].id
	}
	return ids
}
