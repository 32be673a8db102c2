package oram

import "runtime"

// tree is the slab-resident index both in-memory stores keep: one (id, leaf)
// record per slot and one live bound per bucket.
//
// PathORAM moves whole buckets, and the fat tree (§V) widens the upper ones,
// so most slots on a path are dummies nobody will ever read back. A bucket's
// live bound, live[b] for its heap index b, is one past its last slot whose
// record is not the fresh (DummyID, 0). Invariant: every slot at or past the
// bound holds that fresh record over a zero row. So a read loads the records
// below the bound and answers DummySlot() for the rest, which is what their
// records would read as, and a write stores no further than the bound or its
// own last non-fresh slot, whichever is further. A dummy whose leaf is not 0
// is not fresh: it is stored and read back like a real record.
//
// The bounds are not part of any snapshot: Load rebuilds them from the
// records (rebound), so every restore path — a checkpoint, a migration, a
// treetop lift — leaves them exact.
type tree struct {
	geom *Geometry
	// slab owns the memory meta and live view (and a PayloadStore's arena);
	// keeping it here keeps the views valid (see slab's aliasing rule).
	slab *slab
	meta records // one (id, leaf) record per linear slot
	live []uint8 // one bound per bucket, in heap order (Geometry.bucketNo)
}

// treeBytes is the slab bytes a tree over g takes: its records, then a byte
// per bucket.
func treeBytes(g *Geometry) int64 {
	return g.TotalSlots()*recordSize + g.TotalBuckets()
}

// newTree lays a tree over the treeBytes(g) bytes of sl at off: every record
// the fresh dummy, every bound 0 (a fresh slab is zeroed).
func newTree(g *Geometry, sl *slab, off int64) tree {
	end := off + g.TotalSlots()*recordSize
	t := tree{
		geom: g,
		slab: sl,
		meta: records(sl.b[off:end:end]),
		live: sl.b[end : end+g.TotalBuckets() : end+g.TotalBuckets()],
	}
	t.meta.clearAll()
	return t
}

// fresh reports whether (id, leaf) is the record every slot past a bucket's
// live bound holds (one comparison, so the loops below need no branch on it).
func fresh(id BlockID, leaf Leaf) bool { return uint64(id^DummyID)|uint64(leaf) == 0 }

// liveLen returns the live bound src leaves once written: one past its last
// slot that is not fresh. It visits every slot, a fixed trip the branch
// predictor learns per level, rather than stopping at a data-dependent one.
func liveLen(src []Slot) int {
	n := 0
	for i := range src {
		if !fresh(src[i].ID, src[i].Leaf) {
			n = i + 1
		}
	}
	return n
}

// readSpan locates bucket r for a read into dst: its first slot's linear index
// and its live bound n. Every slot of dst from n on is set to DummySlot()
// here, without loading its record; the caller reads slots [0, n).
func (t *tree) readSpan(r BucketRef, dst []Slot) (base int64, n int) {
	n = int(t.live[t.geom.bucketNo(r.Level, r.Node)])
	runtime.KeepAlive(t)
	for i := n; i < len(dst); i++ {
		dst[i] = DummySlot()
	}
	return t.geom.SlotIndex(r.Level, r.Node, 0), n
}

// writeSpan locates bucket r for a write that leaves it the live bound n =
// liveLen(src): its heap index b, its first slot's linear index, and the slots
// w the write must store — through src's last non-fresh slot or the old bound,
// whichever is further, so a real left in the old tail is overwritten too. The
// bound is widened to w here, so a write cut short leaves no record past it;
// the caller sets live[b] = n once all w slots are stored, and keeps the store
// alive past that.
func (t *tree) writeSpan(r BucketRef, n int) (b, base int64, w int) {
	b = t.geom.bucketNo(r.Level, r.Node)
	w = max(n, int(t.live[b]))
	t.live[b] = uint8(w)
	return b, t.geom.SlotIndex(r.Level, r.Node, 0), w
}

// rebound recomputes bucket (level, node)'s live bound from its records: after
// a single-slot write, and for every bucket after a Load.
func (t *tree) rebound(level int, node uint64) {
	base := t.geom.SlotIndex(level, node, 0)
	n := t.geom.BucketSize(level)
	for n > 0 && fresh(t.meta.get(base+int64(n-1))) {
		n--
	}
	t.live[t.geom.bucketNo(level, node)] = uint8(n)
	runtime.KeepAlive(t)
}

// reboundAll rebuilds every bucket's live bound from the records.
func (t *tree) reboundAll() {
	for lvl := range t.geom.Levels() {
		for node := range uint64(1) << uint(lvl) {
			t.rebound(lvl, node)
		}
	}
}
