package oram

import (
	"fmt"
	"runtime"
)

// rowStore is the Treetop's store when rows are kept: the records and live
// bounds of a tree, as MetaStore keeps them, and one Go-heap row buffer per
// slot. It is trusted memory, so a row moves through it by handle. A write
// takes each real src row's slice and puts the slot's previous buffer back in
// its place, so the caller owns exactly what its src slots hold afterwards
// (the Store.WriteBucket contract), and a slot that turns dummy keeps its
// buffer as it is: a dummy's row is never read. A read copies a real row into
// the capacity its dst slot arrives with, so reads stay non-destructive.
//
// The buffers are heap slices, never slab views: they migrate into the
// client's stash and back, so they must outlive any one store.
type rowStore struct {
	tree
	rows [][]byte // one block-size row per slot, by linear slot index
}

var (
	_ Store      = (*rowStore)(nil)
	_ BatchStore = (*rowStore)(nil)
)

// newRowStore allocates a row store with every slot a dummy.
func newRowStore(g *Geometry) (*rowStore, error) {
	sl, err := newSlab(treeBytes(g))
	if err != nil {
		return nil, err
	}
	rows := make([][]byte, g.TotalSlots())
	for i := range rows {
		rows[i] = make([]byte, g.BlockSize())
	}
	return &rowStore{tree: newTree(g, sl, 0), rows: rows}, nil
}

// Geometry implements Store.
func (st *rowStore) Geometry() *Geometry { return st.geom }

// ReadBuckets implements BatchStore: the records below each bucket's live
// bound, every real row copied out.
func (st *rowStore) ReadBuckets(refs []BucketRef, dst [][]Slot) error {
	if err := st.checkRange("ReadBuckets", refs, dst); err != nil {
		return err
	}
	for i, r := range refs {
		buf := dst[i]
		base, n := st.readSpan(r, buf)
		for k := range buf[:n] {
			s := &buf[k]
			s.ID, s.Leaf = st.meta.get(base + int64(k))
			if s.ID == DummyID {
				s.Payload = nil
			} else {
				s.Payload = copyInto(s.Payload, st.rows[base+int64(k)])
			}
		}
	}
	runtime.KeepAlive(st)
	return nil
}

// WriteBuckets implements BatchStore: every bucket through its live bound or
// src's last non-fresh slot, whichever is further, each real row swapped in.
// A real slot's row is nil (the zero row) or exactly a block; the union is
// checked before anything moves, so a refused call keeps no row of src's.
func (st *rowStore) WriteBuckets(refs []BucketRef, src [][]Slot) error {
	if err := st.checkRange("WriteBuckets", refs, src); err != nil {
		return err
	}
	bs := st.geom.BlockSize()
	for i := range src {
		for k, s := range src[i] {
			if s.Payload != nil && len(s.Payload) != bs && !s.Dummy() {
				return fmt.Errorf("oram: WriteBuckets buffer %d slot %d: payload len %d != block size %d", i, k, len(s.Payload), bs)
			}
		}
	}
	for i, r := range refs {
		buf := src[i]
		n := liveLen(buf)
		b, base, w := st.writeSpan(r, n)
		for k := range buf[:w] {
			s, j := &buf[k], base+int64(k)
			st.meta.set(j, s.ID, s.Leaf)
			switch {
			case s.ID == DummyID:
			case s.Payload == nil:
				clear(st.rows[j])
			default:
				st.rows[j], s.Payload = s.Payload, st.rows[j]
			}
		}
		st.live[b] = uint8(n)
	}
	runtime.KeepAlive(st)
	return nil
}

// ReadBucket implements Store.
func (st *rowStore) ReadBucket(level int, node uint64, dst []Slot) error {
	return st.ReadBuckets([]BucketRef{{Level: level, Node: node}}, [][]Slot{dst})
}

// WriteBucket implements Store.
func (st *rowStore) WriteBucket(level int, node uint64, src []Slot) error {
	return st.WriteBuckets([]BucketRef{{Level: level, Node: node}}, [][]Slot{src})
}

// ReadSlot implements Store.
func (st *rowStore) ReadSlot(level int, node uint64, slot int, dst *Slot) error {
	return ReadSlotVia(st, level, node, slot, dst)
}

// WriteSlot implements Store.
func (st *rowStore) WriteSlot(level int, node uint64, slot int, src Slot) error {
	return WriteSlotVia(st, level, node, slot, src)
}
