package oram

import "runtime"

// A client over a Treetop places into the top in place. ReadPaths moves only
// the part of a union below the top; the real blocks of its top buckets join
// the stash where they sit — each one's row is its top slot's row, taken by
// handle, not copied — so the next WriteBackPaths places every block in
// trusted memory by one rule. The top's slots are then reassigned by handle,
// and a row crosses a store only where its block crosses the top's edge.
// Between a read and its write-back a block's row is held by its stash entry
// and its own top slot; the write-back rewrites every slot of the union's top
// buckets, so afterwards no row has two owners. The stash, the tree and the
// calls below the top are what moving the top buckets through the Treetop's
// Store face would leave, and the CountingStore above it is charged for the
// whole union, so counts do not move.
//
// A client over any other store has an empty top: no level lies above its
// edge, so nothing is adopted or rewritten and the whole union moves below it,
// through the client's face, which counts it.

// treetopOf returns the Treetop a client over st places into in place — st
// itself, or the store a CountingStore over st counts — and that
// CountingStore; for any other st, an empty top over face and nil.
func treetopOf(st Store, face Face) (*Treetop, *CountingStore) {
	cs, _ := st.(*CountingStore)
	if cs != nil {
		st = cs.inner.Store
	}
	if tt, ok := st.(*Treetop); ok {
		return tt, cs
	}
	return &Treetop{geom: face.Geometry(), inner: face}, nil
}

// hold adopts every real block of the top buckets refs into the stash, its
// row its top slot's row, and returns how many it adopted.
func (c *Client) hold(refs []BucketRef) (int, error) {
	tt := c.top
	top := &tt.top
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
			if err := c.stash.Adopt(id, leaf, tt.rows[j]); err != nil {
				return met, err
			}
			met++
		}
	}
	runtime.KeepAlive(tt)
	return met, nil
}
