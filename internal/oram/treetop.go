package oram

import (
	"fmt"
	"io"
)

// Treetop keeps the top of a tree in trusted memory: levels 0 … t−1, with
// t = TreetopLevels(g), live in an unsealed client-side store, and every
// deeper bucket is forwarded to the store it wraps. Every path crosses the
// top, and the fat tree (§V) puts its widest buckets there, so the top half of
// the levels holds a large share of the real rows a path moves while holding
// only 2^t − 1 of the tree's buckets. Under the §III threat model the trainer's
// memory is trusted, so what the wrapped store — the server, the wire, the
// disk arena — sees of an access is levels ≥ t of the same uniformly random
// path: the treetop caching of Phantom (Maas et al., CCS 2013).
//
// A call moves the same buckets as it would through the wrapped store alone: a
// union is split by level, each part keeping its order, and the deeper part
// goes down first, as one union through the wrapped store's resolved Face
// (one frame on a remote store, which may hold it as its write-back). Every
// ref is checked before either part moves, so a union that is wrong anywhere
// changes nothing. Install it under the CountingStore: the counters then still
// tally the logical path traffic the client asked for, which every figure and
// count metric is defined over.
//
// Checkpoints keep their format: Save first sinks the top into the wrapped
// store — one WriteBuckets over every top bucket, a fixed set that depends on
// nothing but the geometry — and then forwards; Load forwards and then lifts
// the top back with one ReadBuckets over the same set. In between, the wrapped
// store's copy of the top is stale and nothing reads it.
//
// Like the stores it wraps, a Treetop serves one client goroutine.
type Treetop struct {
	geom  *Geometry
	t     int  // levels 0 … t−1 live in top
	top   Face // unsealed in-memory store over geom.Prefix(t)
	inner Face // the wrapped store, resolved once

	// Scratch, reused so a call allocates nothing in steady state: the parts
	// of a union that crosses the top's edge more than once — cleared after
	// every call, so no reference to a caller's slots outlives it.
	topRefs, lowRefs []BucketRef
	topBufs, lowBufs [][]Slot
}

var (
	_ Store       = (*Treetop)(nil)
	_ BatchStore  = (*Treetop)(nil)
	_ Snapshotter = (*Treetop)(nil)
	_ TieredStore = (*Treetop)(nil)
)

// TreetopLevels returns how many levels of g a Treetop keeps: ⌊Levels/2⌋. It
// is a layout constant, not a knob. Memory per tree is Σ_{l<t} Z_l·2^l slots
// of one row plus a 16-byte record each: 2^t − 1 buckets, on the order of
// the square root of the leaf count.
func TreetopLevels(g *Geometry) int { return g.Levels() / 2 }

// NewTreetop wraps inner. payloads selects the top's store: a PayloadStore
// when inner keeps rows, a MetaStore when it simulates them (MetadataOnly, or
// a remote tree of block size 0), so the top answers exactly as inner would.
// Inner is assumed to hold an empty tree, as a fresh store does; one that
// holds a tree already is brought in with Load.
func NewTreetop(inner Store, payloads bool) (*Treetop, error) {
	g := inner.Geometry()
	t := TreetopLevels(g)
	var top Store
	if payloads {
		ps, err := NewPayloadStore(g.Prefix(t), nil)
		if err != nil {
			return nil, fmt.Errorf("oram: treetop: %w", err)
		}
		top = ps
	} else {
		top = NewMetaStore(g.Prefix(t))
	}
	return &Treetop{geom: g, t: t, top: Resolve(top), inner: Resolve(inner)}, nil
}

// Geometry implements Store.
func (tt *Treetop) Geometry() *Geometry { return tt.geom }

// at returns the store that holds the buckets of level. An out-of-range level
// goes to the wrapped store, which refuses it.
func (tt *Treetop) at(level int) Store {
	if level >= 0 && level < tt.t {
		return tt.top.Store
	}
	return tt.inner.Store
}

// ReadBucket implements Store.
func (tt *Treetop) ReadBucket(level int, node uint64, dst []Slot) error {
	return tt.at(level).ReadBucket(level, node, dst)
}

// WriteBucket implements Store.
func (tt *Treetop) WriteBucket(level int, node uint64, src []Slot) error {
	return tt.at(level).WriteBucket(level, node, src)
}

// ReadSlot implements Store.
func (tt *Treetop) ReadSlot(level int, node uint64, slot int, dst *Slot) error {
	return ReadSlotVia(tt, level, node, slot, dst)
}

// WriteSlot implements Store.
func (tt *Treetop) WriteSlot(level int, node uint64, slot int, src Slot) error {
	return WriteSlotVia(tt, level, node, slot, src)
}

// ReadBuckets implements BatchStore.
func (tt *Treetop) ReadBuckets(refs []BucketRef, dst [][]Slot) error {
	return tt.union("ReadBuckets", refs, dst, false)
}

// WriteBuckets implements BatchStore.
func (tt *Treetop) WriteBuckets(refs []BucketRef, src [][]Slot) error {
	return tt.union("WriteBuckets", refs, src, true)
}

// union checks a whole bucket union, then moves its part below the top
// through the wrapped store and the rest through the top, each in ref order.
//
// The client's unions are level-ordered — root first for a fetch and for a
// path's write-back, leaves first for a joint write-back — so they cross the
// treetop's edge once and both
// parts are sub-slices of the call's own; any other union is gathered into
// scratch. The check is the one pass that finds the crossing.
func (tt *Treetop) union(op string, refs []BucketRef, bufs [][]Slot, write bool) error {
	if len(refs) != len(bufs) {
		return fmt.Errorf("oram: %s got %d refs, %d buffers", op, len(refs), len(bufs))
	}
	top, cut, runs := 0, 0, 0
	for i, r := range refs {
		if !tt.geom.fits(r, len(bufs[i])) {
			return misfit(tt.geom, op, i, r, len(bufs[i]))
		}
		in := r.Level < tt.t
		if in {
			top++
		}
		if i == 0 || in != (refs[i-1].Level < tt.t) {
			runs, cut = runs+1, i
		}
	}
	switch {
	case top == 0:
		return move(tt.inner, write, refs, bufs)
	case top == len(refs):
		return move(tt.top, write, refs, bufs)
	case runs == 2 && refs[0].Level < tt.t:
		return tt.parts(write, refs[cut:], bufs[cut:], refs[:cut], bufs[:cut])
	case runs == 2:
		return tt.parts(write, refs[:cut], bufs[:cut], refs[cut:], bufs[cut:])
	}
	tt.topRefs, tt.lowRefs = tt.topRefs[:0], tt.lowRefs[:0]
	tt.topBufs, tt.lowBufs = tt.topBufs[:0], tt.lowBufs[:0]
	for i, r := range refs {
		if r.Level < tt.t {
			tt.topRefs, tt.topBufs = append(tt.topRefs, r), append(tt.topBufs, bufs[i])
		} else {
			tt.lowRefs, tt.lowBufs = append(tt.lowRefs, r), append(tt.lowBufs, bufs[i])
		}
	}
	err := tt.parts(write, tt.lowRefs, tt.lowBufs, tt.topRefs, tt.topBufs)
	clear(tt.topBufs)
	clear(tt.lowBufs)
	return err
}

// parts moves a checked union's part below the top, then its top part.
func (tt *Treetop) parts(write bool, lowRefs []BucketRef, lowBufs [][]Slot, topRefs []BucketRef, topBufs [][]Slot) error {
	if err := move(tt.inner, write, lowRefs, lowBufs); err != nil {
		return err
	}
	return move(tt.top, write, topRefs, topBufs)
}

// move is one ReadBuckets or WriteBuckets through f.
func move(f Face, write bool, refs []BucketRef, bufs [][]Slot) error {
	if write {
		return f.WriteBuckets(refs, bufs)
	}
	return f.ReadBuckets(refs, bufs)
}

// Save implements Snapshotter: sink the top into the wrapped store, then
// forward, so the snapshot holds the whole tree in the wrapped store's format.
func (tt *Treetop) Save(w io.Writer) error {
	s, err := snapshotterOf(tt.inner.Store)
	if err != nil {
		return err
	}
	refs, bufs := tt.topSet()
	if err := tt.top.ReadBuckets(refs, bufs); err != nil {
		return err
	}
	if err := tt.inner.WriteBuckets(refs, bufs); err != nil {
		return fmt.Errorf("oram: treetop sink: %w", err)
	}
	return s.Save(w)
}

// Load implements Snapshotter: forward, then lift the top out of the restored
// tree.
func (tt *Treetop) Load(r io.Reader) error {
	s, err := snapshotterOf(tt.inner.Store)
	if err != nil {
		return err
	}
	if err := s.Load(r); err != nil {
		return err
	}
	refs, bufs := tt.topSet()
	if err := tt.inner.ReadBuckets(refs, bufs); err != nil {
		return fmt.Errorf("oram: treetop lift: %w", err)
	}
	return tt.top.WriteBuckets(refs, bufs)
}

// topSet lists every bucket of the top in heap order, with a buffer each: the
// one bucket set sink and lift move.
func (tt *Treetop) topSet() ([]BucketRef, [][]Slot) {
	slots := make([]Slot, tt.top.Geometry().TotalSlots())
	refs := make([]BucketRef, 0, 1<<tt.t-1)
	bufs := make([][]Slot, 0, 1<<tt.t-1)
	for lvl := 0; lvl < tt.t; lvl++ {
		z := tt.geom.BucketSize(lvl)
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			refs = append(refs, BucketRef{Level: lvl, Node: node})
			bufs, slots = append(bufs, slots[:z:z]), slots[z:]
		}
	}
	return refs, bufs
}

// TierStats forwards to the wrapped store (see CountingStore.TierStats).
func (tt *Treetop) TierStats() TierStats { return tierStatsOf(tt.inner.Store) }

// ResetTierStats forwards to the wrapped store.
func (tt *Treetop) ResetTierStats() { resetTierStats(tt.inner.Store) }
