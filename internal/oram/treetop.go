package oram

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
)

// ErrIntegrity is in the chain of every error a verifying Treetop returns for
// a bucket that does not read back as this client last wrote it.
var ErrIntegrity = errors.New("oram: integrity check failed")

// Treetop keeps the top of a tree in trusted memory: levels 0 … t−1, with
// t = TreetopLevels(g), live in client memory — a record per slot, as
// MetaStore keeps them, and a row per real slot where rows are kept — and
// every deeper bucket is forwarded to the store it wraps. Every path crosses
// the top, and the fat tree (§V) puts its widest buckets there. Under the
// §III threat model the trainer's memory is trusted, so what the wrapped
// store — the server, the wire, the disk arena — sees of an access is levels
// ≥ t of the same uniformly random path: the treetop caching of Phantom
// (Maas et al., CCS 2013).
//
// A client over a Treetop, or a CountingStore over one, places into the top
// in place (inplace.go). As a Store the Treetop copies rows in and out of the
// top, and moves the same buckets as the wrapped store alone would: a union
// is split by level, each part keeping its order, and the deeper part goes
// down first, as one union through the wrapped store's resolved Face (one
// frame on a remote store, which may hold it as its write-back). Every ref is
// checked before either part moves, so a union that is wrong anywhere
// changes nothing. Install it under the CountingStore: the counters then
// still tally the logical path traffic the client asked for.
//
// Checkpoints keep their format: Save first sinks the top into the wrapped
// store — one WriteBuckets over every top bucket, a fixed set that depends on
// nothing but the geometry — and then forwards; Load forwards and then lifts
// the top back with one ReadBuckets over the same set. In between, the wrapped
// store's copy of the top is stale and nothing reads it.
//
// Verification (Options.Verify) sits at the same edge: the trusted side keeps
// one SHA-256 per bucket below the top, indexed by its (level, node), of what
// this client last wrote there. Every write through the wrapped store records
// the digest of what went down; every read checks what came back and fails
// with ErrIntegrity on a mismatch, so a forged, replayed or relocated bucket
// is caught when it is read. It costs one hash per bucket moved below the top
// and 32 bytes of client memory per such bucket, and moves nothing extra. The
// digests are client state outside the snapshot format.
//
// Like the stores it wraps, a Treetop serves one client goroutine.
type Treetop struct {
	geom  *Geometry
	t     int  // levels 0 … t−1 live in top
	top   tree // the records and live bounds of geom.Prefix(t)
	inner Face // the wrapped store, resolved once
	// rows holds, per top slot, the row of the real block there, nil for a
	// dummy or where keep is off (the top then keeps records alone, as a
	// MetaStore does). A client placing in place moves these rows by handle,
	// so a slot's row is held by no one else but, between a read and its
	// write-back, the stash entry of the block in the slot.
	rows [][]byte
	keep bool

	// Under verification: sums holds one digest per bucket below the top, in
	// heap order from (t, 0); row is how many bytes of a real slot's row are
	// hashed (the block size, or 0 where no rows are kept); rec is scratch for
	// the record one bucket hashes as. Nil sums: off.
	sums [][sha256.Size]byte
	row  int
	rec  []byte

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

// NewTreetop wraps inner. payloads keeps a row per real top slot, when inner
// keeps rows; without, the top keeps records alone, as a MetaStore does
// (MetadataOnly, or a remote tree of block size 0), so the top answers
// exactly as inner would.
// Inner is assumed to hold an empty tree, as a fresh store does; one that
// holds a tree already is brought in with Load. With verify, a bucket inner
// holds that no empty bucket hashes as fails its first read.
func NewTreetop(inner Store, payloads, verify bool) (*Treetop, error) {
	g := inner.Geometry()
	t := TreetopLevels(g)
	p := g.Prefix(t)
	sl, err := newSlab(treeBytes(p))
	if err != nil {
		return nil, fmt.Errorf("oram: treetop: %w", err)
	}
	tt := &Treetop{geom: g, t: t, top: newTree(p, sl, 0), inner: Resolve(inner), rows: make([][]byte, p.TotalSlots()), keep: payloads}
	if verify {
		tt.initSums(payloads)
	}
	return tt, nil
}

// initSums starts every digest below the top at its level's empty bucket.
func (tt *Treetop) initSums(rows bool) {
	g := tt.geom
	if rows {
		tt.row = g.BlockSize()
	}
	z := 0
	for lvl := tt.t; lvl < g.Levels(); lvl++ {
		z = max(z, g.BucketSize(lvl))
	}
	tt.rec = make([]byte, z*(16+tt.row))
	tt.sums = make([][sha256.Size]byte, 1<<g.Levels()-1<<tt.t)
	empty := make([]Slot, z)
	for k := range empty {
		empty[k] = DummySlot()
	}
	for lvl, i := tt.t, 0; lvl < g.Levels(); lvl++ {
		sum := tt.digest(empty[:g.BucketSize(lvl)])
		for range 1 << lvl {
			tt.sums[i] = sum
			i++
		}
	}
}

// digest hashes a bucket as the wrapped store returns it: a dummy as its id
// alone, a real slot as its id, its leaf and — where rows are kept — its row
// zero-padded to the block size.
func (tt *Treetop) digest(b []Slot) [sha256.Size]byte {
	rec := tt.rec[:0]
	for k := range b {
		rec = binary.LittleEndian.AppendUint64(rec, uint64(b[k].ID))
		if b[k].Dummy() {
			continue
		}
		rec = binary.LittleEndian.AppendUint64(rec, uint64(b[k].Leaf))
		row := rec[len(rec) : len(rec)+tt.row]
		clear(row[copy(row, b[k].Payload):])
		rec = rec[:len(rec)+tt.row]
	}
	return sha256.Sum256(rec)
}

// check records, after a write below the top, the digest of what went down,
// and checks, after a read, what came back. It is a no-op without Verify.
func (tt *Treetop) check(write bool, r BucketRef, b []Slot) error {
	if tt.sums == nil {
		return nil
	}
	i := 1<<r.Level - 1<<tt.t + int(r.Node)
	sum := tt.digest(b)
	if write {
		tt.sums[i] = sum
	} else if sum != tt.sums[i] {
		return fmt.Errorf("%w: bucket (%d,%d) is not what this client last wrote there", ErrIntegrity, r.Level, r.Node)
	}
	return nil
}

// Geometry implements Store.
func (tt *Treetop) Geometry() *Geometry { return tt.geom }

// ReadBucket implements Store.
func (tt *Treetop) ReadBucket(level int, node uint64, dst []Slot) error {
	return tt.ReadBuckets([]BucketRef{{Level: level, Node: node}}, [][]Slot{dst})
}

// WriteBucket implements Store.
func (tt *Treetop) WriteBucket(level int, node uint64, src []Slot) error {
	return tt.WriteBuckets([]BucketRef{{Level: level, Node: node}}, [][]Slot{src})
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
// through the wrapped store and the rest through the top, each part gathered
// into scratch in ref order.
func (tt *Treetop) union(op string, refs []BucketRef, bufs [][]Slot, write bool) error {
	if len(refs) != len(bufs) {
		return fmt.Errorf("oram: %s got %d refs, %d buffers", op, len(refs), len(bufs))
	}
	for i, r := range refs {
		if !tt.geom.fits(r, len(bufs[i])) {
			return misfit(tt.geom, op, i, r, len(bufs[i]))
		}
		if write && r.Level < tt.t {
			if err := tt.rowsFit(op, i, bufs[i]); err != nil {
				return err
			}
		}
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
	var err error
	if len(tt.lowRefs) > 0 {
		err = tt.below(write, tt.lowRefs, tt.lowBufs)
	}
	if err == nil {
		tt.moveTop(write, tt.topRefs, tt.topBufs)
	}
	clear(tt.topBufs)
	clear(tt.lowBufs)
	return err
}

// below moves a checked union's part below the top through the wrapped store
// and checks every bucket of it.
func (tt *Treetop) below(write bool, refs []BucketRef, bufs [][]Slot) error {
	if err := move(tt.inner, write, refs, bufs); err != nil || tt.sums == nil {
		return err
	}
	for i, r := range refs {
		if err := tt.check(write, r, bufs[i]); err != nil {
			return err
		}
	}
	return nil
}

// move is one ReadBuckets or WriteBuckets through f.
func move(f Face, write bool, refs []BucketRef, bufs [][]Slot) error {
	if write {
		return f.WriteBuckets(refs, bufs)
	}
	return f.ReadBuckets(refs, bufs)
}

// rowsFit refuses a top bucket b, the union's buffer i, whose real rows the
// top cannot keep: a kept row is nil (the zero row) or exactly a block.
func (tt *Treetop) rowsFit(op string, i int, b []Slot) error {
	if !tt.keep {
		return nil
	}
	bs := tt.geom.BlockSize()
	for k := range b {
		if p := b[k].Payload; p != nil && len(p) != bs && !b[k].Dummy() {
			return fmt.Errorf("oram: %s buffer %d slot %d: payload len %d != block size %d", op, i, k, len(p), bs)
		}
	}
	return nil
}

// moveTop reads or writes checked top buckets: the records below each live
// bound as MetaStore keeps them, every real row copied out into the capacity
// its dst slot arrives with, or into the slot's own row. A dummy's row is
// never read, so a slot that turns dummy keeps its buffer.
func (tt *Treetop) moveTop(write bool, refs []BucketRef, bufs [][]Slot) {
	if write {
		tt.writeTop(refs, bufs, nil)
		return
	}
	for i, r := range refs {
		buf := bufs[i]
		base, n := tt.top.readSpan(r, buf)
		for k := range buf[:n] {
			s, j := &buf[k], base+int64(k)
			s.ID, s.Leaf = tt.top.meta.get(j)
			p := s.Payload
			s.Payload = nil
			if s.ID != DummyID && tt.keep {
				s.Payload = copyInto(p, tt.rows[j])
			}
		}
	}
	runtime.KeepAlive(tt)
}

// writeTop stores top buckets: the records, and each real slot's row copied
// into the slot's own (a nil row is the zero row), or with spare — a client
// placing in place — the row itself, spare giving a zero row for a nil one,
// and a slot that turns dummy letting go of its row.
func (tt *Treetop) writeTop(refs []BucketRef, src [][]Slot, spare *multiScratch) {
	bs := tt.geom.BlockSize()
	for i, r := range refs {
		buf := src[i]
		n := liveLen(buf)
		b, base, w := tt.top.writeSpan(r, n)
		for k := range buf[:w] {
			s, j := &buf[k], base+int64(k)
			tt.top.meta.set(j, s.ID, s.Leaf)
			switch {
			case !tt.keep || s.Dummy() && spare != nil:
				tt.rows[j] = nil
			case s.Dummy():
			case spare != nil && s.Payload != nil:
				tt.rows[j] = s.Payload
			case spare != nil:
				tt.rows[j] = spare.spareRow(bs)
				clear(tt.rows[j])
			default:
				if tt.rows[j] == nil {
					tt.rows[j] = make([]byte, bs)
				}
				clear(tt.rows[j][copy(tt.rows[j], s.Payload):])
			}
		}
		tt.top.live[b] = uint8(n)
	}
	runtime.KeepAlive(tt)
}

// Save implements Snapshotter: sink the top into the wrapped store, then
// forward, so the snapshot holds the whole tree in the wrapped store's format.
func (tt *Treetop) Save(w io.Writer) error {
	s, err := snapshotterOf(tt.inner.Store)
	if err != nil {
		return err
	}
	refs, bufs := tt.topSet()
	tt.moveTop(false, refs, bufs)
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
	tt.moveTop(true, refs, bufs)
	return nil
}

// topSet lists every bucket of the top in heap order, with a buffer each: the
// one bucket set sink and lift move.
func (tt *Treetop) topSet() ([]BucketRef, [][]Slot) {
	slots := make([]Slot, tt.top.geom.TotalSlots())
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
