package oram

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/crypto"
)

// Store is the server-storage abstraction: the paper's server_storage
// component, i.e. the CPU DRAM holding the ORAM tree. Every address sent to
// a Store is considered visible to the adversary; obliviousness is the
// client's job, not the store's.
//
// Bucket granularity (rather than whole-path granularity) is exposed so
// that the fat-tree, the RingORAM variant (which takes its one slot per
// bucket out of a bucket it has read) and the remote TCP server can all
// share one interface.
//
// Implementations must be safe for use by a single client goroutine;
// concurrent use requires external synchronisation except where noted.
type Store interface {
	// Geometry returns the tree shape this store was built for.
	Geometry() *Geometry

	// ReadBucket reads all slots of the bucket (level, node) into dst,
	// which must have length BucketSize(level). Payloads do not alias
	// server storage (or are nil for metadata-only stores); a store MAY
	// read/decrypt a payload into the capacity of the dst slot's existing
	// Payload slice instead of allocating, so callers that retain payload
	// bytes beyond the next read of the same buffer must copy them or take
	// the buffer (the client's stash adopts it and re-arms the read).
	ReadBucket(level int, node uint64, dst []Slot) error

	// WriteBucket overwrites all slots of the bucket (level, node) from
	// src, which must have length BucketSize(level). A store copies (or
	// seals) the payloads into its own storage: the caller keeps src.
	WriteBucket(level int, node uint64, src []Slot) error

	// ReadSlot and WriteSlot move one slot of a bucket. No product code
	// calls them: they stay only because benchmark/spanstore.go forwards
	// them, and every store implements them as ReadSlotVia and
	// WriteSlotVia. WriteSlot is a read-modify-write of the whole bucket,
	// so each bucket must have one writer.
	ReadSlot(level int, node uint64, slot int, dst *Slot) error
	WriteSlot(level int, node uint64, slot int, src Slot) error
}

// ReadSlotVia reads one slot of bucket (level, node) out of a whole-bucket
// read of st, its payload into the capacity dst arrives with.
func ReadSlotVia(st Store, level int, node uint64, slot int, dst *Slot) error {
	bucket, err := slotBucket(st.Geometry(), level, node, slot)
	if err != nil {
		return err
	}
	bucket[slot].Payload = dst.Payload
	if err := st.ReadBucket(level, node, bucket); err != nil {
		return err
	}
	*dst = bucket[slot]
	return nil
}

// WriteSlotVia overwrites one slot of bucket (level, node) by reading the
// bucket from st and writing it back with the slot replaced. A concurrent
// write to another slot of the same bucket can be lost.
func WriteSlotVia(st Store, level int, node uint64, slot int, src Slot) error {
	bucket, err := slotBucket(st.Geometry(), level, node, slot)
	if err != nil {
		return err
	}
	if err := st.ReadBucket(level, node, bucket); err != nil {
		return err
	}
	row := bucket[slot].Payload
	bucket[slot] = src
	if src.Payload != nil {
		// A copy, as st may keep the row it is handed (WriteBucket).
		bucket[slot].Payload = append(row[:0], src.Payload...)
	}
	return st.WriteBucket(level, node, bucket)
}

// slotBucket returns a buffer for bucket (level, node) once slot is known to
// be one of its slots.
func slotBucket(g *Geometry, level int, node uint64, slot int) ([]Slot, error) {
	if err := bucketRange(g, level, node); err != nil {
		return nil, err
	}
	z := g.BucketSize(level)
	if slot < 0 || slot >= z {
		return nil, fmt.Errorf("oram: slot %d out of range for a bucket of %d", slot, z)
	}
	return make([]Slot, z), nil
}

// BucketRef names one bucket of the tree for batched operations.
type BucketRef struct {
	Level int
	Node  uint64
}

// PathStore is the path-granularity form of a transfer: a whole root→leaf
// path, dst/src indexed by level, each entry of length BucketSize(level).
// PayloadStore, diskstore.Store and remote.ShardStore still implement it, but
// no product code calls it: the client moves a path as the one-leaf bucket
// union through its Face. It stays only because benchmark/spanstore.go
// forwards it.
type PathStore interface {
	// ReadPath reads every bucket on the path to leaf into dst.
	ReadPath(leaf Leaf, dst [][]Slot) error
	// WritePath overwrites every bucket on the path to leaf from src.
	WritePath(leaf Leaf, src [][]Slot) error
}

// BatchStore is an optional Store extension: execute several bucket
// operations in one server round trip. The client moves every path and every
// deduplicated bucket union of a training batch (§IV-A) through it, so a union
// moves in one frame on a remote store and in one pass over a local arena.
type BatchStore interface {
	// ReadBuckets reads refs[i] into dst[i] (len BucketSize(refs[i].Level)).
	ReadBuckets(refs []BucketRef, dst [][]Slot) error
	// WriteBuckets overwrites refs[i] from src[i].
	WriteBuckets(refs []BucketRef, src [][]Slot) error
}

// BatchNative reports whether a store executes a bucket union as one
// operation. PayloadStore and diskstore.Store still answer it, but nothing in
// the product asks: Resolve hands out any store's own BatchStore. It
// stays only because benchmark/spanstore.go forwards it.
type BatchNative interface {
	BatchNative() bool
}

// Face is a store seen at batch granularity: every Store has one. The
// BatchStore half is the store's own ReadBuckets/WriteBuckets where it has
// them, and otherwise the bucket-by-bucket loop — the same
// ReadBucket/WriteBucket sequence, in ref order, that a caller without the
// extension would have issued itself. A path is the one-leaf union: its
// buckets, root first.
//
// Client, CountingStore, Treetop and the remote server (per shard) resolve a
// store's Face once, at construction, and move every bucket union through
// it; nothing outside Resolve asks a store what it implements.
type Face struct {
	Store
	BatchStore
}

// Resolve returns st's Face. This is the only place the optional BatchStore
// extension is probed.
func Resolve(st Store) Face {
	if bs, ok := st.(BatchStore); ok {
		return Face{st, bs}
	}
	return Face{st, bucketLoop{st}}
}

// bucketLoop is the batch face of a bucket-only store: the one place a bucket
// union is unrolled into bucket calls. The store validates each bucket as it
// comes, so a call that fails midway has moved the buckets before the failing
// one.
type bucketLoop struct{ Store }

func (l bucketLoop) ReadBuckets(refs []BucketRef, dst [][]Slot) error {
	if len(refs) != len(dst) {
		return fmt.Errorf("oram: ReadBuckets got %d refs, %d buffers", len(refs), len(dst))
	}
	for i, r := range refs {
		if err := l.ReadBucket(r.Level, r.Node, dst[i]); err != nil {
			return err
		}
	}
	return nil
}

func (l bucketLoop) WriteBuckets(refs []BucketRef, src [][]Slot) error {
	if len(refs) != len(src) {
		return fmt.Errorf("oram: WriteBuckets got %d refs, %d buffers", len(refs), len(src))
	}
	for i, r := range refs {
		if err := l.WriteBucket(r.Level, r.Node, src[i]); err != nil {
			return err
		}
	}
	return nil
}

// bucketRange validates bucket coordinates against g.
func bucketRange(g *Geometry, level int, node uint64) error {
	if level < 0 || level >= g.Levels() {
		return fmt.Errorf("oram: level %d out of range [0,%d)", level, g.Levels())
	}
	if node >= 1<<uint(level) {
		return fmt.Errorf("oram: node %d out of range at level %d", node, level)
	}
	return nil
}

// MetaStore is a metadata-only server storage: it records, for every slot,
// only the block ID and assigned leaf (16 bytes/slot, plus a live bound per
// bucket, in a slab off the Go heap; see slab and tree) and simulates the
// payload. This is what makes the paper's full-scale configurations (8M–16M
// entries, multi-GB trees) runnable on a laptop: the traffic, stash and
// eviction behaviour is identical to a payload-bearing store because client
// decisions never depend on payload bytes.
type MetaStore struct {
	tree
}

var _ Store = (*MetaStore)(nil)

// NewMetaStore allocates a metadata-only store with every slot a dummy. Like
// make, it panics when the memory cannot be had.
func NewMetaStore(g *Geometry) *MetaStore {
	sl, err := newSlab(treeBytes(g))
	if err != nil {
		panic(err)
	}
	return &MetaStore{newTree(g, sl, 0)}
}

// Geometry implements Store.
func (st *MetaStore) Geometry() *Geometry { return st.geom }

// ReadBucket implements Store: the records below the bucket's live bound.
func (st *MetaStore) ReadBucket(level int, node uint64, dst []Slot) error {
	r := BucketRef{Level: level, Node: node}
	if !st.geom.fits(r, len(dst)) {
		return misfit(st.geom, "ReadBucket", 0, r, len(dst))
	}
	base, n := st.readSpan(r, dst)
	for i := range dst[:n] {
		dst[i].ID, dst[i].Leaf = st.meta.get(base + int64(i))
		dst[i].Payload = nil
	}
	runtime.KeepAlive(st)
	return nil
}

// WriteBucket implements Store: src's records up to the bucket's live bound
// or src's last non-fresh slot, whichever is further.
func (st *MetaStore) WriteBucket(level int, node uint64, src []Slot) error {
	r := BucketRef{Level: level, Node: node}
	if !st.geom.fits(r, len(src)) {
		return misfit(st.geom, "WriteBucket", 0, r, len(src))
	}
	n := liveLen(src)
	b, base, w := st.writeSpan(r, n)
	for i := range src[:w] {
		st.meta.set(base+int64(i), src[i].ID, src[i].Leaf)
	}
	st.live[b] = uint8(n)
	runtime.KeepAlive(st)
	return nil
}

// ReadSlot implements Store.
func (st *MetaStore) ReadSlot(level int, node uint64, slot int, dst *Slot) error {
	return ReadSlotVia(st, level, node, slot, dst)
}

// WriteSlot implements Store.
func (st *MetaStore) WriteSlot(level int, node uint64, slot int, src Slot) error {
	return WriteSlotVia(st, level, node, slot, src)
}

// Sealer transforms slot payloads at the storage boundary, in place: a store
// seals straight into its arena and opens straight into the caller's read
// buffer, so the hot path makes no slice per slot. The crypto package provides
// the AES-GCM implementation. (The parallel fast path below is specific to
// crypto.Sealer's nonce-reservation discipline, so PayloadStore imports crypto
// for it; any Sealer still works serially.)
type Sealer interface {
	// SealedSize returns the on-server size of a sealed payload of the
	// given plaintext size.
	SealedSize(plain int) int
	// SealTo encrypts plain (exactly the configured block size) into dst
	// (len SealedSize(len(plain))).
	SealTo(dst, plain []byte) error
	// OpenTo authenticates and decrypts sealed into dst
	// (len(sealed) - overhead bytes).
	OpenTo(dst, sealed []byte) error
}

// SlotCodec is the one rule for what a real slot's payload looks like at
// rest — a slot's raw bytes in PayloadStore's arena or a diskstore record are
// the block itself, or its sealed form when a Sealer is installed. What a
// dummy's bytes look like is each store's own rule (both keep them zero).
type SlotCodec struct {
	sealer Sealer
	// seq is sealer as the concrete type whose reserved sequence numbers
	// make a fan-out deterministic; set only by PayloadStore.SetCryptoPool.
	seq *crypto.Sealer
	// zero is the row sealed for a real block handed over with a nil
	// payload ("zero-filled row", e.g. bulk loads that only place blocks).
	zero []byte
}

// NewSlotCodec returns the at-rest rule for blockSize-byte blocks; a nil
// sealer stores them in the clear.
func NewSlotCodec(blockSize int, sealer Sealer) SlotCodec {
	return SlotCodec{sealer: sealer, zero: make([]byte, blockSize)}
}

// Stride returns the at-rest bytes per slot.
func (c *SlotCodec) Stride() int {
	if c.sealer != nil {
		return c.sealer.SealedSize(len(c.zero))
	}
	return len(c.zero)
}

// Open decodes a real slot's raw bytes into dst.Payload: into the capacity of
// the slice dst arrives with when that is big enough (the ReadBucket
// contract), into a fresh one otherwise.
func (c *SlotCodec) Open(raw []byte, dst *Slot) error {
	out := dst.Payload[:0]
	if bs := len(c.zero); cap(out) >= bs {
		out = out[:bs]
	} else {
		out = make([]byte, bs)
	}
	dst.Payload = out
	if c.sealer == nil {
		copy(out, raw)
		return nil
	}
	return c.sealer.OpenTo(out, raw)
}

// Seal encodes a real slot's payload into its raw bytes. A nil payload is the
// zero row; any other length than the block size is an error. The slot is
// sealed under the sealer's next sequence number, or — on a fan-out that
// reserved one per real slot up front — under *seq, which is then advanced.
func (c *SlotCodec) Seal(raw, payload []byte, seq *uint64) error {
	if payload == nil {
		payload = c.zero
	}
	if len(payload) != len(c.zero) {
		return fmt.Errorf("payload len %d != block size %d", len(payload), len(c.zero))
	}
	switch {
	case c.sealer == nil:
		copy(raw, payload)
	case seq != nil:
		if err := c.seq.SealSeqTo(raw, payload, *seq); err != nil {
			return err
		}
		*seq++
	default:
		return c.sealer.SealTo(raw, payload)
	}
	return nil
}

// PayloadStore is a payload-bearing in-memory server storage. Slot metadata
// (ID, leaf) and a live bound per bucket (see tree) are kept alongside a byte
// arena holding fixed-size payloads, all in one slab (off the Go heap; see
// slab). A bucket's records are one contiguous run, in the order and the
// format Save writes. With a Sealer installed the arena holds ciphertext and
// payloads are sealed/opened at the Read/Write boundary, mimicking a client
// that only ever hands ciphertext to the untrusted server.
type PayloadStore struct {
	tree
	// arena holds stride bytes per slot. Invariant: a slot whose record is a
	// dummy has stride zero bytes. A fresh slab establishes it, writeSlotAt
	// preserves it (a real→dummy write zeroes the slot, so no stale row or
	// ciphertext stays at rest) and Save/Load carry it — which is what lets a
	// dummy→dummy write, most of every eviction, skip the bytes. The slots
	// past a bucket's live bound are such dummies, so neither a read nor a
	// write touches their records or rows.
	arena  []byte
	stride int       // bytes per slot in the arena
	codec  SlotCodec // a real slot's bytes at rest; holds the sealer

	// pool, when installed via SetCryptoPool with more than one worker,
	// fans the seal/open work of a bucket union across its workers, all
	// through the store's one sealer (codec.seq is that sealer as the
	// concrete type whose reservations make the fan-out deterministic); nil
	// pool keeps every union strictly serial.
	pool *crypto.Pool
	// sealOrd[i] is the scratch prefix count of real (nonce-consuming)
	// slots in buckets [0, i) of the current WriteBuckets; pathRefs is the
	// reusable path→bucket-refs conversion of ReadPath/WritePath.
	sealOrd  []int
	pathRefs []BucketRef
}

var _ Store = (*PayloadStore)(nil)

// maxTree bounds a PayloadStore's slab: metadata plus arena.
const maxTree = int64(8) << 30

// NewPayloadStore allocates a payload-bearing store with every slot a dummy.
// If sealer is non-nil all payloads are stored sealed.
func NewPayloadStore(g *Geometry, sealer Sealer) (*PayloadStore, error) {
	if g.BlockSize() <= 0 {
		return nil, fmt.Errorf("oram: PayloadStore requires BlockSize > 0, got %d", g.BlockSize())
	}
	codec := NewSlotCodec(g.BlockSize(), sealer)
	stride := codec.Stride()
	n := g.TotalSlots()
	// The arena opens the slab, so rows start page-aligned; the records
	// and then the bounds follow on a cache-line boundary.
	arenaLen := n * int64(stride)
	metaOff := (arenaLen + 63) &^ 63
	total := metaOff + treeBytes(g)
	if total > maxTree {
		return nil, fmt.Errorf("oram: PayloadStore would need %d bytes (%d of metadata, %d of arena; > %d); use MetaStore for paper-scale sweeps",
			total, treeBytes(g), arenaLen, maxTree)
	}
	sl, err := newSlab(total)
	if err != nil {
		return nil, err
	}
	return &PayloadStore{
		tree:   newTree(g, sl, metaOff),
		arena:  sl.b[:arenaLen:arenaLen],
		stride: stride,
		codec:  codec,
	}, nil
}

// Geometry implements Store.
func (st *PayloadStore) Geometry() *Geometry { return st.geom }

func (st *PayloadStore) slotBytes(i int64) []byte {
	return st.arena[i*int64(st.stride) : (i+1)*int64(st.stride)]
}

func (st *PayloadStore) readSlotAt(i int64, dst *Slot) error {
	dst.ID, dst.Leaf = st.meta.get(i)
	if dst.ID == DummyID {
		dst.Payload = nil // a dummy's row is never read
		runtime.KeepAlive(st)
		return nil
	}
	err := st.codec.Open(st.slotBytes(i), dst)
	runtime.KeepAlive(st)
	if err != nil {
		return fmt.Errorf("oram: open slot %d: %w", i, err)
	}
	return nil
}

// writeSlotAt overwrites slot i. A real slot is sealed under the sealer's
// next sequence number, or — on WriteBuckets' fan-out, which reserved one per
// real slot up front — under *seq, which it then advances.
func (st *PayloadStore) writeSlotAt(i int64, src Slot, seq *uint64) error {
	old, _ := st.meta.get(i)
	st.meta.set(i, src.ID, src.Leaf)
	var err error
	if src.ID == DummyID {
		// A dummy is a zeroed slot (a real deployment stores fresh random
		// ciphertext; the distinction is invisible to the client logic we
		// are measuring). One that replaces a dummy is zero already (the
		// arena invariant); one that replaces a real block clears it.
		if old != DummyID {
			clear(st.slotBytes(i))
		}
	} else {
		err = st.codec.Seal(st.slotBytes(i), src.Payload, seq)
	}
	runtime.KeepAlive(st)
	if err != nil {
		return fmt.Errorf("oram: seal slot %d: %w", i, err)
	}
	return nil
}

// SetCryptoPool installs a bounded crypto worker pool: the seal/open work
// of a bucket union (ReadBuckets/WriteBuckets) is partitioned across the pool's
// workers, all sealing through the store's own Sealer. Requires the store
// to have been built with a *crypto.Sealer — the fan-out leans on its
// nonce-reservation discipline for determinism and on its being safe for
// concurrent use — and must not be called concurrently with store
// operations. A nil pool (or one with a
// single worker) keeps the strictly serial behaviour.
func (st *PayloadStore) SetCryptoPool(p *crypto.Pool) error {
	if p == nil || p.Workers() == 1 {
		st.pool, st.codec.seq = nil, nil
		return nil
	}
	seq, ok := st.codec.sealer.(*crypto.Sealer)
	if !ok {
		return fmt.Errorf("oram: SetCryptoPool requires a *crypto.Sealer (store has %T)", st.codec.sealer)
	}
	st.pool, st.codec.seq = p, seq
	return nil
}

// checkRange validates a bucket-range request against the geometry.
func (t *tree) checkRange(op string, refs []BucketRef, bufs [][]Slot) error {
	if len(refs) != len(bufs) {
		return fmt.Errorf("oram: %s got %d refs, %d buffers", op, len(refs), len(bufs))
	}
	for i, r := range refs {
		if !t.geom.fits(r, len(bufs[i])) {
			return misfit(t.geom, op, i, r, len(bufs[i]))
		}
	}
	return nil
}

// misfit explains why refs[i] of a union fails Geometry.fits.
func misfit(g *Geometry, op string, i int, r BucketRef, n int) error {
	if err := bucketRange(g, r.Level, r.Node); err != nil {
		return err
	}
	return fmt.Errorf("oram: %s buffer %d has %d slots, bucket size is %d", op, i, n, g.BucketSize(r.Level))
}

// ReadBuckets implements BatchStore: it reads (and, for sealed stores,
// decrypts) the buckets refs[i] into dst[i], partitioning the buckets across
// the crypto pool's workers when one is installed — per-slot AEAD records
// are independent, so opening is embarrassingly parallel and the result is
// identical to the serial loop regardless of scheduling. Without a pool it
// is exactly that serial loop.
func (st *PayloadStore) ReadBuckets(refs []BucketRef, dst [][]Slot) error {
	if err := st.checkRange("ReadBuckets", refs, dst); err != nil {
		return err
	}
	if st.pool == nil || len(refs) < 2 {
		for i, r := range refs {
			if err := st.openBucket(r, dst[i]); err != nil {
				return err
			}
		}
		return nil
	}
	return st.pool.Run(len(refs), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if err := st.openBucket(refs[i], dst[i]); err != nil {
				return err
			}
		}
		return nil
	})
}

// openBucket reads bucket r into buf: the slots below its live bound, and
// DummySlot() for the rest without loading their records.
func (st *PayloadStore) openBucket(r BucketRef, buf []Slot) error {
	base, n := st.readSpan(r, buf)
	for k := range buf[:n] {
		if err := st.readSlotAt(base+int64(k), &buf[k]); err != nil {
			return err
		}
	}
	return nil
}

// WriteBuckets implements BatchStore: it overwrites the buckets refs[i] from
// src[i], partitioning the seal work across the crypto pool's workers when
// one is installed. A sequence number for every real slot is reserved up
// front in (bucket, slot) order, so each slot's nonce — and hence the
// ciphertext arena — is byte-identical to sealing the same slots serially,
// no matter which worker runs which bucket. Without a pool it is exactly
// the serial loop.
func (st *PayloadStore) WriteBuckets(refs []BucketRef, src [][]Slot) error {
	if err := st.checkRange("WriteBuckets", refs, src); err != nil {
		return err
	}
	if st.pool == nil || len(refs) < 2 {
		for i, r := range refs {
			if err := st.sealBucket(r, src[i], nil); err != nil {
				return err
			}
		}
		return nil
	}
	// Prefix counts of nonce-consuming (real) slots give every bucket
	// its deterministic ordinal into the reservation.
	st.sealOrd = st.sealOrd[:0]
	total := 0
	for i := range refs {
		st.sealOrd = append(st.sealOrd, total)
		for k := range src[i] {
			if src[i][k].ID != DummyID {
				total++
			}
		}
	}
	first, err := st.codec.seq.ReserveSeals(total)
	if err != nil {
		return fmt.Errorf("oram: WriteBuckets: %w", err)
	}
	return st.pool.Run(len(refs), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			seq := first + uint64(st.sealOrd[i])
			if err := st.sealBucket(refs[i], src[i], &seq); err != nil {
				return err
			}
		}
		return nil
	})
}

// sealBucket overwrites bucket r from src, through the bucket's live bound or
// src's last non-fresh slot, whichever is further, and then narrows the bound
// to src's; seq is writeSlotAt's.
func (st *PayloadStore) sealBucket(r BucketRef, src []Slot, seq *uint64) error {
	n := liveLen(src)
	b, base, w := st.writeSpan(r, n)
	for k := range src[:w] {
		if err := st.writeSlotAt(base+int64(k), src[k], seq); err != nil {
			return err
		}
	}
	st.live[b] = uint8(n)
	runtime.KeepAlive(st)
	return nil
}

// pathToRefs converts a root→leaf path to its bucket refs in level order,
// reusing the store's scratch.
func (st *PayloadStore) pathToRefs(leaf Leaf) []BucketRef {
	st.pathRefs = st.pathRefs[:0]
	for lvl := 0; lvl < st.geom.Levels(); lvl++ {
		st.pathRefs = append(st.pathRefs, BucketRef{Level: lvl, Node: st.geom.NodeAt(leaf, lvl)})
	}
	return st.pathRefs
}

// ReadPath implements PathStore as ReadBuckets over the path's refs. No
// product code calls it; it stays only for benchmark/spanstore.go.
func (st *PayloadStore) ReadPath(leaf Leaf, dst [][]Slot) error {
	if !st.geom.ValidLeaf(leaf) {
		return fmt.Errorf("oram: ReadPath: invalid leaf %d", leaf)
	}
	if len(dst) != st.geom.Levels() {
		return fmt.Errorf("oram: ReadPath dst has %d levels, tree has %d", len(dst), st.geom.Levels())
	}
	return st.ReadBuckets(st.pathToRefs(leaf), dst)
}

// WritePath implements PathStore as WriteBuckets (see ReadPath).
func (st *PayloadStore) WritePath(leaf Leaf, src [][]Slot) error {
	if !st.geom.ValidLeaf(leaf) {
		return fmt.Errorf("oram: WritePath: invalid leaf %d", leaf)
	}
	if len(src) != st.geom.Levels() {
		return fmt.Errorf("oram: WritePath src has %d levels, tree has %d", len(src), st.geom.Levels())
	}
	return st.WriteBuckets(st.pathToRefs(leaf), src)
}

// BatchNative implements the BatchNative probe: a bucket union is one pass
// over the arena. Nothing in the product asks; it stays only for
// benchmark/spanstore.go.
func (st *PayloadStore) BatchNative() bool { return true }

// ReadBucket implements Store: one bucket of ReadBuckets' serial loop.
func (st *PayloadStore) ReadBucket(level int, node uint64, dst []Slot) error {
	r := BucketRef{Level: level, Node: node}
	if !st.geom.fits(r, len(dst)) {
		return misfit(st.geom, "ReadBucket", 0, r, len(dst))
	}
	return st.openBucket(r, dst)
}

// WriteBucket implements Store: one bucket of WriteBuckets' serial loop.
func (st *PayloadStore) WriteBucket(level int, node uint64, src []Slot) error {
	r := BucketRef{Level: level, Node: node}
	if !st.geom.fits(r, len(src)) {
		return misfit(st.geom, "WriteBucket", 0, r, len(src))
	}
	return st.sealBucket(r, src, nil)
}

// ReadSlot implements Store.
func (st *PayloadStore) ReadSlot(level int, node uint64, slot int, dst *Slot) error {
	return ReadSlotVia(st, level, node, slot, dst)
}

// WriteSlot implements Store.
func (st *PayloadStore) WriteSlot(level int, node uint64, slot int, src Slot) error {
	return WriteSlotVia(st, level, node, slot, src)
}

// Counters aggregates the logical path traffic a client moves through a
// CountingStore: every bucket of every path and union it reads or writes,
// wherever the bucket lives. It is the raw material for the paper's Fig. 9
// (traffic reduction) and Table II (dummy reads, counted by the client into
// AccessStats). Under a Treetop it is more than the untrusted side sees: the
// top levels are counted but never leave trusted memory.
type Counters struct {
	BucketReads  uint64
	BucketWrites uint64
	SlotReads    uint64 // slots transferred by reads
	SlotWrites   uint64
	BytesRead    uint64
	BytesWritten uint64
	// LevelTransfers counts bucket reads plus writes by tree level: with the
	// geometry, what a timing model needs to price the traffic (memsim.Time).
	LevelTransfers [maxLevels]uint64
}

// Total returns total slots and bytes moved in both directions.
func (c *Counters) Total() (slots, bytes uint64) {
	return c.SlotReads + c.SlotWrites, c.BytesRead + c.BytesWritten
}

// Add returns the sum c + o, for aggregating shards.
func (c Counters) Add(o Counters) Counters {
	c.BucketReads += o.BucketReads
	c.BucketWrites += o.BucketWrites
	c.SlotReads += o.SlotReads
	c.SlotWrites += o.SlotWrites
	c.BytesRead += o.BytesRead
	c.BytesWritten += o.BytesWritten
	for i, n := range o.LevelTransfers {
		c.LevelTransfers[i] += n
	}
	return c
}

// Sub returns the difference c - prev, for windowed measurements.
func (c Counters) Sub(prev Counters) Counters {
	c.BucketReads -= prev.BucketReads
	c.BucketWrites -= prev.BucketWrites
	c.SlotReads -= prev.SlotReads
	c.SlotWrites -= prev.SlotWrites
	c.BytesRead -= prev.BytesRead
	c.BytesWritten -= prev.BytesWritten
	for i, n := range prev.LevelTransfers {
		c.LevelTransfers[i] -= n
	}
	return c
}

// CountingStore wraps a Store and tallies the logical traffic of the calls it
// is handed (see Counters) — the same tally whatever sits below it, a Treetop
// included, so figures and count metrics do not depend on where a bucket
// lives.
type CountingStore struct {
	inner Face // the wrapped store, resolved once
	c     Counters
	mu    sync.Mutex // protects c; remote server may count concurrently
}

var _ Store = (*CountingStore)(nil)

// NewCountingStore wraps inner. The second parameter must be nil: it exists
// only for benchmark/engine.go's call, until that hand-built engine goes
// (ROADMAP direction 1B). A non-nil value panics, so no caller believes it
// installed a clock: simulated time is computed from the counters
// (memsim.Model.Time), not charged here.
func NewCountingStore(inner Store, mustBeNil any) *CountingStore {
	if mustBeNil != nil {
		panic("oram: NewCountingStore takes no timing hook; price Counters with memsim.Model.Time")
	}
	return &CountingStore{inner: Resolve(inner)}
}

// Geometry implements Store.
func (cs *CountingStore) Geometry() *Geometry { return cs.inner.Geometry() }

// Counters returns a snapshot of the traffic counters.
func (cs *CountingStore) Counters() Counters {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return cs.c
}

// ResetCounters zeroes the traffic counters.
func (cs *CountingStore) ResetCounters() {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cs.c = Counters{}
}

// charge tallies one store call that moved the buckets at refs under a
// single lock, however many buckets the call moved: a lane charges once per
// bucket union, and the remote server's workers contend once per frame. A
// bucket moves whole, so the tally depends on the refs alone.
func (cs *CountingStore) charge(read bool, refs []BucketRef) {
	g := cs.Geometry()
	slots := 0
	for _, r := range refs {
		slots += g.BucketSize(r.Level)
	}
	buckets := uint64(len(refs))
	bytes := uint64(slots) * uint64(g.BlockSize())
	cs.mu.Lock()
	if read {
		cs.c.BucketReads += buckets
		cs.c.SlotReads += uint64(slots)
		cs.c.BytesRead += bytes
	} else {
		cs.c.BucketWrites += buckets
		cs.c.SlotWrites += uint64(slots)
		cs.c.BytesWritten += bytes
	}
	for _, r := range refs {
		cs.c.LevelTransfers[r.Level]++
	}
	cs.mu.Unlock()
}

// ReadBucket implements Store.
func (cs *CountingStore) ReadBucket(level int, node uint64, dst []Slot) error {
	if err := cs.inner.ReadBucket(level, node, dst); err != nil {
		return err
	}
	cs.charge(true, []BucketRef{{Level: level, Node: node}})
	return nil
}

// WriteBucket implements Store.
func (cs *CountingStore) WriteBucket(level int, node uint64, src []Slot) error {
	if err := cs.inner.WriteBucket(level, node, src); err != nil {
		return err
	}
	cs.charge(false, []BucketRef{{Level: level, Node: node}})
	return nil
}

// ReadBuckets implements BatchStore: the union moves through the inner
// store's Face — its own ReadBuckets, or the bucket loop — and is charged one
// bucket read per ref either way, so the traffic ledger does not depend on
// which transport is underneath; a call that fails charges nothing.
func (cs *CountingStore) ReadBuckets(refs []BucketRef, dst [][]Slot) error {
	if err := cs.inner.ReadBuckets(refs, dst); err != nil {
		return err
	}
	cs.charge(true, refs)
	return nil
}

// WriteBuckets implements BatchStore.
func (cs *CountingStore) WriteBuckets(refs []BucketRef, src [][]Slot) error {
	if err := cs.inner.WriteBuckets(refs, src); err != nil {
		return err
	}
	cs.charge(false, refs)
	return nil
}

// ReadSlot implements Store: a slot read is charged as the bucket read it is.
func (cs *CountingStore) ReadSlot(level int, node uint64, slot int, dst *Slot) error {
	return ReadSlotVia(cs, level, node, slot, dst)
}

// WriteSlot implements Store: charged as a bucket read and a bucket write.
func (cs *CountingStore) WriteSlot(level int, node uint64, slot int, src Slot) error {
	return WriteSlotVia(cs, level, node, slot, src)
}
