// Package diskstore is the tiered storage backend: a disk-backed bucket
// store implementing the oram.Store family of interfaces so the ORAM tree
// can exceed RAM. The tree lives in one arena file per shard (CRC-framed
// bucket records packed into 4-level subtrees — spans — behind a crash-safe
// header with magic+epoch in the LAORCKF1 spirit). The span is the one unit
// of transfer: a bounded in-memory cache holds whole spans, faults one in
// with one positioned read and evicts deepest-tier-first. Each tier of the
// arena is a log of three times as many span slots as it has spans, with a
// span → slot table: evicted dirty spans gather in a per-tier batch, and a
// full batch is appended at the tier's head into the next free slots, one
// positioned write per run of adjacent free slots (Sync/Close flush the
// batches, write the table and fsync). A look-ahead prefetcher faults the
// spans under the paths the shard planner announces for upcoming
// superblock windows into memory before the session arrives — the paper's
// look-ahead plan used as a prefetch oracle (MLKV is the layout reference,
// see PAPERS.md).
//
// Prefetching never changes the client-visible access sequence: the store
// answers exactly the reads and writes it is asked, in order, with the
// same contents as an in-memory store; only its internal disk I/O is
// reordered (DESIGN.md invariant #14, pinned byte-for-byte by the
// TestTieredIdentity suite at every memory budget).
package diskstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/bits"

	"repro/internal/oram"
)

// On-disk bucket record layout. A bucket of z slots with payload stride p
// (the sealed size when a sealer is installed) is stored as
//
//	z × ( id u64 LE | leaf u64 LE | payload[p] )  — the record body
//	crc32(IEEE) of the body XOR the bucket's
//	heap key (folded to 32 bits), u32 LE          — the record trailer
//
// Records are fixed-size per level, and a span's records sit at offsets
// computable from the geometry alone (tier.at). The CRC makes torn writes (a
// crash mid-pwrite) detectable, and the key seeded into it binds the record
// to its bucket: a record read from the wrong slot — a stale table entry, a
// slot reused under a read — fails like a torn one, since no two buckets of
// a tree share a key. A record that fails its CRC is never decoded into
// slots; the store fails loudly instead of serving a blended bucket.
const (
	slotMeta = 16 // id + leaf, u64 LE each
	crcLen   = 4
)

// spanLevels is the height of a span. Measured on train-disk (17 levels,
// ≈ 1 KB records, cache of 10 % of the tree), heights 3 / 4 / 5 / 6 read
// ≈ 98 / 119 / 105 / 86 k ops/s: a layout constant, not a knob.
const spanLevels = 4

// logSlots is how many span slots a tier's log holds per span, and
// batchSpans how many evicted dirty spans of a tier gather before they go
// down together. With evictions uniform over a tier's n spans, the head
// laps the region every ≈ 2.95 n appends at 3 slots per span, so ≈ e^−2.95
// ≈ 5 % of the slots it passes are live and cut a batch into runs. On
// train-disk (3 to 8 runs each, interleaved with the in-place parent's),
// (slots, batch) = (2, 16), (2, 32), (3, 16) and (3, 32) read medians of
// ≈ 274, 280, 295 and 312 k ops/s against ≈ 245 k in place, appending ≈ 4.2,
// 4.6, 9.0 and 12 spans per write call. Layout constants, not knobs.
const (
	logSlots   = 3
	batchSpans = 32
)

// batchShare caps a tier's batch at a batchShare-th of the cache budget: a
// batch fills when the budget overflows and then goes down at once, so the
// cache holds on average half a batch less. On train-disk's 8 MB shards the
// cap is 55 spans, above batchSpans; on a cache of a few dozen spans it
// keeps the batch from emptying the tier.
const batchShare = 16

// freeSlot marks a slot no span occupies in tier.owner.
const freeSlot = ^uint32(0)

// tier is one band of spanLevels consecutive tree levels, counted up from
// the leaves (the top tier takes the remainder). Each node at the band's
// first level roots a span — that node's subtree within the band. The
// arena stores tiers top-down, each a region of logSlots × 2^lo span slots,
// then the span table; a span's records are stored level by level:
//
//	header | tier 0: slot 0 … | tier 1: slot 0, slot 1, … | … | table
//	span (lo, r): (lo, r) | (lo+1, 2r) (lo+1, 2r+1) | (lo+2, 4r) … (lo+2, 4r+3) | …
//
// so a root→leaf path crosses one span per tier and the 2^j records a span
// holds of level lo+j are adjacent. A fresh or restored arena keeps span r
// at slot r.
type tier struct {
	lo      int   // first tree level of the band
	buckets uint  // buckets per span: 2^levels − 1
	base    int64 // file offset of the tier's first slot
	size    int   // span length in the file: records with their trailers
	body    int64 // span length as MemBudget counts it: record bodies only
	// off[j] is where level lo+j's run of records starts inside a span,
	// rec[j] that level's record length (0 past the band's last level).
	off, rec [spanLevels]int

	// The log, guarded by Store.mu: slot[r] is the slot span r's image is
	// in, owner[s] the span in slot s (freeSlot when none), head where the
	// next batch starts looking for free slots, pend the evicted dirty spans
	// waiting for it in eviction order — batch of them make it full — and
	// travel how many slots head has passed.
	slot, owner []uint32
	head        int
	pend        []*span
	batch       int
	travel      int

	// Cache state, guarded by Store.mu: the tier's resident spans, a ring
	// through the sentinel lru with the most recently used next to it, and
	// a few evicted ones kept for their buffers.
	lru      span
	resident int
	free     []*span
}

// newLayout computes the tier table for g at the given payload stride, and
// the index of each level's tier; every tier's table is the identity.
func newLayout(g *oram.Geometry, stride int) ([]tier, []int) {
	var tiers []tier
	tierOf := make([]int, g.Levels())
	top := g.Levels() % spanLevels
	if top == 0 {
		top = spanLevels
	}
	base := int64(headerLen)
	for lo, n := 0, top; lo < g.Levels(); lo, n = lo+n, spanLevels {
		t := tier{lo: lo, buckets: 1<<uint(n) - 1, base: base}
		for j := 0; j < n; j++ {
			z := g.BucketSize(lo + j)
			t.off[j], t.rec[j] = t.size, recLen(z, stride)
			t.size += recLen(z, stride) << uint(j)
			t.body += int64(bodyLen(z, stride)) << uint(j)
			tierOf[lo+j] = len(tiers)
		}
		t.slot, t.owner = make([]uint32, 1<<uint(lo)), make([]uint32, logSlots<<uint(lo))
		t.identity()
		base += int64(t.size) * int64(len(t.owner))
		tiers = append(tiers, t)
	}
	return tiers, tierOf
}

// identity puts span r in slot r, leaves the other slots free and the head
// at slot 0: the layout of a fresh or restored arena.
func (t *tier) identity() {
	for r := range t.slot {
		t.slot[r] = uint32(r)
	}
	for s := range t.owner {
		t.owner[s] = freeSlot
		if s < len(t.slot) {
			t.owner[s] = uint32(s)
		}
	}
	t.head = 0
}

// tableOff is the file offset of the span table, right after the last
// tier's slots; tableLen its length: one u32 LE slot per span, tier by tier
// and by root, then a CRC32 trailer over the entries and the epoch the table
// was written under.
func tableOff(tiers []tier) int64 {
	last := &tiers[len(tiers)-1]
	return last.base + int64(last.size)*int64(len(last.owner))
}

func tableLen(tiers []tier) int {
	n := 0
	for i := range tiers {
		n += len(tiers[i].slot)
	}
	return 4*n + crcLen
}

// at returns where bucket idx of a span (heap order within the span: the
// root is 0, its children 1 and 2, …) sits inside the span.
func (t *tier) at(idx uint) (off, n int) {
	j := uint(bits.Len(idx+1) - 1)
	return t.off[j] + int(idx+1-1<<j)*t.rec[j], t.rec[j]
}

// keyAt returns the heap key of bucket idx of the span rooted at root.
func (t *tier) keyAt(root uint64, idx uint) int64 {
	j := uint(bits.Len(idx+1) - 1)
	return bucketKey(t.lo+int(j), root<<j+uint64(idx+1-1<<j))
}

// slotOff returns the file offset of the tier's slot s.
func (t *tier) slotOff(s int) int64 { return t.base + int64(s)*int64(t.size) }

// spanOff returns the file offset of the image of the tier's span rooted at
// node root: its slot's, by the table.
func (t *tier) spanOff(root uint64) int64 { return t.slotOff(int(t.slot[root])) }

// loc is where bucket (level, node) lives: its tier, the root node of its
// span, and its heap-order index inside that span.
type loc struct {
	t    *tier
	root uint64
	idx  uint
}

// locate maps (level, node) to its place in the arena; every offset in the
// package comes from here and the tier's table.
func (st *Store) locate(level int, node uint64) loc {
	t := &st.tiers[st.tierOf[level]]
	j := uint(level - t.lo)
	return loc{t: t, root: node >> j, idx: 1<<j - 1 + uint(node&(1<<j-1))}
}

// key is the cache key of the bucket's span.
func (l loc) key() int64 { return bucketKey(l.t.lo, l.root) }

// recOff returns the file offset and length of the bucket's record.
func (l loc) recOff() (int64, int) {
	off, n := l.t.at(l.idx)
	return l.t.spanOff(l.root) + int64(off), n
}

// bodyLen returns the record body size of a z-slot bucket at stride p.
func bodyLen(z, stride int) int { return z * (slotMeta + stride) }

// recLen returns the full on-disk record size (body + CRC trailer).
func recLen(z, stride int) int { return bodyLen(z, stride) + crcLen }

// putSlot writes slot k's metadata and raw payload bytes into a record
// body. payload must be exactly stride bytes (sealed or plain — the codec
// is agnostic; the store zeroes dummy payloads before encoding).
func putSlot(body []byte, k, stride int, id, leaf uint64, payload []byte) {
	off := k * (slotMeta + stride)
	binary.LittleEndian.PutUint64(body[off:], id)
	binary.LittleEndian.PutUint64(body[off+8:], leaf)
	copy(body[off+slotMeta:off+slotMeta+stride], payload)
}

// slotAt returns slot k's metadata and a view of its raw payload bytes
// (aliasing body; callers copy or decode before body is reused).
func slotAt(body []byte, k, stride int) (id, leaf uint64, payload []byte) {
	off := k * (slotMeta + stride)
	id = binary.LittleEndian.Uint64(body[off:])
	leaf = binary.LittleEndian.Uint64(body[off+8:])
	payload = body[off+slotMeta : off+slotMeta+stride]
	return
}

// keyed seeds a CRC32 with v, folded to 32 bits: a record's with its
// bucket's heap key, the span table's with its epoch.
func keyed(crc uint32, v uint64) uint32 { return crc ^ uint32(v) ^ uint32(v>>32) }

// recordCRC is the trailer of a record with the given body in bucket key.
func recordCRC(body []byte, key int64) uint32 {
	return keyed(crc32.ChecksumIEEE(body), uint64(key))
}

// stampRecord computes the CRC of rec's body in bucket key and writes it
// into the trailer. rec must be a full record (body + crcLen bytes).
func stampRecord(rec []byte, key int64) {
	body := rec[:len(rec)-crcLen]
	binary.LittleEndian.PutUint32(rec[len(rec)-crcLen:], recordCRC(body, key))
}

// verifyRecord checks rec's CRC trailer against its body in bucket key,
// returning a descriptive error for a torn (partially written) record or
// one of another bucket.
func verifyRecord(rec []byte, key int64) error {
	if len(rec) < crcLen {
		return fmt.Errorf("diskstore: record of %d bytes shorter than its CRC trailer", len(rec))
	}
	body := rec[:len(rec)-crcLen]
	want := binary.LittleEndian.Uint32(rec[len(rec)-crcLen:])
	if got := recordCRC(body, key); got != want {
		return fmt.Errorf("diskstore: torn or misplaced bucket record (crc %#08x, want %#08x)", got, want)
	}
	return nil
}
