// Package diskstore is the tiered storage backend: a disk-backed bucket
// store implementing the oram.Store family of interfaces so the ORAM tree
// can exceed RAM. The tree lives in one fixed-layout arena file per shard
// (CRC-framed bucket records packed into 4-level subtrees — spans — behind a
// crash-safe header with magic+epoch in the LAORCKF1 spirit). The span is
// the one unit of transfer: a bounded in-memory cache holds whole spans,
// faults one in with one positioned read, evicts deepest-tier-first and
// writes a dirty span back with one positioned write (on eviction and at
// Sync/Close, fsync on the latter two), and a look-ahead prefetcher faults
// the spans under the paths the shard planner announces for upcoming
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
//	crc32(IEEE) over the body, u32 LE             — the record trailer
//
// Records are fixed-size per level, and the record of bucket (level, node)
// starts at a file offset computable from the geometry alone (locate). The
// CRC makes torn writes (a crash mid-pwrite) detectable: a record that
// fails its CRC is never decoded into slots — the store fails loudly
// instead of serving a blended bucket.
const (
	slotMeta = 16 // id + leaf, u64 LE each
	crcLen   = 4
)

// spanLevels is the height of a span. Measured on train-disk (17 levels,
// ≈ 1 KB records, cache of 10 % of the tree), heights 3 / 4 / 5 / 6 read
// ≈ 98 / 119 / 105 / 86 k ops/s: a layout constant, not a knob.
const spanLevels = 4

// tier is one band of spanLevels consecutive tree levels, counted up from
// the leaves (the top tier takes the remainder). Each node at the band's
// first level roots a span — that node's subtree within the band — and the
// arena stores tiers top-down, a tier's spans by root node, a span's
// records level by level:
//
//	header | tier 0: span 0 … | tier 1: span 0, span 1, … | …
//	span (lo, r): (lo, r) | (lo+1, 2r) (lo+1, 2r+1) | (lo+2, 4r) … (lo+2, 4r+3) | …
//
// so a root→leaf path crosses one span per tier and the 2^j records a span
// holds of level lo+j are adjacent.
type tier struct {
	lo      int   // first tree level of the band
	buckets uint  // buckets per span: 2^levels − 1
	base    int64 // file offset of the tier's first span
	size    int   // span length in the file: records with their trailers
	body    int64 // span length as MemBudget counts it: record bodies only
	// off[j] is where level lo+j's run of records starts inside a span,
	// rec[j] that level's record length (0 past the band's last level).
	off, rec [spanLevels]int

	// Cache state, guarded by Store.mu: the tier's resident spans, a ring
	// through the sentinel lru with the most recently used next to it, and
	// a few evicted ones kept for their buffers.
	lru      span
	resident int
	free     []*span
}

// newLayout computes the tier table for g at the given payload stride, and
// the index of each level's tier.
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
		base += int64(t.size) << uint(lo)
		tiers = append(tiers, t)
	}
	return tiers, tierOf
}

// at returns where bucket idx of a span (heap order within the span: the
// root is 0, its children 1 and 2, …) sits inside the span.
func (t *tier) at(idx uint) (off, n int) {
	j := uint(bits.Len(idx+1) - 1)
	return t.off[j] + int(idx+1-1<<j)*t.rec[j], t.rec[j]
}

// spanOff returns the file offset of the tier's span rooted at node root.
func (t *tier) spanOff(root uint64) int64 { return t.base + int64(root)*int64(t.size) }

// loc is where bucket (level, node) lives: its tier, the root node of its
// span, and its heap-order index inside that span.
type loc struct {
	t    *tier
	root uint64
	idx  uint
}

// locate maps (level, node) to its place in the arena; every offset in the
// package comes from here.
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

// stampRecord computes the CRC of rec's body and writes it into the
// trailer. rec must be a full record (body + crcLen bytes).
func stampRecord(rec []byte) {
	body := rec[:len(rec)-crcLen]
	binary.LittleEndian.PutUint32(rec[len(rec)-crcLen:], crc32.ChecksumIEEE(body))
}

// verifyRecord checks rec's CRC trailer against its body, returning a
// descriptive error for a torn (partially written) record.
func verifyRecord(rec []byte) error {
	if len(rec) < crcLen {
		return fmt.Errorf("diskstore: record of %d bytes shorter than its CRC trailer", len(rec))
	}
	body := rec[:len(rec)-crcLen]
	want := binary.LittleEndian.Uint32(rec[len(rec)-crcLen:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return fmt.Errorf("diskstore: torn bucket record (crc %#08x, want %#08x)", got, want)
	}
	return nil
}
