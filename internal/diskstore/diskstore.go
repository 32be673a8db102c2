package diskstore

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math/bits"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/oram"
)

// Arena file header, 64 bytes, big-endian like laoramserve's LAORCKF1
// checkpoint discipline:
//
//	[ 0: 8) magic "LAORDSK3"
//	[ 8:16) epoch — incremented every time the arena reaches a clean,
//	        fsynced state (Sync/Close/Load); the span table's CRC covers it
//	[16:24) clean flag — 1 when every record on disk is consistent and
//	        fsynced; forced to 0 (and fsynced) before the first record
//	        write of a cycle, so a crash mid write-back is detectable
//	[24:32) leafBits, [32:40) stride, [40:48) totalSlots,
//	[48:56) layout fingerprint — geometry guards against opening an arena
//	        built for a different tree
//	[56:64) span height — the records' order in the file (see tier)
const (
	fileMagic   = 0x4C414F5244534B33 // "LAORDSK3"
	fileMagicV2 = 0x4C414F5244534B32 // "LAORDSK2": spans in place, no table
	fileMagicV1 = 0x4C414F5244534B31 // "LAORDSK1": the same records in bucket order
	headerLen   = 64
)

// snapshotMagicPayload is oram's PayloadStore snapshot magic
// (snapshotMagic+2, "LAORAMV1"+2): diskstore Save/Load speaks exactly the
// PayloadStore format so disk-backed and in-memory checkpoints
// interchange (laoramserve can restore either kind into either store).
const snapshotMagicPayload = 0x4C414F52414D5631 + 2

// ErrUnclean reports an arena whose header says it was not cleanly
// synced — the process died with spans written back but not yet fsynced
// under a new epoch, so record state on disk may be a blend of epochs. The
// store refuses to serve it: restore from a checkpoint (Load rewrites every
// record) or open with Config.Reset to start fresh.
var ErrUnclean = errors.New("diskstore: arena not cleanly closed — possible torn write-back; restore from a checkpoint or reset")

// ErrLayout reports an arena whose records are in another order than this
// build reads: a bucket-ordered LAORDSK1 file, a LAORDSK2 one with its spans
// in place, or spans of another height. Nothing past the header is read. A
// checkpoint is layout-independent, so the fix is the one for ErrUnclean.
var ErrLayout = errors.New("diskstore: arena was laid out by another version (bucket order, spans in place or another span height) — open with Config.Reset, then restore from a checkpoint")

// ErrMismatch reports a file that is not an arena for the configured tree:
// not an arena at all, one built for another geometry or payload stride,
// or one truncated or padded. Nothing of it is served.
var ErrMismatch = errors.New("diskstore: not an arena for this tree")

// ErrTable reports a cleanly closed arena whose span table does not hold:
// its CRC fails for the header's epoch, a slot is out of range, or two spans
// share one. The spans cannot be found, so the fix is the one for
// ErrUnclean.
var ErrTable = errors.New("diskstore: span table corrupt — open with Config.Reset, then restore from a checkpoint")

// prefetchQueue bounds the number of outstanding prefetch hint batches;
// hints beyond it are dropped (prefetch is strictly best-effort).
const prefetchQueue = 16

// freeSpans bounds a tier's list of recycled span buffers: a flushed
// batch's, and the one the demand path and the prefetcher each hold in
// flight.
const freeSpans = batchSpans + 4

// Config assembles a disk-backed bucket store.
type Config struct {
	// Path is the arena file (one file per shard tree). Created (with
	// every slot a dummy) when absent; resumed when present and clean.
	Path string
	// Geometry is the tree shape; must match an existing arena's header.
	Geometry *oram.Geometry
	// Sealer, when non-nil, seals payloads at rest (records then hold
	// ciphertext at the sealed stride). Sealing is serial — the crypto
	// pool fan-out applies to in-memory stores only.
	Sealer oram.Sealer
	// MemBudget bounds the in-memory span cache in body bytes (the
	// quantity CacheBytes reports for a whole tree). <= 0 means
	// unbounded — the whole tree is cached after first read. Positive
	// budgets are clamped up to two root→leaf paths of spans so the store
	// can always make progress.
	MemBudget int64
	// Prefetch starts the look-ahead prefetch worker consuming
	// PrefetchPaths hints; without it hints are dropped.
	Prefetch bool
	// TreetopLevels is how many top levels the client keeps in an
	// oram.Treetop above this store. They reach the store only at a
	// checkpoint's sink and lift, so the prefetcher leaves the spans wholly
	// inside them on disk; hinted paths still prefetch every deeper tier.
	TreetopLevels int
	// Reset reinitialises the arena (every slot a dummy, epoch carried
	// forward when the old header is readable) regardless of prior
	// content — the restore-from-checkpoint escape hatch for an
	// ErrUnclean or ErrLayout arena.
	Reset bool
}

// span is one cached subtree: buf is its byte image as the arena file
// holds it, records and trailers alike.
type span struct {
	t    *tier
	root uint64
	buf  []byte
	// dirty has bit i set when bucket i (heap order inside the span) is
	// newer than the file; verified when its CRC was checked since buf was
	// read, or its body was overwritten whole.
	dirty, verified uint16
	prefetched      bool // faulted in by the prefetcher, not yet demanded
	// pfPeriod is the stats period whose PrefetchIssued counted the span.
	pfPeriod   uint64
	prev, next *span
}

// Store is a disk-backed bucket store: oram.Store / BatchStore /
// Snapshotter over an arena file of span logs, with a bounded span cache
// whose evicted dirty spans are appended in batches, and a look-ahead
// prefetcher.
//
// Like the in-memory stores it is driven by a single client goroutine;
// unlike them it synchronises internally, because its own prefetch
// goroutine — and planner-side PrefetchPaths hints — touch the cache
// concurrently.
type Store struct {
	geom   *oram.Geometry
	sealer oram.Sealer
	codec  oram.SlotCodec // a real slot's bytes at rest: PayloadStore's rule
	stride int
	path   string
	f      *os.File
	tiers  []tier
	tierOf []int // tree level → index into tiers

	mu     sync.Mutex
	cache  map[int64]*span
	used   int64
	budget int64 // <= 0: unbounded
	epoch  uint64
	clean  bool // header state currently on disk
	stats  oram.TierStats
	// period counts ResetTierStats calls: a demanded prefetched span is
	// PrefetchUseful only in the period that counted its issue.
	period uint64
	// pfBytes is the resident footprint of prefetched-but-not-yet-demanded
	// spans; the prefetch worker throttles on it so look-ahead never runs
	// so far ahead of the demand stream that it evicts its own useful work.
	pfBytes int64
	// pfMap indexes the active hint: leaf-level node → first hint position
	// with that leaf. The demand path uses it to report how far the client
	// has progressed into the hinted plan (pfDemand, monotone max), which
	// is what the prefetch worker paces its walk against.
	pfMap    map[uint64]int
	pfDemand int
	// pfLead is the pacing window in paths: how far past the demand cursor
	// the prefetcher may walk. Sized from the budget in paths of spans so
	// the look-ahead always fits in cache alongside the demand working set
	// (0 = unpaced, unbounded budget).
	pfLead int
	// pfWake is signalled when pfDemand advances, pfBytes drops or the
	// store stops: everything pfGate waits on.
	pfWake *sync.Cond
	// pfKey is the span the prefetch worker is reading outside mu
	// (noPrefetch when none). Writing a bucket of that span — or reloading
	// the arena — resets it, which cancels the read: what it fetched
	// predates the write.
	pfKey int64
	// pfTier is the first tier the prefetcher reads: the ones above it lie
	// wholly inside Config.TreetopLevels.
	pfTier int
	ioErr  error // sticky write-back error
	closed bool
	// rec is the client goroutine's one-record buffer for writes that go
	// around the cache, refs its ref list for ReadPath/WritePath.
	rec  []byte
	refs []oram.BucketRef
	// gather assembles a run of a batch for its one positioned write;
	// logCalls counts those writes, logSpans the spans they carried.
	gather             []byte
	logCalls, logSpans uint64

	pfCh chan []oram.Leaf
	stop chan struct{}
	wg   sync.WaitGroup
}

var (
	_ oram.Store          = (*Store)(nil)
	_ oram.PathStore      = (*Store)(nil)
	_ oram.BatchStore     = (*Store)(nil)
	_ oram.Snapshotter    = (*Store)(nil)
	_ oram.TieredStore    = (*Store)(nil)
	_ oram.PathPrefetcher = (*Store)(nil)
)

// strideFor returns the per-slot payload bytes on disk.
func strideFor(g *oram.Geometry, sealer oram.Sealer) int {
	if sealer != nil {
		return sealer.SealedSize(g.BlockSize())
	}
	return g.BlockSize()
}

// CacheBytes returns the memory-tier bytes needed to hold every bucket of
// a tree (the 100% memory budget): the sum of all record bodies.
func CacheBytes(g *oram.Geometry, sealer oram.Sealer) int64 {
	stride := strideFor(g, sealer)
	var total int64
	for lvl := 0; lvl < g.Levels(); lvl++ {
		total += int64(bodyLen(g.BucketSize(lvl), stride)) << uint(lvl)
	}
	return total
}

// FileBytes returns the arena file size for a tree: header, logSlots span
// slots per span (records with their CRC trailers) and the span table.
func FileBytes(g *oram.Geometry, sealer oram.Sealer) int64 {
	tiers, _ := newLayout(g, strideFor(g, sealer))
	return tableOff(tiers) + int64(tableLen(tiers))
}

// layoutCheck fingerprints the geometry facts the record layout depends
// on, guarding an arena against reopening under a different tree shape.
func layoutCheck(g *oram.Geometry) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.BigEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	put(uint64(g.BlockSize()))
	for lvl := 0; lvl < g.Levels(); lvl++ {
		put(uint64(g.BucketSize(lvl)))
	}
	return h.Sum64()
}

// bucketKey is the linear bucket index of (level, node) — heap order.
func bucketKey(level int, node uint64) int64 {
	return int64((uint64(1) << uint(level)) - 1 + node)
}

// Open creates or resumes the arena at cfg.Path and, when configured,
// starts the prefetch worker. Resuming an arena that was not cleanly synced
// fails with ErrUnclean, one in another record order with ErrLayout, one
// whose span table does not hold with ErrTable, and a file that is not an
// arena for this tree — truncated, or built for another — with
// ErrMismatch. No torn record is ever served: a record's CRC trailer is
// re-checked the first time it is handed out after its span was read.
func Open(cfg Config) (*Store, error) {
	if cfg.Path == "" {
		return nil, fmt.Errorf("diskstore: Config.Path is required")
	}
	if cfg.Geometry == nil {
		return nil, fmt.Errorf("diskstore: Config.Geometry is required")
	}
	if cfg.Geometry.BlockSize() <= 0 {
		return nil, fmt.Errorf("diskstore: requires BlockSize > 0, got %d (metadata-only trees fit in memory)", cfg.Geometry.BlockSize())
	}
	st := &Store{
		geom:   cfg.Geometry,
		sealer: cfg.Sealer,
		codec:  oram.NewSlotCodec(cfg.Geometry.BlockSize(), cfg.Sealer),
		stride: strideFor(cfg.Geometry, cfg.Sealer),
		path:   cfg.Path,
		cache:  make(map[int64]*span),
		pfKey:  noPrefetch,
		stop:   make(chan struct{}),
	}
	st.pfWake = sync.NewCond(&st.mu)
	st.tiers, st.tierOf = newLayout(st.geom, st.stride)
	var pathBody int64
	maxRec := 0
	for i := range st.tiers {
		st.tiers[i].reset()
		pathBody += st.tiers[i].body
		maxRec = max(maxRec, slices.Max(st.tiers[i].rec[:]))
	}
	st.rec, st.refs = make([]byte, maxRec), make([]oram.BucketRef, st.geom.Levels())
	for st.pfTier+1 < len(st.tiers) && st.tiers[st.pfTier+1].lo <= cfg.TreetopLevels {
		st.pfTier++
	}
	if cfg.MemBudget > 0 {
		st.budget = max(cfg.MemBudget, 2*pathBody)
		// The pacing window: half the budget in root→leaf paths of spans,
		// never less than two — look-ahead must always fit in cache
		// alongside the demand working set.
		st.pfLead = int(max(st.budget/(2*pathBody), 2))
	}
	for i := range st.tiers {
		t := &st.tiers[i]
		t.batch = batchSpans
		if st.budget > 0 {
			t.batch = int(min(max(st.budget/(batchShare*t.body), 1), batchSpans))
		}
	}
	f, err := os.OpenFile(cfg.Path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	st.f = f
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("diskstore: %w", err)
	}
	if fi.Size() == 0 || cfg.Reset {
		if err := st.initArena(fi.Size()); err != nil {
			f.Close()
			return nil, err
		}
	} else if err := st.resumeArena(fi.Size()); err != nil {
		f.Close()
		return nil, err
	}
	if cfg.Prefetch {
		st.pfCh = make(chan []oram.Leaf, prefetchQueue)
		st.wg.Add(1)
		go st.prefetcher()
	}
	return st, nil
}

// writeHeader writes the 64-byte header with the given epoch and clean
// flag at offset 0 (no fsync; callers order their own syncs).
func (st *Store) writeHeader(epoch uint64, clean bool) error {
	var hdr [headerLen]byte
	binary.BigEndian.PutUint64(hdr[0:8], fileMagic)
	binary.BigEndian.PutUint64(hdr[8:16], epoch)
	if clean {
		binary.BigEndian.PutUint64(hdr[16:24], 1)
	}
	binary.BigEndian.PutUint64(hdr[24:32], uint64(st.geom.LeafBits()))
	binary.BigEndian.PutUint64(hdr[32:40], uint64(st.stride))
	binary.BigEndian.PutUint64(hdr[40:48], uint64(st.geom.TotalSlots()))
	binary.BigEndian.PutUint64(hdr[48:56], layoutCheck(st.geom))
	binary.BigEndian.PutUint64(hdr[56:64], spanLevels)
	if _, err := st.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("diskstore: write header: %w", err)
	}
	return nil
}

// initArena lays out a fresh arena: span r of every tier in slot r, every
// bucket slot a dummy (DummyID is all-ones, so a zeroed file is NOT a valid
// empty tree — dummies are written explicitly), CRC-stamped, and the
// identity table; fsynced, then the header is marked clean. The free slots
// are left to Truncate: nothing reads a slot before a batch writes it. When
// resetting over a readable old header — of any layout — the epoch
// continues from it.
func (st *Store) initArena(oldSize int64) error {
	epoch := uint64(0)
	if oldSize >= headerLen {
		var hdr [headerLen]byte
		if _, err := st.f.ReadAt(hdr[:], 0); err == nil {
			if m := binary.BigEndian.Uint64(hdr[0:8]); m == fileMagic || m == fileMagicV2 || m == fileMagicV1 {
				epoch = binary.BigEndian.Uint64(hdr[8:16])
			}
		}
	}
	if err := st.f.Truncate(FileBytes(st.geom, st.sealer)); err != nil {
		return fmt.Errorf("diskstore: size arena: %w", err)
	}
	// Header goes down dirty first: a crash mid-init reads as unclean.
	if err := st.writeHeader(epoch, false); err != nil {
		return err
	}
	w := bufio.NewWriterSize(nil, 1<<20)
	for i := range st.tiers {
		// Every span of a tier starts out as the same bodies; only the
		// trailers, which cover each record's bucket key, differ.
		t := &st.tiers[i]
		img := make([]byte, t.size)
		bodyCRC := make([]uint32, t.buckets)
		for idx := range t.buckets {
			off, n := t.at(idx)
			body := img[off : off+n-crcLen]
			for k := 0; k < len(body)/(slotMeta+st.stride); k++ {
				putSlot(body, k, st.stride, uint64(oram.DummyID), 0, nil)
			}
			bodyCRC[idx] = crc32.ChecksumIEEE(body)
		}
		w.Reset(io.NewOffsetWriter(st.f, t.base))
		for root := range uint64(len(t.slot)) {
			for idx := range t.buckets {
				off, n := t.at(idx)
				binary.LittleEndian.PutUint32(img[off+n-crcLen:], keyed(bodyCRC[idx], uint64(t.keyAt(root, idx))))
			}
			if _, err := w.Write(img); err != nil {
				return fmt.Errorf("diskstore: init arena: %w", err)
			}
		}
		if err := w.Flush(); err != nil {
			return fmt.Errorf("diskstore: init arena: %w", err)
		}
	}
	epoch++
	if err := st.writeTable(epoch); err != nil {
		return err
	}
	return st.markClean(epoch)
}

// markClean fsyncs the arena, then marks the header clean under epoch and
// fsyncs again: the end of every write cycle.
func (st *Store) markClean(epoch uint64) error {
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	if err := st.writeHeader(epoch, true); err != nil {
		return err
	}
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	st.epoch, st.clean = epoch, true
	return nil
}

// writeTable writes every tier's span table, closed by a CRC over the
// entries and the epoch the arena is about to be marked clean under (no
// fsync).
func (st *Store) writeTable(epoch uint64) error {
	buf := make([]byte, 0, tableLen(st.tiers))
	for i := range st.tiers {
		for _, s := range st.tiers[i].slot {
			buf = binary.LittleEndian.AppendUint32(buf, s)
		}
	}
	buf = binary.LittleEndian.AppendUint32(buf, keyed(crc32.ChecksumIEEE(buf), epoch))
	if _, err := st.f.WriteAt(buf, tableOff(st.tiers)); err != nil {
		return fmt.Errorf("diskstore: write span table: %w", err)
	}
	return nil
}

// readTable loads and validates the span table of an arena clean under
// epoch: its CRC holds, every slot is in its tier's range and no two spans
// share one. Anything else is ErrTable.
func (st *Store) readTable(epoch uint64) error {
	buf := make([]byte, tableLen(st.tiers))
	if _, err := st.f.ReadAt(buf, tableOff(st.tiers)); err != nil {
		return fmt.Errorf("diskstore: %s: read span table: %w: %w", st.path, ErrTable, err)
	}
	entries := buf[:len(buf)-crcLen]
	if got, want := keyed(crc32.ChecksumIEEE(entries), epoch), binary.LittleEndian.Uint32(buf[len(entries):]); got != want {
		return fmt.Errorf("diskstore: %s: table crc %#08x, want %#08x for epoch %d: %w", st.path, got, want, epoch, ErrTable)
	}
	for i := range st.tiers {
		t := &st.tiers[i]
		clear(t.slot)
		for s := range t.owner {
			t.owner[s] = freeSlot
		}
		for r := range t.slot {
			s := binary.LittleEndian.Uint32(entries)
			entries = entries[4:]
			switch {
			case int(s) >= len(t.owner):
				return fmt.Errorf("diskstore: %s: span (%d,%d) in slot %d of %d: %w", st.path, t.lo, r, s, len(t.owner), ErrTable)
			case t.owner[s] != freeSlot:
				return fmt.Errorf("diskstore: %s: spans (%d,%d) and (%d,%d) share slot %d: %w", st.path, t.lo, t.owner[s], t.lo, r, s, ErrTable)
			}
			t.slot[r], t.owner[s] = s, uint32(r)
		}
	}
	return nil
}

// resumeArena validates an existing arena's header and size against the
// configured geometry and adopts its epoch.
func (st *Store) resumeArena(size int64) error {
	var hdr [headerLen]byte
	if _, err := st.f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("diskstore: %s: short header (%d-byte file): %w: %w", st.path, size, ErrMismatch, err)
	}
	switch got := binary.BigEndian.Uint64(hdr[0:8]); got {
	case fileMagic:
	case fileMagicV2:
		return fmt.Errorf("diskstore: %s: LAORDSK2 arena: %w", st.path, ErrLayout)
	case fileMagicV1:
		return fmt.Errorf("diskstore: %s: LAORDSK1 arena: %w", st.path, ErrLayout)
	default:
		return fmt.Errorf("diskstore: %s: bad magic %#x: %w", st.path, got, ErrMismatch)
	}
	if got := binary.BigEndian.Uint64(hdr[56:64]); got != spanLevels {
		return fmt.Errorf("diskstore: %s: spans of %d levels, this build reads %d: %w", st.path, got, spanLevels, ErrLayout)
	}
	if got := binary.BigEndian.Uint64(hdr[24:32]); got != uint64(st.geom.LeafBits()) {
		return fmt.Errorf("diskstore: %s: arena has %d leaf bits, geometry needs %d: %w", st.path, got, st.geom.LeafBits(), ErrMismatch)
	}
	if got := binary.BigEndian.Uint64(hdr[32:40]); got != uint64(st.stride) {
		return fmt.Errorf("diskstore: %s: arena stride %d != %d (sealing mismatch?): %w", st.path, got, st.stride, ErrMismatch)
	}
	if got := binary.BigEndian.Uint64(hdr[40:48]); got != uint64(st.geom.TotalSlots()) {
		return fmt.Errorf("diskstore: %s: arena has %d slots, geometry needs %d: %w", st.path, got, st.geom.TotalSlots(), ErrMismatch)
	}
	if got := binary.BigEndian.Uint64(hdr[48:56]); got != layoutCheck(st.geom) {
		return fmt.Errorf("diskstore: %s: arena layout fingerprint %#x != %#x (different bucket profile?): %w", st.path, got, layoutCheck(st.geom), ErrMismatch)
	}
	if want := FileBytes(st.geom, st.sealer); size != want {
		return fmt.Errorf("diskstore: %s: arena truncated or padded (%d bytes, want %d) — refusing to serve torn buckets: %w", st.path, size, want, ErrMismatch)
	}
	if binary.BigEndian.Uint64(hdr[16:24]) != 1 {
		return fmt.Errorf("diskstore: %s: %w", st.path, ErrUnclean)
	}
	st.epoch = binary.BigEndian.Uint64(hdr[8:16])
	st.clean = true
	return st.readTable(st.epoch)
}

// Geometry implements oram.Store.
func (st *Store) Geometry() *oram.Geometry { return st.geom }

// Epoch returns the arena's clean-state epoch (bumped by Sync/Close/Load).
func (st *Store) Epoch() uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.epoch
}

// TierStats implements oram.TieredStore. Hits counts bucket lookups — reads
// and writes alike — served from a resident span, Misses the span faults (a
// write never faults: it goes around the cache); PrefetchIssued and
// PrefetchUseful count spans.
func (st *Store) TierStats() oram.TierStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// ResetTierStats implements oram.TieredStore.
func (st *Store) ResetTierStats() {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.stats = oram.TierStats{}
	st.period++
}

// checkBucket validates bucket coordinates (oram.bucketRange's rule).
func (st *Store) checkBucket(level int, node uint64) error {
	if level < 0 || level >= st.geom.Levels() {
		return fmt.Errorf("diskstore: level %d out of range [0,%d)", level, st.geom.Levels())
	}
	if node >= 1<<uint(level) {
		return fmt.Errorf("diskstore: node %d out of range at level %d", node, level)
	}
	return nil
}

// beginWriteLocked is the start of every mutating call: a sticky write-back
// error surfaces, and the on-disk clean flag is forced to 0 — durably —
// before the first change of a cycle, so a crash anywhere between here and
// the next Sync is detected at the next Open.
func (st *Store) beginWriteLocked() error {
	if st.ioErr != nil || !st.clean {
		return st.ioErr
	}
	if err := st.writeHeader(st.epoch, false); err != nil {
		return err
	}
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	st.clean = false
	return nil
}

// toFront makes sp the tier's most recently used span, linking it in when
// it is not on the list yet.
func (t *tier) toFront(sp *span) {
	if sp.next != nil {
		sp.unlink()
	}
	sp.prev, sp.next = &t.lru, t.lru.next
	sp.prev.next, sp.next.prev = sp, sp
}

// unlink takes sp off its tier's list.
func (sp *span) unlink() {
	sp.prev.next, sp.next.prev = sp.next, sp.prev
	sp.prev, sp.next = nil, nil
}

// reset empties the tier's cache state and pending batch.
func (t *tier) reset() {
	t.lru.prev, t.lru.next = &t.lru, &t.lru
	t.resident, t.free, t.pend = 0, nil, make([]*span, 0, batchSpans)
}

// take returns an unlisted span of the tier to read root's image into, from
// the free list when it has one. Like recycle, called with Store.mu held.
func (t *tier) take(root uint64) *span {
	var sp *span
	if n := len(t.free); n > 0 {
		sp, t.free = t.free[n-1], t.free[:n-1]
	} else {
		sp = &span{t: t, buf: make([]byte, t.size)}
	}
	sp.root, sp.dirty, sp.verified, sp.prefetched = root, 0, 0, false
	return sp
}

// recycle keeps an unlisted span's buffer for the tier's next fault.
func (t *tier) recycle(sp *span) {
	if len(t.free) < freeSpans {
		t.free = append(t.free, sp)
	}
}

// key is the span's cache key: the heap index of its root bucket.
func (sp *span) key() int64 { return bucketKey(sp.t.lo, sp.root) }

// demandedLocked clears sp's prefetched mark: the client got to it (or
// overwrote it), so it no longer counts against the look-ahead's footprint.
func (st *Store) demandedLocked(sp *span) {
	if sp.prefetched {
		sp.prefetched = false
		st.pfBytes -= sp.t.body
		st.pfWake.Signal()
	}
}

// stampDirty re-stamps the CRC of every bucket of sp written since its
// image was last on disk.
func stampDirty(sp *span) {
	for m := sp.dirty; m != 0; m &= m - 1 {
		idx := uint(bits.TrailingZeros16(m))
		off, n := sp.t.at(idx)
		stampRecord(sp.buf[off:off+n], sp.t.keyAt(sp.root, idx))
	}
}

// writeOutLocked brings a resident span's slot up to date with it, in
// place — Sync's write-out: one positioned write of the whole span (no
// fsync), or of the one record when exactly one bucket is stale. Which
// records a write carries is a function of which paths were written, never
// of block IDs or payloads.
func (st *Store) writeOutLocked(sp *span) error {
	if sp.dirty == 0 {
		return nil
	}
	stampDirty(sp)
	off, n := sp.t.at(uint(bits.TrailingZeros16(sp.dirty)))
	if bits.OnesCount16(sp.dirty) > 1 {
		off, n = 0, sp.t.size
	}
	if _, err := st.f.WriteAt(sp.buf[off:off+n], sp.t.spanOff(sp.root)+int64(off)); err != nil {
		st.ioErr = fmt.Errorf("diskstore: write span (%d,%d): %w", sp.t.lo, sp.root, err)
		return st.ioErr
	}
	sp.dirty = 0
	return nil
}

// pending returns the index of the span rooted at root in t's pending
// batch, or -1.
func (t *tier) pending(root uint64) int {
	for i, sp := range t.pend {
		if sp.root == root {
			return i
		}
	}
	return -1
}

// rescueLocked moves span i of t's pending batch back into the cache as
// its most recently used span, still dirty. Its bytes never stopped
// counting against the budget.
func (st *Store) rescueLocked(t *tier, i int) *span {
	sp := t.pend[i]
	t.pend = slices.Delete(t.pend, i, i+1)
	st.cache[sp.key()] = sp
	t.toFront(sp)
	t.resident++
	return sp
}

// flushLocked appends t's pending batch to the tier's log: in eviction
// order, the spans take the next free slots from the head on, skipping live
// ones, and each run of adjacent free slots goes down in one positioned
// write (no fsync). A span's old slot turns free once its new image is
// written. Where a batch lands depends only on which spans were evicted in
// which order, never on block IDs or payloads.
func (st *Store) flushLocked(t *tier) error {
	for pend := t.pend; len(pend) > 0; {
		for t.owner[t.head] != freeSlot {
			t.advance(1)
		}
		n := 1
		for n < len(pend) && t.head+n < len(t.owner) && t.owner[t.head+n] == freeSlot {
			n++
		}
		run := pend[0].buf
		if n > 1 {
			if len(st.gather) < n*t.size {
				st.gather = make([]byte, len(pend)*t.size)
			}
			run = st.gather[:n*t.size]
			for k, sp := range pend[:n] {
				copy(run[k*t.size:], sp.buf)
			}
		}
		if _, err := st.f.WriteAt(run, t.slotOff(t.head)); err != nil {
			st.ioErr = fmt.Errorf("diskstore: append %d spans of tier %d: %w", n, t.lo, err)
			return st.ioErr
		}
		st.logCalls++
		st.logSpans += uint64(n)
		for k, sp := range pend[:n] {
			s := t.head + k
			t.owner[t.slot[sp.root]] = freeSlot
			t.slot[sp.root], t.owner[s] = uint32(s), uint32(sp.root)
			st.used -= t.body
			t.recycle(sp)
		}
		pend = pend[n:]
		t.advance(n)
	}
	clear(t.pend)
	t.pend = t.pend[:0]
	return nil
}

// advance moves the head n slots on, wrapping at the end of the region.
func (t *tier) advance(n int) {
	t.travel += n
	if t.head += n; t.head == len(t.owner) {
		t.head = 0
	}
}

// insertLocked adds a freshly read span to the cache and evicts past the
// budget, deepest tier first and least recently used within a tier: every
// ORAM path is uniform over leaves, so a span of a tier that starts at
// level lo is next needed 2^lo accesses from now in expectation — the
// static order is the next-use order. A tier's pending batch goes down
// before an upper tier gives up a span; sp itself is never the victim.
func (st *Store) insertLocked(sp *span) error {
	st.cache[sp.key()] = sp
	sp.t.toFront(sp)
	sp.t.resident++
	st.used += sp.t.body
	for i := len(st.tiers) - 1; i >= 0 && st.budget > 0 && st.used > st.budget; {
		t := &st.tiers[i]
		v := t.lru.prev
		if v == sp {
			v = v.prev
		}
		var err error
		switch {
		case v != &t.lru:
			err = st.evictLocked(v)
		case len(t.pend) > 0:
			err = st.flushLocked(t)
		default:
			i--
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// evictLocked takes v out of the cache. A clean span is dropped; a dirty
// one joins its tier's pending batch, re-stamped, and its bytes count
// against the budget until the batch goes down — when it is full, or when
// the tier has nothing else left to give back.
func (st *Store) evictLocked(v *span) error {
	t := v.t
	delete(st.cache, v.key())
	v.unlink()
	t.resident--
	st.demandedLocked(v)
	if v.dirty == 0 {
		st.used -= t.body
		t.recycle(v)
		return nil
	}
	stampDirty(v)
	if t.pend = append(t.pend, v); len(t.pend) >= t.batch {
		return st.flushLocked(t)
	}
	return nil
}

// residentLocked returns l's span when it is cached, counting the bucket
// lookup — a read or a write — as served from the memory tier and marking
// the span most recently used. last is the calling operation's memo of the
// span it resolved before this one: consecutive buckets of a path share a
// span, so a call looks each span up once.
func (st *Store) residentLocked(l loc, last **span) *span {
	sp := *last
	if sp == nil || sp.t != l.t || sp.root != l.root {
		if sp = st.cache[l.key()]; sp != nil {
			l.t.toFront(sp)
		}
		*last = sp
	}
	if sp != nil {
		st.stats.Hits++
	}
	return sp
}

// demandLocked returns the verified body of bucket (level, node), faulting
// its span in on a miss — the demand path: the miss is counted, and a CRC
// failure is a hard error (torn records are never decoded). Called with mu
// held; a fault from disk drops and reacquires it around the read.
func (st *Store) demandLocked(level int, node uint64, last **span) ([]byte, error) {
	// A leaf-level lookup pins where the client is in the hinted plan —
	// the prefetch worker paces its look-ahead window against pfDemand.
	if st.pfMap != nil && level == st.geom.Levels()-1 {
		if idx, ok := st.pfMap[node]; ok && idx > st.pfDemand {
			st.pfDemand = idx
			st.pfWake.Signal()
		}
	}
	l := st.locate(level, node)
	sp := st.residentLocked(l, last)
	if sp == nil {
		st.stats.Misses++
		var err error
		if sp, err = st.faultLocked(l); err != nil {
			return nil, fmt.Errorf("diskstore: bucket (%d,%d): %w", level, node, err)
		}
		*last = sp
	} else if sp.prefetched {
		if sp.pfPeriod == st.period {
			st.stats.PrefetchUseful++
		}
		st.demandedLocked(sp)
	}
	body, err := st.bodyLocked(sp, l.idx, false)
	if err != nil {
		return nil, fmt.Errorf("diskstore: bucket (%d,%d): %w", level, node, err)
	}
	return body, nil
}

// faultLocked makes l's span resident: taken back from its tier's pending
// batch when it is there, else read from its slot with the pread timed as
// demand stall. Neither resident nor pending, the span stays in its slot
// until the client — blocked right here — writes it, so the slot cannot
// move under the read.
func (st *Store) faultLocked(l loc) (*span, error) {
	if i := l.t.pending(l.root); i >= 0 {
		return st.rescueLocked(l.t, i), nil
	}
	sp := l.t.take(l.root)
	at := l.t.spanOff(l.root)
	st.mu.Unlock()
	t0 := time.Now()
	_, err := st.f.ReadAt(sp.buf, at)
	stall := time.Since(t0)
	st.mu.Lock()
	st.stats.DemandStallNs += stall.Nanoseconds()
	if err != nil {
		sp.t.recycle(sp)
		return nil, err
	}
	if cur := st.cache[l.key()]; cur != nil {
		// The prefetcher faulted the span in while we read; its copy is
		// identical (the client — the only writer — is right here).
		sp.t.recycle(sp)
		return cur, nil
	}
	return sp, st.insertLocked(sp)
}

// bodyLocked hands out the body of sp's bucket idx, checking its CRC the
// first time since the span was read: an intact bucket beside a torn one
// is served, the torn one refused. A caller about to overwrite every slot
// keeps nothing of the old record, so instead of checked it is zeroed — it
// then holds no dummy slot whose payload bytes could be stale.
func (st *Store) bodyLocked(sp *span, idx uint, overwrite bool) ([]byte, error) {
	off, n := sp.t.at(idx)
	if sp.verified&(1<<idx) == 0 {
		if overwrite {
			clear(sp.buf[off : off+n-crcLen])
		} else if err := verifyRecord(sp.buf[off:off+n], sp.t.keyAt(sp.root, idx)); err != nil {
			return nil, err
		}
		sp.verified |= 1 << idx
	}
	return sp.buf[off : off+n-crcLen], nil
}

// decodeSlot opens body slot k into dst with PayloadStore's exact
// semantics: dummies carry a nil payload; real payloads decode (unsealing
// when sealed) into the capacity of dst's existing Payload when possible.
func (st *Store) decodeSlot(body []byte, k int, dst *oram.Slot) error {
	id, leaf, raw := slotAt(body, k, st.stride)
	dst.ID = oram.BlockID(id)
	dst.Leaf = oram.Leaf(leaf)
	if dst.ID == oram.DummyID {
		dst.Payload = nil
		return nil
	}
	if err := st.codec.Open(raw, dst); err != nil {
		return fmt.Errorf("diskstore: open slot %d: %w", k, err)
	}
	return nil
}

// encodeSlot seals src into body slot k with PayloadStore's exact write
// semantics: a dummy slot holds zeroed payload bytes (the arena invariant —
// so a dummy written over a dummy stops after the metadata store), a real
// block with a nil payload stores a zero-filled row.
func (st *Store) encodeSlot(body []byte, k int, src oram.Slot) error {
	off := k * (slotMeta + st.stride)
	wasDummy := oram.BlockID(binary.LittleEndian.Uint64(body[off:])) == oram.DummyID
	binary.LittleEndian.PutUint64(body[off:], uint64(src.ID))
	binary.LittleEndian.PutUint64(body[off+8:], uint64(src.Leaf))
	raw := body[off+slotMeta : off+slotMeta+st.stride]
	if src.ID == oram.DummyID {
		if !wasDummy {
			clear(raw)
		}
		return nil
	}
	if err := st.codec.Seal(raw, src.Payload, nil); err != nil {
		return fmt.Errorf("diskstore: seal slot %d: %w", k, err)
	}
	return nil
}

// readBucketLocked serves one validated bucket read (demand path).
func (st *Store) readBucketLocked(level int, node uint64, dst []oram.Slot, last **span) error {
	body, err := st.demandLocked(level, node, last)
	if err != nil {
		return err
	}
	for k := range dst {
		if err := st.decodeSlot(body, k, &dst[k]); err != nil {
			return err
		}
	}
	return nil
}

// writeLocked stores src over the whole bucket (level, node). A resident
// span takes the write in place and turns dirty. A non-resident one is not
// faulted in for it — the write covers a fraction of the span — but goes
// around the cache: into the span's image in the pending batch, re-stamped,
// or else the one record is rewritten in the span's slot. Either way an
// in-flight prefetch of the span is cancelled, as what it read predates the
// write.
func (st *Store) writeLocked(level int, node uint64, src []oram.Slot, last **span) error {
	l := st.locate(level, node)
	if l.key() == st.pfKey {
		st.pfKey = noPrefetch
	}
	sp := st.residentLocked(l, last)
	pending := sp == nil
	if pending {
		if i := l.t.pending(l.root); i >= 0 {
			sp = l.t.pend[i]
		}
	}
	at, n := l.recOff()
	body := st.rec[:n-crcLen]
	if sp != nil {
		body, _ = st.bodyLocked(sp, l.idx, true) // an overwrite is never refused
	} else {
		clear(body)
	}
	for k := range src {
		if err := st.encodeSlot(body, k, src[k]); err != nil {
			return err
		}
	}
	switch {
	case sp == nil:
		stampRecord(st.rec[:n], bucketKey(level, node))
		if _, err := st.f.WriteAt(st.rec[:n], at); err != nil {
			return fmt.Errorf("diskstore: write bucket (%d,%d): %w", level, node, err)
		}
	case pending:
		// A pending span's image stays stamped: the batch writes it whole.
		sp.dirty |= 1 << l.idx
		off, _ := l.t.at(l.idx)
		stampRecord(sp.buf[off:off+n], bucketKey(level, node))
	default:
		sp.dirty |= 1 << l.idx
		st.demandedLocked(sp)
	}
	return nil
}

// ReadBucket implements oram.Store.
func (st *Store) ReadBucket(level int, node uint64, dst []oram.Slot) error {
	return st.ReadBuckets([]oram.BucketRef{{Level: level, Node: node}}, [][]oram.Slot{dst})
}

// WriteBucket implements oram.Store.
func (st *Store) WriteBucket(level int, node uint64, src []oram.Slot) error {
	return st.WriteBuckets([]oram.BucketRef{{Level: level, Node: node}}, [][]oram.Slot{src})
}

// ReadSlot implements oram.Store.
func (st *Store) ReadSlot(level int, node uint64, slot int, dst *oram.Slot) error {
	return oram.ReadSlotVia(st, level, node, slot, dst)
}

// WriteSlot implements oram.Store.
func (st *Store) WriteSlot(level int, node uint64, slot int, src oram.Slot) error {
	return oram.WriteSlotVia(st, level, node, slot, src)
}

// ReadPath implements oram.PathStore: a path is the ref list of its
// buckets, root first, so the call resolves one span per tier it crosses. No
// product code calls it or WritePath; they stay only for
// benchmark/spanstore.go.
func (st *Store) ReadPath(leaf oram.Leaf, dst [][]oram.Slot) error {
	refs, err := st.pathRefs("ReadPath", leaf, len(dst))
	if err != nil {
		return err
	}
	return st.ReadBuckets(refs, dst)
}

// WritePath implements oram.PathStore.
func (st *Store) WritePath(leaf oram.Leaf, src [][]oram.Slot) error {
	refs, err := st.pathRefs("WritePath", leaf, len(src))
	if err != nil {
		return err
	}
	return st.WriteBuckets(refs, src)
}

// pathRefs lists the buckets on the path to leaf in the client goroutine's
// scratch, having checked that the caller brought one buffer per level.
func (st *Store) pathRefs(op string, leaf oram.Leaf, levels int) ([]oram.BucketRef, error) {
	if !st.geom.ValidLeaf(leaf) {
		return nil, fmt.Errorf("diskstore: %s: invalid leaf %d", op, leaf)
	}
	if levels != st.geom.Levels() {
		return nil, fmt.Errorf("diskstore: %s has %d levels, tree has %d", op, levels, st.geom.Levels())
	}
	for lvl := range st.refs {
		st.refs[lvl] = oram.BucketRef{Level: lvl, Node: st.geom.NodeAt(leaf, lvl)}
	}
	return st.refs, nil
}

// checkRefs validates a batched bucket request.
func (st *Store) checkRefs(op string, refs []oram.BucketRef, bufs [][]oram.Slot) error {
	if len(refs) != len(bufs) {
		return fmt.Errorf("diskstore: %s got %d refs, %d buffers", op, len(refs), len(bufs))
	}
	for i, r := range refs {
		if err := st.checkBucket(r.Level, r.Node); err != nil {
			return err
		}
		if z := st.geom.BucketSize(r.Level); len(bufs[i]) != z {
			return fmt.Errorf("diskstore: %s buffer %d has %d slots, bucket size is %d", op, i, len(bufs[i]), z)
		}
	}
	return nil
}

// ReadBuckets implements oram.BatchStore.
func (st *Store) ReadBuckets(refs []oram.BucketRef, dst [][]oram.Slot) error {
	if err := st.checkRefs("ReadBuckets", refs, dst); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.ioErr != nil {
		return st.ioErr
	}
	var last *span
	for i, r := range refs {
		if err := st.readBucketLocked(r.Level, r.Node, dst[i], &last); err != nil {
			return err
		}
	}
	return nil
}

// WriteBuckets implements oram.BatchStore. Every ref is checked before the
// first is written: a batch that is wrong anywhere changes nothing.
func (st *Store) WriteBuckets(refs []oram.BucketRef, src [][]oram.Slot) error {
	if err := st.checkRefs("WriteBuckets", refs, src); err != nil {
		return err
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := st.beginWriteLocked(); err != nil {
		return err
	}
	var last *span
	for i, r := range refs {
		if err := st.writeLocked(r.Level, r.Node, src[i], &last); err != nil {
			return err
		}
	}
	return nil
}

// BatchNative implements the oram.BatchNative probe: a bucket union is one
// operation here — one lock hold, each span of the union looked up once per
// run of buckets it holds. Nothing in the product asks; it stays only for
// benchmark/spanstore.go.
func (st *Store) BatchNative() bool { return true }

// Sync appends every tier's pending batch, writes every dirty resident span
// back in place in offset order, writes the span table, fsyncs the arena
// and marks the header clean under a fresh epoch — the checkpoint/durability
// point.
func (st *Store) Sync() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.syncLocked()
}

func (st *Store) syncLocked() error {
	if st.ioErr != nil || st.clean {
		return st.ioErr
	}
	var dirty []*span
	for i := range st.tiers {
		if err := st.flushLocked(&st.tiers[i]); err != nil {
			return err
		}
		for sp := st.tiers[i].lru.next; sp != &st.tiers[i].lru; sp = sp.next {
			if sp.dirty != 0 {
				dirty = append(dirty, sp)
			}
		}
	}
	slices.SortFunc(dirty, func(a, b *span) int {
		return cmp.Compare(a.t.spanOff(a.root), b.t.spanOff(b.root))
	})
	for _, sp := range dirty {
		if err := st.writeOutLocked(sp); err != nil {
			return err
		}
	}
	if err := st.writeTable(st.epoch + 1); err != nil {
		return err
	}
	return st.markClean(st.epoch + 1)
}

// stopWorkers makes Close/Abandon idempotent and joins the prefetcher.
func (st *Store) stopWorkers() bool {
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		return false
	}
	st.closed = true
	st.pfWake.Signal()
	st.mu.Unlock()
	close(st.stop)
	st.wg.Wait()
	return true
}

// Close stops the prefetcher, syncs the arena clean and closes the file.
func (st *Store) Close() error {
	if !st.stopWorkers() {
		return nil
	}
	st.mu.Lock()
	err := st.syncLocked()
	st.mu.Unlock()
	if cerr := st.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("diskstore: %w", cerr)
	}
	return err
}

// Abandon is the chaos hook: drop the store without writing anything back
// or syncing, as a killed process would. If any write happened since the
// last Sync the on-disk header is still marked dirty, so the next Open
// fails with ErrUnclean instead of serving a possibly-blended tree.
func (st *Store) Abandon() {
	if !st.stopWorkers() {
		return
	}
	st.f.Close()
}
