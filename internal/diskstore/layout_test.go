package diskstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/oram"
)

// TestLayoutTilesArena is the layout property, over all four bucket
// profiles and trees of 2 to 13 levels (shorter than a span, and not a
// multiple of its height, included): in the identity layout every
// (level, node) maps to its own byte range inside slot r of its tier, those
// ranges, the tiers' free slots and the span table tile [headerLen,
// FileBytes) exactly, and any leaf's path touches exactly ⌈levels/4⌉ spans.
func TestLayoutTilesArena(t *testing.T) {
	for _, profile := range []oram.Profile{oram.ProfileUniform, oram.ProfileLinear, oram.ProfileStep, oram.ProfileExp} {
		for leafBits := 1; leafBits <= 12; leafBits++ {
			g, err := oram.NewGeometry(oram.GeometryConfig{LeafBits: leafBits, LeafZ: 3, RootZ: 6, BlockSize: 8, Profile: profile})
			if err != nil {
				t.Fatal(err)
			}
			st := &Store{geom: g, stride: g.BlockSize()}
			st.tiers, st.tierOf = newLayout(g, st.stride)
			name := fmt.Sprintf("%v/leafBits=%d", profile, leafBits)

			type rng struct{ at, end int64 }
			var recs []rng
			for lvl := 0; lvl < g.Levels(); lvl++ {
				for node := uint64(0); node < 1<<uint(lvl); node++ {
					l := st.locate(lvl, node)
					at, n := l.recOff()
					if n != recLen(g.BucketSize(lvl), st.stride) {
						t.Fatalf("%s: bucket (%d,%d) has a %d-byte record, want %d", name, lvl, node, n, recLen(g.BucketSize(lvl), st.stride))
					}
					if s := l.t.slot[l.root]; s != uint32(l.root) || l.t.owner[s] != uint32(l.root) {
						t.Fatalf("%s: span (%d,%d) starts in slot %d", name, l.t.lo, l.root, s)
					}
					recs = append(recs, rng{at, at + int64(n)})
				}
			}
			for i := range st.tiers {
				tr := &st.tiers[i]
				if len(tr.owner) != logSlots*len(tr.slot) || len(tr.slot) != 1<<uint(tr.lo) {
					t.Fatalf("%s: tier %d has %d spans in %d slots", name, tr.lo, len(tr.slot), len(tr.owner))
				}
				for s := len(tr.slot); s < len(tr.owner); s++ {
					if tr.owner[s] != freeSlot {
						t.Fatalf("%s: slot %d of tier %d is not free", name, s, tr.lo)
					}
					recs = append(recs, rng{tr.slotOff(s), tr.slotOff(s + 1)})
				}
			}
			recs = append(recs, rng{tableOff(st.tiers), tableOff(st.tiers) + int64(tableLen(st.tiers))})
			slices.SortFunc(recs, func(a, b rng) int { return int(a.at - b.at) })
			next := int64(headerLen)
			for _, r := range recs {
				if r.at != next {
					t.Fatalf("%s: range at %d follows one ending at %d: the ranges overlap or leave a gap", name, r.at, next)
				}
				next = r.end
			}
			if next != FileBytes(g, nil) {
				t.Fatalf("%s: ranges end at %d, the arena at %d", name, next, FileBytes(g, nil))
			}

			want := (g.Levels() + spanLevels - 1) / spanLevels
			if len(st.tiers) != want {
				t.Fatalf("%s: %d tiers, want %d", name, len(st.tiers), want)
			}
			spans := 0
			for i := range st.tiers {
				spans += 1 << uint(st.tiers[i].lo)
			}
			if n := tableLen(st.tiers); n != 4*spans+crcLen {
				t.Fatalf("%s: a %d-byte table for %d spans", name, n, spans)
			}
			for leaf := oram.Leaf(0); uint64(leaf) < g.Leaves(); leaf++ {
				spans := map[int64]bool{}
				for lvl := 0; lvl < g.Levels(); lvl++ {
					l := st.locate(lvl, g.NodeAt(leaf, lvl))
					spans[l.key()] = true
					if off, n := l.t.at(l.idx); off < 0 || off+n > l.t.size {
						t.Fatalf("%s: bucket (%d,%d) falls outside its span", name, lvl, g.NodeAt(leaf, lvl))
					}
					if key := l.t.keyAt(l.root, l.idx); key != bucketKey(lvl, g.NodeAt(leaf, lvl)) {
						t.Fatalf("%s: bucket (%d,%d) has key %d in its span, heap key %d", name, lvl, g.NodeAt(leaf, lvl), key, bucketKey(lvl, g.NodeAt(leaf, lvl)))
					}
				}
				if len(spans) != want {
					t.Fatalf("%s: the path to leaf %d touches %d spans, want %d", name, leaf, len(spans), want)
				}
			}
		}
	}
}

// pathBufs allocates one path's worth of slot buffers.
func pathBufs(g *oram.Geometry) [][]oram.Slot {
	bufs := make([][]oram.Slot, g.Levels())
	for lvl := range bufs {
		bufs[lvl] = make([]oram.Slot, g.BucketSize(lvl))
	}
	return bufs
}

// TestPathFaultsOneSpanPerTier: at the two-path budget a cold ReadPath
// costs one span fault per tier the path crosses — every other bucket of
// the path is a hit on a span the same call just read — and a second path
// that shares the upper tiers costs one.
func TestPathFaultsOneSpanPerTier(t *testing.T) {
	g := testGeometry(t, 9, 4, 16) // 10 levels: tiers of 2, 4 and 4
	st, _ := openStore(t, g, 1, false)
	defer st.Close()
	bufs := pathBufs(g)
	if err := st.ReadPath(0, bufs); err != nil {
		t.Fatal(err)
	}
	if ts := st.TierStats(); ts.Misses != 3 || ts.Hits != uint64(g.Levels())-3 {
		t.Fatalf("cold path: %+v, want 3 span faults and %d bucket hits", ts, g.Levels()-3)
	}
	// Leaf 8 leaves leaf 0's path below level 5: another leaf-tier span
	// (those are rooted at level 6), the same two above it.
	if err := st.ReadPath(8, bufs); err != nil {
		t.Fatal(err)
	}
	if ts := st.TierStats(); ts.Misses != 4 {
		t.Fatalf("second path sharing the upper tiers: %+v, want one more span fault", ts)
	}
	// Writing the path back lands in the resident spans: hits, no faults.
	if err := st.WritePath(8, bufs); err != nil {
		t.Fatal(err)
	}
	if ts := st.TierStats(); ts.Misses != 4 || ts.Hits != 3*uint64(g.Levels())-4 {
		t.Fatalf("write-back of a resident path: %+v, want %d hits and no new fault", ts, 3*g.Levels()-4)
	}
}

// TestEvictsDeepestTierFirst: an upper-tier span survives any number of
// leaf-tier faults while there is a leaf-tier span resident to evict, so
// at the two-path budget every path under a resident upper span costs
// exactly one fault.
func TestEvictsDeepestTierFirst(t *testing.T) {
	g := testGeometry(t, 9, 4, 16)
	st, _ := openStore(t, g, 1, false)
	defer st.Close()
	bufs := pathBufs(g)
	if err := st.ReadPath(0, bufs); err != nil {
		t.Fatal(err)
	}
	// Leaves below 128 share leaf 0's spans in both upper tiers (the middle
	// tier is rooted at level 2) and spread over 16 leaf-tier spans, of
	// which the budget holds three.
	for round := 0; round < 4; round++ {
		for leaf := oram.Leaf(0); leaf < 128; leaf += 8 {
			before := st.TierStats().Misses
			if err := st.ReadPath(leaf, bufs); err != nil {
				t.Fatal(err)
			}
			if faults := st.TierStats().Misses - before; faults > 1 {
				t.Fatalf("round %d, leaf %d: %d span faults — an upper-tier span was evicted with leaf-tier spans resident", round, leaf, faults)
			}
		}
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, lvl := range []int{0, 2} {
		if st.cache[st.locate(lvl, 0).key()] == nil {
			t.Errorf("the span rooted at (%d,0) is gone", lvl)
		}
	}
	if n := st.tiers[2].resident; n != 3 {
		t.Errorf("%d leaf-tier spans resident, want the 3 the budget leaves room for", n)
	}
}

// taggedBucket fills a bucket with real blocks whose ids and payloads say
// which version of which bucket they are.
func taggedBucket(g *oram.Geometry, level int, node uint64, tag byte) []oram.Slot {
	b := make([]oram.Slot, g.BucketSize(level))
	for k := range b {
		b[k] = oram.Slot{ID: oram.BlockID(int(tag)<<16 | level<<8 | k), Leaf: oram.Leaf(node), Payload: bytes.Repeat([]byte{tag}, g.BlockSize())}
	}
	return b
}

// ref names a bucket by (level, node) in the torn-write tests.
type ref struct {
	lvl  int
	node uint64
}

// tornCheck opens the arena at path, which a test has left as a crash would
// with its header forged clean so that the store serves it at all, and reads
// every bucket of inSpan: each must read back as it was before the write
// (tag 1), as it is after (tag 2, rewritten buckets only), or fail as torn —
// never a blend. A refused span table (ErrTable) is loud too and is
// reported as false.
func tornCheck(t *testing.T, g *oram.Geometry, path, cut string, inSpan []ref, rewritten map[ref]bool) bool {
	t.Helper()
	torn, err := Open(Config{Path: path, Geometry: g})
	if errors.Is(err, ErrTable) {
		return false
	}
	if err != nil {
		t.Fatalf("%s: %v", cut, err)
	}
	defer torn.Abandon()
	for _, r := range inSpan {
		got := make([]oram.Slot, g.BucketSize(r.lvl))
		err := torn.ReadBucket(r.lvl, r.node, got)
		switch {
		case err != nil && strings.Contains(err.Error(), "torn"):
			if !rewritten[r] {
				t.Errorf("%s: bucket (%d,%d) was not rewritten, yet reads as torn", cut, r.lvl, r.node)
			}
		case err != nil:
			t.Errorf("%s: bucket (%d,%d): %v", cut, r.lvl, r.node, err)
		case slotsEqual(got, taggedBucket(g, r.lvl, r.node, 1)):
		case rewritten[r] && slotsEqual(got, taggedBucket(g, r.lvl, r.node, 2)):
		default:
			t.Errorf("%s: bucket (%d,%d) reads back as neither its old nor its new content: %+v", cut, r.lvl, r.node, got)
		}
	}
	return true
}

// forgeHeader writes hdr back with its clean flag set.
func forgeHeader(t *testing.T, path string, hdr []byte) {
	t.Helper()
	hdr = slices.Clone(hdr)
	binary.BigEndian.PutUint64(hdr[16:24], 1)
	writeFileRange(t, path, 0, hdr)
}

// recordCuts lists, for n spans of tr back to back, every record boundary
// and the middle of every record.
func recordCuts(tr *tier, n int) []int {
	var cuts []int
	for k := range n {
		for idx := uint(0); idx < tr.buckets; idx++ {
			off, m := tr.at(idx)
			off += k * tr.size
			cuts = append(cuts, off, off+m/2, off+m-crcLen)
		}
	}
	return append(cuts, n*tr.size)
}

// TestTornSpanWrite cuts the three kinds of write a cycle issues — a dirty
// span written back in place at Sync, a batch of evicted spans appended to
// the log in one positioned write, and the span table Sync writes last — at
// every record boundary and in the middle of every record, and at every
// byte of the table.
// The header went down dirty before the first change, so the arena reopens
// as ErrUnclean; and were it served anyway, each bucket reads back as it
// was before the write, as it is after, or as a loud CRC error — never a
// blend — or the table is refused with ErrTable.
func TestTornSpanWrite(t *testing.T) {
	g := testGeometry(t, 7, 4, 16) // 8 levels: two tiers of 4
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	tr := &st.tiers[1]
	leaves := []oram.Leaf{0x55, 0x0a, 0x7f} // three leaf-tier spans: roots 10, 1 and 15
	var inSpan []ref
	for _, leaf := range leaves {
		root := g.NodeAt(leaf, tr.lo)
		for lvl := tr.lo; lvl < g.Levels(); lvl++ {
			for n := root << uint(lvl-tr.lo); n < (root+1)<<uint(lvl-tr.lo); n++ {
				inSpan = append(inSpan, ref{lvl, n})
				if err := st.WriteBucket(lvl, n, taggedBucket(g, lvl, n, 1)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	// Fault each span in and rewrite the four buckets a path crosses.
	rewritten := map[ref]bool{}
	rewrite := func(leaf oram.Leaf) {
		t.Helper()
		got := make([]oram.Slot, g.BucketSize(tr.lo))
		if err := st.ReadBucket(tr.lo, g.NodeAt(leaf, tr.lo), got); err != nil {
			t.Fatal(err)
		}
		for lvl := tr.lo; lvl < g.Levels(); lvl++ {
			n := g.NodeAt(leaf, lvl)
			rewritten[ref{lvl, n}] = true
			if err := st.WriteBucket(lvl, n, taggedBucket(g, lvl, n, 2)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, leaf := range leaves {
		rewrite(leaf)
	}
	hdr := readFileRange(t, path, 0, headerLen) // dirty, at the synced epoch

	// In place: the first span goes down through Sync's write-out routine.
	root := g.NodeAt(leaves[0], tr.lo)
	st.mu.Lock()
	at := tr.spanOff(root)
	st.mu.Unlock()
	inPlaceBefore := readFileRange(t, path, at, tr.size)
	st.mu.Lock()
	err = st.writeOutLocked(st.cache[st.locate(tr.lo, root).key()])
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	inPlaceAfter := readFileRange(t, path, at, tr.size)

	// Appended: the other two are evicted into the pending batch, written
	// into the tier's first free slots together.
	st.mu.Lock()
	head := tr.head
	for tr.owner[head] != freeSlot {
		head++
	}
	batchAt := tr.slotOff(head)
	st.mu.Unlock()
	batchBefore := readFileRange(t, path, batchAt, 2*tr.size)
	st.mu.Lock()
	for _, leaf := range leaves[1:] {
		if err := st.evictLocked(st.cache[st.locate(tr.lo, g.NodeAt(leaf, tr.lo)).key()]); err != nil {
			t.Fatal(err)
		}
	}
	err = st.flushLocked(tr)
	calls, spans := st.logCalls, st.logSpans
	for k, leaf := range leaves[1:] {
		if s := tr.slot[g.NodeAt(leaf, tr.lo)]; int(s) != head+k {
			t.Errorf("span of leaf %#x appended to slot %d, want %d", leaf, s, head+k)
		}
	}
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || spans != 2 {
		t.Fatalf("the batch went down in %d writes of %d spans, want one of 2", calls, spans)
	}
	batchAfter := readFileRange(t, path, batchAt, 2*tr.size)

	// The table: Sync writes it last, before the header goes clean.
	tabAt, tabLen := tableOff(st.tiers), tableLen(st.tiers)
	tableBefore := readFileRange(t, path, tabAt, tabLen)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	tableAfter := readFileRange(t, path, tabAt, tabLen)
	if bytes.Equal(tableBefore, tableAfter) {
		t.Fatal("Sync left the span table as it was")
	}
	st.Abandon()

	// Each cut is what a crash after cut bytes of that positioned write
	// leaves, the writes before it landed and those after it not.
	cutAt := func(off int64, before, after []byte, cut int) {
		writeFileRange(t, path, off, append(slices.Clone(after[:cut]), before[cut:]...))
	}
	for _, cut := range recordCuts(tr, 1) {
		cutAt(at, inPlaceBefore, inPlaceAfter, cut)
		cutAt(batchAt, batchBefore, batchBefore, 0)
		writeFileRange(t, path, tabAt, tableBefore)
		forgeHeader(t, path, hdr)
		if !tornCheck(t, g, path, fmt.Sprintf("in place, cut at %d", cut), inSpan, rewritten) {
			t.Errorf("in place, cut at %d: the table was refused", cut)
		}
	}
	for _, cut := range recordCuts(tr, 2) {
		cutAt(at, inPlaceBefore, inPlaceAfter, len(inPlaceAfter))
		cutAt(batchAt, batchBefore, batchAfter, cut)
		writeFileRange(t, path, tabAt, tableBefore)
		forgeHeader(t, path, hdr)
		if !tornCheck(t, g, path, fmt.Sprintf("batch, cut at %d", cut), inSpan, rewritten) {
			t.Errorf("batch, cut at %d: the table was refused", cut)
		}
	}
	refused := 0
	for cut := 0; cut <= tabLen; cut++ {
		cutAt(batchAt, batchBefore, batchAfter, len(batchAfter))
		cutAt(tabAt, tableBefore, tableAfter, cut)
		forgeHeader(t, path, hdr)
		if !tornCheck(t, g, path, fmt.Sprintf("table, cut at %d", cut), inSpan, rewritten) {
			refused++
		} else if cut == tabLen {
			t.Error("a table written for the next epoch was served under the old one")
		}
	}
	if refused == 0 {
		t.Error("no torn table was refused")
	}

	// Unforged, the arena the cycle left is unclean.
	writeFileRange(t, path, 0, hdr)
	if _, err := Open(Config{Path: path, Geometry: g}); !errors.Is(err, ErrUnclean) {
		t.Fatalf("reopening after a crash mid write-back: got %v, want ErrUnclean", err)
	}
}
