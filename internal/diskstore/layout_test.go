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
// multiple of its height, included): every (level, node) maps to its own
// byte range, the ranges tile [headerLen, FileBytes) exactly, and any
// leaf's path touches exactly ⌈levels/4⌉ spans.
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
					at, n := st.locate(lvl, node).recOff()
					if n != recLen(g.BucketSize(lvl), st.stride) {
						t.Fatalf("%s: bucket (%d,%d) has a %d-byte record, want %d", name, lvl, node, n, recLen(g.BucketSize(lvl), st.stride))
					}
					recs = append(recs, rng{at, at + int64(n)})
				}
			}
			slices.SortFunc(recs, func(a, b rng) int { return int(a.at - b.at) })
			next := int64(headerLen)
			for _, r := range recs {
				if r.at != next {
					t.Fatalf("%s: record at %d follows one ending at %d: the ranges overlap or leave a gap", name, r.at, next)
				}
				next = r.end
			}
			if next != FileBytes(g, nil) {
				t.Fatalf("%s: records end at %d, the arena at %d", name, next, FileBytes(g, nil))
			}

			want := (g.Levels() + spanLevels - 1) / spanLevels
			if len(st.tiers) != want {
				t.Fatalf("%s: %d tiers, want %d", name, len(st.tiers), want)
			}
			for leaf := oram.Leaf(0); uint64(leaf) < g.Leaves(); leaf++ {
				spans := map[int64]bool{}
				for lvl := 0; lvl < g.Levels(); lvl++ {
					l := st.locate(lvl, g.NodeAt(leaf, lvl))
					spans[l.key()] = true
					if off, n := l.t.at(l.idx); off < 0 || off+n > l.t.size {
						t.Fatalf("%s: bucket (%d,%d) falls outside its span", name, lvl, g.NodeAt(leaf, lvl))
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

// TestTornSpanWrite cuts the write-back of a span with several dirty
// buckets at every record boundary and in the middle of every record. The
// header went down dirty before the first change, so the arena reopens as
// ErrUnclean; and were it served anyway, each bucket reads back as it was
// before the write, as it is after, or as a loud CRC error — never a blend.
func TestTornSpanWrite(t *testing.T) {
	g := testGeometry(t, 7, 4, 16) // 8 levels: two tiers of 4
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	const leaf = 0x55
	tr := &st.tiers[1]
	root := g.NodeAt(leaf, tr.lo)
	type ref struct {
		lvl  int
		node uint64
	}
	var inSpan []ref
	for lvl := tr.lo; lvl < g.Levels(); lvl++ {
		for n := root << uint(lvl-tr.lo); n < (root+1)<<uint(lvl-tr.lo); n++ {
			inSpan = append(inSpan, ref{lvl, n})
			if err := st.WriteBucket(lvl, n, taggedBucket(g, lvl, n, 1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	before := readFileRange(t, path, tr.spanOff(root), tr.size)

	// Fault the span in, rewrite the four buckets a path crosses, and let
	// the one write-out routine put the span down.
	got := make([]oram.Slot, g.BucketSize(tr.lo))
	if err := st.ReadBucket(tr.lo, root, got); err != nil {
		t.Fatal(err)
	}
	rewritten := map[ref]bool{}
	for lvl := tr.lo; lvl < g.Levels(); lvl++ {
		n := g.NodeAt(leaf, lvl)
		rewritten[ref{lvl, n}] = true
		if err := st.WriteBucket(lvl, n, taggedBucket(g, lvl, n, 2)); err != nil {
			t.Fatal(err)
		}
	}
	st.mu.Lock()
	err = st.writeOutLocked(st.cache[st.locate(tr.lo, root).key()])
	st.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	after := readFileRange(t, path, tr.spanOff(root), tr.size)
	st.Abandon()
	if _, err := Open(Config{Path: path, Geometry: g}); !errors.Is(err, ErrUnclean) {
		t.Fatalf("reopening after a crash mid write-back: got %v, want ErrUnclean", err)
	}

	var cuts []int
	for idx := uint(0); idx < tr.buckets; idx++ {
		off, n := tr.at(idx)
		cuts = append(cuts, off, off+n/2, off+n-crcLen)
	}
	clean := make([]byte, 8)
	binary.BigEndian.PutUint64(clean, 1)
	for _, cut := range cuts {
		// What a crash after cut bytes of the positioned write leaves, with
		// the header forged clean so that the store serves it at all.
		writeFileRange(t, path, tr.spanOff(root), append(append([]byte(nil), after[:cut]...), before[cut:]...))
		writeFileRange(t, path, 16, clean)
		torn, err := Open(Config{Path: path, Geometry: g})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range inSpan {
			got := make([]oram.Slot, g.BucketSize(r.lvl))
			err := torn.ReadBucket(r.lvl, r.node, got)
			switch {
			case err != nil && strings.Contains(err.Error(), "torn"):
				if !rewritten[r] {
					t.Errorf("cut at %d: bucket (%d,%d) was not rewritten, yet reads as torn", cut, r.lvl, r.node)
				}
			case err != nil:
				t.Errorf("cut at %d: bucket (%d,%d): %v", cut, r.lvl, r.node, err)
			case slotsEqual(got, taggedBucket(g, r.lvl, r.node, 1)):
			case rewritten[r] && slotsEqual(got, taggedBucket(g, r.lvl, r.node, 2)):
			default:
				t.Errorf("cut at %d: bucket (%d,%d) reads back as neither its old nor its new content: %+v", cut, r.lvl, r.node, got)
			}
		}
		torn.Abandon()
	}
}
