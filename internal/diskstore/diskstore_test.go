package diskstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/oram"
)

func testGeometry(t testing.TB, leafBits, z, blockSize int) *oram.Geometry {
	t.Helper()
	g, err := oram.NewGeometry(oram.GeometryConfig{LeafBits: leafBits, LeafZ: z, BlockSize: blockSize})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func openStore(t *testing.T, g *oram.Geometry, budget int64, prefetch bool) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g, MemBudget: budget, Prefetch: prefetch})
	if err != nil {
		t.Fatal(err)
	}
	return st, path
}

func slotsEqual(a, b []oram.Slot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Leaf != b[i].Leaf || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

// TestDifferentialVsPayloadStore drives a disk-backed store and an
// in-memory PayloadStore through the same randomized operation sequence
// (bucket/slot/path/batch reads and writes, dummies, nil payloads,
// interleaved Syncs) and requires every read to agree — at an unbounded
// budget and at a thrashing 2-path budget.
func TestDifferentialVsPayloadStore(t *testing.T) {
	g := testGeometry(t, 4, 4, 24)
	for _, budget := range []int64{0, 1} { // 1 clamps up to the 2-path floor
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			mem, err := oram.NewPayloadStore(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			disk, _ := openStore(t, g, budget, false)
			defer disk.Close()

			rng := rand.New(rand.NewSource(42))
			randSlots := func(lvl int) []oram.Slot {
				out := make([]oram.Slot, g.BucketSize(lvl))
				for k := range out {
					switch rng.Intn(4) {
					case 0: // dummy
						out[k] = oram.Slot{ID: oram.DummyID}
					case 1: // real block, nil payload (zero row)
						out[k] = oram.Slot{ID: oram.BlockID(rng.Intn(64)), Leaf: oram.Leaf(rng.Intn(16))}
					default:
						p := make([]byte, g.BlockSize())
						rng.Read(p)
						out[k] = oram.Slot{ID: oram.BlockID(rng.Intn(64)), Leaf: oram.Leaf(rng.Intn(16)), Payload: p}
					}
				}
				return out
			}
			randBucket := func() (int, uint64) {
				lvl := rng.Intn(g.Levels())
				return lvl, uint64(rng.Intn(1 << uint(lvl)))
			}
			check := func(op string, lvl int, node uint64) {
				t.Helper()
				want := make([]oram.Slot, g.BucketSize(lvl))
				got := make([]oram.Slot, g.BucketSize(lvl))
				if err := mem.ReadBucket(lvl, node, want); err != nil {
					t.Fatal(err)
				}
				if err := disk.ReadBucket(lvl, node, got); err != nil {
					t.Fatal(err)
				}
				if !slotsEqual(want, got) {
					t.Fatalf("%s: bucket (%d,%d) diverged:\n  mem:  %+v\n  disk: %+v", op, lvl, node, want, got)
				}
			}

			for i := 0; i < 400; i++ {
				switch rng.Intn(6) {
				case 0:
					lvl, node := randBucket()
					src := randSlots(lvl)
					if err := mem.WriteBucket(lvl, node, src); err != nil {
						t.Fatal(err)
					}
					if err := disk.WriteBucket(lvl, node, src); err != nil {
						t.Fatal(err)
					}
					check("WriteBucket", lvl, node)
				case 1:
					lvl, node := randBucket()
					k := rng.Intn(g.BucketSize(lvl))
					s := randSlots(lvl)[0]
					if err := mem.WriteSlot(lvl, node, k, s); err != nil {
						t.Fatal(err)
					}
					if err := disk.WriteSlot(lvl, node, k, s); err != nil {
						t.Fatal(err)
					}
					var a, b oram.Slot
					if err := mem.ReadSlot(lvl, node, k, &a); err != nil {
						t.Fatal(err)
					}
					if err := disk.ReadSlot(lvl, node, k, &b); err != nil {
						t.Fatal(err)
					}
					if !slotsEqual([]oram.Slot{a}, []oram.Slot{b}) {
						t.Fatalf("WriteSlot: slot (%d,%d,%d) diverged", lvl, node, k)
					}
				case 2:
					leaf := oram.Leaf(rng.Intn(1 << 4))
					src := make([][]oram.Slot, g.Levels())
					for lvl := range src {
						src[lvl] = randSlots(lvl)
					}
					if err := mem.WritePath(leaf, src); err != nil {
						t.Fatal(err)
					}
					if err := disk.WritePath(leaf, src); err != nil {
						t.Fatal(err)
					}
				case 3:
					leaf := oram.Leaf(rng.Intn(1 << 4))
					want := make([][]oram.Slot, g.Levels())
					got := make([][]oram.Slot, g.Levels())
					for lvl := range want {
						want[lvl] = make([]oram.Slot, g.BucketSize(lvl))
						got[lvl] = make([]oram.Slot, g.BucketSize(lvl))
					}
					if err := mem.ReadPath(leaf, want); err != nil {
						t.Fatal(err)
					}
					if err := disk.ReadPath(leaf, got); err != nil {
						t.Fatal(err)
					}
					for lvl := range want {
						if !slotsEqual(want[lvl], got[lvl]) {
							t.Fatalf("ReadPath leaf %d level %d diverged", leaf, lvl)
						}
					}
				case 4:
					n := rng.Intn(4) + 1
					refs := make([]oram.BucketRef, n)
					src := make([][]oram.Slot, n)
					for j := range refs {
						lvl, node := randBucket()
						refs[j] = oram.BucketRef{Level: lvl, Node: node}
						src[j] = randSlots(lvl)
					}
					if err := mem.WriteBuckets(refs, src); err != nil {
						t.Fatal(err)
					}
					if err := disk.WriteBuckets(refs, src); err != nil {
						t.Fatal(err)
					}
					for _, r := range refs {
						check("WriteBuckets", r.Level, r.Node)
					}
				case 5:
					if rng.Intn(8) == 0 {
						if err := disk.Sync(); err != nil {
							t.Fatal(err)
						}
					}
					lvl, node := randBucket()
					check("Read", lvl, node)
				}
			}
			// The arenas agree byte for byte too, dummy slots' payload
			// bytes included: both zero them when a real block leaves and
			// skip the store when a dummy lands on a dummy.
			var memSnap, diskSnap bytes.Buffer
			if err := mem.Save(&memSnap); err != nil {
				t.Fatal(err)
			}
			if err := disk.Save(&diskSnap); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(memSnap.Bytes(), diskSnap.Bytes()) {
				t.Fatal("disk-backed Save is not byte-identical to PayloadStore.Save after the same writes")
			}
		})
	}
}

// TestFreshArenaIsAllDummies pins the init contract: a new arena serves
// exactly what a new PayloadStore serves — every slot a dummy with leaf 0
// and nil payload (a zeroed file would instead decode as block 0
// everywhere, which is why dummies are written explicitly).
func TestFreshArenaIsAllDummies(t *testing.T) {
	g := testGeometry(t, 3, 4, 16)
	disk, _ := openStore(t, g, 0, false)
	defer disk.Close()
	for lvl := 0; lvl < g.Levels(); lvl++ {
		buf := make([]oram.Slot, g.BucketSize(lvl))
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			if err := disk.ReadBucket(lvl, node, buf); err != nil {
				t.Fatal(err)
			}
			for k, s := range buf {
				if s.ID != oram.DummyID || s.Leaf != 0 || s.Payload != nil {
					t.Fatalf("fresh bucket (%d,%d) slot %d = %+v, want dummy", lvl, node, k, s)
				}
			}
		}
	}
}

// TestResume pins the durability contract: content written before Close
// is served after reopening the same arena, and each clean cycle advances
// the epoch.
func TestResume(t *testing.T) {
	g := testGeometry(t, 3, 4, 16)
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	e0 := st.Epoch()
	src := make([]oram.Slot, g.BucketSize(2))
	for k := range src {
		src[k] = oram.Slot{ID: oram.BlockID(k), Leaf: 3, Payload: bytes.Repeat([]byte{byte(k + 1)}, g.BlockSize())}
	}
	if err := st.WriteBucket(2, 1, src); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatalf("reopening a cleanly closed arena: %v", err)
	}
	defer st2.Close()
	if got := st2.Epoch(); got <= e0 {
		t.Fatalf("epoch did not advance across a dirty cycle: %d -> %d", e0, got)
	}
	got := make([]oram.Slot, g.BucketSize(2))
	if err := st2.ReadBucket(2, 1, got); err != nil {
		t.Fatal(err)
	}
	if !slotsEqual(src, got) {
		t.Fatalf("resumed bucket diverged: %+v vs %+v", src, got)
	}
}

// TestGeometryMismatchRejected: an arena refuses to open under a
// different tree shape or payload stride.
func TestGeometryMismatchRejected(t *testing.T) {
	g := testGeometry(t, 3, 4, 16)
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []*oram.Geometry{
		testGeometry(t, 4, 4, 16), // different height
		testGeometry(t, 3, 4, 24), // different stride
	} {
		if _, err := Open(Config{Path: path, Geometry: bad}); err == nil {
			t.Fatalf("arena for %v opened under mismatched geometry %v", g, bad)
		}
	}
}

// TestSnapshotInterchange pins the checkpoint compatibility contract:
// PayloadStore.Save restores into a disk store, the disk store's Save is
// byte-identical to what PayloadStore would have written, and that
// snapshot restores into a fresh PayloadStore — so laoramserve
// checkpoints are backend-agnostic.
func TestSnapshotInterchange(t *testing.T) {
	g := testGeometry(t, 3, 4, 16)
	mem, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	for lvl := 0; lvl < g.Levels(); lvl++ {
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			src := make([]oram.Slot, g.BucketSize(lvl))
			for k := range src {
				if rng.Intn(3) == 0 {
					src[k] = oram.Slot{ID: oram.DummyID}
					continue
				}
				p := make([]byte, g.BlockSize())
				rng.Read(p)
				src[k] = oram.Slot{ID: oram.BlockID(rng.Intn(100)), Leaf: oram.Leaf(rng.Intn(8)), Payload: p}
			}
			if err := mem.WriteBucket(lvl, node, src); err != nil {
				t.Fatal(err)
			}
		}
	}
	var memSnap bytes.Buffer
	if err := mem.Save(&memSnap); err != nil {
		t.Fatal(err)
	}

	disk, _ := openStore(t, g, 1, false) // thrashing budget: Load must not depend on the cache
	defer disk.Close()
	if err := disk.Load(bytes.NewReader(memSnap.Bytes())); err != nil {
		t.Fatal(err)
	}
	for lvl := 0; lvl < g.Levels(); lvl++ {
		want := make([]oram.Slot, g.BucketSize(lvl))
		got := make([]oram.Slot, g.BucketSize(lvl))
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			if err := mem.ReadBucket(lvl, node, want); err != nil {
				t.Fatal(err)
			}
			if err := disk.ReadBucket(lvl, node, got); err != nil {
				t.Fatal(err)
			}
			if !slotsEqual(want, got) {
				t.Fatalf("restored bucket (%d,%d) diverged", lvl, node)
			}
		}
	}

	var diskSnap bytes.Buffer
	if err := disk.Save(&diskSnap); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(memSnap.Bytes(), diskSnap.Bytes()) {
		t.Fatal("disk-backed Save is not byte-identical to PayloadStore.Save")
	}
	mem2, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := mem2.Load(bytes.NewReader(diskSnap.Bytes())); err != nil {
		t.Fatalf("PayloadStore rejected a disk-backed snapshot: %v", err)
	}
}

// TestPrefetchFaultsPathsIn: a hinted path lands in the memory tier as one
// span per tier it crosses and turns the subsequent demand read into
// useful-prefetch hits, without any effect on the returned contents.
func TestPrefetchFaultsPathsIn(t *testing.T) {
	g := testGeometry(t, 6, 4, 16)
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	// Populate, close, and reopen small + prefetching so the cache is cold.
	want := make([][]oram.Slot, g.Levels())
	for lvl := range want {
		want[lvl] = make([]oram.Slot, g.BucketSize(lvl))
		for k := range want[lvl] {
			p := bytes.Repeat([]byte{byte(lvl*16 + k + 1)}, g.BlockSize())
			want[lvl][k] = oram.Slot{ID: oram.BlockID(lvl*10 + k), Leaf: 5, Payload: p}
		}
	}
	if err := st.WritePath(5, want); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = Open(Config{Path: path, Geometry: g, MemBudget: 1, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	spans := uint64(len(st.tiers)) // one per tier: ⌈7/4⌉

	st.PrefetchPaths([]oram.Leaf{5})
	deadline := time.Now().Add(5 * time.Second)
	for st.TierStats().PrefetchIssued < spans {
		if time.Now().After(deadline) {
			t.Fatalf("prefetcher faulted only %d of %d hinted spans", st.TierStats().PrefetchIssued, spans)
		}
		time.Sleep(time.Millisecond)
	}
	got := make([][]oram.Slot, g.Levels())
	for lvl := range got {
		got[lvl] = make([]oram.Slot, g.BucketSize(lvl))
	}
	if err := st.ReadPath(5, got); err != nil {
		t.Fatal(err)
	}
	for lvl := range want {
		if !slotsEqual(want[lvl], got[lvl]) {
			t.Fatalf("prefetched path level %d diverged", lvl)
		}
	}
	ts := st.TierStats()
	if ts.Hits != uint64(g.Levels()) || ts.PrefetchUseful != spans || ts.PrefetchIssued != spans {
		t.Fatalf("demand read of a prefetched path: %+v, want %d bucket hits on %d useful spans", ts, g.Levels(), spans)
	}
	if ts.Misses != 0 {
		t.Fatalf("fully prefetched path still demand-missed: %+v", ts)
	}

	// Duplicate hints on resident paths issue nothing new.
	st.PrefetchPaths([]oram.Leaf{5})
	time.Sleep(10 * time.Millisecond)
	if got := st.TierStats().PrefetchIssued; got != spans {
		t.Fatalf("re-hinting a resident path issued %d extra prefetches", got-spans)
	}
}

// TestPrefetchUsefulCountsThisPeriod: a span prefetched before
// ResetTierStats and demanded after it was issued in the old period, so the
// new one must not count it useful — useful never exceeds issued. Pacing
// still sees the demand: the span leaves the look-ahead's footprint.
func TestPrefetchUsefulCountsThisPeriod(t *testing.T) {
	g := testGeometry(t, 6, 4, 16)
	st, _ := openStore(t, g, 1, true)
	defer st.Close()
	spans := uint64(len(st.tiers))
	st.PrefetchPaths([]oram.Leaf{5})
	deadline := time.Now().Add(5 * time.Second)
	for st.TierStats().PrefetchIssued < spans {
		if time.Now().After(deadline) {
			t.Fatalf("prefetcher faulted only %d of %d hinted spans", st.TierStats().PrefetchIssued, spans)
		}
		time.Sleep(time.Millisecond)
	}
	st.ResetTierStats()
	got := make([][]oram.Slot, g.Levels())
	for lvl := range got {
		got[lvl] = make([]oram.Slot, g.BucketSize(lvl))
	}
	if err := st.ReadPath(5, got); err != nil {
		t.Fatal(err)
	}
	ts := st.TierStats()
	if ts.PrefetchUseful > ts.PrefetchIssued || ts.Misses != 0 {
		t.Fatalf("after a reset between prefetch and demand: %+v, want useful <= issued and no miss", ts)
	}
	st.mu.Lock()
	pf := st.pfBytes
	st.mu.Unlock()
	if pf != 0 {
		t.Fatalf("demanded spans still hold %d bytes of the look-ahead's footprint", pf)
	}
}

// TestPrefetchSkipsTreetopTiers: under a client treetop of five levels the
// prefetcher leaves the tier wholly inside it (levels 0–1 of a ten-level tree)
// on disk and faults in the other two spans of a hinted path, the tier that
// straddles the treetop's edge included.
func TestPrefetchSkipsTreetopTiers(t *testing.T) {
	g := testGeometry(t, 9, 4, 16)
	st, err := Open(Config{Path: filepath.Join(t.TempDir(), "tree.laor"), Geometry: g, MemBudget: 1, Prefetch: true, TreetopLevels: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if len(st.tiers) != 3 || st.tiers[1].lo != 2 {
		t.Fatalf("layout has %d tiers, the second at level %d; want 3, the second at 2", len(st.tiers), st.tiers[1].lo)
	}
	const leaf = oram.Leaf(300)
	resident := func(level int) bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return st.cache[st.locate(level, g.NodeAt(leaf, level)).key()] != nil
	}
	st.PrefetchPaths([]oram.Leaf{leaf})
	deadline := time.Now().Add(5 * time.Second)
	for !resident(g.Levels() - 1) { // tiers are walked top-down: the leaf tier comes last
		if time.Now().After(deadline) {
			t.Fatalf("prefetcher faulted in %d spans and never the leaf tier's", st.TierStats().PrefetchIssued)
		}
		time.Sleep(time.Millisecond)
	}
	if resident(0) || !resident(2) || st.TierStats().PrefetchIssued != 2 {
		t.Fatalf("prefetch issued %d spans (top tier resident %t, treetop-edge tier resident %t), want 2 (false, true)",
			st.TierStats().PrefetchIssued, resident(0), resident(2))
	}
}

// TestPrefetchDropsStaleRead replays, step by step, the interleaving that made
// tiny-cache training runs fail with "block … missing after path reads": the
// prefetcher reads a span outside the store's lock, and inside that window
// the client rewrites a bucket of it — by faulting the span in, writing and
// having it evicted, or, the span not being resident, by writing the record
// around the cache. The prefetcher must not then cache what it read — the
// span before the write. A span waiting in the pending batch is read from
// there, not from the slot it is leaving; and a read of a slot reused by
// another span inside the window is dropped too, its records refused as
// misplaced were they ever handed out.
func TestPrefetchDropsStaleRead(t *testing.T) {
	g := testGeometry(t, 7, 4, 16)
	st, path := openStore(t, g, 1, false) // clamped to two paths of spans: room for three of the 16 leaf-tier spans
	defer st.Close()
	const lvl, node = 7, 5
	l := st.locate(lvl, node)
	// A batch of one span would go down at once at this budget; at its full
	// size, as on a larger cache, an evicted dirty span waits in it.
	l.t.batch = batchSpans
	bucket := func(tag byte) []oram.Slot {
		b := make([]oram.Slot, g.BucketSize(lvl))
		for k := range b {
			b[k] = oram.Slot{ID: oram.BlockID(int(tag)*10 + k), Leaf: node, Payload: bytes.Repeat([]byte{tag}, g.BlockSize())}
		}
		return b
	}
	got := make([]oram.Slot, g.BucketSize(lvl))
	// evict reads a bucket of every other leaf-tier span, which pushes the
	// test span out of the cache (into the pending batch when dirty).
	evict := func() {
		t.Helper()
		for n := uint64(0); n < 1<<lvl; n += 8 {
			if st.locate(lvl, n).root == l.root {
				continue
			}
			if err := st.ReadBucket(lvl, n, got); err != nil {
				t.Fatal(err)
			}
		}
		st.mu.Lock()
		resident := st.cache[l.key()] != nil
		st.mu.Unlock()
		if resident {
			t.Fatal("test span still resident after cycling the cache")
		}
	}
	readsBack := func(want []oram.Slot) {
		t.Helper()
		if err := st.ReadBucket(lvl, node, got); err != nil {
			t.Fatal(err)
		}
		if !slotsEqual(got, want) {
			t.Fatalf("bucket reads back as it was before the write: block ids %d.., want %d..", got[0].ID, want[0].ID)
		}
	}
	v1, v2, v3 := bucket(1), bucket(2), bucket(3)
	if err := st.WriteBucket(lvl, node, v1); err != nil {
		t.Fatal(err)
	}

	// Fault in, write, evict — inside the prefetcher's read window.
	evict()
	sp := st.prefetchRead(l)
	if sp == nil {
		t.Fatal("prefetch read of a non-resident span was skipped")
	}
	readsBack(v1)
	if err := st.WriteBucket(lvl, node, v2); err != nil {
		t.Fatal(err)
	}
	evict()
	st.prefetchInsert(sp)
	readsBack(v2)

	// pendingNow reports whether the test span waits in the batch.
	pendingNow := func() bool {
		st.mu.Lock()
		defer st.mu.Unlock()
		return l.t.pending(l.root) >= 0
	}

	// Write around the cache inside the window: the span waits in the
	// batch, so the write lands in its image there.
	evict()
	if !pendingNow() {
		t.Fatal("the evicted dirty span is not in the pending batch")
	}
	if sp = st.prefetchRead(l); sp == nil {
		t.Fatal("prefetch read of a non-resident span was skipped")
	}
	if err := st.WriteBucket(lvl, node, v3); err != nil {
		t.Fatal(err)
	}
	st.prefetchInsert(sp)
	readsBack(v3)
	if n := st.TierStats().PrefetchIssued; n != 0 {
		t.Fatalf("a cancelled prefetch read was still counted as issued (%d)", n)
	}

	// With nothing written in the window the same two steps do cache it:
	// the span itself, taken back from the batch.
	evict()
	if !pendingNow() {
		t.Fatal("the evicted dirty span is not in the pending batch")
	}
	if sp = st.prefetchRead(l); sp == nil {
		t.Fatal("prefetch read of a non-resident span was skipped")
	}
	st.prefetchInsert(sp)
	if n := st.TierStats().PrefetchIssued; n != 1 {
		t.Fatalf("an undisturbed prefetch read issued %d spans, want 1", n)
	}
	if pendingNow() {
		t.Fatal("the prefetched span is still in the pending batch")
	}
	readsBack(v3)
	if ts := st.TierStats(); ts.PrefetchUseful != 1 {
		t.Fatalf("the demand read of the prefetched span was not counted useful: %+v", ts)
	}

	// The slot the read started on is reused inside the window: the client
	// rewrites the span, whose batch puts it in another slot, and other
	// spans' batches come round to the one it left.
	tr := l.t
	appendNow := func(node uint64, tag byte) {
		t.Helper()
		if err := st.ReadBucket(lvl, node, got); err != nil {
			t.Fatal(err)
		}
		b := bucket(tag)
		for k := range b {
			b[k].Leaf = oram.Leaf(node)
		}
		if err := st.WriteBucket(lvl, node, b); err != nil {
			t.Fatal(err)
		}
		st.mu.Lock()
		defer st.mu.Unlock()
		if err := st.evictLocked(st.cache[st.locate(lvl, node).key()]); err != nil {
			t.Fatal(err)
		}
		if err := st.flushLocked(tr); err != nil {
			t.Fatal(err)
		}
	}
	appendNow(node, 4)
	st.mu.Lock()
	old := tr.slot[l.root]
	st.mu.Unlock()
	if sp = st.prefetchRead(l); sp == nil {
		t.Fatal("prefetch read of a non-resident span was skipped")
	}
	appendNow(node, 5)
	for n, i := uint64(8), 0; ; n, i = (n+8)%(1<<lvl), i+1 {
		st.mu.Lock()
		reused := tr.owner[old] != freeSlot
		st.mu.Unlock()
		if reused {
			break
		}
		if i > 8*len(tr.owner) {
			t.Fatalf("slot %d never reused", old)
		}
		if st.locate(lvl, n).root != l.root {
			appendNow(n, 6)
		}
	}
	// What a pread of the old slot that ended now would have returned.
	copy(sp.buf, readFileRange(t, path, tr.slotOff(int(old)), tr.size))
	for idx := uint(0); idx < tr.buckets; idx++ {
		off, n := tr.at(idx)
		if err := verifyRecord(sp.buf[off:off+n], tr.keyAt(l.root, idx)); err == nil {
			t.Fatalf("record %d of the reused slot verifies as the test span's", idx)
		}
	}
	st.prefetchInsert(sp)
	readsBack(bucket(5))
	if n := st.TierStats().PrefetchIssued; n != 1 {
		t.Fatalf("a read of a reused slot was counted as issued (%d)", n)
	}
}

// TestSealedStore exercises the sealed-at-rest path: payloads round-trip
// through seal/open and the arena never holds plaintext.
func TestSealedStore(t *testing.T) {
	g := testGeometry(t, 3, 4, 32)
	sealer := newTestSealer(t)
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g, Sealer: sealer})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	plain := bytes.Repeat([]byte{0xC3}, g.BlockSize())
	src := make([]oram.Slot, g.BucketSize(1))
	src[0] = oram.Slot{ID: 1, Leaf: 2, Payload: plain}
	for k := 1; k < len(src); k++ {
		src[k] = oram.Slot{ID: oram.DummyID}
	}
	if err := st.WriteBucket(1, 0, src); err != nil {
		t.Fatal(err)
	}
	got := make([]oram.Slot, g.BucketSize(1))
	if err := st.ReadBucket(1, 0, got); err != nil {
		t.Fatal(err)
	}
	if !slotsEqual(src, got) {
		t.Fatalf("sealed round-trip diverged: %+v vs %+v", src, got)
	}
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	raw := readFileRange(t, path, st.recOff(1, 0), recLen(g.BucketSize(1), st.stride))
	if bytes.Contains(raw, plain) {
		t.Fatal("arena holds plaintext payload bytes despite a sealer")
	}
}

// TestJointAccessOnDisk: the joint multi-key access (oram.Client.AccessBatch)
// over a disk arena with a cache of a tenth of the tree — bucket unions
// faulting in and written back on eviction — is checked against a plain map at
// several chunk sizes (invariant #2; the tier stays invisible, invariant #14).
func TestJointAccessOnDisk(t *testing.T) {
	for _, chunk := range []int{3, 16, 64} {
		g := testGeometry(t, 6, 4, 16)
		st, _ := openStore(t, g, CacheBytes(g, nil)/10, true)
		client, err := oram.NewClient(oram.ClientConfig{
			Store: st, Rand: rand.New(rand.NewSource(3)),
			Evict: oram.PaperEvict, StashHits: true, Blocks: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		ref := make(map[oram.BlockID][]byte)
		var known []oram.BlockID
		rng := rand.New(rand.NewSource(int64(chunk)))
		for round := 0; round < 120; round++ {
			k := 1 + rng.Intn(chunk)
			ids, rows := make([]oram.BlockID, k), make([][]byte, k)
			if len(known) == 0 || rng.Intn(2) == 0 {
				for i := range ids {
					ids[i] = oram.BlockID(rng.Intn(64))
					rows[i] = make([]byte, 16)
					binary.LittleEndian.PutUint64(rows[i], rng.Uint64())
				}
				if err := client.AccessBatch(oram.OpWrite, ids, rows, nil); err != nil {
					t.Fatalf("chunk %d round %d: %v", chunk, round, err)
				}
				for i, id := range ids {
					if ref[id] == nil {
						known = append(known, id)
					}
					ref[id] = rows[i]
				}
				continue
			}
			for i := range ids {
				ids[i] = known[rng.Intn(len(known))]
			}
			if err := client.AccessBatch(oram.OpRead, ids, nil, rows); err != nil {
				t.Fatalf("chunk %d round %d: %v", chunk, round, err)
			}
			for i, id := range ids {
				if !bytes.Equal(rows[i], ref[id]) {
					t.Fatalf("chunk %d round %d: block %d = %x, want %x", chunk, round, id, rows[i], ref[id])
				}
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
