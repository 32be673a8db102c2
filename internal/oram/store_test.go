package oram

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
)

func testGeom(t *testing.T, blockSize int) *Geometry {
	t.Helper()
	return MustGeometry(GeometryConfig{LeafBits: 4, LeafZ: 3, BlockSize: blockSize})
}

func TestMetaStoreRoundTrip(t *testing.T) {
	g := testGeom(t, 128)
	st := NewMetaStore(g)
	if st.Geometry() != g {
		t.Fatal("geometry not retained")
	}
	// All slots start dummy.
	buf := make([]Slot, g.BucketSize(0))
	if err := st.ReadBucket(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		if !buf[i].Dummy() {
			t.Errorf("slot %d not dummy at init", i)
		}
	}
	// Write and read back a bucket.
	src := []Slot{{ID: 7, Leaf: 3}, {ID: 9, Leaf: 12}, DummySlot()}
	if err := st.WriteBucket(2, 1, src); err != nil {
		t.Fatal(err)
	}
	got := make([]Slot, 3)
	if err := st.ReadBucket(2, 1, got); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i].ID != src[i].ID || got[i].Leaf != src[i].Leaf {
			t.Errorf("slot %d: got %+v, want %+v", i, got[i], src[i])
		}
		if got[i].Payload != nil {
			t.Errorf("slot %d: MetaStore returned payload", i)
		}
	}
}

func TestMetaStoreBounds(t *testing.T) {
	g := testGeom(t, 0)
	st := NewMetaStore(g)
	buf := make([]Slot, 3)
	if err := st.ReadBucket(-1, 0, buf); err == nil {
		t.Error("negative level accepted")
	}
	if err := st.ReadBucket(g.Levels(), 0, buf); err == nil {
		t.Error("level past leaves accepted")
	}
	if err := st.ReadBucket(2, 4, buf); err == nil {
		t.Error("node out of range accepted")
	}
	if err := st.ReadBucket(0, 0, make([]Slot, 2)); err == nil {
		t.Error("wrong buffer size accepted")
	}
	if err := st.WriteBucket(0, 0, make([]Slot, 5)); err == nil {
		t.Error("wrong src size accepted")
	}
}

func TestPayloadStoreRoundTrip(t *testing.T) {
	g := testGeom(t, 16)
	st, err := NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	pay := bytes.Repeat([]byte{0xAB}, 16)
	src := []Slot{{ID: 1, Leaf: 2, Payload: pay}, DummySlot(), {ID: 3, Leaf: 0, Payload: bytes.Repeat([]byte{0x01}, 16)}}
	if err := st.WriteBucket(1, 1, src); err != nil {
		t.Fatal(err)
	}
	got := make([]Slot, 3)
	if err := st.ReadBucket(1, 1, got); err != nil {
		t.Fatal(err)
	}
	if got[0].ID != 1 || !bytes.Equal(got[0].Payload, pay) {
		t.Errorf("slot 0 mismatch: %+v", got[0])
	}
	if !got[1].Dummy() || got[1].Payload != nil {
		t.Errorf("slot 1 should be dummy: %+v", got[1])
	}
	// Returned payload is a copy: mutating it must not affect the store.
	got[0].Payload[0] = 0xFF
	again := make([]Slot, 3)
	if err := st.ReadBucket(1, 1, again); err != nil {
		t.Fatal(err)
	}
	if again[0].Payload[0] != 0xAB {
		t.Error("store payload aliased caller slice")
	}
	// Wrong payload length rejected.
	if err := st.WriteSlot(0, 0, 0, Slot{ID: 5, Payload: []byte{1, 2}}); err == nil {
		t.Error("short payload accepted")
	}
	// Overwriting with a dummy clears.
	if err := st.WriteSlot(1, 1, 0, DummySlot()); err != nil {
		t.Fatal(err)
	}
	var s Slot
	if err := st.ReadSlot(1, 1, 0, &s); err != nil {
		t.Fatal(err)
	}
	if !s.Dummy() {
		t.Errorf("dummy overwrite failed: %+v", s)
	}
}

func TestPayloadStoreRequiresBlockSize(t *testing.T) {
	g := testGeom(t, 0)
	if _, err := NewPayloadStore(g, nil); err == nil {
		t.Error("BlockSize=0 accepted")
	}
}

// xorSealer is a toy Sealer for store-level tests (the real AES sealer is
// tested in internal/crypto and in the integration tests).
type xorSealer struct{ key byte }

func (x *xorSealer) SealedSize(plain int) int { return plain + 1 }
func (x *xorSealer) SealTo(dst, plain []byte) error {
	dst[0] = 0x5A
	for i, b := range plain {
		dst[i+1] = b ^ x.key
	}
	return nil
}
func (x *xorSealer) OpenTo(dst, sealed []byte) error {
	for i := range dst {
		dst[i] = sealed[i+1] ^ x.key
	}
	return nil
}

func TestPayloadStoreSealed(t *testing.T) {
	g := testGeom(t, 8)
	st, err := NewPayloadStore(g, &xorSealer{key: 0x77})
	if err != nil {
		t.Fatal(err)
	}
	pay := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	if err := st.WriteSlot(3, 2, 1, Slot{ID: 11, Leaf: 4, Payload: pay}); err != nil {
		t.Fatal(err)
	}
	// The arena must not contain the plaintext.
	if bytes.Contains(st.arena, pay) {
		t.Error("plaintext visible in sealed arena")
	}
	var s Slot
	if err := st.ReadSlot(3, 2, 1, &s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.Payload, pay) {
		t.Errorf("sealed round trip = %v, want %v", s.Payload, pay)
	}
}

func TestCountingStore(t *testing.T) {
	g := testGeom(t, 32)
	cs := NewCountingStore(NewMetaStore(g), nil)
	buf := make([]Slot, 3)
	if err := cs.ReadBucket(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	if err := cs.WriteBucket(0, 0, buf); err != nil {
		t.Fatal(err)
	}
	var s Slot
	if err := cs.ReadSlot(1, 0, 0, &s); err != nil {
		t.Fatal(err)
	}
	if err := cs.WriteSlot(1, 0, 0, s); err != nil {
		t.Fatal(err)
	}
	// A slot read is the bucket read it is made of, and a slot write a bucket
	// read plus a bucket write: 3 reads and 2 writes of 3-slot buckets.
	c := cs.Counters()
	if c.BucketReads != 3 || c.BucketWrites != 2 {
		t.Errorf("bucket counts = %d/%d, want 3/2", c.BucketReads, c.BucketWrites)
	}
	if c.SlotReads != 9 || c.SlotWrites != 6 {
		t.Errorf("slot counts = %d/%d, want 9/6 (3 per bucket)", c.SlotReads, c.SlotWrites)
	}
	if c.BytesRead != 9*32 || c.BytesWritten != 6*32 {
		t.Errorf("byte counts = %d/%d, want 288/192", c.BytesRead, c.BytesWritten)
	}
	slots, bytesMoved := c.Total()
	if slots != 15 || bytesMoved != 480 {
		t.Errorf("Total = %d slots %d bytes, want 15/480", slots, bytesMoved)
	}
	var levels [maxLevels]uint64
	levels[0], levels[1] = 2, 3
	if c.LevelTransfers != levels {
		t.Errorf("level transfers = %v, want %v", c.LevelTransfers[:g.Levels()], levels[:g.Levels()])
	}
	prev := cs.Counters()
	if err := cs.ReadSlot(1, 0, 0, &s); err != nil {
		t.Fatal(err)
	}
	d := cs.Counters().Sub(prev)
	if d.SlotReads != 3 || d.SlotWrites != 0 || d.LevelTransfers[1] != 1 || d.LevelTransfers[0] != 0 {
		t.Errorf("windowed delta = %+v", d)
	}
	cs.ResetCounters()
	if c := cs.Counters(); c.SlotReads != 0 {
		t.Error("reset failed")
	}
}

func TestCountingStoreRefusesAHook(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("a non-nil second argument was accepted")
		}
	}()
	NewCountingStore(NewMetaStore(testGeom(t, 8)), struct{}{})
}

// fillDistinct sets every uint64 field of *p, array elements included, to a
// distinct non-zero value starting at base.
func fillDistinct(p any, base uint64) {
	v := reflect.ValueOf(p).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() == reflect.Array {
			for k := 0; k < f.Len(); k++ {
				base++
				f.Index(k).SetUint(base)
			}
			continue
		}
		base++
		f.SetUint(base)
	}
}

// TestStatsAddSub: Add and Sub are inverses over every field of AccessStats
// and Counters, so a field added to either struct and forgotten in one of
// them fails here rather than vanishing from the shard sums.
func TestStatsAddSub(t *testing.T) {
	var s, ds AccessStats
	fillDistinct(&s, 1000)
	fillDistinct(&ds, 10)
	if got := s.Add(ds).Sub(ds); got != s {
		t.Errorf("AccessStats: x.Add(y).Sub(y) = %+v, want %+v", got, s)
	}
	var c, dc Counters
	fillDistinct(&c, 1000)
	fillDistinct(&dc, 10)
	if got := c.Add(dc).Sub(dc); got != c {
		t.Errorf("Counters: x.Add(y).Sub(y) = %+v, want %+v", got, c)
	}
}

// TestCountingStoreChargeEquivalence: CountingStore charges once per store
// call, and the ledger must not show it — the same bucket set moved bucket by
// bucket and as one batch (a path's refs, root first) produces identical
// Counters, per-level transfers included (one per level of the path), over a
// store the wrapper unrolls (MetaStore) and one it delegates to
// (PayloadStore), reads and writes alike.
func TestCountingStoreChargeEquivalence(t *testing.T) {
	// A fat tree: bucket sizes differ by level, so a level mix-up shows.
	g := MustGeometry(GeometryConfig{LeafBits: 5, LeafZ: 2, RootZ: 7, Profile: ProfileLinear, BlockSize: 24})
	inners := map[string]func() Store{
		"MetaStore": func() Store { return NewMetaStore(g) },
		"PayloadStore": func() Store {
			ps, err := NewPayloadStore(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			return ps
		},
	}
	leaf := Leaf(19)
	refs := make([]BucketRef, g.Levels())
	for lvl := range refs {
		refs[lvl] = BucketRef{Level: lvl, Node: g.NodeAt(leaf, lvl)}
	}
	type shape struct {
		name string
		move func(cs *CountingStore, bufs [][]Slot) error
	}
	reads := []shape{
		{"ReadBucket×n", func(cs *CountingStore, bufs [][]Slot) error {
			for i, r := range refs {
				if err := cs.ReadBucket(r.Level, r.Node, bufs[i]); err != nil {
					return err
				}
			}
			return nil
		}},
		{"ReadBuckets", func(cs *CountingStore, bufs [][]Slot) error { return cs.ReadBuckets(refs, bufs) }},
	}
	writes := []shape{
		{"WriteBucket×n", func(cs *CountingStore, bufs [][]Slot) error {
			for i, r := range refs {
				if err := cs.WriteBucket(r.Level, r.Node, bufs[i]); err != nil {
					return err
				}
			}
			return nil
		}},
		{"WriteBuckets", func(cs *CountingStore, bufs [][]Slot) error { return cs.WriteBuckets(refs, bufs) }},
	}
	for name, mk := range inners {
		for _, shapes := range [][]shape{reads, writes} {
			var want Counters
			for i, sh := range shapes {
				cs := NewCountingStore(mk(), nil)
				bufs := make([][]Slot, len(refs))
				for lvl := range bufs {
					bufs[lvl] = make([]Slot, g.BucketSize(lvl))
					for k := range bufs[lvl] {
						bufs[lvl][k] = DummySlot()
					}
				}
				if err := sh.move(cs, bufs); err != nil {
					t.Fatalf("%s %s: %v", name, sh.name, err)
				}
				if i == 0 {
					want = cs.Counters()
					var onePerLevel [maxLevels]uint64
					for lvl := range refs {
						onePerLevel[lvl] = 1
					}
					if slots, _ := want.Total(); slots != uint64(g.PathSlots()) || want.LevelTransfers != onePerLevel {
						t.Fatalf("%s %s: moved %d slots, level transfers %v; want %d, one per level", name, sh.name, slots, want.LevelTransfers[:g.Levels()], g.PathSlots())
					}
					continue
				}
				if got := cs.Counters(); got != want {
					t.Errorf("%s %s: counters %+v, want %+v (as %s)", name, sh.name, got, want, shapes[0].name)
				}
			}
		}
	}
}

// TestCountingStoreConcurrentCharge: a server's workers charge one
// CountingStore concurrently (the laoramserve shape). Four goroutines moving
// disjoint subtrees through the batch path must add up to the serial sum.
func TestCountingStoreConcurrentCharge(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 6, LeafZ: 4, BlockSize: 16})
	ps, err := NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := NewCountingStore(ps, nil)
	const workers, rounds = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Worker w moves the leftmost path of the level-2 subtree rooted
			// at node w, so no two workers share a bucket.
			var refs []BucketRef
			var bufs [][]Slot
			for lvl := 2; lvl < g.Levels(); lvl++ {
				refs = append(refs, BucketRef{Level: lvl, Node: uint64(w) << uint(lvl-2)})
				bufs = append(bufs, make([]Slot, g.BucketSize(lvl)))
			}
			for r := 0; r < rounds; r++ {
				if err := cs.ReadBuckets(refs, bufs); err != nil {
					t.Error(err)
					return
				}
				if err := cs.WriteBuckets(refs, bufs); err != nil {
					t.Error(err)
					return
				}
				cs.Counters() // a concurrent reader, as opStats/Stats would be
			}
		}()
	}
	wg.Wait()
	buckets := uint64(workers * rounds * (g.Levels() - 2))
	slots := buckets * uint64(g.BucketSize(0))
	want := Counters{
		BucketReads: buckets, BucketWrites: buckets,
		SlotReads: slots, SlotWrites: slots,
		BytesRead: slots * uint64(g.BlockSize()), BytesWritten: slots * uint64(g.BlockSize()),
	}
	for lvl := 2; lvl < g.Levels(); lvl++ {
		want.LevelTransfers[lvl] = 2 * workers * rounds
	}
	if got := cs.Counters(); got != want {
		t.Errorf("concurrent totals %+v, want the serial sum %+v", got, want)
	}
}
