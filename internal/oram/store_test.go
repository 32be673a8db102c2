package oram

import (
	"bytes"
	"slices"
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
	// Single-slot ops.
	if err := st.WriteSlot(4, 9, 1, Slot{ID: 42, Leaf: 9}); err != nil {
		t.Fatal(err)
	}
	var s Slot
	if err := st.ReadSlot(4, 9, 1, &s); err != nil {
		t.Fatal(err)
	}
	if s.ID != 42 || s.Leaf != 9 {
		t.Errorf("ReadSlot = %+v, want ID 42 leaf 9", s)
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
	var s Slot
	if err := st.ReadSlot(0, 0, 3, &s); err == nil {
		t.Error("slot out of range accepted")
	}
	if err := st.WriteSlot(0, 0, -1, s); err == nil {
		t.Error("negative slot accepted")
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

type recordTicker struct{ events []int }

func (r *recordTicker) OnTransfer(bytes int) { r.events = append(r.events, bytes) }

func TestCountingStore(t *testing.T) {
	g := testGeom(t, 32)
	tick := &recordTicker{}
	cs := NewCountingStore(NewMetaStore(g), tick)
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
	c := cs.Counters()
	if c.BucketReads != 1 || c.BucketWrites != 1 {
		t.Errorf("bucket counts = %d/%d, want 1/1", c.BucketReads, c.BucketWrites)
	}
	if c.SlotReads != 4 || c.SlotWrites != 4 {
		t.Errorf("slot counts = %d/%d, want 4/4 (3+1 each way)", c.SlotReads, c.SlotWrites)
	}
	if c.BytesRead != 4*32 || c.BytesWritten != 4*32 {
		t.Errorf("byte counts = %d/%d, want 128/128", c.BytesRead, c.BytesWritten)
	}
	slots, bytesMoved := c.Total()
	if slots != 8 || bytesMoved != 256 {
		t.Errorf("Total = %d slots %d bytes, want 8/256", slots, bytesMoved)
	}
	if len(tick.events) != 4 {
		t.Errorf("ticker saw %d events, want 4", len(tick.events))
	}
	prev := cs.Counters()
	if err := cs.ReadSlot(1, 0, 0, &s); err != nil {
		t.Fatal(err)
	}
	d := cs.Counters().Sub(prev)
	if d.SlotReads != 1 || d.SlotWrites != 0 {
		t.Errorf("windowed delta = %+v", d)
	}
	cs.ResetCounters()
	if c := cs.Counters(); c.SlotReads != 0 {
		t.Error("reset failed")
	}
}

// TestCountingStoreChargeEquivalence: CountingStore charges once per store
// call, and the ledger must not show it — the same bucket set moved bucket by
// bucket, as one path and as one batch produces identical Counters and an
// identical per-bucket OnTransfer sequence, over a store the wrapper unrolls
// (MetaStore) and one it delegates to (PayloadStore), reads and writes alike.
func TestCountingStoreChargeEquivalence(t *testing.T) {
	// A fat tree: bucket sizes differ by level, so the OnTransfer order shows.
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
		{"ReadPath", func(cs *CountingStore, bufs [][]Slot) error { return cs.ReadPath(leaf, bufs) }},
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
		{"WritePath", func(cs *CountingStore, bufs [][]Slot) error { return cs.WritePath(leaf, bufs) }},
		{"WriteBuckets", func(cs *CountingStore, bufs [][]Slot) error { return cs.WriteBuckets(refs, bufs) }},
	}
	for name, mk := range inners {
		for _, shapes := range [][]shape{reads, writes} {
			var want Counters
			var wantTicks []int
			for i, sh := range shapes {
				tick := &recordTicker{}
				cs := NewCountingStore(mk(), tick)
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
					want, wantTicks = cs.Counters(), tick.events
					if slots, _ := want.Total(); slots != uint64(g.PathSlots()) || len(wantTicks) != g.Levels() {
						t.Fatalf("%s %s: moved %d slots in %d transfers, want %d in %d", name, sh.name, slots, len(wantTicks), g.PathSlots(), g.Levels())
					}
					continue
				}
				if got := cs.Counters(); got != want {
					t.Errorf("%s %s: counters %+v, want %+v (as %s)", name, sh.name, got, want, shapes[0].name)
				}
				if !slices.Equal(tick.events, wantTicks) {
					t.Errorf("%s %s: OnTransfer sequence %v, want %v (as %s)", name, sh.name, tick.events, wantTicks, shapes[0].name)
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
	if got := cs.Counters(); got != want {
		t.Errorf("concurrent totals %+v, want the serial sum %+v", got, want)
	}
}
