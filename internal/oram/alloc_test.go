package oram

import (
	"math/rand"
	"testing"

	"repro/internal/crypto"
)

// alloc_test.go gates the allocation-free hot path (the PR's tentpole):
// after warm-up, a PathORAM access over the local MetaStore path must not
// allocate at all — the stash slab, the write-back sweep's scratch and the
// recycled read/write buffers absorb every step of the cycle.

func allocTestClient(t *testing.T) *Client {
	t.Helper()
	g := MustGeometry(GeometryConfig{LeafBits: 10, LeafZ: 4, BlockSize: 0})
	c, err := NewClient(ClientConfig{
		Store:     NewCountingStore(NewMetaStore(g), nil),
		Rand:      rand.New(rand.NewSource(11)),
		Evict:     PaperEvict,
		StashHits: true,
		Blocks:    1 << 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(1<<11, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Warm up stash slab, write-back scratch and map capacities.
	for i := 0; i < 2048; i++ {
		if _, err := c.Access(OpRead, BlockID(uint64(i)%(1<<11)), nil); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestAccessAllocs: a steady-state access (path read, remap, greedy
// write-back, background eviction) on the MetaStore path has an allocation
// budget of zero.
func TestAccessAllocs(t *testing.T) {
	c := allocTestClient(t)
	rng := rand.New(rand.NewSource(12))
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := c.Access(OpRead, BlockID(uint64(rng.Int63n(1<<11))), nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("Access allocates %.2f objects/op in steady state, want 0", allocs)
	}
}

// TestWriteBackAllocs: the eviction half in isolation (plan + write) with
// the stash refilled by a path read each round — budget zero.
func TestWriteBackAllocs(t *testing.T) {
	c := allocTestClient(t)
	rng := rand.New(rand.NewSource(13))
	leaves := int64(c.Geometry().Leaves())
	path := make([]Leaf, 1)
	allocs := testing.AllocsPerRun(500, func() {
		path[0] = Leaf(rng.Int63n(leaves))
		if err := c.ReadPaths(path); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteBackPath(path[0]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("ReadPaths+WriteBackPath allocates %.2f objects/op in steady state, want 0", allocs)
	}
}

// TestWriteBackPathsAllocs: the multi-path joint write-back (the LAORAM
// bin primitive) also runs allocation-free once its scratch has warmed up —
// for a bin's pair of paths over the metadata-only store (per-bucket branch)
// and over an unsealed PayloadStore (batched branch), and at the batch shape (64 paths, a union of
// ~650 buckets, a stash of ~2 000) where it leans hardest on that scratch.
func TestWriteBackPathsAllocs(t *testing.T) {
	t.Run("pair", func(t *testing.T) {
		round := jointRound(t, allocTestClient(t), 2, 14)
		for i := 0; i < 64; i++ {
			round() // warm the multi-path scratch
		}
		allocs := testing.AllocsPerRun(300, round)
		if allocs > 0 {
			t.Errorf("ReadPaths+WriteBackPaths allocates %.2f objects/op in steady state, want 0", allocs)
		}
	})
	t.Run("local-payload", func(t *testing.T) {
		ps, err := NewPayloadStore(payloadAllocGeom, nil)
		if err != nil {
			t.Fatal(err)
		}
		c, _ := payloadAllocClient(t, NewCountingStore(ps, nil))
		round := jointRound(t, c, 2, 20)
		for i := 0; i < 64; i++ {
			round()
		}
		if allocs := testing.AllocsPerRun(300, round); allocs > 0 {
			t.Errorf("ReadPaths+WriteBackPaths over an unsealed PayloadStore allocates %.2f objects/op in steady state, want 0", allocs)
		}
	})
	t.Run("batch", func(t *testing.T) {
		s := newBatchShape(t, batchShapeWaiting)
		peak := s.c.Stash().Peak()
		if peak < 1800 || peak > 2600 {
			t.Errorf("batch shape stashes %d blocks at its peak, want about 2000", peak)
		}
		allocs := testing.AllocsPerRun(100, func() { s.round(t) })
		if allocs > 0 {
			t.Errorf("batched ReadPaths+WriteBackPaths allocates %.2f objects/op in steady state, want 0", allocs)
		}
		// The scratch is sized by the stash and the bucket union, not by
		// the table (2^16 blocks) or the tree (2^17 buckets).
		m := &s.c.multi
		union := batchShapePaths * s.c.Geometry().Levels()
		if cap(m.refs) > 4*union || cap(m.bufs) > 4*union || cap(m.at) > 4*union ||
			cap(m.parent) > 4*union || cap(m.room) > 4*union ||
			cap(m.nodes) > 4*peak || cap(m.spareNodes) > 4*peak || cap(m.placed) > 4*peak {
			t.Errorf("multipath scratch outgrew O(stash + union): refs %d bufs %d at %d parent %d room %d (union <= %d), nodes %d+%d placed %d (stash peak %d)",
				cap(m.refs), cap(m.bufs), cap(m.at), cap(m.parent), cap(m.room), union, cap(m.nodes), cap(m.spareNodes), cap(m.placed), peak)
		}
		// Per call: one node per stashed block (not one per level it
		// climbs), one parent and one room count per union bucket, and a
		// prefix table of at most 8 entries per distinct leaf.
		if len(m.nodes) > peak || len(m.parent) != len(m.refs) || len(m.room) != len(m.refs) {
			t.Errorf("last write-back: %d nodes (stash peak %d), %d parents and %d room counts for %d union buckets",
				len(m.nodes), peak, len(m.parent), len(m.room), len(m.refs))
		}
		if len(m.prefix) > 8*len(m.leaves)+1 || cap(m.prefix) > 4*(8*batchShapePaths+1) {
			t.Errorf("prefix table: %d entries (cap %d) for %d distinct leaves, want <= 8 per leaf + 1",
				len(m.prefix), cap(m.prefix), len(m.leaves))
		}
	})
}

// TestAccessBatchAllocs: the joint multi-key access — gather, batched
// fetch of the bucket union, remap and serve, joint write-back, background
// eviction — allocates nothing in steady state beyond the caller-owned
// copies a read returns: zero on the metadata-only path and for writes, one
// object per key for payload-bearing reads.
func TestAccessBatchAllocs(t *testing.T) {
	const chunk = 32
	ids := make([]BlockID, chunk)
	out := make([][]byte, chunk)
	draw := func(rng *rand.Rand, blocks uint64) {
		for i := range ids {
			ids[i] = BlockID(rng.Int63n(int64(blocks))) // repeats and stash hits included
		}
	}
	t.Run("meta", func(t *testing.T) {
		c := allocTestClient(t)
		rng := rand.New(rand.NewSource(17))
		round := func() {
			draw(rng, 1<<11)
			if err := c.AccessBatch(OpRead, ids, nil, out); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			round() // warm the joint-access scratch
		}
		if allocs := testing.AllocsPerRun(200, round); allocs > 0 {
			t.Errorf("AccessBatch allocates %.2f objects per %d-key chunk in steady state, want 0", allocs, chunk)
		}
	})
	t.Run("sealed", func(t *testing.T) {
		c, blocks := sealedAllocClient(t)
		rng := rand.New(rand.NewSource(18))
		data := make([][]byte, chunk)
		for i := range data {
			data[i] = make([]byte, 64)
		}
		read := func() {
			draw(rng, blocks)
			if err := c.AccessBatch(OpRead, ids, nil, out); err != nil {
				t.Fatal(err)
			}
		}
		write := func() {
			draw(rng, blocks)
			if err := c.AccessBatch(OpWrite, ids, data, nil); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 64; i++ {
			read()
			write()
		}
		if allocs := testing.AllocsPerRun(200, write); allocs > 0 {
			t.Errorf("sealed AccessBatch write allocates %.2f objects per chunk in steady state, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(200, read); allocs > chunk {
			t.Errorf("sealed AccessBatch read allocates %.2f objects per %d-key chunk, want <= %d (the returned copies)", allocs, chunk, chunk)
		}
	})
}

func sealedAllocClient(t *testing.T) (*Client, uint64) {
	t.Helper()
	sealer, err := crypto.NewSealer(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	ps, err := NewPayloadStore(payloadAllocGeom, sealer)
	if err != nil {
		t.Fatal(err)
	}
	return payloadAllocClient(t, NewCountingStore(ps, nil))
}

var payloadAllocGeom = MustGeometry(GeometryConfig{LeafBits: 8, LeafZ: 4, BlockSize: 64})

// payloadAllocClient loads 2^9 rows into a client over st (a payload-bearing
// store of payloadAllocGeom) and warms it up.
func payloadAllocClient(t *testing.T, st Store) (*Client, uint64) {
	t.Helper()
	blocks := uint64(1) << 9
	c, err := NewClient(ClientConfig{
		Store:     st,
		Rand:      rand.New(rand.NewSource(15)),
		Evict:     PaperEvict,
		StashHits: true,
		Blocks:    blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]byte, 64)
	if err := c.Load(blocks, nil, func(id BlockID) []byte {
		for i := range row {
			row[i] = byte(uint64(id) + uint64(i))
		}
		return row
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1024; i++ {
		if _, err := c.Access(OpRead, BlockID(uint64(i)%blocks), nil); err != nil {
			t.Fatal(err)
		}
	}
	return c, blocks
}

// batchCallSpy counts which shape a client's joint operations reach a local
// payload store in.
type batchCallSpy struct {
	*PayloadStore
	bucketCalls, batchCalls int
}

func (s *batchCallSpy) ReadBucket(level int, node uint64, dst []Slot) error {
	s.bucketCalls++
	return s.PayloadStore.ReadBucket(level, node, dst)
}

func (s *batchCallSpy) WriteBucket(level int, node uint64, src []Slot) error {
	s.bucketCalls++
	return s.PayloadStore.WriteBucket(level, node, src)
}

func (s *batchCallSpy) ReadBuckets(refs []BucketRef, dst [][]Slot) error {
	s.batchCalls++
	return s.PayloadStore.ReadBuckets(refs, dst)
}

func (s *batchCallSpy) WriteBuckets(refs []BucketRef, src [][]Slot) error {
	s.batchCalls++
	return s.PayloadStore.WriteBuckets(refs, src)
}

// TestReadPathsLocalBatchAllocs: a joint fetch over an unsealed local
// PayloadStore takes the batched branch — one ReadBuckets and one
// WriteBuckets call per round behind the CountingStore, no per-bucket call —
// and that branch, batch buffers included, allocates nothing in steady state.
func TestReadPathsLocalBatchAllocs(t *testing.T) {
	ps, err := NewPayloadStore(payloadAllocGeom, nil)
	if err != nil {
		t.Fatal(err)
	}
	spy := &batchCallSpy{PayloadStore: ps}
	c, _ := payloadAllocClient(t, NewCountingStore(spy, nil))
	round := jointRound(t, c, 8, 19)
	for i := 0; i < 64; i++ {
		round()
	}
	spy.bucketCalls, spy.batchCalls = 0, 0
	const runs = 200
	allocs := testing.AllocsPerRun(runs, round)
	if allocs > 0 {
		t.Errorf("local batched ReadPaths+WriteBackPaths allocates %.2f objects/op in steady state, want 0", allocs)
	}
	// AllocsPerRun calls round once more to warm up.
	if spy.bucketCalls != 0 || spy.batchCalls != 2*(runs+1) {
		t.Errorf("%d rounds made %d batch and %d per-bucket store calls, want %d and 0", runs+1, spy.batchCalls, spy.bucketCalls, 2*(runs+1))
	}
}

// jointRound returns one joint fetch + joint write-back of n distinct random
// paths of c's tree.
func jointRound(t *testing.T, c *Client, n int, seed int64) func() {
	rng := rand.New(rand.NewSource(seed))
	leaves := int64(c.Geometry().Leaves())
	var set LeafSet
	return func() {
		set.Reset()
		for len(set.Leaves()) < n {
			set.Add(Leaf(rng.Int63n(leaves)))
		}
		if err := c.ReadPaths(set.Leaves()); err != nil {
			t.Fatal(err)
		}
		if err := c.WriteBackPaths(set.Leaves()); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAccessSealedAllocBudget: with a payload-bearing sealed store the only
// remaining steady-state allocation of Access is the caller-owned copy an
// OpRead returns — budget exactly one object per read.
func TestAccessSealedAllocBudget(t *testing.T) {
	c, blocks := sealedAllocClient(t)
	rng := rand.New(rand.NewSource(16))
	allocs := testing.AllocsPerRun(300, func() {
		out, err := c.Access(OpRead, BlockID(uint64(rng.Int63n(int64(blocks)))), nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 64 {
			t.Fatalf("read returned %d bytes", len(out))
		}
	})
	if allocs > 1 {
		t.Errorf("sealed Access allocates %.2f objects/op in steady state, want <= 1 (the returned copy)", allocs)
	}
}

// TestAccessSealedAllocs: ReadInto with a recycled buffer closes the last
// gap — the whole sealed access cycle (path read, decrypt into re-armed
// client buffers, stash copy, reseal, write-back, background eviction,
// result copy) has an allocation budget of zero.
func TestAccessSealedAllocs(t *testing.T) {
	c, blocks := sealedAllocClient(t)
	rng := rand.New(rand.NewSource(16))
	buf := make([]byte, 64)
	allocs := testing.AllocsPerRun(500, func() {
		out, err := c.ReadInto(BlockID(uint64(rng.Int63n(int64(blocks)))), buf)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 64 {
			t.Fatalf("read returned %d bytes", len(out))
		}
	})
	if allocs > 0 {
		t.Errorf("sealed ReadInto allocates %.2f objects/op in steady state, want 0", allocs)
	}
}

// TestReadIntoMatchesAccess: ReadInto returns the same bytes Access does
// and accepts undersized or nil buffers by growing.
func TestReadIntoMatchesAccess(t *testing.T) {
	c, blocks := sealedAllocClient(t)
	for i := uint64(0); i < 32; i++ {
		id := BlockID(i % blocks)
		want, err := c.Access(OpRead, id, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, buf := range [][]byte{nil, make([]byte, 3), make([]byte, 64)} {
			got, err := c.ReadInto(id, buf)
			if err != nil {
				t.Fatal(err)
			}
			if !bytesEqual(got, want) {
				t.Fatalf("block %d: ReadInto diverged from Access", id)
			}
		}
	}
}

func bytesEqual(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
