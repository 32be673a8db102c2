package oram

import (
	"math/rand"
	"testing"

	"repro/internal/crypto"
)

// benchSealer builds a deterministic-key sealer for the sealed benchmarks.
func benchSealer(b *testing.B) Sealer {
	b.Helper()
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 3)
	}
	s, err := crypto.NewSealer(key)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// hotpath_bench_test.go measures the per-access engine cost the paper's
// argument rests on (look-ahead only pays off if the client CPU path is not
// the bottleneck): one full PathORAM access cycle, one write-back, and the
// raw eviction planning, all in steady state. Run with -benchmem; the
// companion alloc gates live in alloc_test.go.

// benchClient builds a loaded steady-state client over a MetaStore.
func benchClient(b *testing.B, leafBits int) *Client {
	b.Helper()
	g := MustGeometry(GeometryConfig{LeafBits: leafBits, LeafZ: 4, BlockSize: 0})
	cs := NewCountingStore(NewMetaStore(g), nil)
	blocks := uint64(1) << uint(leafBits+1)
	c, err := NewClient(ClientConfig{
		Store:     cs,
		Rand:      rand.New(rand.NewSource(1)),
		Evict:     PaperEvict,
		StashHits: true,
		Blocks:    blocks,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Load(blocks, nil, nil); err != nil {
		b.Fatal(err)
	}
	// Warm up: let stash, scratch and buffers reach steady state.
	for i := 0; i < 512; i++ {
		if _, err := c.Access(OpRead, BlockID(uint64(i)%blocks), nil); err != nil {
			b.Fatal(err)
		}
	}
	c.ResetStats()
	return c
}

// BenchmarkAccessSteadyState is one full PathORAM access (stash lookup,
// path read, remap, greedy write-back, background eviction) on a
// metadata-only store: the pure client-CPU cost with server I/O reduced to
// array copies.
func BenchmarkAccessSteadyState(b *testing.B) {
	c := benchClient(b, 12)
	blocks := c.PosMap().Len()
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Access(OpRead, BlockID(uint64(rng.Int63n(int64(blocks)))), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteBackPath isolates the eviction half of the cycle: plan the
// greedy write-back for one path and execute it (the read refills the stash
// so the planner always has work).
func BenchmarkWriteBackPath(b *testing.B) {
	c := benchClient(b, 12)
	rng := rand.New(rand.NewSource(3))
	leaves := c.Geometry().Leaves()
	path := make([]Leaf, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path[0] = Leaf(rng.Int63n(int64(leaves)))
		if err := c.ReadPaths(path); err != nil {
			b.Fatal(err)
		}
		if err := c.WriteBackPath(path[0]); err != nil {
			b.Fatal(err)
		}
	}
}

// The batch shape: the per-shard ORAM client of batched remote training (the
// end-to-end benchmark's train-remote) — 2^16 blocks on a fat tree, L=16,
// buckets 8→4, 64 paths fetched and written back jointly per training batch
// (BatchBins=16, S=4) with about two thousand blocks in the stash.
const (
	batchShapeBlocks = 1 << 16
	batchShapePaths  = 64
	// batchShapeWaiting blocks sit in the stash throughout, assigned to
	// paths no batch fetches — a look-ahead client's stash is mostly blocks
	// waiting for the path of a later bin. Their leaves are in the right
	// half of the tree and batches stay in the left half, so the root is the
	// only bucket that can take them and reads it straight back.
	batchShapeWaiting = 1400
	// batchShapeWarmRounds bring the tree to steady state: remapped blocks
	// settle in the wide upper levels until those are full, from where on
	// every joint fetch stashes about six hundred blocks.
	batchShapeWarmRounds = 1000
)

// The step shape: the per-shard ORAM client of in-memory training (the
// end-to-end benchmark's train-mem) — 2^16 blocks of 128 B on the same tree,
// over a Treetop on an unsealed PayloadStore. A step reads stepShapePaths
// paths jointly, remaps the blocks it fetched them for and stepShapeMembers
// more blocks in trusted memory (a look-ahead step's members, which it sends
// to later bins' paths), and writes the paths back jointly: in steady state
// about 420 candidates per write-back, about 250 of them adopted from the top,
// and about 60 left in the stash.
const (
	stepShapePaths   = 10
	stepShapeMembers = 130
)

// shape is a batch-shape client in steady state plus the scratch of its
// rounds.
type shape struct {
	c      *Client
	rng    *rand.Rand
	loaded int64 // fetches draw ids below loaded; waiting blocks have the rest
	fork   uint  // the leaf bit clear on every fetched path, set on every waiting block's
	ids    []BlockID
	leaves []Leaf
}

// fetchLeaf draws a uniform leaf with the fork bit clear.
func (s *shape) fetchLeaf(r *rand.Rand) Leaf {
	x := uint64(r.Int63n(int64(s.c.Geometry().Leaves() / 2)))
	low := x & (1<<s.fork - 1)
	return Leaf((x-low)<<1 | low)
}

// newShape loads a client with loaded blocks on fetchable leaves, stashes
// waiting more (ids from loaded) on leaves that part from every fetched
// path below level fork, and runs warm rounds of paths fetches.
func newShape(tb testing.TB, paths int, loaded int64, waiting, fork, warm int) *shape {
	tb.Helper()
	g := MustGeometry(GeometryConfig{LeafBits: 16, LeafZ: 4, RootZ: 8, Profile: ProfileLinear})
	c, err := NewClient(ClientConfig{
		Store:  NewCountingStore(NewMetaStore(g), nil),
		Rand:   rand.New(rand.NewSource(6)),
		Blocks: batchShapeBlocks,
	})
	if err != nil {
		tb.Fatal(err)
	}
	s := &shape{
		c:      c,
		rng:    rand.New(rand.NewSource(7)),
		loaded: loaded,
		fork:   uint(g.LeafBits() - 1 - fork),
		ids:    make([]BlockID, paths),
		leaves: make([]Leaf, paths),
	}
	if err := c.Load(uint64(loaded), func(BlockID) Leaf { return s.fetchLeaf(c.Rand()) }, nil); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < waiting; i++ {
		if err := c.Stash().Put(BlockID(loaded)+BlockID(i), s.fetchLeaf(c.Rand())|1<<s.fork, nil); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < warm; i++ {
		s.round(tb)
	}
	return s
}

// newBatchShape is the batch shape in steady state: its waiting blocks
// share only the root with a fetched path.
func newBatchShape(tb testing.TB, waiting int) *shape {
	return newShape(tb, batchShapePaths, batchShapeBlocks, waiting, 0, batchShapeWarmRounds)
}

// stepShape is a step-shape client in steady state plus the scratch of its
// rounds.
type stepShape struct {
	c      *Client
	rng    *rand.Rand
	ids    []BlockID
	leaves []Leaf
}

// newStepShape is the step shape in steady state.
func newStepShape(tb testing.TB) *stepShape {
	tb.Helper()
	g := MustGeometry(GeometryConfig{LeafBits: 16, LeafZ: 4, RootZ: 8, Profile: ProfileLinear, BlockSize: 128})
	ps, err := NewPayloadStore(g, nil)
	if err != nil {
		tb.Fatal(err)
	}
	tt, err := NewTreetop(ps, true, false)
	if err != nil {
		tb.Fatal(err)
	}
	c, err := NewClient(ClientConfig{
		Store:  NewCountingStore(tt, nil),
		Rand:   rand.New(rand.NewSource(6)),
		Blocks: batchShapeBlocks,
	})
	if err != nil {
		tb.Fatal(err)
	}
	row := make([]byte, g.BlockSize())
	if err := c.Load(batchShapeBlocks, nil, func(BlockID) []byte { return row }); err != nil {
		tb.Fatal(err)
	}
	s := &stepShape{
		c:      c,
		rng:    rand.New(rand.NewSource(7)),
		ids:    make([]BlockID, 0, stepShapePaths+stepShapeMembers),
		leaves: make([]Leaf, stepShapePaths),
	}
	for i := 0; i < batchShapeWarmRounds; i++ {
		s.round(tb)
	}
	return s
}

// round is one step as the ORAM client sees it (core.LAORAM.Step): fetch
// the paths of stepShapePaths blocks jointly, remap them and
// stepShapeMembers blocks drawn from trusted memory uniformly, write the
// paths back jointly.
func (s *stepShape) round(tb testing.TB) {
	c := s.c
	s.ids = s.ids[:0]
	for i := range s.leaves {
		id := BlockID(s.rng.Int63n(batchShapeBlocks))
		s.ids = append(s.ids, id)
		s.leaves[i] = c.PosMap().Get(id)
	}
	if err := c.ReadPaths(s.leaves); err != nil {
		tb.Fatal(err)
	}
	for range stepShapeMembers {
		s.ids = append(s.ids, c.stash.entries[s.rng.Intn(c.stash.Len())].id)
	}
	for _, id := range s.ids {
		l := c.RandomLeaf()
		c.PosMap().Set(id, l)
		c.stash.SetLeaf(id, l)
	}
	if err := c.WriteBackPaths(s.leaves); err != nil {
		tb.Fatal(err)
	}
}

// round is one training batch as the ORAM client sees it: fetch the paths
// of its blocks jointly, remap each block uniformly (off the waiting
// blocks' side of the fork), write the paths back jointly.
func (s *shape) round(tb testing.TB) {
	c := s.c
	for i := range s.ids {
		s.ids[i] = BlockID(s.rng.Int63n(s.loaded))
		s.leaves[i] = c.PosMap().Get(s.ids[i])
	}
	if err := c.ReadPaths(s.leaves); err != nil {
		tb.Fatal(err)
	}
	for _, id := range s.ids {
		l := s.fetchLeaf(s.rng)
		c.PosMap().Set(id, l)
		c.stash.SetLeaf(id, l)
	}
	if err := c.WriteBackPaths(s.leaves); err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkWriteBackPathsBatch gates the joint write-back's placement cost
// where it is largest: per call 64 leaves, a union of about 650 buckets and
// a stash of about 2 000 blocks. The 4× row keeps four times the waiting
// blocks over the same union — they can only go to the root, and the
// fetches, remaps and real placements are the same — so the difference is
// what each block that stays costs.
func BenchmarkWriteBackPathsBatch(b *testing.B) {
	for _, w := range []struct {
		name    string
		waiting int
	}{{"waiting=1x", batchShapeWaiting}, {"waiting=4x", 4 * batchShapeWaiting}} {
		b.Run(w.name, func(b *testing.B) {
			s := newBatchShape(b, w.waiting)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.round(b)
			}
		})
	}
}

// BenchmarkWriteBackPathsStep is one step at train-mem's shape: a joint
// fetch of 10 leaves and its write-back over the treetop, which places about
// 420 candidates, about 250 of them adopted from the top, and leaves about 60
// in the stash.
func BenchmarkWriteBackPathsStep(b *testing.B) {
	s := newStepShape(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.round(b)
	}
}

// BenchmarkAccessSealed is the same access cycle over a payload-bearing
// store with AES-GCM sealing at the storage boundary — the §III threat
// model's full data path (decrypt on read, encrypt on write-back).
func BenchmarkAccessSealed(b *testing.B) {
	g := MustGeometry(GeometryConfig{LeafBits: 10, LeafZ: 4, BlockSize: 128})
	sealer := benchSealer(b)
	ps, err := NewPayloadStore(g, sealer)
	if err != nil {
		b.Fatal(err)
	}
	blocks := uint64(1) << 11
	c, err := NewClient(ClientConfig{
		Store:     NewCountingStore(ps, nil),
		Rand:      rand.New(rand.NewSource(4)),
		Evict:     PaperEvict,
		StashHits: true,
		Blocks:    blocks,
	})
	if err != nil {
		b.Fatal(err)
	}
	row := make([]byte, 128)
	if err := c.Load(blocks, nil, func(id BlockID) []byte { return row }); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if _, err := c.Access(OpRead, BlockID(uint64(i)%blocks), nil); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Access(OpRead, BlockID(uint64(rng.Int63n(int64(blocks)))), nil); err != nil {
			b.Fatal(err)
		}
	}
}
