package core

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/oram"
	"repro/internal/superblock"
	"repro/internal/trace"
)

// pathSpy is a binSpy that fails the test when a path, or a lone bucket,
// reaches the store: every transfer must arrive as a recorded
// ReadBuckets/WriteBuckets.
type pathSpy struct {
	binSpy
	t *testing.T
}

func (s *pathSpy) ReadPath(leaf oram.Leaf, _ [][]oram.Slot) error {
	s.t.Fatalf("ReadPath(%d) reached the store", leaf)
	return nil
}

func (s *pathSpy) WritePath(leaf oram.Leaf, _ [][]oram.Slot) error {
	s.t.Fatalf("WritePath(%d) reached the store", leaf)
	return nil
}

func (s *pathSpy) ReadBucket(level int, node uint64, _ []oram.Slot) error {
	s.t.Fatalf("ReadBucket(%d, %d) reached the store", level, node)
	return nil
}

func (s *pathSpy) WriteBucket(level int, node uint64, _ []oram.Slot) error {
	s.t.Fatalf("WriteBucket(%d, %d) reached the store", level, node)
	return nil
}

// take returns the calls recorded since the last take.
func (s *pathSpy) take() []binCall {
	calls := s.calls
	s.calls = nil
	return calls
}

// pathRefs lists the buckets on the path to leaf, root first.
func pathRefs(g *oram.Geometry, leaf oram.Leaf) []oram.BucketRef {
	refs := make([]oram.BucketRef, g.Levels())
	for lvl := range refs {
		refs[lvl] = oram.BucketRef{Level: lvl, Node: g.NodeAt(leaf, lvl)}
	}
	return refs
}

// singlePaths checks that calls are fetch/write-back pairs of one path each —
// a ReadBuckets and then a WriteBuckets, both naming the path's buckets root
// first — and returns the paths' leaves in order.
func singlePaths(t *testing.T, g *oram.Geometry, what string, calls []binCall) []oram.Leaf {
	t.Helper()
	if len(calls)%2 != 0 {
		t.Fatalf("%s: %d store calls, want read/write-back pairs: %v", what, len(calls), calls)
	}
	var leaves []oram.Leaf
	for i := 0; i < len(calls); i += 2 {
		read, write := calls[i], calls[i+1]
		if read.op != "ReadBuckets" || write.op != "WriteBuckets" {
			t.Fatalf("%s: pair %d reached the store as %s, %s", what, i/2, read.op, write.op)
		}
		if len(read.refs) != g.Levels() {
			t.Fatalf("%s: pair %d fetched %d buckets, want one path's %d", what, i/2, len(read.refs), g.Levels())
		}
		leaf := oram.Leaf(read.refs[g.Levels()-1].Node)
		want := pathRefs(g, leaf)
		if !slices.Equal(read.refs, want) || !slices.Equal(write.refs, want) {
			t.Fatalf("%s: pair %d moved %v then %v, want the path to leaf %d root first: %v", what, i/2, read.refs, write.refs, leaf, want)
		}
		leaves = append(leaves, leaf)
	}
	return leaves
}

// TestPathIsOneLeafUnion: a single path is the one-leaf bucket union. Through
// a client straight on the store and through a CountingStore, an access's
// fetch and write-back (a first write's cover path included), ReadInto, a
// one-key AccessBatch, background eviction's dummy reads and a one-bin
// LAORAM step reach the store as ReadBuckets/WriteBuckets over the path's
// refs, root first, and a bulk load as WriteBuckets alone; the store's own
// ReadPath/WritePath and single-bucket calls are never used. Neither the
// CountingStore nor the Treetop still offers the path calls or the
// BatchNative probe.
func TestPathIsOneLeafUnion(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 6, LeafZ: 4, BlockSize: 16})
	const blocks, loaded = 128, 120
	evict := oram.EvictConfig{Enabled: true, High: 12, Low: 2}
	payload := func(id oram.BlockID) []byte {
		b := make([]byte, g.BlockSize())
		b[0] = byte(id)
		return b
	}
	build := func(t *testing.T, counted bool) (*oram.Client, *pathSpy) {
		ps, err := oram.NewPayloadStore(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		spy := &pathSpy{binSpy: binSpy{PayloadStore: ps}, t: t}
		var st oram.Store = spy
		if counted {
			st = oram.NewCountingStore(spy, nil)
		}
		c, err := oram.NewClient(oram.ClientConfig{Store: st, Rand: rand.New(rand.NewSource(9)), Evict: evict, StashHits: true, Blocks: blocks})
		if err != nil {
			t.Fatal(err)
		}
		return c, spy
	}
	loads := func(t *testing.T, calls []binCall) {
		t.Helper()
		if len(calls) == 0 {
			t.Fatal("the load moved nothing")
		}
		for _, c := range calls {
			if c.op != "WriteBuckets" {
				t.Fatalf("the load reached the store as %s", c.op)
			}
		}
	}

	for _, counted := range []bool{false, true} {
		name := "client"
		if counted {
			name = "counted"
		}
		t.Run(name, func(t *testing.T) {
			c, spy := build(t, counted)
			if err := c.Load(loaded, nil, payload); err != nil {
				t.Fatal(err)
			}
			loads(t, spy.take())

			// accessPaths runs op and checks it moved its own path first, then
			// one path per dummy read it set off.
			accessPaths := func(what string, first oram.Leaf, op func() error) {
				t.Helper()
				dummies := c.Stats().DummyReads
				if err := op(); err != nil {
					t.Fatal(err)
				}
				leaves := singlePaths(t, g, what, spy.take())
				if want := 1 + int(c.Stats().DummyReads-dummies); len(leaves) != want {
					t.Fatalf("%s moved %d paths, want %d", what, len(leaves), want)
				}
				if first != oram.NoLeaf && leaves[0] != first {
					t.Fatalf("%s fetched the path to leaf %d, want %d", what, leaves[0], first)
				}
			}
			for i := range 40 {
				id := oram.BlockID(i * 3 % loaded)
				if c.Stash().Contains(id) {
					continue
				}
				leaf := c.PosMap().Get(id)
				switch i % 3 {
				case 0:
					accessPaths("Access", leaf, func() error { _, err := c.Access(oram.OpRead, id, nil); return err })
				case 1:
					accessPaths("ReadInto", leaf, func() error { _, err := c.ReadInto(id, make([]byte, 0, g.BlockSize())); return err })
				case 2:
					out := make([][]byte, 1)
					accessPaths("AccessBatch", leaf, func() error { return c.AccessBatch(oram.OpRead, []oram.BlockID{id}, nil, out) })
				}
			}
			// A first write creates the block in the stash and moves a
			// uniformly drawn cover path.
			accessPaths("first write", oram.NoLeaf, func() error { return c.Write(loaded, payload(loaded)) })

			// Background eviction: fetch single paths until the stash is over
			// its high-water mark, then drain it with dummy reads.
			for leaf := oram.Leaf(0); c.Stash().Len() <= evict.High; leaf += 5 {
				if err := c.ReadPaths([]oram.Leaf{leaf}); err != nil {
					t.Fatal(err)
				}
				if calls := spy.take(); len(calls) != 1 || calls[0].op != "ReadBuckets" || !slices.Equal(calls[0].refs, pathRefs(g, leaf)) {
					t.Fatalf("a one-leaf ReadPaths reached the store as %v, want one ReadBuckets over %v", calls, pathRefs(g, leaf))
				}
			}
			n, err := c.MaybeEvict()
			if err != nil {
				t.Fatal(err)
			}
			if leaves := singlePaths(t, g, "MaybeEvict", spy.take()); n == 0 || len(leaves) != n {
				t.Fatalf("MaybeEvict ran %d dummy reads and moved %d paths", n, len(leaves))
			}
		})

		t.Run(name+"_step", func(t *testing.T) {
			c, spy := build(t, counted)
			stream := trace.PermutationEpochs(trace.NewRNG(4), loaded, 2*loaded)
			plan, err := superblock.NewPlan(stream, superblock.PlanConfig{S: 4, Leaves: g.Leaves(), Rand: rand.New(rand.NewSource(5))})
			if err != nil {
				t.Fatal(err)
			}
			la, err := New(Config{Base: c, Plan: plan})
			if err != nil {
				t.Fatal(err)
			}
			if err := la.LoadPrePlaced(loaded, payload); err != nil {
				t.Fatal(err)
			}
			loads(t, spy.take())
			fetched := uint64(0)
			for range 40 {
				before := la.Stats()
				if _, err := la.Step(1, nil); err != nil {
					t.Fatal(err)
				}
				after := la.Stats()
				leaves := singlePaths(t, g, "Step(1)", spy.take())
				if want := int(after.PathReads - before.PathReads + after.DummyReads - before.DummyReads); len(leaves) != want || after.PathReads-before.PathReads > 1 {
					t.Fatalf("a one-bin step moved %d paths, want %d with at most one fetch", len(leaves), want)
				}
				fetched += after.PathReads - before.PathReads
			}
			if fetched == 0 {
				t.Fatal("no step fetched a path")
			}
		})
	}

	ps, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := oram.NewTreetop(ps, true, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range []oram.Store{oram.NewCountingStore(ps, nil), tt} {
		if _, ok := st.(oram.PathStore); ok {
			t.Errorf("%T still offers ReadPath/WritePath", st)
		}
		if _, ok := st.(oram.BatchNative); ok {
			t.Errorf("%T still answers the BatchNative probe", st)
		}
	}
}
