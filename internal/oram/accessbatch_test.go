package oram

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/crypto"
	"repro/internal/stats"
)

// batchTestClient builds a client over one of the local store kinds the
// joint access must behave identically on: "meta" (no payloads), "payload"
// and "sealed" (AES-GCM PayloadStore).
func batchTestClient(t testing.TB, kind string, leafBits int, blocks uint64, stashHits bool, evict EvictConfig, seed int64) (*Client, *CountingStore) {
	t.Helper()
	blockSize := 16
	if kind == "meta" {
		blockSize = 0
	}
	g := MustGeometry(GeometryConfig{LeafBits: leafBits, LeafZ: 4, BlockSize: blockSize})
	var inner Store
	switch kind {
	case "meta":
		inner = NewMetaStore(g)
	case "payload", "sealed":
		var sealer Sealer
		if kind == "sealed" {
			s, err := crypto.NewSealer(bytes.Repeat([]byte{7}, 32))
			if err != nil {
				t.Fatal(err)
			}
			sealer = s
		}
		ps, err := NewPayloadStore(g, sealer)
		if err != nil {
			t.Fatal(err)
		}
		inner = ps
	default:
		t.Fatalf("unknown store kind %q", kind)
	}
	cs := NewCountingStore(inner, nil)
	c, err := NewClient(ClientConfig{
		Store: cs, Rand: rand.New(rand.NewSource(seed)), Evict: evict, StashHits: stashHits, Blocks: blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, cs
}

// checkConservation asserts invariant #1 for the written blocks: each exists
// exactly once across stash ∪ tree, and a tree copy carries its position-map
// leaf and lies on that leaf's path.
func checkConservation(t *testing.T, c *Client, st Store, written map[BlockID]bool) {
	t.Helper()
	g := c.Geometry()
	count := make(map[BlockID]int)
	for lvl := 0; lvl < g.Levels(); lvl++ {
		buf := make([]Slot, g.BucketSize(lvl))
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			if err := st.ReadBucket(lvl, node, buf); err != nil {
				t.Fatal(err)
			}
			for i := range buf {
				if buf[i].Dummy() {
					continue
				}
				count[buf[i].ID]++
				want := c.PosMap().Get(buf[i].ID)
				if buf[i].Leaf != want || g.NodeAt(want, lvl) != node {
					t.Errorf("block %d stored at level %d node %d with leaf %d, posmap says %d", buf[i].ID, lvl, node, buf[i].Leaf, want)
				}
			}
		}
	}
	for id := range count {
		if !written[id] {
			t.Errorf("block %d in the tree but never written", id)
		}
	}
	for id := range written {
		n := count[id]
		if c.Stash().Contains(id) {
			n++
		}
		if n != 1 {
			t.Errorf("block %d present %d times (tree %d, stash %v)", id, n, count[id], c.Stash().Contains(id))
		}
	}
}

// TestAccessBatchReferenceModel: invariants #1 and #2 for the joint access.
// Random chunks of reads and writes — duplicate ids within a chunk,
// stash-resident ids, first writes of blocks that exist nowhere — are checked
// against a plain map, at several chunk sizes, on every local store kind and
// in both StashHits modes; block conservation holds at the end.
func TestAccessBatchReferenceModel(t *testing.T) {
	const blocks = 96
	for _, kind := range []string{"meta", "payload", "sealed"} {
		for _, stashHits := range []bool{true, false} {
			for _, chunk := range []int{2, 5, 16, 32, 64} {
				t.Run(fmt.Sprintf("%s/hits=%v/chunk=%d", kind, stashHits, chunk), func(t *testing.T) {
					c, cs := batchTestClient(t, kind, 7, blocks, stashHits, PaperEvict, 42)
					bs := c.Geometry().BlockSize()
					rng := rand.New(rand.NewSource(int64(chunk)))
					ref := make(map[BlockID][]byte)
					written := make(map[BlockID]bool)
					var known []BlockID
					ids := make([]BlockID, 0, chunk)
					data := make([][]byte, 0, chunk)
					out := make([][]byte, chunk)
					for round := 0; round < 400; round++ {
						ids, data = ids[:0], data[:0]
						k := 1 + rng.Intn(chunk)
						before := c.Stats()
						if len(known) == 0 || rng.Intn(2) == 0 {
							for i := 0; i < k; i++ {
								id := BlockID(rng.Intn(blocks)) // unwritten ids and repeats included
								ids = append(ids, id)
								data = append(data, payloadFor(bs, rng.Uint64()))
							}
							if err := c.AccessBatch(OpWrite, ids, data, nil); err != nil {
								t.Fatalf("round %d: write: %v", round, err)
							}
							for i, id := range ids {
								if !written[id] {
									written[id] = true
									known = append(known, id)
								}
								ref[id] = data[i] // batch order: the last write wins
							}
						} else {
							for i := 0; i < k; i++ {
								ids = append(ids, known[rng.Intn(len(known))])
							}
							if err := c.AccessBatch(OpRead, ids, nil, out[:k]); err != nil {
								t.Fatalf("round %d: read: %v", round, err)
							}
							for i, id := range ids {
								if !bytes.Equal(out[i], ref[id]) {
									t.Fatalf("round %d: block %d = %x, want %x", round, id, out[i], ref[id])
								}
							}
						}
						d := c.Stats().Sub(before)
						if d.Accesses != uint64(k) {
							t.Fatalf("round %d: %d keys counted as %d accesses", round, k, d.Accesses)
						}
						if d.PathReads != d.PathWrites || d.PathReads > uint64(k) {
							t.Fatalf("round %d: %d keys cost %d path reads, %d path writes", round, k, d.PathReads, d.PathWrites)
						}
						if !stashHits && d.StashHits != 0 {
							t.Fatalf("round %d: %d stash hits with StashHits off", round, d.StashHits)
						}
						if n := c.Stash().Len(); n > PaperEvict.High {
							t.Fatalf("round %d: stash holds %d blocks after write-back and eviction", round, n)
						}
					}
					checkConservation(t, c, cs, written)
				})
			}
		}
	}
}

// payloadFor returns a block-size payload carrying v, or nil for
// metadata-only geometries.
func payloadFor(blockSize int, v uint64) []byte {
	if blockSize == 0 {
		return nil
	}
	return payload8(blockSize, v)
}

// TestAccessBatchUnwrittenReadFailsClean: a read chunk naming a block that
// was never written (or an id out of range) fails before any state changes:
// no server traffic, no counters, no RNG draws.
func TestAccessBatchUnwrittenReadFailsClean(t *testing.T) {
	c, cs := batchTestClient(t, "payload", 6, 64, true, PaperEvict, 1)
	twin, _ := batchTestClient(t, "payload", 6, 64, true, PaperEvict, 1)
	for _, cl := range []*Client{c, twin} {
		if err := cl.AccessBatch(OpWrite, []BlockID{1, 2, 3}, [][]byte{payload8(16, 1), payload8(16, 2), payload8(16, 3)}, nil); err != nil {
			t.Fatal(err)
		}
	}
	stats0, traffic0 := c.Stats(), cs.Counters()
	out := make([][]byte, 3)
	if err := c.AccessBatch(OpRead, []BlockID{1, 9, 2}, nil, out); err == nil {
		t.Fatal("read of an unwritten block succeeded")
	}
	if err := c.AccessBatch(OpRead, []BlockID{1, 64, 2}, nil, out); err == nil {
		t.Fatal("read of an out-of-range block succeeded")
	}
	if err := c.AccessBatch(OpWrite, []BlockID{1, 64}, [][]byte{payload8(16, 1), payload8(16, 2)}, nil); err == nil {
		t.Fatal("write of an out-of-range block succeeded")
	}
	if c.Stats() != stats0 || cs.Counters() != traffic0 {
		t.Errorf("failed chunks moved counters: %+v → %+v, %+v → %+v", stats0, c.Stats(), traffic0, cs.Counters())
	}
	if a, b := c.Rand().Int63(), twin.Rand().Int63(); a != b {
		t.Errorf("failed chunks consumed randomness: next draw %d, untouched twin %d", a, b)
	}
}

// TestAccessBatchSingleKeyIsAccess: a one-key batch is Access — same
// payload, AccessStats, traffic counters and RNG draws — over a history that
// mixes first writes, updates, reads and stash hits.
func TestAccessBatchSingleKeyIsAccess(t *testing.T) {
	for _, stashHits := range []bool{true, false} {
		a, acs := batchTestClient(t, "sealed", 6, 64, stashHits, PaperEvict, 5)
		b, bcs := batchTestClient(t, "sealed", 6, 64, stashHits, PaperEvict, 5)
		rng := rand.New(rand.NewSource(6))
		written := map[BlockID]bool{}
		out := make([][]byte, 1)
		for i := 0; i < 1500; i++ {
			id := BlockID(rng.Intn(64))
			if !written[id] || rng.Intn(2) == 0 {
				v := payload8(16, rng.Uint64())
				if _, err := a.Access(OpWrite, id, v); err != nil {
					t.Fatal(err)
				}
				if err := b.AccessBatch(OpWrite, []BlockID{id}, [][]byte{v}, nil); err != nil {
					t.Fatal(err)
				}
				written[id] = true
			} else {
				want, err := a.Access(OpRead, id, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := b.AccessBatch(OpRead, []BlockID{id}, nil, out); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(out[0], want) {
					t.Fatalf("op %d: batch read %x, Access read %x", i, out[0], want)
				}
			}
			if a.Stats() != b.Stats() || acs.Counters() != bcs.Counters() {
				t.Fatalf("op %d (hits=%v): stats %+v vs %+v, traffic %+v vs %+v", i, stashHits, a.Stats(), b.Stats(), acs.Counters(), bcs.Counters())
			}
		}
		if x, y := a.Rand().Int63(), b.Rand().Int63(); x != y {
			t.Errorf("hits=%v: RNG streams diverged (%d vs %d)", stashHits, x, y)
		}
	}
}

// TestAccessBatchResultsCallerOwned: invariant #8 for the joint access —
// rows returned by a read chunk are private copies (of the stash and of each
// other, duplicates included), and payloads handed to a write chunk are
// copied in.
func TestAccessBatchResultsCallerOwned(t *testing.T) {
	c, _ := batchTestClient(t, "payload", 6, 64, true, PaperEvict, 3)
	ids := []BlockID{4, 9, 4, 17}
	data := [][]byte{payload8(16, 40), payload8(16, 90), payload8(16, 41), payload8(16, 170)}
	if err := c.AccessBatch(OpWrite, ids, data, nil); err != nil {
		t.Fatal(err)
	}
	for _, d := range data {
		for i := range d {
			d[i] = 0xEE // the caller reuses its buffers
		}
	}
	want := map[BlockID][]byte{4: payload8(16, 41), 9: payload8(16, 90), 17: payload8(16, 170)}
	for pass := 0; pass < 2; pass++ {
		out := make([][]byte, len(ids))
		if err := c.AccessBatch(OpRead, ids, nil, out); err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if !bytes.Equal(out[i], want[id]) {
				t.Fatalf("pass %d: block %d = %x, want %x", pass, id, out[i], want[id])
			}
		}
		// Scribbling on one result must reach neither the other results
		// (ids[0] and ids[2] are the same block) nor the stash or tree.
		for i := range out[0] {
			out[0][i] = 0xAA
		}
		if !bytes.Equal(out[2], want[4]) {
			t.Fatalf("pass %d: duplicate-id results share storage", pass)
		}
		for _, o := range out[1:] {
			for i := range o {
				o[i] = 0xBB
			}
		}
	}
}

// TestAccessBatchStats pins the counters to core.LAORAM.Step's rule: Accesses,
// StashHits and Remaps per key, PathReads and PathWrites per distinct leaf;
// a repeated or stash-resident key is a hit (no path with StashHits, one
// cover path without); a first write costs one cover path and one remap.
func TestAccessBatchStats(t *testing.T) {
	const blocks = 256
	for _, stashHits := range []bool{true, false} {
		c, _ := batchTestClient(t, "meta", 9, blocks, stashHits, EvictConfig{}, 8)
		if err := c.Load(blocks-1, nil, nil); err != nil { // block 255 stays unwritten
			t.Fatal(err)
		}
		c.ResetStats()
		// Put block 7 in the stash: a first write's cover path may evict the
		// new block, so probe for a resident one instead of assuming.
		if err := c.ReadPaths([]Leaf{c.PosMap().Get(7)}); err != nil {
			t.Fatal(err)
		}
		if !c.Stash().Contains(7) {
			t.Fatal("block 7 not in the stash after reading its path")
		}
		// Keys: 7 is stash-resident, 20 repeats, 255 is a first write; the
		// other three are plain fetches.
		ids := []BlockID{10, 7, 20, 30, 20, 255}
		leaves := map[Leaf]bool{}
		for _, id := range []BlockID{10, 20, 30} {
			leaves[c.PosMap().Get(id)] = true
		}
		if err := c.AccessBatch(OpWrite, ids, make([][]byte, len(ids)), nil); err != nil {
			t.Fatal(err)
		}
		got := c.Stats()
		got.BlocksMoved = 0                         // how many blocks sit on the paths; TestClientCountsPricedWork checks it
		want := AccessStats{Accesses: 6, Remaps: 4} // 10, 20, 30 and the created 255
		paths := uint64(len(leaves)) + 1            // + the first write's cover
		if stashHits {
			want.StashHits = 2 // 7 and the second 20
		} else {
			want.Remaps += 2 // hits are remapped too
			paths += 2       // and draw one cover path each
		}
		// Cover paths are uniform draws and may coincide with another leaf
		// of the set; the fixed seed here draws distinct ones.
		want.PathReads, want.PathWrites = paths, paths
		if got != want {
			t.Errorf("hits=%v: stats %+v, want %+v", stashHits, got, want)
		}
	}
}

// leafRecorder is a bucket-granularity store that records which leaves are
// fetched: the adversary's view of a joint access, one set per call.
type leafRecorder struct {
	Store
	leafLevel int
	fetched   []Leaf
}

func (r *leafRecorder) ReadBucket(level int, node uint64, dst []Slot) error {
	if level == r.leafLevel {
		r.fetched = append(r.fetched, Leaf(node))
	}
	return r.Store.ReadBucket(level, node, dst)
}

// TestAccessBatchLeafUniformity: invariant #3 for the joint access. Whether
// the request stream is a permutation sweep or hammers a few hot keys, the
// leaves the server sees fetched are uniform, the two streams' leaf
// histograms are indistinguishable, and — with StashHits off, where every
// key shows the server one path — the number of paths fetched is the same
// function of the request (k leaves drawn, less chance coincidences).
func TestAccessBatchLeafUniformity(t *testing.T) {
	const (
		blocks   = 512
		leafBits = 9
		chunk    = 16
		rounds   = 1500
	)
	run := func(stashHits bool, next func(i int) BlockID) (*stats.Histogram, int) {
		g := MustGeometry(GeometryConfig{LeafBits: leafBits, LeafZ: 4, BlockSize: 0})
		rec := &leafRecorder{Store: NewMetaStore(g), leafLevel: leafBits}
		c, err := NewClient(ClientConfig{Store: rec, Rand: rand.New(rand.NewSource(77)), Evict: PaperEvict, StashHits: stashHits, Blocks: blocks})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Load(blocks, nil, nil); err != nil {
			t.Fatal(err)
		}
		h := stats.NewHistogram(int(g.Leaves()))
		ids := make([]BlockID, chunk)
		out := make([][]byte, chunk)
		paths := 0
		for r := 0; r < rounds; r++ {
			for i := range ids {
				ids[i] = next(r*chunk + i)
			}
			rec.fetched = rec.fetched[:0]
			before := c.Stats()
			if err := c.AccessBatch(OpRead, ids, nil, out); err != nil {
				t.Fatal(err)
			}
			d := c.Stats().Sub(before)
			// Dummy reads fetch a path each too; every leaf-level bucket
			// read is one distinct path of either kind.
			if uint64(len(rec.fetched)) != d.PathReads+d.DummyReads {
				t.Fatalf("round %d: server saw %d paths, client counted %d reads + %d dummy", r, len(rec.fetched), d.PathReads, d.DummyReads)
			}
			paths += int(d.PathReads)
			for _, l := range rec.fetched {
				h.Add(uint64(l))
			}
		}
		return h, paths
	}
	perm := rand.New(rand.NewSource(1)).Perm(blocks)
	permutation := func(i int) BlockID { return BlockID(perm[i%blocks]) }
	hotRNG := rand.New(rand.NewSource(2))
	hot := func(int) BlockID { return BlockID(hotRNG.Intn(8)) } // 8 hot keys, repeats inside every chunk

	for _, stashHits := range []bool{true, false} {
		hp, pathsPerm := run(stashHits, permutation)
		hh, pathsHot := run(stashHits, hot)
		for name, h := range map[string]*stats.Histogram{"permutation": hp, "hot-key": hh} {
			if _, _, p, err := stats.ChiSquareUniform(h); err != nil || p < 0.001 {
				t.Errorf("hits=%v %s: fetched leaves not uniform (p=%g, err=%v)", stashHits, name, p, err)
			}
		}
		if _, _, p, err := stats.ChiSquareTwoSample(hp, hh); err != nil || p < 0.001 {
			t.Errorf("hits=%v: permutation and hot-key leaf histograms differ (p=%g, err=%v)", stashHits, p, err)
		}
		if !stashHits {
			// k uniform leaves per access either way: the totals differ only
			// by coincidences among draws (≈ k²/2·leaves ≈ 1.5% of k).
			if lo, hi := rounds*chunk*96/100, rounds*chunk; pathsPerm < lo || pathsPerm > hi || pathsHot < lo || pathsHot > hi {
				t.Errorf("paths fetched: permutation %d, hot-key %d, want both within [%d, %d]", pathsPerm, pathsHot, lo, hi)
			}
		}
	}
}
