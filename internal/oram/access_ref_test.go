package oram

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// access_ref_test.go keeps the client's former single-key cycle — its own
// access body beside AccessBatch, and a write-back of one path planned level
// by level — as the references that Access (AccessBatch of one key) and a
// one-leaf WriteBackPaths are held to: same payloads, RNG draws, stats,
// store calls, buckets in the same order with the same slots, and the same
// stash left behind.

// refEvictPlan is the PathORAM reference's greedy rule for one path: a
// stashed block can be placed at any level ≤ CommonLevel(target, its leaf);
// walking the path from the leaf up, each level takes the blocks homed
// there in ascending id, then the spill from below, and whatever exceeds its
// room spills on. plan[lvl] lists the ids for the path's bucket at lvl.
func refEvictPlan(s *Stash, g *Geometry, target Leaf) [][]BlockID {
	byDeepest := make([][]BlockID, g.Levels())
	for i := range s.entries {
		e := &s.entries[i]
		if d := g.CommonLevel(target, e.leaf); d >= 0 { // NoLeaf: on no path, stays
			byDeepest[d] = append(byDeepest[d], e.id)
		}
	}
	plan := make([][]BlockID, g.Levels())
	var spill []BlockID
	for lvl := g.LeafBits(); lvl >= 0; lvl-- {
		slices.Sort(byDeepest[lvl])
		cand := append(byDeepest[lvl], spill...)
		z := min(g.BucketSize(lvl), len(cand))
		plan[lvl] = cand[:z]
		spill = slices.Clone(cand[z:])
	}
	return plan
}

// refWriteBackPath is the former WriteBackPath: the path written root first
// as one bucket union, placed by refEvictPlan; each placed block leaves the
// stash without its buffer, which the store's write now owns.
func refWriteBackPath(c *Client, leaf Leaf) error {
	if !c.geom.ValidLeaf(leaf) {
		return fmt.Errorf("oram: WriteBackPath: invalid leaf %d", leaf)
	}
	plan := refEvictPlan(c.stash, c.geom, leaf)
	refs := c.pathUnion(c.onePath(leaf))
	bufs := c.multi.batchBufs(len(refs), 0, c.geom.BucketSize)
	moved := 0
	for lvl, ids := range plan {
		buf := bufs[lvl]
		for i, id := range ids {
			e := c.stash.lookup(id)
			buf[i] = Slot{ID: id, Leaf: e.leaf, Payload: e.payload}
		}
		moved += len(ids)
		for i := len(ids); i < len(buf); i++ {
			buf[i] = DummySlot()
		}
	}
	if err := c.face.WriteBuckets(refs, bufs); err != nil {
		return fmt.Errorf("oram: WriteBackPath: %w", err)
	}
	for _, ids := range plan {
		for _, id := range ids {
			if pos, ok := c.stash.index.find(id); ok {
				c.stash.entries[c.stash.index.cells[pos].slot-1].buf = nil
				c.stash.removeCell(pos)
			}
		}
	}
	c.multi.keepRows(bufs)
	c.stats.BlocksMoved += uint64(moved)
	return nil
}

// refMaybeEvict is MaybeEvict over refWriteBackPath.
func refMaybeEvict(c *Client) error {
	if !c.evict.Enabled || c.stash.Len() <= c.evict.High {
		return nil
	}
	for n := 0; c.stash.Len() > c.evict.Low; n++ {
		leaf := c.RandomLeaf()
		if err := c.ReadPaths(c.onePath(leaf)); err != nil {
			return err
		}
		if err := refWriteBackPath(c, leaf); err != nil {
			return err
		}
		c.stats.DummyReads++
		if n >= 64 && c.stash.Len() > c.evict.High {
			return fmt.Errorf("oram: background eviction not draining")
		}
	}
	return nil
}

// refAccess is the former access cycle. dst non-nil directs an OpRead's
// result into dst's capacity (ReadInto, which passed an empty non-nil dst
// for a nil buf); nil returns a fresh copy (Access).
func refAccess(c *Client, op Op, id BlockID, data, dst []byte) ([]byte, error) {
	if uint64(id) >= c.pos.Len() {
		return nil, fmt.Errorf("oram: block %d out of range (have %d blocks)", id, c.pos.Len())
	}
	c.stats.Accesses++

	if c.stashHits && c.stash.Contains(id) {
		c.stats.StashHits++
		out, err := refServe(c, op, id, data, dst)
		if err != nil {
			return nil, err
		}
		return out, refMaybeEvict(c)
	}

	leaf := c.pos.Get(id)
	if leaf == NoLeaf {
		if op != OpWrite {
			return nil, fmt.Errorf("oram: read of unwritten block %d", id)
		}
		newLeaf := c.RandomLeaf()
		c.pos.Set(id, newLeaf)
		c.stats.Remaps++
		if err := c.stash.Put(id, newLeaf, data); err != nil {
			return nil, err
		}
		cover := c.RandomLeaf()
		if err := c.ReadPaths(c.onePath(cover)); err != nil {
			return nil, err
		}
		c.stats.PathReads++
		if err := refWriteBackPath(c, cover); err != nil {
			return nil, err
		}
		c.stats.PathWrites++
		return nil, refMaybeEvict(c)
	}

	if err := c.ReadPaths(c.onePath(leaf)); err != nil {
		return nil, err
	}
	c.stats.PathReads++
	if !c.stash.Contains(id) {
		return nil, fmt.Errorf("oram: block %d not found on its assigned path %d (tree corrupt)", id, leaf)
	}
	newLeaf := c.RandomLeaf()
	c.pos.Set(id, newLeaf)
	c.stash.SetLeaf(id, newLeaf)
	c.stats.Remaps++

	out, err := refServe(c, op, id, data, dst)
	if err != nil {
		return nil, err
	}
	if err := refWriteBackPath(c, leaf); err != nil {
		return nil, err
	}
	c.stats.PathWrites++
	return out, refMaybeEvict(c)
}

// refServe is the former serveFromStash.
func refServe(c *Client, op Op, id BlockID, data, dst []byte) ([]byte, error) {
	switch op {
	case OpRead:
		p, ok := c.stash.Payload(id)
		if !ok {
			return nil, fmt.Errorf("oram: block %d vanished from stash", id)
		}
		if dst != nil {
			return copyInto(dst, p), nil
		}
		return cloneBytes(p), nil
	case OpWrite:
		if !c.stash.SetPayload(id, data) {
			return nil, fmt.Errorf("oram: block %d vanished from stash", id)
		}
		return nil, nil
	default:
		return nil, fmt.Errorf("oram: unknown op %v", op)
	}
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// sameTree reports the first bucket whose slots differ between two stores
// of one geometry (payloads compared as opened).
func sameTree(g *Geometry, a, b Store) error {
	for lvl := 0; lvl < g.Levels(); lvl++ {
		z := g.BucketSize(lvl)
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			x, y := make([]Slot, z), make([]Slot, z)
			if err := a.ReadBucket(lvl, node, x); err != nil {
				return err
			}
			if err := b.ReadBucket(lvl, node, y); err != nil {
				return err
			}
			for i := range z {
				if x[i].ID != y[i].ID || x[i].Leaf != y[i].Leaf || !bytes.Equal(x[i].Payload, y[i].Payload) {
					return fmt.Errorf("level %d node %d slot %d: %+v vs %+v", lvl, node, i, x[i], y[i])
				}
			}
		}
	}
	return nil
}

// TestAccessMatchesReference holds Access, Read, Write and ReadInto to the
// former access cycle over random streams of reads, ReadInto with a
// recycled buffer, updates, first writes and stash hits (StashHits on, a
// full small tree and low eviction watermarks, so blocks linger in the stash
// and dummy reads run): after every operation the same payload, AccessStats
// and store counters, at the end the same RNG position, tree and stash — on
// the metadata-only, payload and sealed stores.
func TestAccessMatchesReference(t *testing.T) {
	const blocks = 64 // as many as the tree's leaf buckets hold
	gc := GeometryConfig{LeafBits: 5, LeafZ: 2}
	evict := EvictConfig{Enabled: true, High: 4, Low: 1}
	for _, kind := range []string{"meta", "payload", "sealed"} {
		for seed := int64(1); seed <= 3; seed++ {
			c, cs := kindTestClient(t, kind, gc, blocks, true, evict, seed)
			ref, rcs := kindTestClient(t, kind, gc, blocks, true, evict, seed)
			bs := c.Geometry().BlockSize()
			rng := rand.New(rand.NewSource(100 + seed))
			written := map[BlockID]bool{}
			var buf []byte
			kinds := map[string]int{}
			for op := 0; op < 2000; op++ {
				id := BlockID(rng.Intn(blocks))
				if ids := c.Stash().IDs(); len(ids) > 0 && rng.Intn(3) == 0 {
					slices.Sort(ids)
					id = ids[rng.Intn(len(ids))] // a stash hit
				}
				var got, want []byte
				var errGot, errWant error
				switch r := rng.Intn(4); {
				case !written[id] || r == 0:
					if !written[id] {
						kinds["first-write"]++
					} else {
						kinds["write"]++
					}
					v := payloadFor(bs, rng.Uint64())
					errGot = c.Write(id, v)
					_, errWant = refAccess(ref, OpWrite, id, v, nil)
					written[id] = true
				case r == 1:
					kinds["read-into"]++
					got, errGot = c.ReadInto(id, buf)
					want, errWant = refAccess(ref, OpRead, id, nil, []byte{})
					if bs > 0 && cap(buf) >= bs && &got[0] != &buf[:1][0] {
						t.Fatalf("%s seed %d op %d: ReadInto did not reuse its buffer", kind, seed, op)
					}
					buf = got
				default:
					kinds["read"]++
					got, errGot = c.Read(id)
					want, errWant = refAccess(ref, OpRead, id, nil, nil)
				}
				if errGot != nil || errWant != nil {
					t.Fatalf("%s seed %d op %d: %v / reference %v", kind, seed, op, errGot, errWant)
				}
				if !bytes.Equal(got, want) || (got == nil) != (want == nil) {
					t.Fatalf("%s seed %d op %d: block %d = %x, reference %x", kind, seed, op, id, got, want)
				}
				if c.Stats() != ref.Stats() || cs.Counters() != rcs.Counters() {
					t.Fatalf("%s seed %d op %d: stats %+v vs %+v, store %+v vs %+v", kind, seed, op, c.Stats(), ref.Stats(), cs.Counters(), rcs.Counters())
				}
			}
			st := c.Stats()
			if st.StashHits == 0 || st.DummyReads == 0 || kinds["first-write"] == 0 || kinds["read-into"] == 0 {
				t.Fatalf("%s seed %d: stream missed a case: %+v, ops %v", kind, seed, st, kinds)
			}
			if x, y := c.Rand().Int63(), ref.Rand().Int63(); x != y {
				t.Errorf("%s seed %d: RNG streams diverged (%d vs %d)", kind, seed, x, y)
			}
			if err := sameTree(c.Geometry(), cs, rcs); err != nil {
				t.Errorf("%s seed %d: tree differs: %v", kind, seed, err)
			}
			if err := sameStash(c.stash, ref.stash); err != nil {
				t.Errorf("%s seed %d: %v", kind, seed, err)
			}
		}
	}
}

// TestQuickWriteBackPathMatchesPathRule: a one-leaf WriteBackPaths —
// WriteBackPath, or the leaf repeated — is the PathORAM reference's path
// rule. Random geometries (uniform Z of 1–4 and fat trees, one to 14 leaf
// bits), stashes of 0–3 000 blocks that crowd the written path at every
// depth (so homed blocks and smaller spilled ids compete for a bucket), some
// on no path, some with ids past 2^16, with and without payloads: the same buckets in the same order
// (root first) with the same slots, and the same stash left behind, through
// both transports, over two rounds on the same clients.
func TestQuickWriteBackPathMatchesPathRule(t *testing.T) {
	f := func(seed int64, fat, payloads, repeat bool, leafBitsRaw, zRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		gc := GeometryConfig{LeafBits: 1 + int(leafBitsRaw%14), LeafZ: 1 + int(zRaw%4)}
		if fat {
			gc.Profile, gc.RootZ = ProfileLinear, 2*gc.LeafZ
		}
		if payloads {
			gc.BlockSize = 8
		}
		g := MustGeometry(gc)
		nLeaves := int64(g.Leaves())

		stores := [4]*recStore{}
		batch := [2]*recBatchStore{{recStore: recStore{g: g}}, {recStore: recStore{g: g}}}
		clients := [4]*Client{}
		for i := range clients {
			var st Store
			if i < 2 {
				stores[i] = &recStore{g: g}
				st = stores[i]
			} else {
				stores[i] = &batch[i-2].recStore
				st = batch[i-2]
			}
			c, err := NewClient(ClientConfig{Store: st, Rand: rand.New(rand.NewSource(1)), Blocks: 1})
			if err != nil {
				t.Log(err)
				return false
			}
			clients[i] = c
		}

		for round := 0; round < 2; round++ {
			target := Leaf(rng.Int63n(nLeaves))
			for n := rng.Intn(3001 - clients[0].stash.Len()); n > 0; n-- {
				id := wideID(rng)
				if clients[0].stash.Contains(id) {
					continue
				}
				// A leaf agreeing with the target on its top d bits: home
				// level d or deeper.
				d := rng.Intn(g.LeafBits() + 1)
				low := Leaf(1)<<uint(g.LeafBits()-d) - 1
				leaf := target&^low | Leaf(rng.Int63n(nLeaves))&low
				if rng.Intn(64) == 0 {
					leaf = NoLeaf // on no path: must stay stashed
				}
				var p []byte
				if payloads {
					p = payload8(8, rng.Uint64())
				}
				for _, c := range clients {
					if err := c.stash.Put(id, leaf, p); err != nil {
						t.Log(err)
						return false
					}
				}
			}

			for i, c := range clients {
				stores[i].writes = nil
				var err error
				switch {
				case i%2 == 0:
					err = refWriteBackPath(c, target)
				case repeat:
					err = c.WriteBackPaths([]Leaf{target, target, target})
				default:
					err = c.WriteBackPath(target)
				}
				if err != nil {
					t.Log(err)
					return false
				}
			}
			if batch[1].calls != round+1 {
				t.Logf("round %d: %d WriteBuckets calls so far, want one per write-back", round, batch[1].calls)
				return false
			}
			for i := 1; i < len(clients); i++ {
				if err := sameWrites(stores[0].writes, stores[i].writes); err != nil {
					t.Logf("%v, leaf %d, round %d, client %d: %v", g, target, round, i, err)
					return false
				}
				if err := sameStash(clients[0].stash, clients[i].stash); err != nil {
					t.Logf("%v, leaf %d, round %d, client %d: %v", g, target, round, i, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(47))}); err != nil {
		t.Error(err)
	}
}
