package oram

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// multipath_ref_test.go keeps the original joint write-back — per union
// bucket, scan the id-sorted stash for the first Z eligible unplaced blocks —
// as the reference the linear-time sweep in WriteBackPaths is held to, slot
// for slot.

// refWriteBackPaths is that original: O(union buckets × stash) map probes.
func refWriteBackPaths(c *Client, leaves []Leaf) error {
	g := c.geom
	seen := map[BucketRef]bool{}
	var buckets []BucketRef
	for lvl := g.Levels() - 1; lvl >= 0; lvl-- {
		start := len(buckets)
		for _, l := range leaves {
			b := BucketRef{Level: lvl, Node: g.NodeAt(l, lvl)}
			if !seen[b] {
				seen[b] = true
				buckets = append(buckets, b)
			}
		}
		slices.SortFunc(buckets[start:], func(a, b BucketRef) int {
			switch {
			case a.Node < b.Node:
				return -1
			case a.Node > b.Node:
				return 1
			default:
				return 0
			}
		})
	}

	ids := c.stash.IDs()
	slices.Sort(ids)

	placed := map[BlockID]bool{}
	place := func(b BucketRef, buf []Slot) {
		z := g.BucketSize(b.Level)
		n := 0
		for _, id := range ids {
			if n == z {
				break
			}
			if placed[id] {
				continue
			}
			bl, ok := c.stash.Leaf(id)
			if !ok {
				continue
			}
			if g.NodeAt(bl, b.Level) != b.Node {
				continue
			}
			p, _ := c.stash.Payload(id)
			buf[n] = Slot{ID: id, Leaf: bl, Payload: p}
			placed[id] = true
			n++
		}
		for ; n < z; n++ {
			buf[n] = DummySlot()
		}
	}

	if bs, ok := c.store.(BatchStore); ok && batchWorthwhile(c.store) {
		bufs := make([][]Slot, len(buckets))
		for i, b := range buckets {
			bufs[i] = make([]Slot, g.BucketSize(b.Level))
			place(b, bufs[i])
		}
		if err := bs.WriteBuckets(buckets, bufs); err != nil {
			return err
		}
	} else {
		for _, b := range buckets {
			buf := make([]Slot, g.BucketSize(b.Level))
			place(b, buf)
			if err := c.store.WriteBucket(b.Level, b.Node, buf); err != nil {
				return err
			}
		}
	}
	for id := range placed {
		c.stash.Remove(id)
	}
	return nil
}

// recStore records every bucket written, in order, with payloads copied out
// (the client's write buffers alias live stash slabs). Reads are not needed.
type recStore struct {
	g      *Geometry
	writes []recWrite
}

type recWrite struct {
	ref   BucketRef
	slots []Slot
}

func (s *recStore) Geometry() *Geometry { return s.g }

func (s *recStore) WriteBucket(level int, node uint64, src []Slot) error {
	w := recWrite{ref: BucketRef{Level: level, Node: node}, slots: make([]Slot, len(src))}
	for i, sl := range src {
		sl.Payload = cloneBytes(sl.Payload)
		w.slots[i] = sl
	}
	s.writes = append(s.writes, w)
	return nil
}

func (s *recStore) ReadBucket(int, uint64, []Slot) error   { return fmt.Errorf("recStore: no reads") }
func (s *recStore) ReadSlot(int, uint64, int, *Slot) error { return fmt.Errorf("recStore: no reads") }
func (s *recStore) WriteSlot(int, uint64, int, Slot) error {
	return fmt.Errorf("recStore: no slot writes")
}

// recBatchStore is recStore behind the BatchStore transport; calls counts
// WriteBuckets invocations (a joint write-back must make exactly one).
type recBatchStore struct {
	recStore
	calls int
}

func (s *recBatchStore) ReadBuckets([]BucketRef, [][]Slot) error {
	return fmt.Errorf("recStore: no reads")
}

func (s *recBatchStore) WriteBuckets(refs []BucketRef, src [][]Slot) error {
	s.calls++
	for i, r := range refs {
		if err := s.WriteBucket(r.Level, r.Node, src[i]); err != nil {
			return err
		}
	}
	return nil
}

func sameWrites(a, b []recWrite) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d buckets written vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].ref != b[i].ref {
			return fmt.Errorf("write %d: bucket %+v vs %+v", i, a[i].ref, b[i].ref)
		}
		if len(a[i].slots) != len(b[i].slots) {
			return fmt.Errorf("write %d (%+v): %d slots vs %d", i, a[i].ref, len(a[i].slots), len(b[i].slots))
		}
		for j := range a[i].slots {
			x, y := a[i].slots[j], b[i].slots[j]
			if x.ID != y.ID || x.Leaf != y.Leaf || (x.Payload == nil) != (y.Payload == nil) || !bytes.Equal(x.Payload, y.Payload) {
				return fmt.Errorf("write %d (%+v) slot %d: %+v vs %+v", i, a[i].ref, j, x, y)
			}
		}
	}
	return nil
}

func sameStash(a, b *Stash) error {
	if a.Len() != b.Len() {
		return fmt.Errorf("stash holds %d blocks vs %d", a.Len(), b.Len())
	}
	for _, id := range a.IDs() {
		la, _ := a.Leaf(id)
		lb, ok := b.Leaf(id)
		pa, _ := a.Payload(id)
		pb, _ := b.Payload(id)
		if !ok || la != lb || (pa == nil) != (pb == nil) || !bytes.Equal(pa, pb) {
			return fmt.Errorf("stashed block %d differs (present %v, leaf %d vs %d)", id, ok, la, lb)
		}
	}
	return nil
}

// TestQuickWriteBackPathsMatchesReference: for random geometries (uniform
// Z=4 and fat tree), stashes of 0–3000 blocks and 2–64 leaves (duplicates
// and all-equal sets included), with and without payloads, the sweep writes
// exactly the buckets the reference writes — same order, same slots — leaves
// the same stash behind, and does so through both transports. Two rounds per
// case run on the same clients so reused scratch is covered too.
func TestQuickWriteBackPathsMatchesReference(t *testing.T) {
	f := func(seed int64, fat, payloads bool, leafBitsRaw, shapeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		gc := GeometryConfig{LeafBits: 3 + int(leafBitsRaw%12), LeafZ: 4}
		if fat {
			gc.Profile, gc.RootZ = ProfileLinear, 8
		}
		if payloads {
			gc.BlockSize = 8
		}
		g := MustGeometry(gc)
		nLeaves := int64(g.Leaves())

		// Four clients over recording stores: {reference, sweep} × {per-bucket,
		// batch transport}.
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
			for n := rng.Intn(3001 - clients[0].stash.Len()); n > 0; n-- {
				id := BlockID(rng.Int63n(1 << 16))
				if clients[0].stash.Contains(id) {
					continue
				}
				leaf := Leaf(rng.Int63n(nLeaves))
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
			leaves := make([]Leaf, 2+rng.Intn(63))
			switch shapeRaw % 3 {
			case 0: // independent uniform leaves
				for i := range leaves {
					leaves[i] = Leaf(rng.Int63n(nLeaves))
				}
			case 1: // few distinct leaves, many duplicates
				pool := []Leaf{Leaf(rng.Int63n(nLeaves)), Leaf(rng.Int63n(nLeaves)), Leaf(rng.Int63n(nLeaves))}
				for i := range leaves {
					leaves[i] = pool[rng.Intn(len(pool))]
				}
			default: // all equal
				l := Leaf(rng.Int63n(nLeaves))
				for i := range leaves {
					leaves[i] = l
				}
			}

			for i, c := range clients {
				stores[i].writes = nil
				var err error
				if i%2 == 0 {
					err = refWriteBackPaths(c, leaves)
				} else {
					err = c.WriteBackPaths(leaves)
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
					t.Logf("%v, %d leaves, round %d, client %d: %v", g, len(leaves), round, i, err)
					return false
				}
				if err := sameStash(clients[0].stash, clients[i].stash); err != nil {
					t.Logf("%v, %d leaves, round %d, client %d: %v", g, len(leaves), round, i, err)
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(14))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
