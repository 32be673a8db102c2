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
// as the reference the ordered pass in WriteBackPaths is held to, slot
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

	bufs := make([][]Slot, len(buckets))
	for i, b := range buckets {
		bufs[i] = make([]Slot, g.BucketSize(b.Level))
		place(b, bufs[i])
	}
	if err := c.face.WriteBuckets(buckets, bufs); err != nil {
		return err
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

// wideID draws a block id below 2^16, or one time in eight below 2^24, so
// that ids span three radix digits.
func wideID(rng *rand.Rand) BlockID {
	if rng.Intn(8) == 0 {
		return BlockID(rng.Int63n(1 << 24))
	}
	return BlockID(rng.Int63n(1 << 16))
}

// refDistinct is refWriteBackPaths for two or more distinct leaves and
// refWriteBackPath for one: a joint write-back of a single path takes the
// path rule (see WriteBackPaths), however often the leaf repeats.
func refDistinct(c *Client, leaves []Leaf) error {
	if d := slices.Compact(slices.Sorted(slices.Values(leaves))); len(d) == 1 {
		return refWriteBackPath(c, d[0])
	}
	return refWriteBackPaths(c, leaves)
}

// TestQuickWriteBackPathsMatchesReference: for random geometries (uniform
// Z=4 and fat tree, one to 14 leaf bits), stashes of 0–3000 blocks or of 0–2
// radixMin (some on no path, some on exactly a written leaf, some with ids
// past 2^16) and 2–64 leaves — independent,
// few distinct with duplicates, all equal, and clustered in one small
// subtree so that the buckets of its trunk overflow and spill — with and
// without payloads, the sweep writes exactly the buckets the reference
// writes — same order, same slots — leaves the same stash behind, and does
// so through both transports. Two rounds per case run on the same clients
// so reused scratch is covered too. All-equal leaves are one path and are
// held to the path rule's reference, refWriteBackPath.
func TestQuickWriteBackPathsMatchesReference(t *testing.T) {
	f := func(seed int64, fat, payloads bool, leafBitsRaw, shapeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		gc := GeometryConfig{LeafBits: 1 + int(leafBitsRaw%14), LeafZ: 4}
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
			leaves := make([]Leaf, 2+rng.Intn(63))
			// cluster is a subtree of at most 8 leaves: the clustered
			// shape's leaves, and half its stash, sit under it.
			width := min(nLeaves, 1<<rng.Intn(4))
			cluster := rng.Int63n(nLeaves) &^ (width - 1)
			clustered := shapeRaw%4 == 3
			switch shapeRaw % 4 {
			case 0: // independent uniform leaves
				for i := range leaves {
					leaves[i] = Leaf(rng.Int63n(nLeaves))
				}
			case 1: // few distinct leaves, many duplicates
				pool := []Leaf{Leaf(rng.Int63n(nLeaves)), Leaf(rng.Int63n(nLeaves)), Leaf(rng.Int63n(nLeaves))}
				for i := range leaves {
					leaves[i] = pool[rng.Intn(len(pool))]
				}
			case 2: // all equal
				l := Leaf(rng.Int63n(nLeaves))
				for i := range leaves {
					leaves[i] = l
				}
			default: // clustered in one small subtree
				for i := range leaves {
					leaves[i] = Leaf(cluster + rng.Int63n(width))
				}
			}

			// Half the cases keep the stash about the size where the rank
			// sort turns from insertion to radix sort.
			most := 3000
			if shapeRaw&4 != 0 {
				most = 2 * radixMin
			}
			for n := rng.Intn(max(0, most-clients[0].stash.Len()) + 1); n > 0; n-- {
				id := wideID(rng)
				if clients[0].stash.Contains(id) {
					continue
				}
				leaf := Leaf(rng.Int63n(nLeaves))
				switch {
				case rng.Intn(64) == 0:
					leaf = NoLeaf // on no path: must stay stashed
				case rng.Intn(8) == 0:
					leaf = leaves[rng.Intn(len(leaves))] // exactly a written leaf
				case clustered && rng.Intn(2) == 0:
					leaf = Leaf(cluster + rng.Int63n(width))
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
				if i%2 == 0 {
					err = refDistinct(c, leaves)
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
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(14))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickWriteBackPathsLeafSet: a joint write-back is a function of the
// set of leaves. The set written once each, ascending, and the same set
// shuffled with duplicates write the same buckets with the same slots and
// leave the same stash behind — for sets of one leaf too, which take the
// one-path rule however often the leaf repeats. Buckets are compared as a
// set: the one-path call writes root-first.
func TestQuickWriteBackPathsLeafSet(t *testing.T) {
	f := func(seed int64, fat bool, leafBitsRaw, setRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		gc := GeometryConfig{LeafBits: 1 + int(leafBitsRaw%8), LeafZ: 2}
		if fat {
			gc.Profile, gc.RootZ = ProfileLinear, 4
		}
		g := MustGeometry(gc)
		nLeaves := int64(g.Leaves())

		set := make([]Leaf, 1+int(setRaw)%4)
		for i := range set {
			set[i] = Leaf(rng.Int63n(nLeaves))
		}
		set = slices.Compact(slices.Sorted(slices.Values(set)))
		shuffled := slices.Clone(set)
		for n := 1 + rng.Intn(2*len(set)); n > 0; n-- {
			shuffled = append(shuffled, set[rng.Intn(len(set))])
		}
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		stores := [2]*recStore{{g: g}, {g: g}}
		clients := [2]*Client{}
		for i := range clients {
			c, err := NewClient(ClientConfig{Store: stores[i], Rand: rand.New(rand.NewSource(1)), Blocks: 1})
			if err != nil {
				t.Log(err)
				return false
			}
			clients[i] = c
		}
		for n := 4 + rng.Intn(24); n > 0; n-- {
			id := BlockID(rng.Int63n(256))
			leaf := Leaf(rng.Int63n(nLeaves))
			for _, c := range clients {
				if err := c.stash.Put(id, leaf, nil); err != nil {
					t.Log(err)
					return false
				}
			}
		}
		for i, leaves := range [2][]Leaf{set, shuffled} {
			if err := clients[i].WriteBackPaths(leaves); err != nil {
				t.Log(err)
				return false
			}
			slices.SortFunc(stores[i].writes, func(a, b recWrite) int {
				if a.ref.Level != b.ref.Level {
					return a.ref.Level - b.ref.Level
				}
				return int(a.ref.Node) - int(b.ref.Node)
			})
		}
		if err := sameWrites(stores[0].writes, stores[1].writes); err != nil {
			t.Logf("%v, set %v, shuffled %v: %v", g, set, shuffled, err)
			return false
		}
		if err := sameStash(clients[0].stash, clients[1].stash); err != nil {
			t.Logf("%v, set %v, shuffled %v: %v", g, set, shuffled, err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Error(err)
	}
}
