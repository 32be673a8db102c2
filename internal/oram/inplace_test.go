package oram

import (
	"bytes"
	"io"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/crypto"
)

// belowCall is one call a Treetop made to the store it wraps, with the slots
// as they crossed (rows copied).
type belowCall struct {
	write   bool
	buckets []recWrite
}

// belowSpy records every union a Treetop moves through the store it wraps.
type belowSpy struct {
	Face
	calls []belowCall
}

func (s *belowSpy) record(write bool, refs []BucketRef, bufs [][]Slot) {
	c := belowCall{write: write}
	for i, r := range refs {
		w := recWrite{ref: r, slots: slices.Clone(bufs[i])}
		for k := range w.slots {
			w.slots[k].Payload = cloneBytes(w.slots[k].Payload)
		}
		c.buckets = append(c.buckets, w)
	}
	s.calls = append(s.calls, c)
}

func (s *belowSpy) ReadBuckets(refs []BucketRef, dst [][]Slot) error {
	if err := s.Face.ReadBuckets(refs, dst); err != nil {
		return err
	}
	s.record(false, refs, dst)
	return nil
}

func (s *belowSpy) WriteBuckets(refs []BucketRef, src [][]Slot) error {
	s.record(true, refs, src)
	return s.Face.WriteBuckets(refs, src)
}

func (s *belowSpy) Save(w io.Writer) error { return s.Store.(Snapshotter).Save(w) }
func (s *belowSpy) Load(r io.Reader) error { return s.Store.(Snapshotter).Load(r) }

// faceOnly is a Treetop a client does not recognise as one: the client moves
// its top buckets through the Treetop's Store face.
type faceOnly struct{ *Treetop }

// identityStack is one client of TestTreetopInPlaceIdentity and the stores
// under it.
type identityStack struct {
	c   *Client
	tt  *Treetop
	spy *belowSpy
	cs  *CountingStore
}

// topIDs lists the real blocks the top holds.
func (s *identityStack) topIDs() map[BlockID]bool {
	out := make(map[BlockID]bool)
	for j := range s.tt.top.geom.TotalSlots() {
		if id, _ := s.tt.top.meta.get(j); id != DummyID {
			out[id] = true
		}
	}
	return out
}

// adopted counts the stashed blocks the top holds too: between a read and
// its write-back, those the read adopted from it.
func adopted(c *Client) int {
	top, n := &c.top.top, 0
	for j := range top.geom.TotalSlots() {
		if id, _ := top.meta.get(j); id != DummyID && c.stash.Contains(id) {
			n++
		}
	}
	return n
}

// TestTreetopInPlaceIdentity: a client that places into the top in place
// leaves what the same client leaves moving the top buckets through the
// Treetop's Store face. After every call: the same stash (ids, leaves, rows:
// between a read and its write-back the in-place client's stash holds the
// top's blocks by handle, the other's copies of them), the same tree once the
// top is sunk, the same calls below the top and the same counters. It runs
// single paths and joint unions, visits that remap and rewrite blocks
// adopted from the top (a nil row among them), accesses and
// eviction, on a metadata top, a row-keeping top and a sealed inner store,
// and requires blocks to have crossed the top's edge every way: top→below,
// top→stash and stash→top.
func TestTreetopInPlaceIdentity(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 6, LeafZ: 2, RootZ: 6, Profile: ProfileLinear, BlockSize: 16})
	const blocks = 120
	for _, kind := range []string{"meta", "rows", "sealed"} {
		t.Run(kind, func(t *testing.T) {
			rows := kind != "meta"
			build := func(hide bool) *identityStack {
				var inner Store = NewMetaStore(g)
				if rows {
					var sealer Sealer
					if kind == "sealed" {
						s, err := crypto.NewSealer(make([]byte, 32))
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
				}
				spy := &belowSpy{Face: Resolve(inner)}
				tt, err := NewTreetop(spy, rows, false)
				if err != nil {
					t.Fatal(err)
				}
				var st Store = tt
				if hide {
					st = faceOnly{tt}
				}
				cs := NewCountingStore(st, nil)
				c, err := NewClient(ClientConfig{
					Store: cs, Rand: rand.New(rand.NewSource(71)),
					Evict: EvictConfig{Enabled: true, High: 12, Low: 4}, StashHits: true, Blocks: blocks,
				})
				if err != nil {
					t.Fatal(err)
				}
				if (c.top != tt) != hide {
					t.Fatalf("hide %t: the client places in place: %t", hide, c.top == tt)
				}
				return &identityStack{c: c, tt: tt, spy: spy, cs: cs}
			}
			in, face := build(false), build(true)
			rng := rand.New(rand.NewSource(72))

			// check compares the two stacks after a call: their stashes,
			// their calls below the top since the last check, their counters
			// and, once the top is sunk, their trees. A visit rewrites an
			// adopted block's row where it sits, so the trees are compared
			// after every call but a visit.
			check := func(what string) {
				t.Helper()
				if err := sameStash(in.c.stash, face.c.stash); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if in.c.stash.Peak() != face.c.stash.Peak() {
					t.Fatalf("%s: stash peak %d in place, %d through the face", what, in.c.stash.Peak(), face.c.stash.Peak())
				}
				if len(in.spy.calls) != len(face.spy.calls) {
					t.Fatalf("%s: %d calls below the top in place, %d through the face", what, len(in.spy.calls), len(face.spy.calls))
				}
				for i, x := range in.spy.calls {
					y := face.spy.calls[i]
					if x.write != y.write {
						t.Fatalf("%s: call %d below the top writes: %t in place, %t through the face", what, i, x.write, y.write)
					}
					if err := sameWrites(x.buckets, y.buckets); err != nil {
						t.Fatalf("%s: call %d below the top: %v", what, i, err)
					}
				}
				if in.cs.Counters() != face.cs.Counters() {
					t.Fatalf("%s: counters %+v in place, %+v through the face", what, in.cs.Counters(), face.cs.Counters())
				}
				if what == "visit" {
					return
				}
				for _, s := range []*identityStack{in, face} {
					if err := s.tt.Save(io.Discard); err != nil {
						t.Fatal(err)
					}
					s.spy.calls = s.spy.calls[:0]
				}
				if err := sameTree(g, in.spy.Store, face.spy.Store); err != nil {
					t.Fatalf("%s: the sunk trees differ: %v", what, err)
				}
			}
			both := func(what string, f func(*identityStack) error) {
				t.Helper()
				for _, s := range []*identityStack{in, face} {
					if err := f(s); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
				check(what)
			}
			row := func(id BlockID, v byte) []byte {
				if !rows {
					return nil
				}
				p := make([]byte, g.BlockSize())
				p[0], p[1] = byte(id), v
				return p
			}

			both("Load", func(s *identityStack) error {
				return s.c.Load(blocks, nil, func(id BlockID) []byte { return row(id, 0) })
			})
			var topToBelow, topToStash, stashToTop int
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(10); {
				case op < 7:
					leaves := make([]Leaf, 1)
					if op >= 2 {
						leaves = make([]Leaf, 2+rng.Intn(3))
					}
					for i := range leaves {
						leaves[i] = Leaf(rng.Int63n(int64(g.Leaves())))
					}
					both("ReadPaths", func(s *identityStack) error { return s.c.ReadPaths(leaves) })
					// A visit: remap and rewrite some stashed blocks, adopted
					// ones among them, the same ones on both stacks.
					ids := face.c.stash.IDs()
					slices.Sort(ids)
					for _, id := range ids {
						if rng.Intn(2) == 0 {
							continue
						}
						leaf := Leaf(rng.Int63n(int64(g.Leaves())))
						p := row(id, byte(step))
						if rng.Intn(8) == 0 {
							p = nil
						}
						for _, s := range []*identityStack{in, face} {
							s.c.pos.Set(id, leaf)
							if !s.c.stash.SetLeaf(id, leaf) || !s.c.stash.SetPayload(id, p) {
								t.Fatalf("step %d: block %d is not stashed", step, id)
							}
						}
					}
					check("visit")
					// A stashed block the top holds too was adopted from it.
					held, stashed := map[BlockID]bool{}, map[BlockID]bool{}
					top := in.topIDs()
					for _, e := range in.c.stash.entries {
						if top[e.id] {
							held[e.id] = true
						} else {
							stashed[e.id] = true
						}
					}
					both("WriteBackPaths", func(s *identityStack) error {
						if len(leaves) == 1 {
							return s.c.WriteBackPath(leaves[0])
						}
						return s.c.WriteBackPaths(leaves)
					})
					top = in.topIDs()
					for id := range held {
						switch {
						case in.c.stash.Contains(id):
							topToStash++
						case !top[id]:
							topToBelow++
						}
					}
					for id := range stashed {
						if top[id] {
							stashToTop++
						}
					}
				case op < 9:
					id := BlockID(rng.Intn(blocks))
					if op == 7 {
						p := row(id, byte(step))
						both("Access write", func(s *identityStack) error { _, err := s.c.Access(OpWrite, id, p); return err })
						break
					}
					var got [2][]byte
					for i, s := range []*identityStack{in, face} {
						p, err := s.c.Access(OpRead, id, nil)
						if err != nil {
							t.Fatal(err)
						}
						got[i] = p
					}
					if !bytes.Equal(got[0], got[1]) {
						t.Fatalf("step %d: block %d reads %x in place, %x through the face", step, id, got[0], got[1])
					}
					check("Access read")
				default:
					both("MaybeEvict", func(s *identityStack) error { _, err := s.c.MaybeEvict(); return err })
				}
			}
			if topToBelow == 0 || topToStash == 0 || stashToTop == 0 {
				t.Errorf("blocks crossed the top's edge top→below %d, top→stash %d, stash→top %d times; want each > 0", topToBelow, topToStash, stashToTop)
			}
			t.Logf("top→below %d, top→stash %d, stash→top %d", topToBelow, topToStash, stashToTop)
		})
	}
}
