package oram

import (
	"bytes"
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"repro/internal/crypto"
)

// dummywrite_test.go pins the arena invariant behind the skipped
// dummy→dummy write ("ids[i] == DummyID ⇒ the slot's bytes are zero"): a
// store that skips and a reference that zeroes on every dummy write must
// serialise to the same bytes after every operation of any write mix.

// zeroingStore is the reference: a PayloadStore whose dummy writes always
// zero the slot, whatever it held before.
type zeroingStore struct{ *PayloadStore }

func (z zeroingStore) zeroDummies(level int, node uint64, first int, src []Slot) {
	base := z.geom.SlotIndex(level, node, first)
	for k, s := range src {
		if s.ID == DummyID {
			clear(z.slotBytes(base + int64(k)))
		}
	}
}

func (z zeroingStore) WriteSlot(level int, node uint64, slot int, src Slot) error {
	err := z.PayloadStore.WriteSlot(level, node, slot, src)
	z.zeroDummies(level, node, slot, []Slot{src})
	return err
}

func (z zeroingStore) WriteBucket(level int, node uint64, src []Slot) error {
	err := z.PayloadStore.WriteBucket(level, node, src)
	z.zeroDummies(level, node, 0, src)
	return err
}

func (z zeroingStore) WriteBuckets(refs []BucketRef, src [][]Slot) error {
	err := z.PayloadStore.WriteBuckets(refs, src)
	for i, r := range refs {
		z.zeroDummies(r.Level, r.Node, 0, src[i])
	}
	return err
}

func (z zeroingStore) WritePath(leaf Leaf, src [][]Slot) error {
	err := z.PayloadStore.WritePath(leaf, src)
	for lvl := range src {
		z.zeroDummies(lvl, z.geom.NodeAt(leaf, lvl), 0, src[lvl])
	}
	return err
}

// writer is the write half of the store contract both sides are driven
// through.
type writer interface {
	Store
	PathStore
	BatchStore
	Snapshotter
}

// dummyWriteStores builds the store under test (sealed when sealed is set,
// with a crypto pool of the given width when workers > 1) and a strictly
// serial always-zeroing reference under the same key and nonce field.
func dummyWriteStores(t *testing.T, sealed bool, workers int) (*PayloadStore, zeroingStore) {
	t.Helper()
	g := MustGeometry(GeometryConfig{LeafBits: 4, LeafZ: 3, RootZ: 6, Profile: ProfileLinear, BlockSize: 40})
	mk := func() *PayloadStore {
		var sealer Sealer
		if sealed {
			s, err := crypto.NewSealerWithPrefix(bytes.Repeat([]byte{7}, 32), [6]byte{'d', 'u', 'm', 'm', 'y', '0'})
			if err != nil {
				t.Fatal(err)
			}
			sealer = s
		}
		ps, err := NewPayloadStore(g, sealer)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	real := mk()
	if workers > 1 {
		pool := crypto.NewPool(workers)
		t.Cleanup(pool.Close)
		if err := real.SetCryptoPool(pool); err != nil {
			t.Fatal(err)
		}
	}
	return real, zeroingStore{mk()}
}

// randomSlot draws a dummy, a real block with a random row, or a real block
// with a nil payload (the bulk load's "zero row").
func randomSlot(g *Geometry, rng *rand.Rand) Slot {
	switch rng.Intn(5) {
	case 0, 1:
		return DummySlot()
	case 2:
		return Slot{ID: BlockID(rng.Intn(1 << 20)), Leaf: Leaf(rng.Intn(int(g.Leaves())))}
	}
	p := make([]byte, g.BlockSize())
	rng.Read(p)
	return Slot{ID: BlockID(rng.Intn(1 << 20)), Leaf: Leaf(rng.Intn(int(g.Leaves()))), Payload: p}
}

func randomBucket(g *Geometry, rng *rand.Rand, level int) []Slot {
	buf := make([]Slot, g.BucketSize(level))
	for k := range buf {
		buf[k] = randomSlot(g, rng)
	}
	return buf
}

// TestDummyWriteIdentity: the same random mix of WriteSlot / WriteBucket /
// WritePath / WriteBuckets — real rows, dummies, nil-payload rows, with a
// mid-run snapshot loaded back in between — leaves the skipping store and
// the always-zeroing reference with byte-identical Save output after every
// step, unsealed, sealed serial and sealed at pool widths 2, 4 and 8.
func TestDummyWriteIdentity(t *testing.T) {
	cases := []struct {
		name    string
		sealed  bool
		workers int
	}{
		{"unsealed", false, 1},
		{"sealed-serial", true, 1},
		{"sealed-pool-2", true, 2},
		{"sealed-pool-4", true, 4},
		{"sealed-pool-8", true, 8},
	}
	const steps = 160
	for _, tc := range cases {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", tc.name, seed), func(t *testing.T) {
				got, want := dummyWriteStores(t, tc.sealed, tc.workers)
				g := got.Geometry()
				rng := rand.New(rand.NewSource(seed))
				both := func(op string, f func(w writer) error) {
					t.Helper()
					if err := f(got); err != nil {
						t.Fatalf("%s: %v", op, err)
					}
					if err := f(want); err != nil {
						t.Fatalf("%s (reference): %v", op, err)
					}
				}
				var snap []byte
				for step := 0; step < steps; step++ {
					op := [...]string{"WriteSlot", "WriteBucket", "WritePath", "WriteBuckets"}[rng.Intn(4)]
					switch op {
					case "WriteSlot":
						lvl := rng.Intn(g.Levels())
						node, k := uint64(rng.Intn(1<<uint(lvl))), rng.Intn(g.BucketSize(lvl))
						s := randomSlot(g, rng)
						both(op, func(w writer) error { return w.WriteSlot(lvl, node, k, s) })
					case "WriteBucket":
						lvl := rng.Intn(g.Levels())
						node, src := uint64(rng.Intn(1<<uint(lvl))), randomBucket(g, rng, lvl)
						both(op, func(w writer) error { return w.WriteBucket(lvl, node, src) })
					case "WritePath":
						leaf := Leaf(rng.Intn(int(g.Leaves())))
						src := make([][]Slot, g.Levels())
						for lvl := range src {
							src[lvl] = randomBucket(g, rng, lvl)
						}
						both(op, func(w writer) error { return w.WritePath(leaf, src) })
					case "WriteBuckets":
						var refs []BucketRef
						var src [][]Slot
						// Heap numbering: bucket h ≥ 1 sits at level ⌊log2 h⌋.
						for _, i := range rng.Perm(int(g.TotalBuckets()))[:1+rng.Intn(9)] {
							h := uint64(i + 1)
							lvl := bits.Len64(h) - 1
							refs = append(refs, BucketRef{Level: lvl, Node: h - 1<<uint(lvl)})
							src = append(src, randomBucket(g, rng, lvl))
						}
						both(op, func(w writer) error { return w.WriteBuckets(refs, src) })
					}
					a, b := snapshotBytes(t, got), snapshotBytes(t, want)
					if !bytes.Equal(a, b) {
						t.Fatalf("step %d (%s): Save output diverged from the always-zeroing reference", step, op)
					}
					switch step {
					case steps / 3:
						snap = a
					case 2 * steps / 3:
						both("Load", func(w writer) error { return w.Load(bytes.NewReader(snap)) })
					}
				}
			})
		}
	}
}

// TestRealToDummyZeroesSlot: overwriting a real block with a dummy leaves no
// stale plaintext or ciphertext at rest — every byte of the slot is zero —
// through each write shape, unsealed, sealed and sealed with a pool.
func TestRealToDummyZeroesSlot(t *testing.T) {
	for _, tc := range []struct {
		name    string
		sealed  bool
		workers int
	}{{"unsealed", false, 1}, {"sealed", true, 1}, {"sealed-pool-4", true, 4}} {
		t.Run(tc.name, func(t *testing.T) {
			st, _ := dummyWriteStores(t, tc.sealed, tc.workers)
			g := st.Geometry()
			rng := rand.New(rand.NewSource(9))
			full := func(lvl int) []Slot {
				buf := make([]Slot, g.BucketSize(lvl))
				for k := range buf {
					p := bytes.Repeat([]byte{0xA5}, g.BlockSize())
					buf[k] = Slot{ID: BlockID(rng.Intn(1 << 20)), Payload: p}
				}
				return buf
			}
			empty := func(lvl int) []Slot {
				buf := make([]Slot, g.BucketSize(lvl))
				for k := range buf {
					buf[k] = DummySlot()
				}
				return buf
			}
			fullPath, emptyPath := make([][]Slot, g.Levels()), make([][]Slot, g.Levels())
			var refs []BucketRef
			leaf := Leaf(5)
			for lvl := range fullPath {
				fullPath[lvl], emptyPath[lvl] = full(lvl), empty(lvl)
				refs = append(refs, BucketRef{Level: lvl, Node: g.NodeAt(leaf, lvl)})
			}
			fill := func() {
				t.Helper()
				if err := st.WritePath(leaf, fullPath); err != nil {
					t.Fatal(err)
				}
				if bytes.Count(st.arena, []byte{0}) == len(st.arena) {
					t.Fatal("filling the path left the arena all zero")
				}
			}
			shapes := map[string]func() error{
				"WritePath":    func() error { return st.WritePath(leaf, emptyPath) },
				"WriteBuckets": func() error { return st.WriteBuckets(refs, emptyPath) },
				"WriteBucket": func() error {
					for i, r := range refs {
						if err := st.WriteBucket(r.Level, r.Node, emptyPath[i]); err != nil {
							return err
						}
					}
					return nil
				},
				"WriteSlot": func() error {
					for _, r := range refs {
						for k := 0; k < g.BucketSize(r.Level); k++ {
							if err := st.WriteSlot(r.Level, r.Node, k, DummySlot()); err != nil {
								return err
							}
						}
					}
					return nil
				},
			}
			for name, wipe := range shapes {
				fill()
				if err := wipe(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if n := len(st.arena) - bytes.Count(st.arena, []byte{0}); n != 0 {
					t.Errorf("%s: %d non-zero bytes at rest after every block was overwritten with a dummy", name, n)
				}
			}
		})
	}
}
