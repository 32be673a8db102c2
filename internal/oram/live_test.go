package oram

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/crypto"
)

// walkStore is the reference TestLiveBoundIdentity holds the in-memory stores
// to: their rule before live bounds, every slot of a bucket loaded on a read
// and stored on a write, over the same record and arena layout and the same
// at-rest codec, so its Save bytes are the ones the store's must equal. Paths
// and unions reach it through Resolve's bucket loop, and single slots through
// ReadSlotVia/WriteSlotVia like every store's: a slot write reseals its whole
// bucket, in slot order, on both sides.
type walkStore struct {
	geom   *Geometry
	meta   records
	arena  []byte // nil: metadata only
	stride int
	codec  SlotCodec
}

func newWalkStore(g *Geometry, payloads bool, sealer Sealer) *walkStore {
	w := &walkStore{geom: g, meta: make(records, g.TotalSlots()*recordSize)}
	w.meta.clearAll()
	if payloads {
		w.codec = NewSlotCodec(g.BlockSize(), sealer)
		w.stride = w.codec.Stride()
		w.arena = make([]byte, g.TotalSlots()*int64(w.stride))
	}
	return w
}

func (w *walkStore) Geometry() *Geometry { return w.geom }

func (w *walkStore) row(i int64) []byte {
	return w.arena[i*int64(w.stride) : (i+1)*int64(w.stride)]
}

func (w *walkStore) ReadBucket(level int, node uint64, dst []Slot) error {
	for k := range dst {
		if err := w.readSlot(level, node, k, &dst[k]); err != nil {
			return err
		}
	}
	return nil
}

func (w *walkStore) WriteBucket(level int, node uint64, src []Slot) error {
	for k := range src {
		if err := w.writeSlot(level, node, k, src[k]); err != nil {
			return err
		}
	}
	return nil
}

func (w *walkStore) ReadSlot(level int, node uint64, slot int, dst *Slot) error {
	return ReadSlotVia(w, level, node, slot, dst)
}

func (w *walkStore) WriteSlot(level int, node uint64, slot int, src Slot) error {
	return WriteSlotVia(w, level, node, slot, src)
}

func (w *walkStore) readSlot(level int, node uint64, slot int, dst *Slot) error {
	i := w.geom.SlotIndex(level, node, slot)
	dst.ID, dst.Leaf = w.meta.get(i)
	if dst.ID == DummyID || w.arena == nil {
		dst.Payload = nil
		return nil
	}
	return w.codec.Open(w.row(i), dst)
}

func (w *walkStore) writeSlot(level int, node uint64, slot int, src Slot) error {
	i := w.geom.SlotIndex(level, node, slot)
	old, _ := w.meta.get(i)
	w.meta.set(i, src.ID, src.Leaf)
	switch {
	case w.arena == nil:
		return nil
	case src.ID == DummyID:
		if old != DummyID {
			clear(w.row(i))
		}
		return nil
	}
	return w.codec.Seal(w.row(i), src.Payload, nil)
}

func (w *walkStore) Save(out io.Writer) error {
	if w.arena == nil {
		return writeSnapshot(out, []uint64{snapshotMagic + 1, uint64(w.geom.TotalSlots())}, w.meta)
	}
	return writeSnapshot(out, []uint64{snapshotMagic + 2, uint64(w.geom.TotalSlots()), uint64(w.stride)}, w.meta, w.arena)
}

// treeOf returns an in-memory store's tree, for the test's coverage counts.
func treeOf(st Store) *tree {
	switch s := st.(type) {
	case *MetaStore:
		return &s.tree
	case *PayloadStore:
		return &s.tree
	}
	panic(fmt.Sprintf("no tree in %T", st))
}

// liveTestSlot draws one slot: mostly fresh dummies, some dummies whose leaf
// is not 0 (which a store must keep), a fresh dummy carrying a payload (which
// it must ignore), and reals with a row, a nil row (the zero row) and any
// leaf, 0 included.
func liveTestSlot(rng *rand.Rand, g *Geometry) Slot {
	switch r := rng.Intn(20); {
	case r < 9:
		return DummySlot()
	case r < 11:
		return Slot{ID: DummyID, Leaf: Leaf(1 + rng.Int63n(int64(g.Leaves())-1))}
	case r < 12:
		return Slot{ID: DummyID, Payload: bytes.Repeat([]byte{0xAA}, g.BlockSize())}
	case r < 13:
		return Slot{ID: BlockID(rng.Intn(1000)), Leaf: Leaf(rng.Int63n(int64(g.Leaves())))}
	}
	row := make([]byte, g.BlockSize())
	rng.Read(row)
	return Slot{ID: BlockID(rng.Intn(1000)), Leaf: Leaf(rng.Int63n(int64(g.Leaves()))), Payload: row}
}

// liveTestBucket draws a bucket's contents; a quarter are all fresh, so
// writes shrink buckets back to empty.
func liveTestBucket(rng *rand.Rand, g *Geometry, level int) []Slot {
	b := make([]Slot, g.BucketSize(level))
	empty := rng.Intn(4) == 0
	for k := range b {
		b[k] = DummySlot()
		if !empty {
			b[k] = liveTestSlot(rng, g)
		}
	}
	return b
}

// liveTestBuffers returns read buffers for the given bucket sizes, every slot
// holding junk and a row's capacity, so a read must overwrite all of it.
func liveTestBuffers(g *Geometry, levels []int) [][]Slot {
	out := make([][]Slot, len(levels))
	for i, lvl := range levels {
		out[i] = make([]Slot, g.BucketSize(lvl))
		for k := range out[i] {
			out[i][k] = Slot{ID: 0xdead, Leaf: 77, Payload: bytes.Repeat([]byte{0xEE}, g.BlockSize())}
		}
	}
	return out
}

func sameSlots(a, b [][]Slot) error {
	for i := range a {
		for k := range a[i] {
			x, y := a[i][k], b[i][k]
			if x.ID != y.ID || x.Leaf != y.Leaf || (x.Payload == nil) != (y.Payload == nil) || !bytes.Equal(x.Payload, y.Payload) {
				return fmt.Errorf("buffer %d slot %d: store read {%d %d %x}, reference {%d %d %x}", i, k, x.ID, x.Leaf, x.Payload, y.ID, y.Leaf, y.Payload)
			}
		}
	}
	return nil
}

// TestLiveBoundIdentity: a store that stops at each bucket's live bound reads
// and saves exactly what one that walks every slot does. Random sequences of
// union, path, bucket and slot reads and writes — slot writes into a bucket's
// tail and below it, dummies whose leaf is not 0, real→dummy writes that shrink
// a bucket, and a Save→Load into a fresh store every 100 steps — run against
// the store and against walkStore side by side; every read and the Save bytes
// after every step must match. Stores: MetaStore, and PayloadStore unsealed and
// sealed at crypto pool widths 1, 2 and 4 (the reference seals serially under
// a sealer of the same key, so ciphertext matches byte for byte).
func TestLiveBoundIdentity(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 5, LeafZ: 3, RootZ: 7, Profile: ProfileLinear, BlockSize: 16})
	type subject struct {
		name string
		open func(t *testing.T) Store // a fresh store; sealed ones share one sealer
		ref  func(t *testing.T) *walkStore
	}
	subjects := []subject{
		{"MetaStore", func(*testing.T) Store { return NewMetaStore(g) },
			func(*testing.T) *walkStore { return newWalkStore(g, false, nil) }},
		{"PayloadStore", func(t *testing.T) Store {
			ps, err := NewPayloadStore(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			return ps
		}, func(*testing.T) *walkStore { return newWalkStore(g, true, nil) }},
	}
	for _, width := range []int{1, 2, 4} {
		var sealer *crypto.Sealer
		var pool *crypto.Pool
		subjects = append(subjects, subject{fmt.Sprintf("PayloadStore/sealed/pool%d", width), func(t *testing.T) Store {
			if sealer == nil {
				sealer, pool = goldenSealer(t), crypto.NewPool(width)
				t.Cleanup(pool.Close)
			}
			ps, err := NewPayloadStore(g, sealer)
			if err != nil {
				t.Fatal(err)
			}
			if err := ps.SetCryptoPool(pool); err != nil {
				t.Fatal(err)
			}
			return ps
		}, func(t *testing.T) *walkStore { return newWalkStore(g, true, goldenSealer(t)) }})
	}
	const steps = 1500
	for si, sub := range subjects {
		t.Run(sub.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(91 + si)))
			st, ref := sub.open(t), sub.ref(t)
			face, refFace := Resolve(st), Resolve(ref)
			var tailSlotWrites, lowSlotWrites, shrinks, leafDummyBounds int
			randRef := func() BucketRef {
				lvl := rng.Intn(g.Levels())
				return BucketRef{Level: lvl, Node: uint64(rng.Int63n(1 << uint(lvl)))}
			}
			// wrote counts what a bucket write did to the bound.
			wrote := func(r BucketRef, before uint8) {
				tr := treeOf(st)
				after := tr.live[g.bucketNo(r.Level, r.Node)]
				if after < before {
					shrinks++
				}
				if after > 0 {
					if id, leaf := tr.meta.get(g.SlotIndex(r.Level, r.Node, int(after)-1)); id == DummyID && leaf != 0 {
						leafDummyBounds++
					}
				}
			}
			bound := func(r BucketRef) uint8 { return treeOf(st).live[g.bucketNo(r.Level, r.Node)] }
			for step := range steps {
				var err, refErr error
				var got, want [][]Slot
				switch op := rng.Intn(9); op {
				case 0, 1: // a write union of distinct buckets, in any order
					seen := map[BucketRef]bool{}
					var refs []BucketRef
					var src [][]Slot
					var before []uint8
					for range 1 + rng.Intn(6) {
						r := randRef()
						if seen[r] {
							continue
						}
						seen[r] = true
						refs, src, before = append(refs, r), append(src, liveTestBucket(rng, g, r.Level)), append(before, bound(r))
					}
					err, refErr = face.WriteBuckets(refs, src), refFace.WriteBuckets(refs, src)
					for i, r := range refs {
						wrote(r, before[i])
					}
				case 2: // a read union, repeats allowed
					var refs []BucketRef
					var levels []int
					for range 1 + rng.Intn(6) {
						r := randRef()
						refs, levels = append(refs, r), append(levels, r.Level)
					}
					got, want = liveTestBuffers(g, levels), liveTestBuffers(g, levels)
					err, refErr = face.ReadBuckets(refs, got), refFace.ReadBuckets(refs, want)
				case 3, 4: // a path: the one-leaf union, root first
					leaf := Leaf(rng.Int63n(int64(g.Leaves())))
					levels := make([]int, g.Levels())
					refs := make([]BucketRef, g.Levels())
					for lvl := range levels {
						levels[lvl], refs[lvl] = lvl, BucketRef{lvl, g.NodeAt(leaf, lvl)}
					}
					if op == 3 {
						src := make([][]Slot, g.Levels())
						before := make([]uint8, g.Levels())
						for lvl := range src {
							src[lvl], before[lvl] = liveTestBucket(rng, g, lvl), bound(refs[lvl])
						}
						err, refErr = face.WriteBuckets(refs, src), refFace.WriteBuckets(refs, src)
						for lvl := range src {
							wrote(refs[lvl], before[lvl])
						}
						break
					}
					got, want = liveTestBuffers(g, levels), liveTestBuffers(g, levels)
					err, refErr = face.ReadBuckets(refs, got), refFace.ReadBuckets(refs, want)
				case 5: // one bucket
					r := randRef()
					src, before := liveTestBucket(rng, g, r.Level), bound(r)
					err, refErr = st.WriteBucket(r.Level, r.Node, src), ref.WriteBucket(r.Level, r.Node, src)
					wrote(r, before)
				case 6:
					r := randRef()
					got, want = liveTestBuffers(g, []int{r.Level}), liveTestBuffers(g, []int{r.Level})
					err, refErr = st.ReadBucket(r.Level, r.Node, got[0]), ref.ReadBucket(r.Level, r.Node, want[0])
				case 7: // one slot, in the tail or below it
					r := randRef()
					k := rng.Intn(g.BucketSize(r.Level))
					before := bound(r)
					if k >= int(before) {
						tailSlotWrites++
					} else {
						lowSlotWrites++
					}
					s := liveTestSlot(rng, g)
					err, refErr = st.WriteSlot(r.Level, r.Node, k, s), ref.WriteSlot(r.Level, r.Node, k, s)
					wrote(r, before)
				case 8:
					r := randRef()
					k := rng.Intn(g.BucketSize(r.Level))
					got, want = liveTestBuffers(g, []int{0}), liveTestBuffers(g, []int{0})
					err, refErr = st.ReadSlot(r.Level, r.Node, k, &got[0][0]), ref.ReadSlot(r.Level, r.Node, k, &want[0][0])
				}
				if err != nil || refErr != nil {
					t.Fatalf("step %d: store %v, reference %v", step, err, refErr)
				}
				if got != nil {
					if err := sameSlots(got, want); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
				if step%100 == 50 { // restore into a fresh store and carry on with it
					var snap bytes.Buffer
					if err := st.(Snapshotter).Save(&snap); err != nil {
						t.Fatal(err)
					}
					st = sub.open(t)
					if err := st.(Snapshotter).Load(&snap); err != nil {
						t.Fatal(err)
					}
					face = Resolve(st)
				}
				var gotSnap, wantSnap bytes.Buffer
				if err := st.(Snapshotter).Save(&gotSnap); err != nil {
					t.Fatal(err)
				}
				if err := ref.Save(&wantSnap); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotSnap.Bytes(), wantSnap.Bytes()) {
					t.Fatalf("step %d: Save bytes differ from the reference's", step)
				}
			}
			if tailSlotWrites == 0 || lowSlotWrites == 0 || shrinks == 0 || leafDummyBounds == 0 {
				t.Fatalf("sequence too tame: %d tail and %d lower slot writes, %d shrinks, %d bounds ending on a dummy with a leaf",
					tailSlotWrites, lowSlotWrites, shrinks, leafDummyBounds)
			}
		})
	}
}
