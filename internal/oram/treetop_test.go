package oram

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/crypto"
)

// TestTreetopSnapshotBytes: a client over a Treetop leaves a snapshot byte for
// byte the one the same client leaves over the bare store (the sink puts the
// top back before Save forwards), and a Treetop restored from it (Load lifts
// the top out) answers every bucket as the bare store does and saves the
// same bytes again — for the row-keeping top and the metadata one.
func TestTreetopSnapshotBytes(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 6, LeafZ: 3, RootZ: 6, Profile: ProfileLinear, BlockSize: 24})
	const blocks = 160
	for _, payloads := range []bool{true, false} {
		open := func() Store {
			if !payloads {
				return NewMetaStore(g)
			}
			ps, err := NewPayloadStore(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			return ps
		}
		treetop := func() *Treetop {
			tt, err := NewTreetop(open(), payloads)
			if err != nil {
				t.Fatal(err)
			}
			return tt
		}
		run := func(st Store) {
			c, err := NewClient(ClientConfig{
				Store: NewCountingStore(st, nil), Rand: rand.New(rand.NewSource(3)),
				Evict: EvictConfig{Enabled: true, High: 6, Low: 2}, StashHits: true, Blocks: blocks,
			})
			if err != nil {
				t.Fatal(err)
			}
			row := make([]byte, g.BlockSize())
			if err := c.Load(blocks, nil, func(id BlockID) []byte {
				row[0] = byte(id)
				return row
			}); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(4))
			for i := 0; i < 300; i++ {
				row[1] = byte(i)
				if _, err := c.Access(Op(rng.Intn(2)), BlockID(rng.Intn(blocks)), row); err != nil {
					t.Fatal(err)
				}
			}
			leaves := []Leaf{5, 40, 41, 63}
			if err := c.ReadPaths(leaves); err != nil {
				t.Fatal(err)
			}
			if err := c.WriteBackPaths(leaves); err != nil {
				t.Fatal(err)
			}
		}
		save := func(st Snapshotter) []byte {
			var b bytes.Buffer
			if err := st.Save(&b); err != nil {
				t.Fatal(err)
			}
			return b.Bytes()
		}
		bare, tt := open(), treetop()
		run(bare)
		run(tt)
		want := save(bare.(Snapshotter))
		if !bytes.Equal(save(tt), want) {
			t.Fatalf("payloads %t: a Treetop saves other bytes than the bare store", payloads)
		}
		restored := treetop()
		if err := restored.Load(bytes.NewReader(want)); err != nil {
			t.Fatal(err)
		}
		for lvl := 0; lvl < g.Levels(); lvl++ {
			a, b := make([]Slot, g.BucketSize(lvl)), make([]Slot, g.BucketSize(lvl))
			for node := uint64(0); node < 1<<uint(lvl); node++ {
				if err := restored.ReadBucket(lvl, node, a); err != nil {
					t.Fatal(err)
				}
				if err := bare.ReadBucket(lvl, node, b); err != nil {
					t.Fatal(err)
				}
				for k := range a {
					if a[k].ID != b[k].ID || a[k].Leaf != b[k].Leaf || !bytes.Equal(a[k].Payload, b[k].Payload) {
						t.Fatalf("payloads %t: restored bucket (%d,%d) slot %d is %+v, want %+v", payloads, lvl, node, k, a[k], b[k])
					}
				}
			}
		}
		if !bytes.Equal(save(restored), want) {
			t.Fatalf("payloads %t: a restored Treetop saves other bytes than it was restored from", payloads)
		}
	}
}

// TestTreetopUnionAnyOrder: a union whose refs cross the treetop's edge many
// times — not the level order the client hands it — is split by gathering,
// and still reads back slot for slot as the bare store does.
func TestTreetopUnionAnyOrder(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 5, LeafZ: 2, RootZ: 4, Profile: ProfileLinear, BlockSize: 8})
	bare, err := NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := NewTreetop(inner, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	union := scanUnion(g, []Leaf{1, 6, 17, 30})
	bufsFor := func(refs []BucketRef, fill bool) [][]Slot {
		bufs := make([][]Slot, len(refs))
		for i, r := range refs {
			bufs[i] = make([]Slot, g.BucketSize(r.Level))
			for k := range bufs[i] {
				bufs[i][k] = DummySlot()
				if fill && rng.Intn(2) == 0 {
					row := make([]byte, g.BlockSize())
					rng.Read(row)
					bufs[i][k] = Slot{ID: BlockID(rng.Intn(1 << 20)), Leaf: Leaf(rng.Intn(32)), Payload: row}
				}
			}
		}
		return bufs
	}
	for round := 0; round < 20; round++ {
		refs := slices.Clone(union)
		rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
		src := bufsFor(refs, true)
		if err := bare.WriteBuckets(refs, src); err != nil {
			t.Fatal(err)
		}
		if err := tt.WriteBuckets(refs, src); err != nil {
			t.Fatal(err)
		}
		rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })
		want, got := bufsFor(refs, false), bufsFor(refs, false)
		if err := bare.ReadBuckets(refs, want); err != nil {
			t.Fatal(err)
		}
		if err := tt.ReadBuckets(refs, got); err != nil {
			t.Fatal(err)
		}
		for i := range refs {
			for k := range want[i] {
				a, b := got[i][k], want[i][k]
				if a.ID != b.ID || a.Leaf != b.Leaf || !bytes.Equal(a.Payload, b.Payload) {
					t.Fatalf("round %d: bucket %v slot %d reads %+v through the treetop, %+v bare", round, refs[i], k, a, b)
				}
			}
		}
	}
}

// TestTreetopAllocFree: splitting a union or a path between the top and the
// wrapped store allocates nothing in steady state, on its own and under a
// client's joint fetch and write-back, and the sealed access cycle stays at
// zero with the top unsealed.
func TestTreetopAllocFree(t *testing.T) {
	newTreetop := func(sealer Sealer) *Treetop {
		ps, err := NewPayloadStore(payloadAllocGeom, sealer)
		if err != nil {
			t.Fatal(err)
		}
		tt, err := NewTreetop(ps, true)
		if err != nil {
			t.Fatal(err)
		}
		return tt
	}
	t.Run("union", func(t *testing.T) {
		g := payloadAllocGeom
		tt := newTreetop(nil)
		const leaf = Leaf(77)
		refs := scanUnion(g, []Leaf{3, leaf, 140, 251})
		path := refs[:0:0]
		for lvl := 0; lvl < g.Levels(); lvl++ {
			path = append(path, BucketRef{Level: lvl, Node: g.NodeAt(leaf, lvl)})
		}
		// Real rows and dummies in both calls; every slot's row is re-armed
		// before a read, as the client's batch buffers are.
		arm := func(refs []BucketRef) (bufs [][]Slot, rearm func()) {
			rows := make([][]byte, 0)
			for i, r := range refs {
				b := make([]Slot, g.BucketSize(r.Level))
				for k := range b {
					rows = append(rows, make([]byte, g.BlockSize()))
					if k%2 == 0 {
						b[k] = Slot{ID: BlockID(i*8 + k), Leaf: leaf, Payload: rows[len(rows)-1]}
					} else {
						b[k] = DummySlot()
					}
				}
				bufs = append(bufs, b)
			}
			return bufs, func() {
				n := 0
				for _, b := range bufs {
					for k := range b {
						b[k].Payload = rows[n]
						n++
					}
				}
			}
		}
		union, rearmUnion := arm(refs)
		paths, rearmPath := arm(path)
		round := func() {
			if err := tt.WriteBuckets(refs, union); err != nil {
				t.Fatal(err)
			}
			rearmUnion()
			if err := tt.ReadBuckets(refs, union); err != nil {
				t.Fatal(err)
			}
			if err := tt.WritePath(leaf, paths); err != nil {
				t.Fatal(err)
			}
			rearmPath()
			if err := tt.ReadPath(leaf, paths); err != nil {
				t.Fatal(err)
			}
			rearmUnion()
			rearmPath()
		}
		round()
		if allocs := testing.AllocsPerRun(300, round); allocs > 0 {
			t.Errorf("the treetop's union and path split allocates %.2f objects per round, want 0", allocs)
		}
		if n := slices.IndexFunc(refs, func(r BucketRef) bool { return r.Level >= TreetopLevels(g) }); n <= 0 {
			t.Fatalf("the union does not straddle the treetop (first deep ref at %d)", n)
		}
	})
	t.Run("joint", func(t *testing.T) {
		c, _ := payloadAllocClient(t, NewCountingStore(newTreetop(nil), nil))
		round := jointRound(t, c, 8, 21)
		for i := 0; i < 64; i++ {
			round()
		}
		if allocs := testing.AllocsPerRun(300, round); allocs > 0 {
			t.Errorf("ReadPaths+WriteBackPaths through a Treetop allocates %.2f objects/op in steady state, want 0", allocs)
		}
	})
	t.Run("sealed-access", func(t *testing.T) {
		sealer, err := crypto.NewSealer(make([]byte, 32))
		if err != nil {
			t.Fatal(err)
		}
		c, blocks := payloadAllocClient(t, NewCountingStore(newTreetop(sealer), nil))
		rng := rand.New(rand.NewSource(22))
		buf := make([]byte, 64)
		allocs := testing.AllocsPerRun(500, func() {
			if _, err := c.ReadInto(BlockID(uint64(rng.Int63n(int64(blocks)))), buf); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("sealed ReadInto through a Treetop allocates %.2f objects/op in steady state, want 0", allocs)
		}
	})
}
