package oram

import (
	"bytes"
	"errors"
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
			tt, err := NewTreetop(open(), payloads, false)
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
	tt, err := NewTreetop(inner, true, false)
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

// TestTreetopAllocFree: splitting a union or a one-path union between the top
// and the wrapped store allocates nothing in steady state, on its own and under a
// client's joint fetch and write-back, verifying or not; a client placing
// remapped blocks into the top in place allocates nothing; and the sealed
// access cycle stays at zero with the top unsealed.
func TestTreetopAllocFree(t *testing.T) {
	newTreetop := func(sealer Sealer, verify bool) *Treetop {
		ps, err := NewPayloadStore(payloadAllocGeom, sealer)
		if err != nil {
			t.Fatal(err)
		}
		tt, err := NewTreetop(ps, true, verify)
		if err != nil {
			t.Fatal(err)
		}
		return tt
	}
	for _, verify := range []bool{false, true} {
		name := map[bool]string{false: "", true: "/verify"}[verify]
		t.Run("union"+name, func(t *testing.T) { treetopUnionAllocFree(t, newTreetop(nil, verify)) })
		t.Run("joint"+name, func(t *testing.T) {
			c, _ := payloadAllocClient(t, NewCountingStore(newTreetop(nil, verify), nil))
			round := jointRound(t, c, 8, 21)
			for i := 0; i < 64; i++ {
				round()
			}
			if allocs := testing.AllocsPerRun(300, round); allocs > 0 {
				t.Errorf("ReadPaths+WriteBackPaths through a Treetop allocates %.2f objects/op in steady state, want 0", allocs)
			}
		})
	}
	t.Run("in-place", func(t *testing.T) {
		// Blocks adopted from the top, a third of the stash remapped, cross
		// the top's edge every way and move between top slots by handle.
		c, _ := payloadAllocClient(t, NewCountingStore(newTreetop(nil, false), nil))
		if c.top.t == 0 {
			t.Fatal("the client does not place into the top in place")
		}
		rng := rand.New(rand.NewSource(23))
		leaves := make([]Leaf, 8)
		held := 0
		round := func() {
			for i := range leaves {
				leaves[i] = Leaf(rng.Int63n(int64(c.Geometry().Leaves())))
			}
			if err := c.ReadPaths(leaves); err != nil {
				t.Fatal(err)
			}
			held += adopted(c)
			for k := 0; k < c.stash.Len(); k += 3 {
				e := &c.stash.entries[k]
				e.leaf = c.RandomLeaf()
				c.pos.Set(e.id, e.leaf)
			}
			if err := c.WriteBackPaths(leaves); err != nil {
				t.Fatal(err)
			}
			if _, err := c.MaybeEvict(); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 256; i++ {
			round()
		}
		if allocs := testing.AllocsPerRun(300, round); allocs > 0 {
			t.Errorf("placing into the top in place allocates %.2f objects/op in steady state, want 0", allocs)
		}
		if held == 0 {
			t.Error("no round adopted a block from the top")
		}
	})
	t.Run("sealed-access", func(t *testing.T) {
		sealer, err := crypto.NewSealer(make([]byte, 32))
		if err != nil {
			t.Fatal(err)
		}
		c, blocks := payloadAllocClient(t, NewCountingStore(newTreetop(sealer, false), nil))
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

// treetopUnionAllocFree moves a straddling union and a path, rows and
// dummies, through tt and requires no allocation per round.
func treetopUnionAllocFree(t *testing.T, tt *Treetop) {
	g := payloadAllocGeom
	const leaf = Leaf(77)
	refs := scanUnion(g, []Leaf{3, leaf, 140, 251})
	path := refs[:0:0]
	for lvl := 0; lvl < g.Levels(); lvl++ {
		path = append(path, BucketRef{Level: lvl, Node: g.NodeAt(leaf, lvl)})
	}
	// Real rows and dummies in both calls; every slot's row is re-armed
	// before a read, as the client's batch buffers are (a read leaves a
	// dummy's row nil).
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
					if b[k].Payload != nil {
						rows[n] = b[k].Payload
					}
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
		if err := tt.WriteBuckets(path, paths); err != nil {
			t.Fatal(err)
		}
		rearmPath()
		if err := tt.ReadBuckets(path, paths); err != nil {
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
}

// verifyingTreetop is a verifying Treetop over a fresh PayloadStore of 16-byte
// rows and five levels (two in the top), and that store, which the tests
// write to directly as the server would.
func verifyingTreetop(t *testing.T) (*Treetop, *PayloadStore) {
	t.Helper()
	g := MustGeometry(GeometryConfig{LeafBits: 4, LeafZ: 3, BlockSize: 16})
	inner, err := NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := NewTreetop(inner, true, true)
	if err != nil {
		t.Fatal(err)
	}
	return tt, inner
}

// bucketOf is a three-slot bucket holding block id on leaf with a row led by
// b, then two dummies.
func bucketOf(id BlockID, leaf Leaf, b byte) []Slot {
	row := make([]byte, 16)
	row[0] = b
	return []Slot{{ID: id, Leaf: leaf, Payload: row}, DummySlot(), DummySlot()}
}

// readFails reads bucket (level, node) through tt and requires an
// ErrIntegrity naming it.
func readFails(t *testing.T, tt *Treetop, level int, node uint64, what string) {
	t.Helper()
	err := tt.ReadBucket(level, node, make([]Slot, tt.Geometry().BucketSize(level)))
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("%s: read of bucket (%d,%d) returned %v, want ErrIntegrity", what, level, node, err)
	}
}

// TestTreetopVerifyRoundTrip: a bucket written below the top — a row and a
// real slot with a nil row — reads back through the verifying treetop, with
// its digest moved off the empty bucket's.
func TestTreetopVerifyRoundTrip(t *testing.T) {
	tt, _ := verifyingTreetop(t)
	src := bucketOf(1, 3, 0x77)
	src[1] = Slot{ID: 2, Leaf: 5}
	empty := tt.sums[1<<2-1<<tt.t+1]
	if err := tt.WriteBucket(2, 1, src); err != nil {
		t.Fatal(err)
	}
	if tt.sums[1<<2-1<<tt.t+1] == empty {
		t.Fatal("the write left the bucket's digest at the empty bucket's")
	}
	dst := make([]Slot, 3)
	if err := tt.ReadBucket(2, 1, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0].ID != 1 || dst[0].Payload[0] != 0x77 || dst[1].ID != 2 || !bytes.Equal(dst[1].Payload, make([]byte, 16)) {
		t.Errorf("round trip mismatch: %+v", dst)
	}
}

// TestTreetopVerifyTamper: a bucket the server rewrites fails the next read,
// as a single bucket and inside a union.
func TestTreetopVerifyTamper(t *testing.T) {
	tt, inner := verifyingTreetop(t)
	if err := tt.WriteBucket(3, 2, bucketOf(5, 1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := inner.WriteBucket(3, 2, bucketOf(5, 1, 0xFF)); err != nil {
		t.Fatal(err)
	}
	readFails(t, tt, 3, 2, "tampered bucket")
	refs := []BucketRef{{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 5}}
	bufs := make([][]Slot, len(refs))
	for i, r := range refs {
		bufs[i] = make([]Slot, tt.Geometry().BucketSize(r.Level))
	}
	if err := tt.ReadBuckets(refs, bufs); !errors.Is(err, ErrIntegrity) {
		t.Fatalf("a union over the tampered bucket returned %v, want ErrIntegrity", err)
	}
}

// TestTreetopVerifyRollback: replaying an older copy of the same bucket fails,
// because the client's digest has moved on.
func TestTreetopVerifyRollback(t *testing.T) {
	tt, inner := verifyingTreetop(t)
	if err := tt.WriteBucket(4, 0, bucketOf(3, 0, 1)); err != nil {
		t.Fatal(err)
	}
	old := make([]Slot, 3)
	if err := inner.ReadBucket(4, 0, old); err != nil {
		t.Fatal(err)
	}
	if err := tt.WriteBucket(4, 0, bucketOf(3, 0, 2)); err != nil {
		t.Fatal(err)
	}
	if err := inner.WriteBucket(4, 0, old); err != nil {
		t.Fatal(err)
	}
	readFails(t, tt, 4, 0, "rolled-back bucket")
}

// TestTreetopVerifyRelocation: a valid bucket copied to another (level, node),
// over one the client wrote and over one it never wrote, fails both reads.
func TestTreetopVerifyRelocation(t *testing.T) {
	tt, inner := verifyingTreetop(t)
	if err := tt.WriteBucket(3, 2, bucketOf(5, 4, 9)); err != nil {
		t.Fatal(err)
	}
	if err := tt.WriteBucket(3, 5, bucketOf(6, 10, 8)); err != nil {
		t.Fatal(err)
	}
	valid := make([]Slot, 3)
	if err := inner.ReadBucket(3, 2, valid); err != nil {
		t.Fatal(err)
	}
	for _, r := range []BucketRef{{3, 5}, {2, 3}} {
		if err := inner.WriteBucket(r.Level, r.Node, valid); err != nil {
			t.Fatal(err)
		}
		readFails(t, tt, r.Level, r.Node, "relocated bucket")
	}
}

// TestTreetopVerifyRefusesNonEmptyStore: construction reads nothing and trusts
// nothing, so a bucket the wrapped store held before it fails its first read.
func TestTreetopVerifyRefusesNonEmptyStore(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 4, LeafZ: 3, BlockSize: 16})
	inner, err := NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := inner.WriteBucket(3, 1, bucketOf(7, 2, 7)); err != nil {
		t.Fatal(err)
	}
	tt, err := NewTreetop(inner, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if err := tt.ReadBucket(3, 0, make([]Slot, 3)); err != nil {
		t.Fatalf("an empty bucket failed its read: %v", err)
	}
	readFails(t, tt, 3, 1, "a bucket held before construction")
}

// TestTreetopVerifyClient: a PathORAM client runs over a verifying treetop, and
// a block the server moves to another leaf in a bucket below the top breaks the
// first access whose path reads that bucket.
func TestTreetopVerifyClient(t *testing.T) {
	const blocks = 64
	g := MustGeometry(GeometryConfig{LeafBits: 6, LeafZ: 3, BlockSize: 8})
	inner, err := NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := NewTreetop(inner, true, true)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{
		Store: NewCountingStore(tt, nil), Rand: rand.New(rand.NewSource(1)),
		Evict: PaperEvict, StashHits: true, Blocks: blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < blocks; i++ {
		if err := c.Write(BlockID(i), []byte{byte(i), 0, 0, 0, 0, 0, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < blocks; i++ {
		got, err := c.Read(BlockID(i))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("block %d corrupt", i)
		}
	}
	leaf := g.Levels() - 1
	buf := make([]Slot, g.BucketSize(leaf))
	node := uint64(0)
	for ; ; node++ {
		if node == 1<<uint(leaf) {
			t.Fatal("no leaf bucket holds a block")
		}
		if err := inner.ReadBucket(leaf, node, buf); err != nil {
			t.Fatal(err)
		}
		if !buf[0].Dummy() {
			break
		}
	}
	buf[0].Leaf ^= 1
	if err := inner.WriteBucket(leaf, node, buf); err != nil {
		t.Fatal(err)
	}
	for round := 0; ; round++ {
		if round == 20 {
			t.Fatal("20 reads of every block never met the tampered bucket")
		}
		var err error
		for i := uint64(0); i < blocks && err == nil; i++ {
			_, err = c.Read(BlockID(i))
		}
		if err != nil {
			if !errors.Is(err, ErrIntegrity) {
				t.Fatalf("a read over the tampered bucket failed with %v, want ErrIntegrity", err)
			}
			break
		}
	}
}
