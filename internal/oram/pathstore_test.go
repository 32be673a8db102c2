package oram

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/crypto"
)

// batchCapableStore wraps a PayloadStore with a BatchStore implementation
// that delegates bucket by bucket — the shape a remote store has, without
// the network. It lets the tests below force the client's fast paths and
// compare them against the bucket-granularity reference.
type batchCapableStore struct {
	*PayloadStore
}

func (s *batchCapableStore) ReadBuckets(refs []BucketRef, dst [][]Slot) error {
	for i, r := range refs {
		if err := s.ReadBucket(r.Level, r.Node, dst[i]); err != nil {
			return err
		}
	}
	return nil
}

func (s *batchCapableStore) WriteBuckets(refs []BucketRef, src [][]Slot) error {
	for i, r := range refs {
		if err := s.WriteBucket(r.Level, r.Node, src[i]); err != nil {
			return err
		}
	}
	return nil
}

// bucketOnlyStore hides any BatchStore methods of the wrapped store, forcing the client's per-bucket slow path.
type bucketOnlyStore struct {
	inner Store
}

func (s *bucketOnlyStore) Geometry() *Geometry { return s.inner.Geometry() }
func (s *bucketOnlyStore) ReadBucket(level int, node uint64, dst []Slot) error {
	return s.inner.ReadBucket(level, node, dst)
}
func (s *bucketOnlyStore) WriteBucket(level int, node uint64, src []Slot) error {
	return s.inner.WriteBucket(level, node, src)
}
func (s *bucketOnlyStore) ReadSlot(level int, node uint64, slot int, dst *Slot) error {
	return s.inner.ReadSlot(level, node, slot, dst)
}
func (s *bucketOnlyStore) WriteSlot(level int, node uint64, slot int, src Slot) error {
	return s.inner.WriteSlot(level, node, slot, src)
}

// TestPathStoreFastPathEquivalence: a client over a BatchStore-capable
// store must behave byte-identically — same payloads, same stats,
// same traffic counters — to a client over the same store with the fast
// paths hidden. This is the foundation of the remote protocol's
// transparency: opBatch unions change framing, not semantics.
func TestPathStoreFastPathEquivalence(t *testing.T) {
	t.Run("client", clientFastPathEquivalence)
	shapes := append(localShapes(), ConformanceShapes...)
	for _, sh := range shapes {
		counted := sh
		counted.Name = "CountingStore/" + sh.Name
		counted.Native = true
		counted.Open = func(t *testing.T, g *Geometry) Store { return NewCountingStore(sh.Open(t, g), nil) }
		for _, sh := range []StoreShape{sh, counted} {
			t.Run(sh.Name, func(t *testing.T) { storeConformance(t, sh) })
			t.Run(sh.Name+"/slot", func(t *testing.T) { slotConformance(t, sh) })
		}
	}
}

func clientFastPathEquivalence(t *testing.T) {
	const blocks = 96
	const seed = 31
	build := func(fast bool) (*Client, *CountingStore) {
		g := MustGeometry(GeometryConfig{LeafBits: 5, LeafZ: 4, BlockSize: 16})
		ps, err := NewPayloadStore(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		var inner Store = &batchCapableStore{ps}
		cs := NewCountingStore(inner, nil)
		var top Store = cs
		if !fast {
			top = &bucketOnlyStore{cs}
		}
		c, err := NewClient(ClientConfig{
			Store: top, Rand: rand.New(rand.NewSource(seed)),
			Evict: PaperEvict, StashHits: true, Blocks: blocks,
		})
		if err != nil {
			t.Fatal(err)
		}
		return c, cs
	}
	fast, fastCS := build(true)
	slow, slowCS := build(false)

	rng := rand.New(rand.NewSource(97))
	for i := 0; i < 400; i++ {
		id := BlockID(rng.Intn(blocks))
		if rng.Intn(3) == 0 {
			v := make([]byte, 16)
			binary.LittleEndian.PutUint64(v, rng.Uint64())
			if err := fast.Write(id, v); err != nil {
				t.Fatal(err)
			}
			if err := slow.Write(id, v); err != nil {
				t.Fatal(err)
			}
		} else {
			a, errA := fast.Read(id)
			b, errB := slow.Read(id)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("op %d: error divergence: %v vs %v", i, errA, errB)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("op %d block %d: payload divergence", i, id)
			}
		}
	}
	// Occasionally exercise the multipath (batched) entry points too.
	leaves := []Leaf{1, 5, 9, 5}
	if err := fast.ReadPaths(leaves); err != nil {
		t.Fatal(err)
	}
	if err := slow.ReadPaths(leaves); err != nil {
		t.Fatal(err)
	}
	if err := fast.WriteBackPaths(leaves); err != nil {
		t.Fatal(err)
	}
	if err := slow.WriteBackPaths(leaves); err != nil {
		t.Fatal(err)
	}

	if fast.Stats() != slow.Stats() {
		t.Errorf("access stats diverge: fast %+v, slow %+v", fast.Stats(), slow.Stats())
	}
	if fast.Stash().Len() != slow.Stash().Len() || fast.Stash().Peak() != slow.Stash().Peak() {
		t.Errorf("stash divergence: fast %d/%d, slow %d/%d",
			fast.Stash().Len(), fast.Stash().Peak(), slow.Stash().Len(), slow.Stash().Peak())
	}
	if fastCS.Counters() != slowCS.Counters() {
		t.Errorf("traffic counters diverge: fast %+v, slow %+v", fastCS.Counters(), slowCS.Counters())
	}
	// Final tree contents must agree block for block.
	for id := uint64(0); id < blocks; id++ {
		a, errA := fast.Read(BlockID(id))
		b, errB := slow.Read(BlockID(id))
		if (errA == nil) != (errB == nil) || !bytes.Equal(a, b) {
			t.Fatalf("block %d: final state divergence", id)
		}
	}
}

// StoreShape is one row of the store conformance table: a way to build a
// fresh, all-dummy store over a geometry, and what the resolver and the
// store's own validation are expected to make of it.
type StoreShape struct {
	Name string
	Open func(t *testing.T, g *Geometry) Store
	// Native: the store has its own ReadBuckets/WriteBuckets, which Resolve
	// hands out instead of the bucket loop.
	Native bool
	// Atomic: the store validates a whole batch before it writes, so a write
	// that is wrong in its last bucket changes nothing.
	Atomic bool
	// Payloads: the store keeps payload bytes (MetaStore keeps none).
	Payloads bool
	// ZeroRows: a real slot handed over with a nil payload reads back as a
	// zero row (VerifiedStore hashes what it was handed, so it takes none).
	ZeroRows bool
}

// ConformanceShapes are the rows contributed by packages internal/oram
// cannot import (conformance_ext_test.go: VerifiedStore, diskstore, remote).
var ConformanceShapes []StoreShape

func localShapes() []StoreShape {
	payload := func(sealed bool, workers int) func(*testing.T, *Geometry) Store {
		return func(t *testing.T, g *Geometry) Store {
			var sealer Sealer
			if sealed {
				s, err := crypto.NewRandomSealer()
				if err != nil {
					t.Fatal(err)
				}
				sealer = s
			}
			ps, err := NewPayloadStore(g, sealer)
			if err != nil {
				t.Fatal(err)
			}
			if workers > 1 {
				pool := crypto.NewPool(workers)
				t.Cleanup(pool.Close)
				if err := ps.SetCryptoPool(pool); err != nil {
					t.Fatal(err)
				}
			}
			return ps
		}
	}
	meta := func(_ *testing.T, g *Geometry) Store { return NewMetaStore(g) }
	return []StoreShape{
		{Name: "MetaStore", Open: meta},
		{Name: "PayloadStore", Open: payload(false, 1), Native: true, Atomic: true, Payloads: true, ZeroRows: true},
		{Name: "PayloadStore/sealed", Open: payload(true, 1), Native: true, Atomic: true, Payloads: true, ZeroRows: true},
		{Name: "PayloadStore/sealed+pool", Open: payload(true, 4), Native: true, Atomic: true, Payloads: true, ZeroRows: true},
		TreetopShape("MetaStore", meta, false),
		TreetopShape("PayloadStore", payload(false, 1), true),
		TreetopShape("PayloadStore/sealed", payload(true, 1), true),
	}
}

// TreetopShape is the conformance row of a Treetop over the stores open
// builds: batch-native and validating whatever it wraps, since it checks a
// whole union before either part moves, and answering slot for slot
// like the bare store — rows where it keeps rows, zero rows for nil payloads.
func TreetopShape(name string, open func(*testing.T, *Geometry) Store, payloads bool) StoreShape {
	return StoreShape{
		Name: "Treetop/" + name, Native: true, Atomic: true, Payloads: payloads, ZeroRows: payloads,
		Open: func(t *testing.T, g *Geometry) Store {
			tt, err := NewTreetop(open(t, g), payloads)
			if err != nil {
				t.Fatal(err)
			}
			return tt
		},
	}
}

// storeConformance moves the same buckets through a store's resolved Face
// (one ReadBuckets/WriteBuckets per union, a path being the one-leaf union,
// root first) and through a twin bucket by bucket, and requires the same slot
// bytes and the same Counters; that the store's own ReadPath/WritePath, where
// it still has them, move what the path's union does; that the store keeps no
// reference to the payloads it was handed and hands out none to its own
// storage (invariant #8); and that a call that is wrong in its last bucket
// charges nothing and — through a validating batch-native store — writes
// nothing.
func storeConformance(t *testing.T, sh StoreShape) {
	g := MustGeometry(GeometryConfig{LeafBits: 4, LeafZ: 2, RootZ: 5, Profile: ProfileLinear, BlockSize: 16})
	raw, twin := sh.Open(t, g), sh.Open(t, g)
	if _, loop := Resolve(raw).BatchStore.(bucketLoop); loop == sh.Native {
		t.Fatalf("Resolve(%T) hands out the bucket loop: %t, want %t", raw, loop, !sh.Native)
	}
	viaFace, viaLoop := NewCountingStore(raw, nil), NewCountingStore(twin, nil)
	face := Resolve(viaFace)
	ownPath, hasPath := raw.(PathStore)

	const leaf = Leaf(11)
	path := make([]BucketRef, g.Levels())
	for lvl := range path {
		path[lvl] = BucketRef{Level: lvl, Node: g.NodeAt(leaf, lvl)}
	}
	var union []BucketRef
	seen := map[BucketRef]bool{}
	for lvl := 0; lvl < g.Levels(); lvl++ {
		for _, l := range []Leaf{3, 9, 12, 9} {
			if r := (BucketRef{Level: lvl, Node: g.NodeAt(l, lvl)}); !seen[r] {
				seen[r] = true
				union = append(union, r)
			}
		}
	}
	rng := rand.New(rand.NewSource(5))
	nextID := BlockID(0)
	// fill draws a bucket set's content: dummies, rows and (where the store
	// takes them) nil-payload zero rows.
	fill := func(refs []BucketRef) [][]Slot {
		bufs := make([][]Slot, len(refs))
		for i, r := range refs {
			bufs[i] = make([]Slot, g.BucketSize(r.Level))
			for k := range bufs[i] {
				nextID++
				switch pick := rng.Intn(4); {
				case pick == 0:
					bufs[i][k] = DummySlot()
				case pick == 1 && sh.ZeroRows:
					bufs[i][k] = Slot{ID: nextID, Leaf: Leaf(rng.Intn(16))}
				default:
					row := make([]byte, g.BlockSize())
					rng.Read(row)
					bufs[i][k] = Slot{ID: nextID, Leaf: Leaf(rng.Intn(16)), Payload: row}
				}
			}
		}
		return bufs
	}
	// model is what every written bucket must read back as.
	model := map[BucketRef][]Slot{}
	record := func(refs []BucketRef, bufs [][]Slot) {
		for i, r := range refs {
			want := make([]Slot, len(bufs[i]))
			for k, s := range bufs[i] {
				want[k] = Slot{ID: s.ID, Leaf: s.Leaf}
				if !s.Dummy() && sh.Payloads {
					want[k].Payload = append(make([]byte, 0, g.BlockSize()), s.Payload...)[:g.BlockSize()]
				}
			}
			model[r] = want
		}
	}
	armed := func(refs []BucketRef) [][]Slot {
		bufs := make([][]Slot, len(refs))
		for i, r := range refs {
			bufs[i] = make([]Slot, g.BucketSize(r.Level))
			for k := range bufs[i] {
				bufs[i][k].Payload = make([]byte, g.BlockSize())
			}
		}
		return bufs
	}
	scribble := func(bufs [][]Slot) {
		for _, b := range bufs {
			for k := range b {
				for j := range b[k].Payload {
					b[k].Payload[j] = 0xFF
				}
			}
		}
	}
	loopWrite := func(st Store, refs []BucketRef, bufs [][]Slot) {
		t.Helper()
		for i, r := range refs {
			if err := st.WriteBucket(r.Level, r.Node, bufs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	loopRead := func(st Store, refs []BucketRef) [][]Slot {
		t.Helper()
		bufs := armed(refs)
		for i, r := range refs {
			if err := st.ReadBucket(r.Level, r.Node, bufs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return bufs
	}
	same := func(what string, refs []BucketRef, got, twin [][]Slot) {
		t.Helper()
		for i, r := range refs {
			for k := range got[i] {
				a, b, want := got[i][k], twin[i][k], model[r][k]
				if a.ID != b.ID || a.Leaf != b.Leaf || !bytes.Equal(a.Payload, b.Payload) {
					t.Fatalf("%s: bucket %v slot %d: %+v through the face, %+v bucket by bucket", what, r, k, a, b)
				}
				if a.ID != want.ID || a.Leaf != want.Leaf || !bytes.Equal(a.Payload, want.Payload) {
					t.Fatalf("%s: bucket %v slot %d reads back %+v, was written %+v", what, r, k, a, want)
				}
			}
		}
	}
	// readBoth reads the path and the union back both ways and compares;
	// the store's own ReadPath, uncharged, must read what the path's union
	// does.
	readBoth := func(what string) {
		t.Helper()
		gotPath, gotUnion := armed(path), armed(union)
		if err := face.ReadBuckets(path, gotPath); err != nil {
			t.Fatal(err)
		}
		if err := face.ReadBuckets(union, gotUnion); err != nil {
			t.Fatal(err)
		}
		same(what+" path", path, gotPath, loopRead(viaLoop, path))
		same(what+" union", union, gotUnion, loopRead(viaLoop, union))
		if hasPath {
			own := armed(path)
			if err := ownPath.ReadPath(leaf, own); err != nil {
				t.Fatal(err)
			}
			same(what+" own ReadPath", path, own, gotPath)
			scribble(own)
		}
		// Invariant #8, read side: what a read hands out is the caller's.
		scribble(gotPath)
		scribble(gotUnion)
	}

	pathSrc, unionSrc := fill(path), fill(union)
	record(path, pathSrc)
	record(union, unionSrc) // the union shares the root with the path and overwrites it
	if err := face.WriteBuckets(path, pathSrc); err != nil {
		t.Fatal(err)
	}
	if err := face.WriteBuckets(union, unionSrc); err != nil {
		t.Fatal(err)
	}
	loopWrite(viaLoop, path, pathSrc)
	loopWrite(viaLoop, union, unionSrc)
	// Invariant #8, write side: the store kept copies, not the caller's rows.
	scribble(pathSrc)
	scribble(unionSrc)
	readBoth("first read")
	if hasPath {
		// The store's own WritePath lands what the path's union would: the
		// twin takes the same rows bucket by bucket, both uncharged.
		ownSrc := fill(path)
		record(path, ownSrc)
		if err := ownPath.WritePath(leaf, ownSrc); err != nil {
			t.Fatal(err)
		}
		loopWrite(twin, path, ownSrc)
		scribble(ownSrc)
		readBoth("read after the store's own WritePath")
	}
	readBoth("read after the first read's buffers were overwritten")
	if a, b := viaFace.Counters(), viaLoop.Counters(); a != b {
		t.Errorf("counters: %+v through the face, %+v bucket by bucket", a, b)
	}

	// Calls that are wrong in their last bucket — a path whose leaf-level
	// buffer is a slot short, a union whose last ref names no bucket — are
	// refused uncharged, and a store that validates a union before it writes
	// is left as it was. (A union reaches such a store whole only when the
	// store is batch-native; the bucket loop stops where the store objects.)
	refused := func(what string, unchanged bool, calls ...func() error) {
		t.Helper()
		before := viaFace.Counters()
		for _, call := range calls {
			if call() == nil {
				t.Errorf("%s: a call that is wrong in its last bucket was accepted", what)
			}
		}
		if after := viaFace.Counters(); after != before {
			t.Errorf("%s: failed calls were charged: %+v, was %+v", what, after, before)
		}
		if unchanged {
			same(what+", path after", path, loopRead(viaFace, path), loopRead(viaLoop, path))
			same(what+", union after", union, loopRead(viaFace, union), loopRead(viaLoop, union))
		}
	}
	badPath, shortPath := fill(path), armed(path)
	last := len(path) - 1
	badPath[last], shortPath[last] = badPath[last][:1], shortPath[last][:1]
	refused("short path", sh.Atomic && sh.Native,
		func() error { return viaFace.ReadBuckets(path, shortPath) },
		func() error { return viaFace.WriteBuckets(path, badPath) })
	if hasPath {
		// The store's own path pair, kept for the benchmark, refuses the same
		// short path uncharged, and a validating store writes none of it.
		refused("short path, the store's own", sh.Atomic,
			func() error { return ownPath.ReadPath(leaf, shortPath) },
			func() error { return ownPath.WritePath(leaf, badPath) })
	}
	badRefs := append(append([]BucketRef(nil), union[:len(union)-1]...), BucketRef{Level: 1, Node: 7})
	refused("bad last ref", sh.Atomic && sh.Native,
		func() error { return viaFace.ReadBuckets(badRefs, armed(union)) },
		func() error { return viaFace.WriteBuckets(badRefs, fill(union)) })
}

// slotConformance holds a store's ReadSlot/WriteSlot to its buckets: slots
// written one at a time read back, slot by slot and whole, as the same bucket
// written and read whole does; a slot read lands in the capacity its dst came
// with; and a slot or a bucket out of range is refused and writes nothing.
func slotConformance(t *testing.T, sh StoreShape) {
	g := MustGeometry(GeometryConfig{LeafBits: 4, LeafZ: 2, RootZ: 5, Profile: ProfileLinear, BlockSize: 16})
	viaSlot, viaBucket := sh.Open(t, g), sh.Open(t, g)
	rng := rand.New(rand.NewSource(7))
	draw := func() Slot {
		id, leaf := BlockID(rng.Intn(1000)), Leaf(rng.Intn(16))
		switch pick := rng.Intn(4); {
		case pick == 0:
			return DummySlot()
		case pick == 1 && sh.ZeroRows:
			return Slot{ID: id, Leaf: leaf}
		}
		row := make([]byte, g.BlockSize())
		rng.Read(row)
		return Slot{ID: id, Leaf: leaf, Payload: row}
	}
	same := func(what string, got, want Slot) {
		t.Helper()
		if got.ID != want.ID || got.Leaf != want.Leaf || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("%s: %+v by slot, %+v by bucket", what, got, want)
		}
	}
	readBucket := func(st Store, level int, node uint64) []Slot {
		t.Helper()
		buf := make([]Slot, g.BucketSize(level))
		if err := st.ReadBucket(level, node, buf); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	// The widest bucket, a middle and a leaf one: every slot written in a
	// random order, then one of them overwritten; the twin takes each whole.
	refs := []BucketRef{{0, 0}, {2, 1}, {g.Levels() - 1, 9}}
	for _, r := range refs {
		src := make([]Slot, g.BucketSize(r.Level))
		for _, k := range append(rng.Perm(len(src)), rng.Intn(len(src))) {
			src[k] = draw()
			if err := viaSlot.WriteSlot(r.Level, r.Node, k, src[k]); err != nil {
				t.Fatal(err)
			}
		}
		if err := viaBucket.WriteBucket(r.Level, r.Node, src); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range refs {
		want := readBucket(viaBucket, r.Level, r.Node)
		for k, s := range readBucket(viaSlot, r.Level, r.Node) {
			same(fmt.Sprintf("bucket %v slot %d read whole", r, k), s, want[k])
		}
		for k := range want {
			row := make([]byte, g.BlockSize())
			got := Slot{Payload: row}
			if err := viaSlot.ReadSlot(r.Level, r.Node, k, &got); err != nil {
				t.Fatal(err)
			}
			same(fmt.Sprintf("bucket %v slot %d", r, k), got, want[k])
			if sh.Payloads && !got.Dummy() && &got.Payload[0] != &row[0] {
				t.Fatalf("bucket %v slot %d: payload not read into the capacity dst came with", r, k)
			}
		}
	}
	bad := []struct {
		level int
		node  uint64
		slot  int
	}{
		{2, 1, g.BucketSize(2)}, // a root-sized slot index at a narrower level
		{2, 1, -1},
		{2, 4, 0},
		{g.Levels(), 0, 0},
		{-1, 0, 0},
	}
	for _, b := range bad {
		var got Slot
		if err := viaSlot.ReadSlot(b.level, b.node, b.slot, &got); err == nil {
			t.Errorf("ReadSlot(%d, %d, %d) accepted", b.level, b.node, b.slot)
		}
		if err := viaSlot.WriteSlot(b.level, b.node, b.slot, Slot{ID: 1, Leaf: 1, Payload: make([]byte, g.BlockSize())}); err == nil {
			t.Errorf("WriteSlot(%d, %d, %d) accepted", b.level, b.node, b.slot)
		}
	}
	for lvl := range g.Levels() {
		for node := range uint64(1) << lvl {
			want := readBucket(viaBucket, lvl, node)
			for k, s := range readBucket(viaSlot, lvl, node) {
				same(fmt.Sprintf("after refused calls, bucket (%d,%d) slot %d", lvl, node, k), s, want[k])
			}
		}
	}
}
