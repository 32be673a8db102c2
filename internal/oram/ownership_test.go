package oram

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/crypto"
)

// TestOneOwnerPerBuffer drives a Client over a Treetop over a sealed
// PayloadStore — the stack whose top the client places into by handle — through every
// call that moves rows: ReadPaths, WriteBackPaths, WriteBackPath, MaybeEvict,
// Access, the client's Load and the treetop's Save and Load. Across the
// stash's entries, the client's read arena and spare rows and the top's rows,
// no row buffer may be held twice, but for one pair between a read and its
// write-back: a block adopted from the top, whose stash entry holds its top
// slot's row. After every call every stashed row and every row the top holds
// must be the one last written for its block.
func TestOneOwnerPerBuffer(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 6, LeafZ: 2, RootZ: 6, Profile: ProfileLinear, BlockSize: 24})
	sealer, err := crypto.NewSealer(make([]byte, 32))
	if err != nil {
		t.Fatal(err)
	}
	inner, err := NewPayloadStore(g, sealer)
	if err != nil {
		t.Fatal(err)
	}
	tt, err := NewTreetop(inner, true, false)
	if err != nil {
		t.Fatal(err)
	}
	const blocks = 96
	c, err := NewClient(ClientConfig{
		Store: NewCountingStore(tt, nil), Rand: rand.New(rand.NewSource(61)),
		Evict: EvictConfig{Enabled: true, High: 16, Low: 6}, StashHits: true, Blocks: blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(62))
	shadow := make(map[BlockID][]byte, blocks)
	newRow := func(id BlockID) []byte {
		p := make([]byte, g.BlockSize())
		rng.Read(p)
		shadow[id] = p
		return bytes.Clone(p)
	}

	// check checks the buffers after a call; read says a write-back is due,
	// so that adopted blocks may share their rows with their top slots.
	shared := 0
	check := func(what string, read bool) {
		t.Helper()
		type span struct {
			lo, hi uintptr
			who    string
			id     BlockID // the block a live stash entry or a top slot holds
		}
		var spans []span
		hold := func(b []byte, who string, id BlockID) {
			if cap(b) > 0 {
				lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
				spans = append(spans, span{lo, lo + uintptr(cap(b)), who, id})
			}
		}
		st := c.stash
		for i, e := range st.entries[:cap(st.entries)] {
			if i >= st.Len() {
				hold(e.buf, "recycled stash entry", DummyID)
				continue
			}
			hold(e.buf, "stash entry", e.id)
			if e.payload != nil && unsafe.SliceData(e.payload) != unsafe.SliceData(e.buf) {
				t.Fatalf("%s: block %d's row is not its entry's buffer", what, e.id)
			}
			if !bytes.Equal(e.payload, shadow[e.id]) {
				t.Fatalf("%s: stashed block %d holds %x, was written %x", what, e.id, e.payload, shadow[e.id])
			}
		}
		for _, bucket := range c.multi.arena[:cap(c.multi.arena)] {
			for _, b := range bucket {
				hold(b, "read arena", DummyID)
			}
		}
		for _, b := range c.multi.spare {
			hold(b, "spare row", DummyID)
		}
		for i, b := range tt.rows {
			id, _ := tt.top.meta.get(int64(i))
			hold(b, "treetop row", id)
			if id != DummyID && !bytes.Equal(b, shadow[id]) {
				t.Fatalf("%s: the treetop holds %x for block %d, was written %x", what, b, id, shadow[id])
			}
		}

		slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
		for k := 1; k < len(spans); k++ {
			a, b := spans[k-1], spans[k]
			if b.lo >= a.hi {
				continue
			}
			adopted := a.lo == b.lo && a.hi == b.hi && a.id == b.id && a.id != DummyID &&
				min(a.who, b.who) == "stash entry" && max(a.who, b.who) == "treetop row"
			if !read || !adopted || k >= 2 && spans[k-2].hi > b.lo {
				t.Fatalf("%s: a %s and a %s share a buffer", what, a.who, b.who)
			}
			shared++
		}
	}
	must := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		check(what, false)
	}
	mustRead := func(what string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		check(what, true)
	}

	must("Load", c.Load(blocks, nil, func(id BlockID) []byte { return newRow(id) }))
	randomLeaves := func() []Leaf {
		leaves := make([]Leaf, 1+rng.Intn(4))
		for i := range leaves {
			leaves[i] = Leaf(rng.Int63n(int64(g.Leaves())))
		}
		return leaves
	}
	// touch rewrites and remaps some stashed blocks, adopted ones among
	// them, as a trainer's visit and the look-ahead remap do between a fetch
	// and its write-back.
	touch := func() {
		for _, id := range c.stash.IDs() {
			if rng.Intn(3) == 0 {
				c.stash.SetPayload(id, newRow(id))
				leaf := c.RandomLeaf()
				c.pos.Set(id, leaf)
				c.stash.SetLeaf(id, leaf)
			}
		}
	}
	var snap bytes.Buffer
	for step := 0; step < 600; step++ {
		switch op := rng.Intn(10); {
		case op < 4:
			leaves := randomLeaves()
			mustRead("ReadPaths", c.ReadPaths(leaves))
			touch()
			check("visit", true)
			must("WriteBackPaths", c.WriteBackPaths(leaves))
		case op < 7:
			leaf := Leaf(rng.Int63n(int64(g.Leaves())))
			mustRead("ReadPaths of one", c.ReadPaths([]Leaf{leaf}))
			touch()
			check("visit", true)
			must("WriteBackPath", c.WriteBackPath(leaf))
		case op < 9:
			id := BlockID(rng.Int63n(blocks))
			if rng.Intn(2) == 0 {
				_, err := c.Access(OpWrite, id, newRow(id))
				must("Access write", err)
			} else {
				got, err := c.Access(OpRead, id, nil)
				must("Access read", err)
				if !bytes.Equal(got, shadow[id]) {
					t.Fatalf("step %d: block %d reads %x, was written %x", step, id, got, shadow[id])
				}
			}
		default:
			snap.Reset()
			must("Save", tt.Save(&snap))
			must("Load", tt.Load(&snap))
		}
		_, err := c.MaybeEvict()
		must("MaybeEvict", err)
	}
	for id := range BlockID(blocks) {
		got, err := c.Access(OpRead, id, nil)
		must("final read", err)
		if !bytes.Equal(got, shadow[id]) {
			t.Fatalf("block %d reads %x at the end, was written %x", id, got, shadow[id])
		}
	}
	if shared == 0 {
		t.Error("no read left a block's row shared by its stash entry and its top slot")
	}
}
