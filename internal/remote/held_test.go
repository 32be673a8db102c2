package remote

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/crypto"
	"repro/internal/diskstore"
	"repro/internal/oram"
)

// The held write-back on the client: WriteBuckets (and every write, a bucket,
// slot or path being a union too) holds its union, the shard's next read
// carries it in one write-then-read frame, and every other operation on the
// shard sends it first. The tests below pin that against a v4-style reference
// (a write frame, then a read frame), at every operation that must act as a
// barrier, and under a shed.

// randUnion draws a bucket union — the deduplicated buckets of a few random
// paths, in path order — and content for it: dummies, rows and zero rows.
func randUnion(g *oram.Geometry, rng *rand.Rand, nextID *oram.BlockID) ([]oram.BucketRef, [][]oram.Slot) {
	seen := map[oram.BucketRef]bool{}
	var refs []oram.BucketRef
	for p := 1 + rng.Intn(4); p > 0; p-- {
		leaf := oram.Leaf(rng.Int63n(int64(g.Leaves())))
		for lvl := 0; lvl < g.Levels(); lvl++ {
			if r := (oram.BucketRef{Level: lvl, Node: g.NodeAt(leaf, lvl)}); !seen[r] {
				seen[r] = true
				refs = append(refs, r)
			}
		}
	}
	src := make([][]oram.Slot, len(refs))
	for i, r := range refs {
		src[i] = make([]oram.Slot, g.BucketSize(r.Level))
		for k := range src[i] {
			*nextID++
			switch rng.Intn(4) {
			case 0:
				src[i][k] = oram.DummySlot()
			case 1:
				src[i][k] = oram.Slot{ID: *nextID, Leaf: oram.Leaf(rng.Int63n(int64(g.Leaves())))}
			default:
				row := make([]byte, g.BlockSize())
				rng.Read(row)
				src[i][k] = oram.Slot{ID: *nextID, Leaf: oram.Leaf(rng.Int63n(int64(g.Leaves()))), Payload: row}
			}
		}
	}
	return refs, src
}

func emptyUnion(g *oram.Geometry, refs []oram.BucketRef) [][]oram.Slot {
	dst := make([][]oram.Slot, len(refs))
	for i, r := range refs {
		dst[i] = make([]oram.Slot, g.BucketSize(r.Level))
	}
	return dst
}

func snapshot(t *testing.T, srv *Server) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := srv.SnapshotShard(0, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestHeldWriteMatchesV4Reference drives 240 random steps — a write union, a
// read union, two writes in a row, a read with nothing held — through the
// held/carried path of a ShardStore over TCP and, beside it, as the separate
// kind-1 and kind-0 frames of protocol v4 into a twin server. After every
// write the served store is still what it was (the union is held) and after
// every read the two stores' Save bytes and every returned slot are equal, on
// a PayloadStore, a sealed PayloadStore and a diskstore.
func TestHeldWriteMatchesV4Reference(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 5, LeafZ: 3, RootZ: 5, Profile: oram.ProfileLinear, BlockSize: 16})
	sealed := func(t *testing.T) oram.Store {
		s, err := crypto.NewSealerWithPrefix(bytes.Repeat([]byte{7}, 32), [6]byte{1, 2, 3, 4, 5, 6})
		if err != nil {
			t.Fatal(err)
		}
		ps, err := oram.NewPayloadStore(g, s)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	for _, backend := range []struct {
		name string
		open func(t *testing.T) oram.Store
	}{
		{"PayloadStore", func(t *testing.T) oram.Store {
			ps, err := oram.NewPayloadStore(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			return ps
		}},
		{"PayloadStore/sealed", sealed},
		{"diskstore", func(t *testing.T) oram.Store {
			ds, err := diskstore.Open(diskstore.Config{Path: filepath.Join(t.TempDir(), "arena"), Geometry: g, MemBudget: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { ds.Close() })
			return ds
		}},
	} {
		t.Run(backend.name, func(t *testing.T) {
			served, err := NewSharded([]oram.Store{backend.open(t)}, 2, nil)
			if err != nil {
				t.Fatal(err)
			}
			addr, err := served.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer served.Close()
			twin, err := NewSharded([]oram.Store{backend.open(t)}, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			cl, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			st := shard0(t, cl)

			rng := rand.New(rand.NewSource(2305))
			var nextID oram.BlockID
			var id uint64
			v4 := func(body []byte) []byte {
				t.Helper()
				id++
				_, status, resp, err := parseRespHeader(twin.handle(append(appendReqHeader(nil, id, opBatch, 0), body...)))
				if err != nil || status != statusOK {
					t.Fatalf("reference frame refused: status %d, %s", status, resp)
				}
				return resp
			}
			held := false
			for step := 0; step < 240; step++ {
				if rng.Intn(5) < 3 { // a write: one run in three follows another write
					refs, src := randUnion(g, rng, &nextID)
					before := snapshot(t, twin)
					if err := st.WriteBuckets(refs, src); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if !held && !bytes.Equal(snapshot(t, served), before) {
						t.Fatalf("step %d: WriteBuckets reached the served store; it holds its union", step)
					}
					v4(refWriteBatch(refs, src))
					held = true
					continue
				}
				refs, _ := randUnion(g, rng, &nextID)
				dst := emptyUnion(g, refs)
				if err := st.ReadBuckets(refs, dst); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if want := v4(refReadBatch(refs)); !bytes.Equal(refSlots(nil, dst), want) {
					t.Fatalf("step %d: the carried read returned other slots than the v4 read", step)
				}
				if !bytes.Equal(snapshot(t, served), snapshot(t, twin)) {
					t.Fatalf("step %d: served store differs from the v4 twin after the read", step)
				}
				held = false
			}
			var viaClient bytes.Buffer
			if err := st.Save(&viaClient); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(viaClient.Bytes(), snapshot(t, twin)) {
				t.Fatal("Save through the client differs from the v4 twin at the end")
			}
		})
	}
}

// recStore logs the calls that reach a served store.
type recStore struct {
	*oram.PayloadStore
	mu  sync.Mutex
	log []string
}

func (r *recStore) rec(op string) {
	r.mu.Lock()
	r.log = append(r.log, op)
	r.mu.Unlock()
}

// take returns and clears the log.
func (r *recStore) take() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := strings.Join(r.log, " ")
	r.log = nil
	return out
}

func (r *recStore) ReadBucket(level int, node uint64, dst []oram.Slot) error {
	r.rec("ReadBucket")
	return r.PayloadStore.ReadBucket(level, node, dst)
}
func (r *recStore) WriteBucket(level int, node uint64, src []oram.Slot) error {
	r.rec("WriteBucket")
	return r.PayloadStore.WriteBucket(level, node, src)
}
func (r *recStore) ReadSlot(level int, node uint64, slot int, dst *oram.Slot) error {
	r.rec("ReadSlot")
	return r.PayloadStore.ReadSlot(level, node, slot, dst)
}
func (r *recStore) WriteSlot(level int, node uint64, slot int, src oram.Slot) error {
	r.rec("WriteSlot")
	return r.PayloadStore.WriteSlot(level, node, slot, src)
}
func (r *recStore) ReadPath(leaf oram.Leaf, dst [][]oram.Slot) error {
	r.rec("ReadPath")
	return r.PayloadStore.ReadPath(leaf, dst)
}
func (r *recStore) WritePath(leaf oram.Leaf, src [][]oram.Slot) error {
	r.rec("WritePath")
	return r.PayloadStore.WritePath(leaf, src)
}
func (r *recStore) ReadBuckets(refs []oram.BucketRef, dst [][]oram.Slot) error {
	r.rec("ReadBuckets")
	return r.PayloadStore.ReadBuckets(refs, dst)
}
func (r *recStore) WriteBuckets(refs []oram.BucketRef, src [][]oram.Slot) error {
	r.rec(fmt.Sprintf("WriteBuckets(%d)", src[0][0].ID))
	return r.PayloadStore.WriteBuckets(refs, src)
}
func (r *recStore) Save(w io.Writer) error {
	r.rec("Save")
	return r.PayloadStore.Save(w)
}
func (r *recStore) Load(rd io.Reader) error {
	r.rec("Load")
	return r.PayloadStore.Load(rd)
}

// TestHeldWriteBarriers: one table over every operation that must not overtake
// a held write-back. The held union reaches the served store before the
// operation's own call does (the log is in arrival order). Every read — a
// bucket, a slot and a path are unions too — carries it in the one frame it
// sends; a write sends it as one frame and is held in its place (a slot write
// reads its bucket first, which carries it), and the read that follows sends
// the write's own union. Save sends it first, Load discards it, two views of
// one shard share one hold, and a WriteBuckets the client refuses holds
// nothing.
func TestHeldWriteBarriers(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 3, LeafZ: 3, BlockSize: 8})
	stores := make([]*recStore, 3)
	served := make([]oram.Store, len(stores))
	for i := range stores {
		ps, err := oram.NewPayloadStore(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = &recStore{PayloadStore: ps}
		served[i] = stores[i]
	}
	srv, err := NewSharded(served, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Admission control on, never binding: its admitted count is the number
	// of data frames the server's readLoop saw.
	if err := srv.SetLimits(Limits{MaxInflight: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dial := func() *Client {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cl.Close() })
		return cl
	}
	cl := dial()
	view := func(cl *Client, shard int) *ShardStore {
		st, err := cl.Store(shard)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	refs, src := unionFixture(g, 81)
	mark := func(id oram.BlockID) [][]oram.Slot { // the union, recognisable in the log
		out := append([][]oram.Slot(nil), src...)
		out[0] = append([]oram.Slot(nil), src[0]...)
		out[0][0] = oram.Slot{ID: id, Leaf: 1, Payload: bytes.Repeat([]byte{byte(id)}, 8)}
		return out
	}
	path := emptyUnion(g, []oram.BucketRef{{Level: 0}, {Level: 1}, {Level: 2}, {Level: 3}})
	bucket := make([]oram.Slot, 3)
	var slot oram.Slot
	var snap bytes.Buffer
	if err := view(cl, 0).Save(&snap); err != nil {
		t.Fatal(err)
	}
	stores[0].take()

	cases := []struct {
		name   string
		op     func(st *ShardStore) error
		log    string // what reaches store 0, in order
		frames uint64 // data frames the server sees for hold + op
		held   string // the op's own union, as the next read sends it
	}{
		{"ReadBuckets", func(st *ShardStore) error { return st.ReadBuckets(refs, emptyUnion(g, refs)) }, "WriteBuckets(1) ReadBuckets", 1, ""},
		{"ReadBucket", func(st *ShardStore) error { return st.ReadBucket(1, 1, bucket) }, "WriteBuckets(2) ReadBuckets", 1, ""},
		{"WriteBucket", func(st *ShardStore) error { return st.WriteBucket(1, 1, mark(60)[0]) }, "WriteBuckets(3)", 1, "WriteBuckets(60)"},
		{"ReadSlot", func(st *ShardStore) error { return st.ReadSlot(0, 0, 0, &slot) }, "WriteBuckets(4) ReadBuckets", 1, ""},
		{"WriteSlot", func(st *ShardStore) error { return st.WriteSlot(0, 0, 1, src[0][1]) }, "WriteBuckets(5) ReadBuckets", 1, "WriteBuckets(5)"},
		{"ReadPath", func(st *ShardStore) error { return st.ReadPath(5, path) }, "WriteBuckets(6) ReadBuckets", 1, ""},
		{"WritePath", func(st *ShardStore) error { return st.WritePath(5, mark(70)[:4]) }, "WriteBuckets(7)", 1, "WriteBuckets(70)"},
		{"Save", func(st *ShardStore) error { return st.Save(io.Discard) }, "WriteBuckets(8) Save", 1, ""},
		{"second WriteBuckets", func(st *ShardStore) error {
			if err := st.WriteBuckets(refs, mark(90)); err != nil {
				return err
			}
			if got := stores[0].take(); got != "WriteBuckets(9)" {
				return fmt.Errorf("after the second WriteBuckets the store saw %q, want the first union only", got)
			}
			return st.ReadBuckets(refs, emptyUnion(g, refs))
		}, "WriteBuckets(90) ReadBuckets", 2, ""},
		{"Load", func(st *ShardStore) error {
			if err := st.Load(bytes.NewReader(snap.Bytes())); err != nil {
				return err
			}
			return st.ReadBucket(0, 0, bucket) // nothing left to send first
		}, "Load ReadBuckets", 1, ""},
		{"another view", func(st *ShardStore) error { return view(cl, 0).ReadBuckets(refs, emptyUnion(g, refs)) }, "WriteBuckets(11) ReadBuckets", 1, ""},
		{"refused WriteBuckets", func(st *ShardStore) error {
			if err := st.ReadSlot(0, 0, 0, &slot); err != nil { // settle the table's own hold
				return err
			}
			bad := append(append([]oram.BucketRef(nil), refs[:len(refs)-1]...), oram.BucketRef{Level: 2, Node: 4})
			short := append(append([][]oram.Slot(nil), src[:len(src)-1]...), src[len(src)-1][:2])
			row := mark(99)
			row[0][0].Payload = []byte{1, 2, 3}
			for what, call := range map[string]func() error{
				"out-of-range ref":  func() error { return st.WriteBuckets(bad, src) },
				"mis-sized bucket":  func() error { return st.WriteBuckets(refs, short) },
				"mis-sized row":     func() error { return st.WriteBuckets(refs, row) },
				"refs without bufs": func() error { return st.WriteBuckets(refs, src[:2]) },
			} {
				if call() == nil {
					return fmt.Errorf("WriteBuckets with an %s was accepted", what)
				}
			}
			return st.ReadBucket(0, 0, bucket)
		}, "WriteBuckets(12) ReadBuckets ReadBuckets", 2, ""},
	}
	for i, tc := range cases {
		st := view(cl, 0)
		frames := srv.OverloadStats().Admitted
		if err := st.WriteBuckets(refs, mark(oram.BlockID(i+1))); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := stores[0].take(); got != "" {
			t.Fatalf("%s: WriteBuckets reached the store (%s); it holds its union", tc.name, got)
		}
		if err := tc.op(st); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := stores[0].take(); got != tc.log {
			t.Errorf("%s: the served store saw %q, want %q", tc.name, got, tc.log)
		}
		if got := srv.OverloadStats().Admitted - frames; got != tc.frames {
			t.Errorf("%s: %d data frames, want %d", tc.name, got, tc.frames)
		}
		if tc.held == "" {
			continue
		}
		if err := st.ReadBuckets(refs, emptyUnion(g, refs)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got, want := stores[0].take(), tc.held+" ReadBuckets"; got != want {
			t.Errorf("%s: the read after it sent %q, want %q", tc.name, got, want)
		}
	}

	// The placement operations, each on a connection of its own.
	t.Run("MigrateTo", func(t *testing.T) {
		st := view(dial(), 0)
		if err := st.WriteBuckets(refs, mark(20)); err != nil {
			t.Fatal(err)
		}
		// The target's own held union was computed against a tree the
		// migration replaces: it must be dropped, not land on the copy.
		target := view(st.Client(), 1)
		if err := target.WriteBuckets(refs, mark(21)); err != nil {
			t.Fatal(err)
		}
		if _, err := st.MigrateTo(target); err != nil {
			t.Fatal(err)
		}
		if got, want := stores[0].take(), "WriteBuckets(20) Save"; got != want {
			t.Errorf("source store saw %q, want %q", got, want)
		}
		if err := st.ReadBuckets(refs, emptyUnion(g, refs)); err != nil {
			t.Fatal(err)
		}
		if got, want := stores[1].take(), "Load ReadBuckets"; got != want {
			t.Errorf("target store saw %q, want %q", got, want)
		}
	})
	t.Run("Repoint", func(t *testing.T) {
		st := view(dial(), 0)
		if err := st.WriteBuckets(refs, mark(30)); err != nil {
			t.Fatal(err)
		}
		if err := st.Repoint(view(st.Client(), 2)); err != nil {
			t.Fatal(err)
		}
		if got, want := stores[0].take(), "WriteBuckets(30)"; got != want {
			t.Errorf("old placement saw %q, want %q", got, want)
		}
		if err := st.ReadBucket(0, 0, bucket); err != nil {
			t.Fatal(err)
		}
		if got, want := stores[2].take(), "ReadBuckets"; got != want || stores[0].take() != "" {
			t.Errorf("new placement saw %q, want %q (and the old one nothing)", got, want)
		}
	})
	t.Run("Close", func(t *testing.T) {
		c := dial()
		if err := view(c, 0).WriteBuckets(refs, mark(40)); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if got, want := stores[0].take(), "WriteBuckets(40)"; got != want {
			t.Errorf("store saw %q by the time Close returned, want %q", got, want)
		}
		if err := view(cl, 0).ReadBucket(0, 0, bucket); err != nil || bucket[0].ID != 40 {
			t.Errorf("after Close the root reads %+v, %v; want the closed client's union", bucket[0], err)
		}
	})
}

// TestHeldWriteShedExecutesOnce: the write-then-read frame is shed by the
// per-connection rate limit, retried in the lane from the same bytes, and
// reaches the store exactly once.
func TestHeldWriteShedExecutesOnce(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 3, LeafZ: 3, BlockSize: 8})
	ps, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	rs := &recStore{PayloadStore: ps}
	srv, err := NewSharded([]oram.Store{rs}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetLimits(Limits{PerConnRate: 25, PerConnBurst: 1}); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl, err := DialConfig(context.Background(), addr, Config{RequestDeadline: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st := shard0(t, cl)
	refs, src := unionFixture(g, 82)
	var slot oram.Slot
	if err := st.ReadSlot(0, 0, 0, &slot); err != nil { // spends the burst
		t.Fatal(err)
	}
	if err := st.WriteBuckets(refs, src); err != nil {
		t.Fatal(err)
	}
	dst := emptyUnion(g, refs)
	if err := st.ReadBuckets(refs, dst); err != nil {
		t.Fatal(err)
	}
	if srv.OverloadStats().ShedRate == 0 {
		t.Fatal("the write-then-read frame was never shed; the test no longer tests the retry")
	}
	if got, want := rs.take(), fmt.Sprintf("ReadBuckets WriteBuckets(%d) ReadBuckets", src[0][0].ID); got != want {
		t.Errorf("store saw %q, want %q", got, want)
	}
	for i := range src {
		for j, want := range src[i] {
			if got := dst[i][j]; got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("bucket %d slot %d reads %+v, was written %+v", i, j, got, want)
			}
		}
	}
}

// TestCloseBoundedOnHungNode: Close flushes the write-back it holds, but a
// node that never acks holds it up for closeGrace at most — Close is also
// what cancels a lane stalled on such a node.
func TestCloseBoundedOnHungNode(t *testing.T) {
	old := closeGrace
	closeGrace = 50 * time.Millisecond
	defer func() { closeGrace = old }()
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 3, LeafZ: 3, BlockSize: 8})
	var got [][]byte
	var mu sync.Mutex
	addr := startScriptedServer(t, g, func(_ net.Conn, _ uint64, op byte, _ time.Duration, body []byte) bool {
		mu.Lock()
		got = append(got, append([]byte{op}, body...))
		mu.Unlock()
		return true // read, never answered
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	refs, src := unionFixture(g, 83)
	if err := shard0(t, cl).WriteBuckets(refs, src); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < closeGrace || d > 100*closeGrace {
		t.Errorf("Close took %v on a node that never acks, want about %v", d, closeGrace)
	}
	mu.Lock()
	defer mu.Unlock()
	if want := append([]byte{opBatch}, refWriteBatch(refs, src)...); len(got) != 1 || !slices.Equal(got[0], want) {
		t.Errorf("the hung node received %d frames, want the one held write frame", len(got))
	}
}

// TestHeldWriteSharedAcrossGoroutines: four goroutines, each through a view of
// its own, write and read back disjoint unions on ONE shard — so each one's
// held union is flushed or carried by whichever operation of any of them
// comes next. Every read sees the goroutine's own last write: a union is
// applied before any later operation on the shard executes, whoever sends it.
func TestHeldWriteSharedAcrossGoroutines(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 4, LeafZ: 3, BlockSize: 8})
	_, addr := startServer(t, g, false)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st, err := cl.Store(0)
			if err != nil {
				t.Error(err)
				return
			}
			// Disjoint from the other goroutines': the subtree under (2, w).
			refs := []oram.BucketRef{{Level: 2, Node: uint64(w)}, {Level: 3, Node: uint64(2 * w)}, {Level: 4, Node: uint64(4*w + 3)}}
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < 200; round++ {
				src := emptyUnion(g, refs)
				for i := range src {
					for k := range src[i] {
						row := make([]byte, 8)
						rng.Read(row)
						src[i][k] = oram.Slot{ID: oram.BlockID(1000*w + round), Leaf: 1, Payload: row}
					}
				}
				if err := st.WriteBuckets(refs, src); err != nil {
					t.Error(err)
					return
				}
				dst := emptyUnion(g, refs)
				if rng.Intn(4) == 0 { // sometimes a bucket read flushes instead
					err = st.ReadBucket(refs[0].Level, refs[0].Node, dst[0])
					dst, src = dst[:1], src[:1]
				} else {
					err = st.ReadBuckets(refs, dst)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(refSlots(nil, dst), refSlots(nil, src)) {
					t.Errorf("goroutine %d round %d: read back other slots than it wrote", w, round)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
