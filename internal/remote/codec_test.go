package remote

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/oram"
)

// The reference encoders below write the wire layouts out longhand, field by
// field from the proto.go table, sharing nothing with the builders the hot
// paths use: what ShardStore and the server put on the wire must be these
// bytes.

func refSlots(buf []byte, bufs [][]oram.Slot) []byte {
	for _, b := range bufs {
		for _, s := range b {
			buf = binary.BigEndian.AppendUint64(buf, uint64(s.ID))
			buf = binary.BigEndian.AppendUint64(buf, uint64(s.Leaf))
			buf = binary.BigEndian.AppendUint32(buf, uint32(len(s.Payload)))
			buf = append(buf, s.Payload...)
		}
	}
	return buf
}

// refBatch is an opBatch body: kind, count, the refs, then (for a write) the
// buckets' slots in ref order.
func refBatch(kind byte, refs []oram.BucketRef, src [][]oram.Slot) []byte {
	body := binary.BigEndian.AppendUint32([]byte{kind}, uint32(len(refs)))
	for _, r := range refs {
		body = binary.BigEndian.AppendUint32(body, uint32(r.Level))
		body = binary.BigEndian.AppendUint64(body, r.Node)
	}
	return refSlots(body, src)
}

func refReadBatch(refs []oram.BucketRef) []byte { return refBatch(0, refs, nil) }

func refWriteBatch(refs []oram.BucketRef, src [][]oram.Slot) []byte { return refBatch(1, refs, src) }

// refCarryBatch is the v5 write-then-read body: kind 2, the written union and
// its slots, then the read union (its count and refs, no second kind byte).
func refCarryBatch(wrefs []oram.BucketRef, src [][]oram.Slot, rrefs []oram.BucketRef) []byte {
	return append(refBatch(2, wrefs, src), refReadBatch(rrefs)[1:]...)
}

// refReadBatchResp is the response body of a bucket-union read: the slots,
// nothing else.
func refReadBatchResp(bufs [][]oram.Slot) []byte { return refSlots(nil, bufs) }

// appendDeadline is a whole deadline envelope: header, then the inner body.
func appendDeadline(buf []byte, budget time.Duration, op byte, body []byte) []byte {
	return append(appendDeadlineHeader(buf, budget, op), body...)
}

// unionFixture is a scattered bucket union with a mix of real and dummy
// slots — the shape a joint write-back ships.
func unionFixture(g *oram.Geometry, seed int64) ([]oram.BucketRef, [][]oram.Slot) {
	rng := rand.New(rand.NewSource(seed))
	refs := []oram.BucketRef{{Level: 0, Node: 0}, {Level: 1, Node: 1}, {Level: 2, Node: 3}, {Level: 3, Node: 5}, {Level: 3, Node: 2}}
	src := make([][]oram.Slot, len(refs))
	for i, r := range refs {
		src[i] = make([]oram.Slot, g.BucketSize(r.Level))
		for j := range src[i] {
			if rng.Intn(3) == 0 {
				src[i][j] = oram.DummySlot()
				continue
			}
			var pay []byte
			if bs := g.BlockSize(); bs > 0 {
				pay = make([]byte, bs)
				rng.Read(pay)
			}
			src[i][j] = oram.Slot{ID: oram.BlockID(10*i + j), Leaf: oram.Leaf(rng.Intn(8)), Payload: pay}
		}
	}
	return refs, src
}

// TestQuickInPlaceBuildersMatchReference: a kind and appendUnion produce exactly
// the bytes of the reference encoder at any position in a frame,
// parseUnion reads the refs back and hands over what follows, and the
// deadline envelope round-trips.
func TestQuickInPlaceBuildersMatchReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(61))}
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 6, LeafZ: 2, BlockSize: 8})
	batch := func(prefix []byte, write bool, picks []uint16, tail []byte) bool {
		kind := byte(batchRead)
		if write {
			kind = batchWrite
		}
		refs := make([]oram.BucketRef, len(picks))
		for i, p := range picks {
			lvl := int(p) % g.Levels()
			refs[i] = oram.BucketRef{Level: lvl, Node: uint64(p) % (1 << uint(lvl))}
		}
		buf := appendUnion(append(append([]byte(nil), prefix...), kind), refs)
		if !bytes.Equal(buf, append(append([]byte(nil), prefix...), refBatch(kind, refs, nil)...)) {
			return false
		}
		body := append(buf[len(prefix):], tail...)
		grefs, rest, err := parseUnion(g, body[1:], nil)
		return err == nil && body[0] == kind && slices.Equal(grefs, refs) && bytes.Equal(rest, tail)
	}
	if err := quick.Check(batch, cfg); err != nil {
		t.Error(err)
	}
	deadline := func(ms uint16, body []byte) bool {
		budget := time.Duration(ms) * time.Millisecond
		gb, gop, inner, err := parseDeadline(appendDeadline(nil, budget, opBatch, body))
		return err == nil && gop == opBatch && gb == budget && bytes.Equal(inner, body)
	}
	if err := quick.Check(deadline, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSlotDecodeModes: parseSlot decodes into armed capacity when it
// fits (no new storage), into fresh storage when it does not, and yields nil
// for an empty payload; viewSlot aliases the frame. All agree on content.
func TestQuickSlotDecodeModes(t *testing.T) {
	f := func(id, leaf uint64, payload []byte, armed uint8) bool {
		in := oram.Slot{ID: oram.BlockID(id), Leaf: oram.Leaf(leaf), Payload: payload}
		frame := appendSlot(nil, &in)
		arena := make([]byte, armed)
		out := oram.Slot{Payload: arena[:0]}
		rest, err := parseSlot(frame, &out)
		if err != nil || len(rest) != 0 || out.ID != in.ID || out.Leaf != in.Leaf || !bytes.Equal(out.Payload, payload) {
			return false
		}
		switch {
		case len(payload) == 0:
			if out.Payload != nil {
				return false
			}
		case len(payload) <= int(armed):
			if unsafe.SliceData(out.Payload) != unsafe.SliceData(arena) {
				return false // the armed capacity was ignored
			}
		default:
			if len(arena) > 0 && unsafe.SliceData(out.Payload) == unsafe.SliceData(arena) {
				return false
			}
		}
		var view oram.Slot
		rest, err = viewSlot(frame, &view)
		if err != nil || len(rest) != 0 || view.ID != in.ID || view.Leaf != in.Leaf || !bytes.Equal(view.Payload, payload) {
			return false
		}
		if len(payload) > 0 && unsafe.SliceData(view.Payload) != unsafe.SliceData(frame[slotHeaderLen:]) {
			return false // the view copied
		}
		return len(payload) > 0 || view.Payload == nil
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(62))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestClientBatchFramesMatchReference: the opBatch bodies ShardStore puts on
// the wire are byte-identical to the reference encoding of protocol v5 — a
// write-back held by WriteBuckets leaves as the head of the next ReadBuckets'
// one kind-2 frame, ahead of any other operation as a kind-1 frame, and a
// read with nothing held is a kind-0 frame — a reference-encoded response
// decodes into the capacity the caller armed (the ReadBucket contract) rather
// than into fresh slices, and a response with a byte after its last slot is
// refused.
func TestClientBatchFramesMatchReference(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 3, LeafZ: 3, BlockSize: 8})
	refs, src := unionFixture(g, 71)
	rrefs := append([]oram.BucketRef{{Level: 2, Node: 1}}, refs[:3]...)
	rsrc := append([][]oram.Slot{src[2]}, src[:3]...)
	var mu sync.Mutex
	var bodies [][]byte
	addr := startScriptedServer(t, g, func(conn net.Conn, id uint64, op byte, _ time.Duration, body []byte) bool {
		mu.Lock()
		bodies = append(bodies, append([]byte{op}, body...))
		n := len(bodies)
		mu.Unlock()
		resp := appendRespHeader(nil, id, statusOK)
		switch {
		case op == opSnapshot:
		case body[0] == 2:
			resp = append(resp, refReadBatchResp(rsrc)...)
		case body[0] == 0:
			resp = append(resp, refReadBatchResp(src)...)
		}
		if n > 4 {
			resp = append(resp, 0xEE)
		}
		return writeFrame(conn, resp) == nil
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st := shard0(t, cl)
	armed := func(refs []oram.BucketRef) (dst [][]oram.Slot, arena [][][]byte) {
		dst, arena = make([][]oram.Slot, len(refs)), make([][][]byte, len(refs))
		for i, r := range refs {
			z := g.BucketSize(r.Level)
			dst[i], arena[i] = make([]oram.Slot, z), make([][]byte, z)
			for j := range dst[i] {
				arena[i][j] = make([]byte, g.BlockSize())
				dst[i][j].Payload = arena[i][j]
			}
		}
		return dst, arena
	}
	decoded := func(what string, dst, want [][]oram.Slot, arena [][][]byte) {
		t.Helper()
		for i := range want {
			for j := range want[i] {
				got, want := dst[i][j], want[i][j]
				if got.ID != want.ID || (!want.Dummy() && got.Leaf != want.Leaf) || !bytes.Equal(got.Payload, want.Payload) {
					t.Fatalf("%s: bucket %d slot %d decoded as %+v, want %+v", what, i, j, got, want)
				}
				if len(got.Payload) > 0 && unsafe.SliceData(got.Payload) != unsafe.SliceData(arena[i][j]) {
					t.Fatalf("%s: bucket %d slot %d: payload was not decoded into the armed buffer", what, i, j)
				}
			}
		}
	}

	// Frame 1: the held write-back and the read that carries it.
	if err := st.WriteBuckets(refs, src); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(bodies) != 0 {
		t.Fatalf("WriteBuckets sent %d frames; it holds its union", len(bodies))
	}
	mu.Unlock()
	dst, arena := armed(rrefs)
	if err := st.ReadBuckets(rrefs, dst); err != nil {
		t.Fatal(err)
	}
	decoded("carried read", dst, rsrc, arena)
	// Frame 2: nothing held, a plain read.
	dst, arena = armed(refs)
	if err := st.ReadBuckets(refs, dst); err != nil {
		t.Fatal(err)
	}
	decoded("plain read", dst, src, arena)
	// Frames 3 and 4: another operation sends the held union first, as an
	// ordinary write frame.
	if err := st.WriteBuckets(refs, src); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(io.Discard); err != nil {
		t.Fatal(err)
	}
	// From frame 5 on every response carries a byte too many.
	if err := st.WriteBuckets(refs, src); err != nil {
		t.Fatal(err)
	}
	if err := st.Save(io.Discard); err == nil {
		t.Error("a write response with a trailing byte was accepted")
	}
	if err := st.ReadBuckets(refs, dst); err == nil {
		t.Error("a read response with a trailing byte was accepted")
	}
	if err := st.WriteBuckets(refs, src); err != nil {
		t.Fatal(err)
	}
	if err := st.ReadBuckets(rrefs, dst[:len(rrefs)]); err == nil {
		t.Error("a write-then-read response with a trailing byte was accepted")
	}
	mu.Lock()
	defer mu.Unlock()
	want := [][]byte{
		refCarryBatch(refs, src, rrefs),
		refReadBatch(refs),
		refWriteBatch(refs, src),
		nil, // the Save
		refWriteBatch(refs, src),
		refReadBatch(refs),
		refCarryBatch(refs, src, rrefs),
	}
	if len(bodies) != len(want) {
		t.Fatalf("client sent %d frames, want %d", len(bodies), len(want))
	}
	for i, w := range want {
		if w == nil {
			if bodies[i][0] != opSnapshot {
				t.Errorf("frame %d is op %d, want the Save", i+1, bodies[i][0])
			}
			continue
		}
		if w = append([]byte{opBatch}, w...); !bytes.Equal(bodies[i], w) {
			t.Errorf("frame %d differs from the reference encoding:\n got  %x\n want %x", i+1, bodies[i], w)
		}
	}
}

// batchServer is a listener-less two-shard server over payload stores: what
// the dispatch-level tests and allocation gates drive.
func batchServer(t testing.TB, g *oram.Geometry) *Server {
	t.Helper()
	stores := make([]oram.Store, 2)
	for i := range stores {
		ps, err := oram.NewPayloadStore(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = ps
	}
	srv, err := NewSharded(stores, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestServerBatchResponseMatchesReference: a bucket-union write followed by a
// read of the same union through the server returns exactly the
// reference-encoded frames — a bare OK header for the write, the slots in ref
// order for the read — whether the shard's store batches natively
// (PayloadStore) or is looped bucket by bucket (a bucket-only wrapper).
func TestServerBatchResponseMatchesReference(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 3, LeafZ: 3, BlockSize: 8})
	ps, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	looped, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewSharded([]oram.Store{bucketOnly{looped}, ps}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	refs, src := unionFixture(g, 72)
	for shard := uint32(0); shard < 2; shard++ {
		resp := srv.handle(append(appendReqHeader(nil, 5, opBatch, shard), refWriteBatch(refs, src)...))
		if want := appendRespHeader(nil, 5, statusOK); !bytes.Equal(resp, want) {
			t.Fatalf("shard %d: write response %x, want %x", shard, resp, want)
		}
		resp = srv.handle(append(appendReqHeader(nil, 6, opBatch, shard), refReadBatch(refs)...))
		if want := append(appendRespHeader(nil, 6, statusOK), refReadBatchResp(src)...); !bytes.Equal(resp, want) {
			t.Fatalf("shard %d: read response differs from the reference encoding:\n got  %x\n want %x", shard, resp, want)
		}
	}
}

// bucketOnly hides every optional extension of the store it wraps: the shape
// of MetaStore, which the server must loop.
type bucketOnly struct{ oram.Store }

// TestServerWriteFramesAllOrNothing: a write frame that is wrong anywhere —
// a byte after its last slot, a slot short, a bad payload length, an
// out-of-range ref, an unknown kind or a count the frame does not carry — is
// answered with one error status and leaves the store exactly as it was; a
// batch read with bytes after its refs is refused the same way. A
// write-then-read frame (kind 2) that is wrong in either half — a bad write
// ref, a bad read ref, a short slot, a byte after the read refs, a read union
// the frame does not carry — writes nothing and reads nothing.
func TestServerWriteFramesAllOrNothing(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 3, LeafZ: 3, BlockSize: 8})
	srv := batchServer(t, g)
	refs, before := unionFixture(g, 76)
	_, src := unionFixture(g, 77)
	if resp := srv.handle(append(appendReqHeader(nil, 1, opBatch, 0), refWriteBatch(refs, before)...)); resp[8] != statusOK {
		t.Fatalf("seeding write failed: %s", resp[respHeaderLen:])
	}
	batch := refWriteBatch(refs, src)
	short := func(b []byte) []byte { return b[:len(b)-1] }
	long := func(b []byte) []byte { return append(append([]byte(nil), b...), 0) }
	badRef := append([]oram.BucketRef(nil), refs...)
	badRef[len(badRef)-1] = oram.BucketRef{Level: 2, Node: 4}
	badLen := func() []byte {
		s := append([][]oram.Slot(nil), src...)
		last := append([]oram.Slot(nil), s[len(s)-1]...)
		last[len(last)-1] = oram.Slot{ID: 99, Leaf: 1, Payload: []byte{1, 2, 3}}
		s[len(s)-1] = last
		return refWriteBatch(refs, s)
	}()
	cases := []struct {
		name string
		op   byte
		body []byte
	}{
		{"batch/trailing", opBatch, long(batch)},
		{"batch/short", opBatch, short(batch)},
		{"batch/bad last ref", opBatch, refWriteBatch(badRef, src)},
		{"batch/bad last payload", opBatch, badLen},
		{"batch/unknown kind", opBatch, append([]byte{3}, batch[1:]...)},
		{"batch/count over carried", opBatch, refBatch(1, refs, nil)[:batchHeaderLen+bucketRefLen]},
		{"batch/read trailing", opBatch, long(refReadBatch(refs))},
		{"carry/bad write ref", opBatch, refCarryBatch(badRef, src, refs)},
		{"carry/bad read ref", opBatch, refCarryBatch(refs, src, badRef)},
		{"carry/bad last payload", opBatch, append(append([]byte{2}, badLen[1:]...), refReadBatch(refs)[1:]...)},
		{"carry/short slot", opBatch, append(append([]byte{2}, short(batch)[1:]...), refReadBatch(refs)[1:]...)},
		{"carry/trailing", opBatch, long(refCarryBatch(refs, src, refs))},
		{"carry/short read refs", opBatch, short(refCarryBatch(refs, src, refs))},
		{"carry/no read union", opBatch, append([]byte{2}, batch[1:]...)},
	}
	for _, tc := range cases {
		resp := srv.handle(append(appendReqHeader(nil, 2, tc.op, 0), tc.body...))
		if _, status, _, err := parseRespHeader(resp); err != nil || status != statusErr {
			t.Errorf("%s: status %d, err %v; want one error status", tc.name, status, err)
		}
		got := srv.handle(append(appendReqHeader(nil, 3, opBatch, 0), refReadBatch(refs)...))
		if want := append(appendRespHeader(nil, 3, statusOK), refReadBatchResp(before)...); !bytes.Equal(got, want) {
			t.Fatalf("%s: the refused frame changed the store", tc.name)
		}
	}
	// The well-formed frame the cases were cut from does execute.
	if resp := srv.handle(append(appendReqHeader(nil, 4, opBatch, 0), batch...)); resp[8] != statusOK {
		t.Errorf("well-formed write frame refused: %s", resp[respHeaderLen:])
	}
	// So does the write-then-read frame, and what it reads is what it wrote.
	got := srv.handle(append(appendReqHeader(nil, 5, opBatch, 0), refCarryBatch(refs, before, refs)...))
	if want := append(appendRespHeader(nil, 5, statusOK), refReadBatchResp(before)...); !bytes.Equal(got, want) {
		t.Errorf("well-formed write-then-read frame answered %x, want %x", got, want)
	}
}

// TestServerCarryResponseBound: a write-then-read frame whose read half could
// not be answered in one frame is refused before the lock — its write half,
// well-formed, is not applied.
func TestServerCarryResponseBound(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 11, LeafZ: 4, BlockSize: 4096})
	srv, err := NewSharded([]oram.Store{oram.NewMetaStore(g)}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	wrefs := []oram.BucketRef{{Level: 0, Node: 0}}
	src := [][]oram.Slot{{{ID: 1, Leaf: 1}, {ID: 2, Leaf: 2}, {ID: 3, Leaf: 3}, {ID: 4, Leaf: 4}}}
	var rrefs []oram.BucketRef
	for n := uint64(0); slotsWireLen(4*len(rrefs), 4096) <= maxFrame; n++ {
		rrefs = append(rrefs, oram.BucketRef{Level: 11, Node: n})
	}
	resp := srv.handle(append(appendReqHeader(nil, 1, opBatch, 0), refCarryBatch(wrefs, src, rrefs)...))
	if _, status, body, _ := parseRespHeader(resp); status != statusErr || !bytes.Contains(body, []byte("exceeds frame limit")) {
		t.Fatalf("over-bound read half answered status %d: %.80s", status, body)
	}
	resp = srv.handle(append(appendReqHeader(nil, 2, opBatch, 0), refReadBatch(wrefs)...))
	empty := [][]oram.Slot{{oram.DummySlot(), oram.DummySlot(), oram.DummySlot(), oram.DummySlot()}}
	if want := append(appendRespHeader(nil, 2, statusOK), refReadBatchResp(empty)...); !bytes.Equal(resp, want) {
		t.Fatalf("the refused frame's write half was applied: root reads %x", resp[respHeaderLen:])
	}
	// A read half that fits executes both halves.
	resp = srv.handle(append(appendReqHeader(nil, 3, opBatch, 0), refCarryBatch(wrefs, src, rrefs[:8])...))
	if _, status, body, _ := parseRespHeader(resp); status != statusOK {
		t.Fatalf("in-bound frame refused: %.80s", body)
	}
	resp = srv.handle(append(appendReqHeader(nil, 4, opBatch, 0), refReadBatch(wrefs)...))
	if want := append(appendRespHeader(nil, 4, statusOK), refReadBatchResp(src)...); !bytes.Equal(resp, want) {
		t.Fatalf("the in-bound frame's write half is missing: root reads %x", resp[respHeaderLen:])
	}
}

// Allocation gates for the server's hot handlers, beside the client's
// (oram.TestAccessAllocs and friends): with a warmed per-worker scratch and
// a reused response frame, executing a request allocates nothing of its own.
// The budget of 1 leaves room for a runtime-internal allocation, not for a
// per-slot or per-bucket one (a 16-path union has ~150 buckets, ~700 slots).

func allocUnion(g *oram.Geometry) []oram.BucketRef {
	rng := rand.New(rand.NewSource(73))
	seen := map[oram.BucketRef]bool{}
	var refs []oram.BucketRef
	for p := 0; p < 16; p++ {
		leaf := oram.Leaf(rng.Int63n(int64(g.Leaves())))
		for lvl := 0; lvl < g.Levels(); lvl++ {
			r := oram.BucketRef{Level: lvl, Node: g.NodeAt(leaf, lvl)}
			if !seen[r] {
				seen[r] = true
				refs = append(refs, r)
			}
		}
	}
	return refs
}

func fullSlots(g *oram.Geometry, refs []oram.BucketRef) [][]oram.Slot {
	src := make([][]oram.Slot, len(refs))
	for i, r := range refs {
		src[i] = make([]oram.Slot, g.BucketSize(r.Level))
		for j := range src[i] {
			src[i][j] = oram.Slot{ID: oram.BlockID(i*8 + j), Leaf: 1, Payload: bytes.Repeat([]byte{byte(i)}, g.BlockSize())}
		}
	}
	return src
}

// TestServerBatchAllocs: an opBatch write and read of a 16-path bucket union
// through Server.dispatch.
func TestServerBatchAllocs(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 10, LeafZ: 4, RootZ: 8, Profile: oram.ProfileLinear, BlockSize: 64})
	srv := batchServer(t, g)
	refs := allocUnion(g)
	write, read := refWriteBatch(refs, fullSlots(g, refs)), refReadBatch(refs)
	var ws workScratch
	frame := make([]byte, 0, 1<<20)
	run := func(body []byte, want int) {
		out, err := srv.dispatch(&ws, appendRespHeader(frame[:0], 1, statusOK), opBatch, 0, body)
		if err != nil || len(out) != respHeaderLen+want {
			t.Fatalf("dispatch: %d bytes, err %v", len(out), err)
		}
	}
	slotBytes := len(write) - len(read)
	run(write, 0)
	run(read, slotBytes) // warm the scratch
	if allocs := testing.AllocsPerRun(100, func() { run(write, 0) }); allocs > 1 {
		t.Errorf("opBatch write of %d buckets allocates %.1f objects, want <= 1", len(refs), allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { run(read, slotBytes) }); allocs > 1 {
		t.Errorf("opBatch read of %d buckets allocates %.1f objects, want <= 1", len(refs), allocs)
	}
}

// TestServerScratchNeverDecodesIntoStaleViews: invariant #8 on the server. A
// write leaves the worker's slots viewing its request frame. A following
// read on the same scratch must land in the worker's own arena — decoding
// into those views would scribble another shard's rows over the frame — and
// once the frame is recycled and overwritten, what the store holds must not
// move with it.
func TestServerScratchNeverDecodesIntoStaleViews(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 3, LeafZ: 3, BlockSize: 8})
	srv := batchServer(t, g)
	refs, other := unionFixture(g, 74)
	_, src := unionFixture(g, 75)
	var ws workScratch
	do := func(shard uint32, body []byte) []byte {
		out, err := srv.dispatch(&ws, nil, opBatch, shard, body)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	do(1, refWriteBatch(refs, other))
	write := refWriteBatch(refs, src)
	do(0, write)
	frozen := append([]byte(nil), write...)
	if got, want := do(1, refReadBatch(refs)), refReadBatchResp(other); !bytes.Equal(got, want) {
		t.Fatal("shard 1 read back wrong after a write to shard 0")
	}
	if !bytes.Equal(write, frozen) {
		t.Fatal("a read decoded into views of the previous write's request frame")
	}
	for i := range write {
		write[i] = 0xFF // the pooled frame moves on to another request
	}
	if got, want := do(0, refReadBatch(refs)), refReadBatchResp(src); !bytes.Equal(got, want) {
		t.Fatal("stored buckets changed when the recycled request frame was overwritten")
	}
}
