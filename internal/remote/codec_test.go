package remote

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"net"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"repro/internal/oram"
)

// The reference encoders below are the protocol's original whole-body
// builders, kept verbatim: the in-place builders the hot paths use must put
// the same bytes on the wire (the protocol version did not change).

func appendBatchSub(buf []byte, op byte, shard uint32, body []byte) []byte {
	buf = append(buf, op)
	var tmp [8]byte
	binary.BigEndian.PutUint32(tmp[0:], shard)
	binary.BigEndian.PutUint32(tmp[4:], uint32(len(body)))
	buf = append(buf, tmp[:]...)
	return append(buf, body...)
}

func refBatchSubResp(buf []byte, status byte, body []byte) []byte {
	buf = append(buf, status)
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], uint32(len(body)))
	buf = append(buf, tmp[:]...)
	return append(buf, body...)
}

// appendDeadline is a whole deadline envelope: header, then the inner body.
func appendDeadline(buf []byte, budget time.Duration, op byte, body []byte) []byte {
	return append(appendDeadlineHeader(buf, budget, op), body...)
}

// refReadBatch and refWriteBatch are the opBatch bodies of a bucket-union
// read and write as the client built them before the in-place codec.
func refReadBatch(shard uint32, refs []oram.BucketRef) []byte {
	body := appendU32(nil, uint32(len(refs)))
	for _, r := range refs {
		body = appendBatchSub(body, opReadBucket, shard, appendBucketRef(nil, r.Level, r.Node))
	}
	return body
}

func refWriteBatch(shard uint32, refs []oram.BucketRef, src [][]oram.Slot) []byte {
	body := appendU32(nil, uint32(len(refs)))
	for i, r := range refs {
		sub := appendBucketRef(nil, r.Level, r.Node)
		for j := range src[i] {
			sub = appendSlot(sub, &src[i][j])
		}
		body = appendBatchSub(body, opWriteBucket, shard, sub)
	}
	return body
}

// refReadBatchResp is the response body of a bucket-union read.
func refReadBatchResp(bufs [][]oram.Slot) []byte {
	out := appendU32(nil, uint32(len(bufs)))
	for _, b := range bufs {
		var body []byte
		for k := range b {
			body = appendSlot(body, &b[k])
		}
		out = refBatchSubResp(out, statusOK, body)
	}
	return out
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

// TestQuickInPlaceBuildersMatchReference: begin…/patchLen produce exactly the
// bytes of the reference whole-body encoders, for sub-requests,
// sub-responses and the deadline envelope, at any position in a frame.
func TestQuickInPlaceBuildersMatchReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(61))}
	sub := func(prefix []byte, op byte, shard uint32, body []byte) bool {
		buf := beginBatchSub(append([]byte(nil), prefix...), op, shard)
		mark := len(buf)
		buf = append(buf, body...)
		patchLen(buf, mark)
		return bytes.Equal(buf, appendBatchSub(append([]byte(nil), prefix...), op, shard, body))
	}
	if err := quick.Check(sub, cfg); err != nil {
		t.Error(err)
	}
	resp := func(prefix []byte, status byte, body []byte) bool {
		buf := beginBatchSubResp(append([]byte(nil), prefix...), status)
		mark := len(buf)
		buf = append(buf, body...)
		patchLen(buf, mark)
		want := refBatchSubResp(append([]byte(nil), prefix...), status, body)
		return bytes.Equal(buf, want) && bytes.Equal(appendBatchSubResp(append([]byte(nil), prefix...), status, body), want)
	}
	if err := quick.Check(resp, cfg); err != nil {
		t.Error(err)
	}
	deadline := func(ms uint16, body []byte) bool {
		budget := time.Duration(ms) * time.Millisecond
		gb, gop, inner, err := parseDeadline(appendDeadline(nil, budget, opReadPath, body))
		return err == nil && gop == opReadPath && gb == budget && bytes.Equal(inner, body)
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

// TestClientBatchFramesMatchReference: the opBatch bodies ShardStore's
// in-place builders put on the wire are byte-identical to the reference
// encoding, and a reference-encoded response decodes into the capacity the
// caller armed (the ReadBucket contract) rather than into fresh slices.
func TestClientBatchFramesMatchReference(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 3, LeafZ: 3, BlockSize: 8})
	refs, src := unionFixture(g, 71)
	var mu sync.Mutex
	var bodies [][]byte
	addr := startScriptedServer(t, g, func(conn net.Conn, id uint64, op byte, _ time.Duration, body []byte) bool {
		mu.Lock()
		bodies = append(bodies, append([]byte{op}, body...))
		mu.Unlock()
		resp := appendRespHeader(nil, id, statusOK)
		if sub, _, _, _, _ := parseBatchSub(body[4:]); sub == opReadBucket {
			resp = append(resp, refReadBatchResp(src)...)
		} else {
			resp = appendU32(resp, uint32(len(refs)))
			for range refs {
				resp = refBatchSubResp(resp, statusOK, nil)
			}
		}
		return writeFrame(conn, resp) == nil
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	if err := cl.WriteBuckets(refs, src); err != nil {
		t.Fatal(err)
	}
	dst := make([][]oram.Slot, len(refs))
	arena := make([][][]byte, len(refs))
	for i, r := range refs {
		z := g.BucketSize(r.Level)
		dst[i], arena[i] = make([]oram.Slot, z), make([][]byte, z)
		for j := range dst[i] {
			arena[i][j] = make([]byte, g.BlockSize())
			dst[i][j].Payload = arena[i][j]
		}
	}
	if err := cl.ReadBuckets(refs, dst); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(bodies) != 2 {
		t.Fatalf("client sent %d frames, want 2", len(bodies))
	}
	if want := append([]byte{opBatch}, refWriteBatch(0, refs, src)...); !bytes.Equal(bodies[0], want) {
		t.Errorf("WriteBuckets frame differs from the reference encoding:\n got  %x\n want %x", bodies[0], want)
	}
	if want := append([]byte{opBatch}, refReadBatch(0, refs)...); !bytes.Equal(bodies[1], want) {
		t.Errorf("ReadBuckets frame differs from the reference encoding:\n got  %x\n want %x", bodies[1], want)
	}
	for i := range src {
		for j := range src[i] {
			got, want := dst[i][j], src[i][j]
			if got.ID != want.ID || (!want.Dummy() && got.Leaf != want.Leaf) || !bytes.Equal(got.Payload, want.Payload) {
				t.Fatalf("bucket %d slot %d decoded as %+v, want %+v", i, j, got, want)
			}
			if len(got.Payload) > 0 && unsafe.SliceData(got.Payload) != unsafe.SliceData(arena[i][j]) {
				t.Fatalf("bucket %d slot %d: payload was not decoded into the armed buffer", i, j)
			}
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

// TestServerBatchResponseMatchesReference: a grouped write run followed by a
// grouped read run through the server's in-place response builder returns
// exactly the reference-encoded frames — and the same bytes when the runs
// are broken up (a foreign sub-request in the middle forces per-op dispatch
// for part of the batch).
func TestServerBatchResponseMatchesReference(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 3, LeafZ: 3, BlockSize: 8})
	srv := batchServer(t, g)
	refs, src := unionFixture(g, 72)

	resp := srv.handle(append(appendReqHeader(nil, 5, opBatch, 1), refWriteBatch(1, refs, src)...))
	want := appendU32(appendRespHeader(nil, 5, statusOK), uint32(len(refs)))
	for range refs {
		want = refBatchSubResp(want, statusOK, nil)
	}
	if !bytes.Equal(resp, want) {
		t.Fatalf("write run response %x, want %x", resp, want)
	}

	resp = srv.handle(append(appendReqHeader(nil, 6, opBatch, 1), refReadBatch(1, refs)...))
	want = append(appendRespHeader(nil, 6, statusOK), refReadBatchResp(src)...)
	if !bytes.Equal(resp, want) {
		t.Fatalf("read run response differs from the reference encoding:\n got  %x\n want %x", resp, want)
	}

	// The same reads with a path read wedged in: two short runs and a
	// singleton, each through its own branch, same sub-response bytes.
	mixed := appendU32(nil, uint32(len(refs)+1))
	for i, r := range refs {
		if i == 2 {
			mixed = appendBatchSub(mixed, opReadPath, 0, appendLeaf(nil, 1))
		}
		mixed = appendBatchSub(mixed, opReadBucket, 1, appendBucketRef(nil, r.Level, r.Node))
	}
	resp = srv.handle(append(appendReqHeader(nil, 7, opBatch, 1), mixed...))
	_, status, body, err := parseRespHeader(resp)
	if err != nil || status != statusOK {
		t.Fatalf("mixed batch: status %d, err %v", status, err)
	}
	count, rest, _ := parseU32(body)
	if int(count) != len(refs)+1 {
		t.Fatalf("mixed batch answered %d subs, want %d", count, len(refs)+1)
	}
	k := 0
	for i := 0; i <= len(refs); i++ {
		var st byte
		var sub []byte
		if st, sub, rest, err = parseBatchSubResp(rest); err != nil || st != statusOK {
			t.Fatalf("mixed batch sub %d: status %d, err %v", i, st, err)
		}
		if i == 2 {
			continue // the path read
		}
		var exp []byte
		for j := range src[k] {
			exp = appendSlot(exp, &src[k][j])
		}
		if !bytes.Equal(sub, exp) {
			t.Fatalf("mixed batch bucket %d: %x, want %x", k, sub, exp)
		}
		k++
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after the mixed batch response", len(rest))
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

// TestServerBatchAllocs: a grouped opBatch write run and read run of a
// 16-path bucket union through Server.dispatch.
func TestServerBatchAllocs(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 10, LeafZ: 4, RootZ: 8, Profile: oram.ProfileLinear, BlockSize: 64})
	srv := batchServer(t, g)
	refs := allocUnion(g)
	write, read := refWriteBatch(0, refs, fullSlots(g, refs)), refReadBatch(0, refs)
	var ws workScratch
	frame := make([]byte, 0, 1<<20)
	run := func(body []byte) {
		out, err := srv.dispatch(&ws, appendRespHeader(frame[:0], 1, statusOK), opBatch, 0, body, true)
		if err != nil || len(out) < respHeaderLen+4+5*len(refs) {
			t.Fatalf("dispatch: %d bytes, err %v", len(out), err)
		}
	}
	run(write)
	run(read) // warm the scratch
	if allocs := testing.AllocsPerRun(100, func() { run(write) }); allocs > 1 {
		t.Errorf("opBatch write run of %d buckets allocates %.1f objects, want <= 1", len(refs), allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { run(read) }); allocs > 1 {
		t.Errorf("opBatch read run of %d buckets allocates %.1f objects, want <= 1", len(refs), allocs)
	}
}

// TestServerPathAllocs: opWritePath and opReadPath through Server.dispatch.
func TestServerPathAllocs(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 10, LeafZ: 4, RootZ: 8, Profile: oram.ProfileLinear, BlockSize: 64})
	srv := batchServer(t, g)
	const leaf = 321
	write := appendLeaf(nil, leaf)
	for lvl := 0; lvl < g.Levels(); lvl++ {
		for j := 0; j < g.BucketSize(lvl); j++ {
			write = appendSlot(write, &oram.Slot{ID: oram.BlockID(lvl*8 + j), Leaf: leaf, Payload: bytes.Repeat([]byte{byte(lvl)}, 64)})
		}
	}
	read := appendLeaf(nil, leaf)
	var ws workScratch
	frame := make([]byte, 0, 1<<16)
	run := func(op byte, body []byte) {
		if _, err := srv.dispatch(&ws, appendRespHeader(frame[:0], 1, statusOK), op, 1, body, true); err != nil {
			t.Fatal(err)
		}
	}
	run(opWritePath, write)
	run(opReadPath, read)
	if allocs := testing.AllocsPerRun(200, func() { run(opWritePath, write) }); allocs > 1 {
		t.Errorf("opWritePath allocates %.1f objects, want <= 1", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() { run(opReadPath, read) }); allocs > 1 {
		t.Errorf("opReadPath allocates %.1f objects, want <= 1", allocs)
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
		out, err := srv.dispatch(&ws, nil, opBatch, shard, body, true)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	do(1, refWriteBatch(1, refs, other))
	write := refWriteBatch(0, refs, src)
	do(0, write)
	frozen := append([]byte(nil), write...)
	if got, want := do(1, refReadBatch(1, refs)), refReadBatchResp(other); !bytes.Equal(got, want) {
		t.Fatal("shard 1 read back wrong after a write to shard 0")
	}
	if !bytes.Equal(write, frozen) {
		t.Fatal("a read decoded into views of the previous write's request frame")
	}
	for i := range write {
		write[i] = 0xFF // the pooled frame moves on to another request
	}
	if got, want := do(0, refReadBatch(0, refs)), refReadBatchResp(src); !bytes.Equal(got, want) {
		t.Fatal("stored buckets changed when the recycled request frame was overwritten")
	}
}
