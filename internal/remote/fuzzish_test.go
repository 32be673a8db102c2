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

	"repro/internal/oram"
)

// TestQuickProtoNeverPanics: the wire parsers must reject (not crash on)
// arbitrary byte soup.
func TestQuickProtoNeverPanics(t *testing.T) {
	f := func(raw []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		var s oram.Slot
		_, _ = parseSlot(raw, &s)
		_, _ = parseGeometryWire(raw)
		_, _, _, _, _ = parseReqHeader(raw)
		_, _, _, _ = parseRespHeader(raw)
		_, _, _, _ = parseBucketRef(raw)
		_, _, _ = parseU32(raw)
		_, _, _ = parseUnion(fuzzGeom(), raw, nil)
		return true
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickSlotCodecRoundTrip: slot serialisation round-trips arbitrary
// content.
func TestQuickSlotCodecRoundTrip(t *testing.T) {
	f := func(id uint64, leaf uint64, payload []byte) bool {
		in := oram.Slot{ID: oram.BlockID(id), Leaf: oram.Leaf(leaf), Payload: payload}
		buf := appendSlot(nil, &in)
		var out oram.Slot
		rest, err := parseSlot(buf, &out)
		if err != nil || len(rest) != 0 {
			return false
		}
		if out.ID != in.ID || out.Leaf != in.Leaf {
			return false
		}
		if len(payload) == 0 {
			return out.Payload == nil || len(out.Payload) == 0
		}
		return bytes.Equal(out.Payload, in.Payload)
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(42))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestServerGarbageFrames: a connection sending garbage must get error
// responses (or a drop), never crash the server, and other clients keep
// working.
func TestServerGarbageFrames(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 4, LeafZ: 2, BlockSize: 8})
	_, addr := startServer(t, g, false)

	// Well-behaved client first.
	good, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()

	// Garbage connection: valid frames with nonsense bodies, written raw.
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 50; i++ {
		junk := make([]byte, rng.Intn(64))
		rng.Read(junk)
		if err := writeFrame(raw, junk); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		// Every frame gets exactly one response (ID 0 when the header was
		// unparsable); some garbage may decode to a valid op by chance.
		if _, err := readFrame(raw); err != nil {
			t.Fatalf("frame %d: no response to garbage: %v", i, err)
		}
	}
	// Well-formed frames that must execute nothing, each answered with an
	// error: a batch write with one byte after its last slot, and protocol
	// v5's bucket, slot and path operations — opcodes 2–7, unassigned since v6
	// — bare and under a deadline envelope. The v5 bodies are laid out
	// longhand: level u32 · node u64 [· slot u32] or leaf u64, then the slots
	// a write carries.
	const (
		opReadBucket, opWriteBucket = 2, 3
		opReadSlot, opWriteSlot     = 4, 5
		opReadPath, opWritePath     = 6, 7
	)
	row := oram.Slot{ID: 7, Leaf: 3, Payload: bytes.Repeat([]byte{0xCD}, 8)}
	slots := func(n int) []byte {
		var buf []byte
		for i := 0; i < n; i++ {
			buf = appendSlot(buf, &row)
		}
		return buf
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	bucket := binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint32(nil, 0), 0)
	slot := binary.BigEndian.AppendUint32(cat(bucket), 0)
	leaf := binary.BigEndian.AppendUint64(nil, 0)
	refs := []oram.BucketRef{{Level: 0, Node: 0}, {Level: 2, Node: 1}}
	for name, frame := range map[string][]byte{
		"opBatch with a trailing byte": cat(appendReqHeader(nil, 1, opBatch, 0), appendUnion([]byte{batchWrite}, refs), slots(4), []byte{0}),
		"v5 opReadBucket":              cat(appendReqHeader(nil, 2, opReadBucket, 0), bucket),
		"v5 opWriteBucket":             cat(appendReqHeader(nil, 3, opWriteBucket, 0), bucket, slots(2)),
		"v5 opReadSlot":                cat(appendReqHeader(nil, 4, opReadSlot, 0), slot),
		"v5 opWriteSlot":               cat(appendReqHeader(nil, 5, opWriteSlot, 0), slot, slots(1)),
		"v5 opReadPath":                cat(appendReqHeader(nil, 6, opReadPath, 0), leaf),
		"v5 opWritePath":               cat(appendReqHeader(nil, 7, opWritePath, 0), leaf, slots(g.PathSlots())),
		"v5 opWriteBucket under a deadline": cat(appendReqHeader(nil, 8, opDeadline, 0),
			appendDeadline(nil, time.Minute, opWriteBucket, cat(bucket, slots(2)))),
	} {
		if err := writeFrame(raw, frame); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp, err := readFrame(raw)
		if err != nil {
			t.Fatalf("%s: no response: %v", name, err)
		}
		if _, status, body, err := parseRespHeader(resp); err != nil || status != statusErr {
			t.Errorf("%s: status %d (%q), err %v; want an error response", name, status, body, err)
		}
	}
	// The connection that sent them is still served.
	if err := writeFrame(raw, cat(appendReqHeader(nil, 9, opBatch, 0), appendUnion([]byte{batchRead}, refs))); err != nil {
		t.Fatal(err)
	}
	if resp, err := readFrame(raw); err != nil || resp[8] != statusOK {
		t.Fatalf("a read after the refused frames: %x, %v", resp, err)
	}
	// The good client must still function, and find the root untouched.
	root := make([]oram.Slot, 2)
	if err := shard0(t, good).ReadBucket(0, 0, root); err != nil {
		t.Fatalf("well-behaved client broken after garbage: %v", err)
	}
	for i := range root {
		if !root[i].Dummy() {
			t.Errorf("root slot %d holds %+v: a refused write frame executed", i, root[i])
		}
	}
}

// TestServerConcurrentClients: multiple clients hammering one server see a
// consistent store (the server serialises storage access per shard).
func TestServerConcurrentClients(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 6, LeafZ: 4, BlockSize: 16})
	_, addr := startServer(t, g, false)
	const clients = 4
	const opsPer = 100
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			st, err := cl.Store(0)
			if err != nil {
				errs <- err
				return
			}
			rng := rand.New(rand.NewSource(int64(ci)))
			buf := make([]oram.Slot, 4)
			for i := 0; i < opsPer; i++ {
				lvl := rng.Intn(g.Levels())
				node := uint64(rng.Intn(1 << uint(lvl)))
				if err := st.ReadBucket(lvl, node, buf); err != nil {
					errs <- err
					return
				}
				// Write a slot tagged with this client's identity into a
				// region the clients share.
				pay := bytes.Repeat([]byte{byte(ci)}, 16)
				if err := st.WriteSlot(lvl, node, rng.Intn(4), oram.Slot{
					ID: oram.BlockID(ci*opsPer + i), Leaf: oram.Leaf(node), Payload: pay,
				}); err != nil {
					errs <- err
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
