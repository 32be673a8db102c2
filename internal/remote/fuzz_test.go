package remote

import (
	"bytes"
	"testing"

	"repro/internal/oram"
)

// fuzzGeom is a small fixed tree shape the fuzz dispatcher runs against.
func fuzzGeom() *oram.Geometry {
	return oram.MustGeometry(oram.GeometryConfig{LeafBits: 3, LeafZ: 2, BlockSize: 8})
}

// FuzzProtocol feeds arbitrary frames through every wire parser and through
// a live server dispatcher (no network): malformed, truncated or oversized
// input must come back as a clean error response — never a panic, a hang or
// an out-of-bounds access. Runs as a plain regression test over the corpus
// under `go test`, and explores under `go test -fuzz=FuzzProtocol`.
func FuzzProtocol(f *testing.F) {
	g := fuzzGeom()
	// Seed with one well-formed frame per opcode so mutation starts from
	// the interesting part of the space.
	slot := oram.Slot{ID: 3, Leaf: 5, Payload: bytes.Repeat([]byte{0xAB}, 8)}
	var bucket []byte
	for i := 0; i < 2; i++ {
		bucket = appendSlot(bucket, &slot)
	}
	seed := func(op byte, shard uint32, body []byte) {
		f.Add(append(appendReqHeader(nil, 1, op, shard), body...))
	}
	seed(opHello, 0, nil)
	// A bucket is a one-ref union and a path its refs, root first: each read,
	// written, and written then read.
	path := make([]oram.BucketRef, g.Levels())
	for lvl := range path {
		path[lvl] = oram.BucketRef{Level: lvl, Node: g.NodeAt(3, lvl)}
	}
	for _, u := range [][]oram.BucketRef{{{Level: 1, Node: 1}}, path} {
		w := appendUnion([]byte{batchWrite}, u)
		for range u {
			w = append(w, bucket...)
		}
		r := appendUnion([]byte{batchRead}, u)
		seed(opBatch, 0, r)
		seed(opBatch, 0, w)
		seed(opBatch, 0, append(append([]byte{batchCarry}, w[1:]...), r[1:]...))
	}
	// Protocol v5's retired opcodes 2–7, refused whatever follows them.
	for op := byte(2); op <= 7; op++ {
		seed(op, 0, append(appendBucketRef(nil, 1, 1), bucket...))
	}
	// Bucket unions — the shape a joint fetch and write-back arrive in: one
	// on the metadata store, which the server loops bucket by bucket, then a
	// write and a read on shard 1, the payload store that batches natively.
	run := []oram.BucketRef{{Level: 0, Node: 0}, {Level: 1, Node: 1}, {Level: 3, Node: 5}}
	reads := appendUnion([]byte{batchRead}, run)
	writes := appendUnion([]byte{batchWrite}, run)
	for range run {
		writes = append(writes, bucket...)
	}
	seed(opBatch, 0, reads)
	seed(opBatch, 1, writes)
	seed(opBatch, 1, reads)
	// Degenerate frames.
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	f.Add(appendReqHeader(nil, 0, 99, 7))
	// A write frame with a byte after its last slot: refused whole.
	seed(opBatch, 1, append(writes, 0))
	// Protocol v5: a write-back and the read that carries it in one frame
	// (kind 2: the write frame's body, then the read union) — looped, native,
	// and with a byte after the read refs.
	carry := append(append([]byte{batchCarry}, writes[1:]...), reads[1:]...)
	seed(opBatch, 0, carry)
	seed(opBatch, 1, carry)
	seed(opBatch, 1, append(carry, 0))

	ps, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		f.Fatal(err)
	}
	srv, err := NewSharded([]oram.Store{oram.NewMetaStore(g), ps}, 1, nil)
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, frame []byte) {
		// The parsers must never panic on raw bytes.
		var s oram.Slot
		_, _ = parseSlot(frame, &s)
		s.Payload = make([]byte, 0, 8) // armed capacity: the decode-in-place branch
		_, _ = parseSlot(frame, &s)
		_, _ = viewSlot(frame, &s)
		_, _ = parseGeometryWire(frame)
		_, _, _, _ = parseRespHeader(frame)
		_, _, _ = parseUnion(g, frame, nil)

		// The server must answer every frame with a well-formed response.
		resp := srv.handle(frame)
		if _, _, _, err := parseRespHeader(resp); err != nil {
			t.Fatalf("server produced unparsable response %x for frame %x: %v", resp, frame, err)
		}
		if len(resp) > maxFrame {
			t.Fatalf("server response exceeds frame limit: %d bytes", len(resp))
		}

		// Whatever the client-side response reader does with the bytes must
		// also be panic-free (responses are attacker-controlled too: the
		// server is untrusted in the threat model).
		if _, status, body, err := parseRespHeader(frame); err == nil && status == statusOK {
			var sl oram.Slot
			rest := body
			for len(rest) > 0 {
				var perr error
				rest, perr = parseSlot(rest, &sl)
				if perr != nil {
					break
				}
			}
		}
	})
}
