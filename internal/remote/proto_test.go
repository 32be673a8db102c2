package remote

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/oram"
)

// TestQuickReqHeaderRoundTrip: the request framing round-trips every
// (id, opcode, shard, body) combination — old opcodes and new alike.
func TestQuickReqHeaderRoundTrip(t *testing.T) {
	f := func(id uint64, op byte, shard uint32, body []byte) bool {
		frame := append(appendReqHeader(nil, id, op, shard), body...)
		gid, gop, gshard, gbody, err := parseReqHeader(frame)
		return err == nil && gid == id && gop == op && gshard == shard && bytes.Equal(gbody, body)
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(51))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickRespHeaderRoundTrip: response framing round-trips.
func TestQuickRespHeaderRoundTrip(t *testing.T) {
	f := func(id uint64, status byte, body []byte) bool {
		frame := append(appendRespHeader(nil, id, status), body...)
		gid, gstatus, gbody, err := parseRespHeader(frame)
		return err == nil && gid == id && gstatus == status && bytes.Equal(gbody, body)
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(52))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickAddressCodecs: a bucket address (the ref of an opBatch union)
// round-trips.
func TestQuickAddressCodecs(t *testing.T) {
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(53))}
	bucket := func(level int32, node uint64, tail []byte) bool {
		buf := append(appendBucketRef(nil, int(level), node), tail...)
		l, n, rest, err := parseBucketRef(buf)
		return err == nil && l == int(level) && n == node && bytes.Equal(rest, tail)
	}
	if err := quick.Check(bucket, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickGeometryWireRoundTrip: the handshake geometry encoding
// round-trips arbitrary field values.
func TestQuickGeometryWireRoundTrip(t *testing.T) {
	f := func(leafBits, leafZ, rootZ int32, profile uint8, blockSize int32) bool {
		in := geometryWire{LeafBits: leafBits, LeafZ: leafZ, RootZ: rootZ, Profile: profile, BlockSize: blockSize}
		out, err := parseGeometryWire(in.append(nil))
		return err == nil && out == in
	}
	cfg := &quick.Config{MaxCount: 1000, Rand: rand.New(rand.NewSource(55))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestOversizedFrameRejected: frames beyond maxFrame are refused on both
// the write and the read side without allocation bombs.
func TestOversizedFrameRejected(t *testing.T) {
	var sink bytes.Buffer
	if err := writeFrame(&sink, make([]byte, maxFrame+1)); err == nil {
		t.Error("oversized frame written")
	}
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := readFrame(bytes.NewReader(hdr)); err == nil {
		t.Error("oversized frame length accepted")
	}
}

// TestBatchCountBounds: a batch frame claiming more buckets than the limit
// is rejected outright, and one claiming more than it carries errors
// cleanly.
func TestBatchCountBounds(t *testing.T) {
	g := fuzzGeom()
	srv, err := NewSharded([]oram.Store{oram.NewMetaStore(g)}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for kind := byte(0); kind < 2; kind++ {
		over := appendU32([]byte{kind}, maxBatchOps+1)
		resp := srv.handle(append(appendReqHeader(nil, 9, opBatch, 0), over...))
		if _, status, _, err := parseRespHeader(resp); err != nil || status != statusErr {
			t.Errorf("kind %d: oversized batch count not rejected: status=%d err=%v", kind, status, err)
		}
		lying := appendBucketRef(appendU32([]byte{kind}, 5), 0, 0) // claims 5 buckets, carries one
		resp = srv.handle(append(appendReqHeader(nil, 10, opBatch, 0), lying...))
		if _, status, _, err := parseRespHeader(resp); err != nil || status != statusErr {
			t.Errorf("kind %d: truncated batch not rejected: status=%d err=%v", kind, status, err)
		}
	}
}
