package diskstore

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestCodecRoundTrip is the testing/quick property: any (id, leaf,
// payload) tuple written with putSlot reads back verbatim through slotAt,
// for every slot of a bucket, at arbitrary strides.
func TestCodecRoundTrip(t *testing.T) {
	type slot struct {
		ID, Leaf uint64
		Payload  []byte
	}
	prop := func(z8 uint8, stride8 uint8, seed int64) bool {
		z := int(z8%6) + 1
		stride := int(stride8%64) + 1
		rng := rand.New(rand.NewSource(seed))
		slots := make([]slot, z)
		body := make([]byte, bodyLen(z, stride))
		for k := range slots {
			p := make([]byte, stride)
			rng.Read(p)
			slots[k] = slot{ID: rng.Uint64(), Leaf: rng.Uint64(), Payload: p}
			putSlot(body, k, stride, slots[k].ID, slots[k].Leaf, slots[k].Payload)
		}
		for k := range slots {
			id, leaf, pay := slotAt(body, k, stride)
			if id != slots[k].ID || leaf != slots[k].Leaf || !bytes.Equal(pay, slots[k].Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCodecShortPayload pins the copy semantics: a payload shorter than
// the stride fills the prefix and leaves the rest of the slot untouched
// (the store relies on this to zero dummy rows against a zeroed body).
func TestCodecShortPayload(t *testing.T) {
	const z, stride = 2, 8
	body := make([]byte, bodyLen(z, stride))
	for i := range body {
		body[i] = 0xAA
	}
	putSlot(body, 1, stride, 7, 9, []byte{1, 2, 3})
	_, _, pay := slotAt(body, 1, stride)
	want := []byte{1, 2, 3, 0xAA, 0xAA, 0xAA, 0xAA, 0xAA}
	if !bytes.Equal(pay, want) {
		t.Fatalf("short payload copy: got %v, want %v", pay, want)
	}
}

// TestRecordStampVerify checks the CRC framing property: a stamped record
// verifies in its own bucket, and neither in another bucket nor after any
// single byte — body or trailer — was flipped: each fails with the "torn"
// error.
func TestRecordStampVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		z := rng.Intn(6) + 1
		stride := rng.Intn(48) + 1
		key := rng.Int63n(1 << 40)
		rec := make([]byte, recLen(z, stride))
		rng.Read(rec[:bodyLen(z, stride)])
		stampRecord(rec, key)
		if err := verifyRecord(rec, key); err != nil {
			t.Fatalf("stamped record failed verification: %v", err)
		}
		if err := verifyRecord(rec, key+1+rng.Int63n(1<<20)); err == nil || !strings.Contains(err.Error(), "torn") {
			t.Fatalf("a record of bucket %d verified in another bucket: %v", key, err)
		}
		i := rng.Intn(len(rec))
		rec[i] ^= 1 << uint(rng.Intn(8))
		if err := verifyRecord(rec, key); err == nil {
			t.Fatalf("flipped byte %d of %d went undetected", i, len(rec))
		}
	}
	if err := verifyRecord([]byte{1, 2}, 0); err == nil {
		t.Fatal("record shorter than its CRC trailer must not verify")
	}
}

// FuzzBucketCodec fuzzes the codec end to end: arbitrary bytes are
// interpreted as slot content, framed, stamped and verified, and must
// round-trip exactly; corrupting the stamped record must be detected.
func FuzzBucketCodec(f *testing.F) {
	f.Add(uint8(4), []byte("hello world payload"), uint16(3))
	f.Add(uint8(1), []byte{}, uint16(0))
	f.Add(uint8(6), bytes.Repeat([]byte{0xFF}, 100), uint16(77))
	f.Fuzz(func(t *testing.T, z8 uint8, data []byte, corrupt uint16) {
		z := int(z8%6) + 1
		stride := len(data)/z + 1
		rec := make([]byte, recLen(z, stride))
		body := rec[:bodyLen(z, stride)]
		// Slot k takes its payload (and id/leaf) from a rolling view of
		// data.
		next := func(n int) []byte {
			if len(data) == 0 {
				return make([]byte, n)
			}
			out := make([]byte, n)
			for i := range out {
				out[i] = data[(i*7+n)%len(data)]
			}
			return out
		}
		ids := make([]uint64, z)
		leaves := make([]uint64, z)
		for k := 0; k < z; k++ {
			idb := next(8)
			ids[k] = uint64(idb[0]) | uint64(idb[1])<<8 | uint64(idb[7])<<56
			leaves[k] = ids[k] ^ 0x5555
			putSlot(body, k, stride, ids[k], leaves[k], next(stride))
		}
		key := int64(corrupt)
		stampRecord(rec, key)
		if err := verifyRecord(rec, key); err != nil {
			t.Fatalf("stamped record failed verification: %v", err)
		}
		for k := 0; k < z; k++ {
			id, leaf, pay := slotAt(body, k, stride)
			if id != ids[k] || leaf != leaves[k] {
				t.Fatalf("slot %d metadata did not round-trip", k)
			}
			if len(pay) != stride {
				t.Fatalf("slot %d payload length %d, want %d", k, len(pay), stride)
			}
		}
		i := int(corrupt) % len(rec)
		rec[i] ^= 0x01
		if err := verifyRecord(rec, key); err == nil {
			t.Fatalf("single-bit corruption at byte %d went undetected", i)
		}
	})
}
