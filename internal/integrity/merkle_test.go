package integrity

import (
	"math/rand"
	"testing"

	"repro/internal/oram"
)

func newVerified(t *testing.T, leafBits, blockSize int) (*VerifiedStore, *oram.PayloadStore) {
	t.Helper()
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: leafBits, LeafZ: 3, BlockSize: blockSize})
	inner, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := NewVerifiedStore(inner)
	if err != nil {
		t.Fatal(err)
	}
	return vs, inner
}

func TestVerifiedRoundTrip(t *testing.T) {
	vs, _ := newVerified(t, 4, 16)
	pay := make([]byte, 16)
	pay[0] = 0x77
	src := []oram.Slot{{ID: 1, Leaf: 3, Payload: pay}, oram.DummySlot(), oram.DummySlot()}
	if err := vs.WriteBucket(2, 1, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]oram.Slot, 3)
	if err := vs.ReadBucket(2, 1, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0].ID != 1 || dst[0].Payload[0] != 0x77 {
		t.Errorf("round trip mismatch: %+v", dst[0])
	}
	if vs.Verified() == 0 {
		t.Error("no verifications recorded")
	}
}

// TestTamperDetection: direct modification of the inner store (bypassing
// the client) must fail the next authenticated read of that subtree.
func TestTamperDetection(t *testing.T) {
	vs, inner := newVerified(t, 4, 16)
	// Legitimate write through the verified layer.
	pay := make([]byte, 16)
	if err := vs.WriteBucket(3, 2, []oram.Slot{{ID: 5, Leaf: 1, Payload: pay}, oram.DummySlot(), oram.DummySlot()}); err != nil {
		t.Fatal(err)
	}
	// Adversarial write directly to the server.
	evil := make([]byte, 16)
	evil[0] = 0xFF
	if err := inner.WriteBucket(3, 2, []oram.Slot{{ID: 5, Leaf: 1, Payload: evil}, oram.DummySlot(), oram.DummySlot()}); err != nil {
		t.Fatal(err)
	}
	dst := make([]oram.Slot, 3)
	if err := vs.ReadBucket(3, 2, dst); err == nil {
		t.Fatal("tampered bucket passed verification")
	}
	if vs.Failures() == 0 {
		t.Error("failure not counted")
	}
}

// TestAncestorTamperDetection: tampering an ancestor bucket is caught when
// reading a descendant (the auth path covers it).
func TestAncestorTamperDetection(t *testing.T) {
	vs, inner := newVerified(t, 4, 16)
	evil := make([]byte, 16)
	evil[5] = 0xAA
	if err := inner.WriteBucket(1, 0, []oram.Slot{{ID: 7, Leaf: 0, Payload: evil}, oram.DummySlot(), oram.DummySlot()}); err != nil {
		t.Fatal(err)
	}
	dst := make([]oram.Slot, 3)
	// Read a leaf bucket under the tampered ancestor.
	if err := vs.ReadBucket(4, 1, dst); err == nil {
		t.Fatal("tampered ancestor passed verification")
	}
}

// TestRollbackDetection: replaying an old (valid) state must fail because
// the client's trusted root has moved on.
func TestRollbackDetection(t *testing.T) {
	vs, inner := newVerified(t, 4, 16)
	pay1 := make([]byte, 16)
	pay1[0] = 1
	slots1 := []oram.Slot{{ID: 3, Leaf: 0, Payload: pay1}, oram.DummySlot(), oram.DummySlot()}
	if err := vs.WriteBucket(4, 0, slots1); err != nil {
		t.Fatal(err)
	}
	// Snapshot the old state, then move forward.
	old := make([]oram.Slot, 3)
	if err := inner.ReadBucket(4, 0, old); err != nil {
		t.Fatal(err)
	}
	pay2 := make([]byte, 16)
	pay2[0] = 2
	if err := vs.WriteBucket(4, 0, []oram.Slot{{ID: 3, Leaf: 0, Payload: pay2}, oram.DummySlot(), oram.DummySlot()}); err != nil {
		t.Fatal(err)
	}
	// Roll the server back to the snapshot.
	if err := inner.WriteBucket(4, 0, old); err != nil {
		t.Fatal(err)
	}
	dst := make([]oram.Slot, 3)
	if err := vs.ReadBucket(4, 0, dst); err == nil {
		t.Fatal("rolled-back state passed verification")
	}
}

// TestPathORAMOverVerifiedStore: the full client stack runs over the
// authenticated store; a post-hoc tamper breaks subsequent accesses.
func TestPathORAMOverVerifiedStore(t *testing.T) {
	const blocks = 64
	vs, inner := newVerified(t, 6, 8)
	c, err := oram.NewClient(oram.ClientConfig{
		Store: vs, Rand: rand.New(rand.NewSource(1)),
		Evict: oram.PaperEvict, StashHits: true, Blocks: blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Note: Load writes slots directly; wrap-order matters. Write through
	// the client instead so digests stay current.
	for i := uint64(0); i < blocks; i++ {
		b := make([]byte, 8)
		b[0] = byte(i)
		if err := c.Write(oram.BlockID(i), b); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < blocks; i++ {
		got, err := c.Read(oram.BlockID(i))
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("block %d corrupt", i)
		}
	}
	// Adversary flips one slot in the root bucket.
	rootBuf := make([]oram.Slot, 3)
	if err := inner.ReadBucket(0, 0, rootBuf); err != nil {
		t.Fatal(err)
	}
	rootBuf[0].Leaf ^= 1
	if err := inner.WriteBucket(0, 0, rootBuf); err != nil {
		t.Fatal(err)
	}
	sawErr := false
	for i := uint64(0); i < blocks; i++ {
		if _, err := c.Read(oram.BlockID(i)); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Error("client never noticed server tampering")
	}
}

// TestLoadThenWrap: bulk-loading the inner store first and wrapping after
// hashes the loaded state correctly.
func TestLoadThenWrap(t *testing.T) {
	const blocks = 32
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 5, LeafZ: 4, BlockSize: 8})
	inner, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	loader, err := oram.NewClient(oram.ClientConfig{
		Store: inner, Rand: rand.New(rand.NewSource(2)), StashHits: true, Blocks: blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := loader.Load(blocks, nil, func(id oram.BlockID) []byte {
		b := make([]byte, 8)
		b[0] = byte(id)
		return b
	}); err != nil {
		t.Fatal(err)
	}
	vs, err := NewVerifiedStore(inner)
	if err != nil {
		t.Fatal(err)
	}
	// Reads through the verified layer see the loaded state.
	c, err := oram.NewClient(oram.ClientConfig{
		Store: vs, Rand: rand.New(rand.NewSource(3)), StashHits: true, Blocks: blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Copy posmap from the loader (same inner tree).
	for i := oram.BlockID(0); i < blocks; i++ {
		c.PosMap().Set(i, loader.PosMap().Get(i))
	}
	got, err := c.Read(7)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Errorf("block 7 = %d", got[0])
	}
}
