package oram

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// TestCheckpointRestoreRoundTrip: full client+store checkpoint mid-run;
// the restored instance serves identical data.
func TestCheckpointRestoreRoundTrip(t *testing.T) {
	const blocks = 256
	g := MustGeometry(GeometryConfig{LeafBits: 8, LeafZ: 4, BlockSize: 8})
	ps, err := NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(ClientConfig{
		Store: ps, Rand: rand.New(rand.NewSource(1)),
		Evict: PaperEvict, StashHits: true, Blocks: blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[BlockID][]byte)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 500; i++ {
		id := BlockID(rng.Intn(blocks))
		v := make([]byte, 8)
		rng.Read(v)
		if err := c.Write(id, v); err != nil {
			t.Fatal(err)
		}
		ref[id] = v
	}

	var clientSnap, storeSnap bytes.Buffer
	if err := c.SaveState(&clientSnap); err != nil {
		t.Fatal(err)
	}
	if err := ps.Save(&storeSnap); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh store + client, restore both.
	ps2, err := NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := ps2.Load(bytes.NewReader(storeSnap.Bytes())); err != nil {
		t.Fatal(err)
	}
	c2, err := NewClient(ClientConfig{
		Store: ps2, Rand: rand.New(rand.NewSource(99)), // fresh RNG: fine
		Evict: PaperEvict, StashHits: true, Blocks: blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.LoadState(bytes.NewReader(clientSnap.Bytes())); err != nil {
		t.Fatal(err)
	}
	for id, want := range ref {
		got, err := c2.Read(id)
		if err != nil {
			t.Fatalf("restored read %d: %v", id, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("restored block %d = %x, want %x", id, got, want)
		}
	}
	// The restored client keeps working for new writes too.
	if err := c2.Write(3, bytes.Repeat([]byte{0xAA}, 8)); err != nil {
		t.Fatal(err)
	}
}

func TestMetaStoreSnapshot(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 5, LeafZ: 4, BlockSize: 0})
	st := NewMetaStore(g)
	if err := st.WriteSlot(3, 2, 1, Slot{ID: 7, Leaf: 9}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	st2 := NewMetaStore(g)
	if err := st2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	var s Slot
	if err := st2.ReadSlot(3, 2, 1, &s); err != nil {
		t.Fatal(err)
	}
	if s.ID != 7 || s.Leaf != 9 {
		t.Errorf("restored slot %+v", s)
	}
	// Geometry mismatch rejected.
	gBig := MustGeometry(GeometryConfig{LeafBits: 6, LeafZ: 4, BlockSize: 0})
	if err := NewMetaStore(gBig).Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("mismatched geometry accepted")
	}
}

func TestSnapshotErrors(t *testing.T) {
	const blocks = 16
	c, _ := newTestClient(t, 4, blocks, 8, EvictConfig{})
	if err := c.LoadState(strings.NewReader("garbage-not-a-snapshot")); err == nil {
		t.Error("garbage accepted")
	}
	if err := c.LoadState(strings.NewReader("")); err == nil {
		t.Error("empty input accepted")
	}
	// Wrong block count.
	var snap bytes.Buffer
	if err := c.SaveState(&snap); err != nil {
		t.Fatal(err)
	}
	other, _ := newTestClient(t, 4, blocks*2, 8, EvictConfig{})
	if err := other.LoadState(bytes.NewReader(snap.Bytes())); err == nil {
		t.Error("mismatched block count accepted")
	}
}

// TestSnapshotDeterministic: two snapshots of identical state are
// byte-identical (stash serialised in sorted order).
func TestSnapshotDeterministic(t *testing.T) {
	const blocks = 64
	c, _ := newTestClient(t, 6, blocks, 0, EvictConfig{})
	if err := c.Load(blocks, nil, nil); err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := c.SaveState(&a); err != nil {
		t.Fatal(err)
	}
	if err := c.SaveState(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("snapshots differ between calls")
	}
}

// TestSealedStoreSnapshot: a sealed PayloadStore round-trips ciphertext
// exactly, and the restored store opens with the same key.
func TestSealedStoreSnapshot(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 4, LeafZ: 2, BlockSize: 16})
	sealer := &xorSealer{key: 0x3C}
	st, err := NewPayloadStore(g, sealer)
	if err != nil {
		t.Fatal(err)
	}
	pay := bytes.Repeat([]byte{5}, 16)
	if err := st.WriteSlot(2, 1, 0, Slot{ID: 4, Leaf: 7, Payload: pay}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		t.Fatal(err)
	}
	st2, err := NewPayloadStore(g, sealer)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	var s Slot
	if err := st2.ReadSlot(2, 1, 0, &s); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(s.Payload, pay) {
		t.Errorf("sealed snapshot round trip = %x", s.Payload)
	}
	// Stride mismatch (different sealing) rejected.
	plain, err := NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("stride mismatch accepted")
	}
}
