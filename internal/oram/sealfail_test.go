package oram

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/crypto"
)

// sealfail_test.go covers how sealing failures surface through a
// PayloadStore: a tampered slot is crypto.ErrAuth to errors.Is on every
// read path, and a snapshot written under another sealed stride is refused
// before any slot is opened.

func sealedTestStore(t *testing.T, g *Geometry) *PayloadStore {
	t.Helper()
	s, err := crypto.NewSealer(bytes.Repeat([]byte{0x6B}, 32))
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewPayloadStore(g, s)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestTamperedSlotIsErrAuth: one flipped arena byte — in the nonce, the
// ciphertext or the tag — fails the slot's read with crypto.ErrAuth,
// serially and through the crypto pool, and no other bucket is affected.
func TestTamperedSlotIsErrAuth(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 3, LeafZ: 2, BlockSize: 32})
	pool := crypto.NewPool(4)
	defer pool.Close()
	for _, pooled := range []bool{false, true} {
		for _, off := range []int{0, 11, 12, 12 + 31, 12 + 32, 12 + 32 + 15} {
			st := sealedTestStore(t, g)
			if pooled {
				if err := st.SetCryptoPool(pool); err != nil {
					t.Fatal(err)
				}
			}
			const leaf = Leaf(5)
			src := make([][]Slot, g.Levels())
			for lvl := range src {
				src[lvl] = make([]Slot, g.BucketSize(lvl))
				for k := range src[lvl] {
					src[lvl][k] = Slot{ID: BlockID(10*lvl + k), Leaf: leaf, Payload: bytes.Repeat([]byte{byte(lvl)}, 32)}
				}
			}
			if err := st.WritePath(leaf, src); err != nil {
				t.Fatal(err)
			}
			// Slot 1 of the level-2 bucket on the path.
			i := g.SlotIndex(2, g.NodeAt(leaf, 2), 1)
			st.slotBytes(i)[off] ^= 0x04

			dst := make([][]Slot, g.Levels())
			for lvl := range dst {
				dst[lvl] = make([]Slot, g.BucketSize(lvl))
			}
			err := st.ReadPath(leaf, dst)
			if !errors.Is(err, crypto.ErrAuth) {
				t.Fatalf("pooled=%v, flipped sealed byte %d: ReadPath err = %v, want crypto.ErrAuth", pooled, off, err)
			}
			if !strings.Contains(err.Error(), "oram: open slot") {
				t.Errorf("error does not name the slot: %v", err)
			}
			bucket := make([]Slot, g.BucketSize(1))
			if err := st.ReadBucket(1, g.NodeAt(leaf, 1), bucket); err != nil {
				t.Fatalf("untouched bucket: %v", err)
			}
		}
	}
}

// strideSealer stands in for a sealer with another per-slot overhead — 32
// bytes is what sealing cost before one-pass GCM — and counts the slots it
// is asked to open.
type strideSealer struct {
	overhead int
	opens    int
}

func (s *strideSealer) SealedSize(plain int) int { return plain + s.overhead }
func (s *strideSealer) SealTo(dst, plain []byte) error {
	clear(dst[:s.overhead])
	copy(dst[s.overhead:], plain)
	return nil
}
func (s *strideSealer) OpenTo(dst, sealed []byte) error {
	s.opens++
	copy(dst, sealed[s.overhead:])
	return nil
}

// TestOldSealedSnapshotRefused: a snapshot taken at the old sealed stride
// (BlockSize+32) does not load into a store sealed at today's
// (BlockSize+28): Load fails on the recorded stride, before reading — let
// alone opening — a single slot.
func TestOldSealedSnapshotRefused(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 3, LeafZ: 2, BlockSize: 16})
	old, err := NewPayloadStore(g, &strideSealer{overhead: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := old.WriteSlot(1, 0, 0, Slot{ID: 3, Leaf: 1, Payload: bytes.Repeat([]byte{9}, 16)}); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := old.Save(&snap); err != nil {
		t.Fatal(err)
	}

	now := &strideSealer{overhead: crypto.Overhead}
	st, err := NewPayloadStore(g, now)
	if err != nil {
		t.Fatal(err)
	}
	err = st.Load(bytes.NewReader(snap.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "stride 48 != 44 (sealing mismatch?)") {
		t.Fatalf("loading a BlockSize+32 snapshot: err = %v, want the stride mismatch", err)
	}
	if now.opens != 0 {
		t.Errorf("%d slots opened from a snapshot that was refused", now.opens)
	}
	var s Slot
	if err := st.ReadSlot(1, 0, 0, &s); err != nil || s.ID != DummyID {
		t.Errorf("store changed by a refused snapshot: slot = %+v, err = %v", s, err)
	}
}
