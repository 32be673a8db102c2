package oram

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"repro/internal/crypto"
)

// goldenGeom is a fat tree (bucket sizes 8 down to 4) so the snapshot covers
// buckets of every width.
func goldenGeom(blockSize int) *Geometry {
	return MustGeometry(GeometryConfig{LeafBits: 5, LeafZ: 4, RootZ: 8, Profile: ProfileLinear, BlockSize: blockSize})
}

func goldenSealer(t *testing.T) *crypto.Sealer {
	t.Helper()
	s, err := crypto.NewSealerWithPrefix(bytes.Repeat([]byte{0x42}, 32), [6]byte{1, 2, 3, 4, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// seedStore fills every bucket of st from a seeded stream — about half the
// slots real, with random payloads when the geometry carries them — then
// turns a third of the buckets back to all-dummy, so real→dummy zeroing is in
// the snapshot too. It returns what each bucket must read back, in heap order.
func seedStore(t *testing.T, st Store, seed int64) [][]Slot {
	t.Helper()
	g := st.Geometry()
	rng := rand.New(rand.NewSource(seed))
	var want [][]Slot
	for lvl := 0; lvl < g.Levels(); lvl++ {
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			b := make([]Slot, g.BucketSize(lvl))
			for k := range b {
				b[k] = DummySlot()
				if rng.Intn(2) == 0 {
					continue
				}
				b[k] = Slot{ID: BlockID(rng.Int63n(1 << 40)), Leaf: Leaf(rng.Int63n(int64(g.Leaves())))}
				if bs := g.BlockSize(); bs > 0 {
					b[k].Payload = make([]byte, bs)
					rng.Read(b[k].Payload)
				}
			}
			if err := st.WriteBucket(lvl, node, b); err != nil {
				t.Fatal(err)
			}
			if rng.Intn(3) == 0 {
				for k := range b {
					b[k] = DummySlot()
				}
				if err := st.WriteBucket(lvl, node, b); err != nil {
					t.Fatal(err)
				}
			}
			want = append(want, b)
		}
	}
	return want
}

// TestSnapshotBytesGolden pins the SHA-256 of Save for a seeded PayloadStore
// (unsealed and sealed) and MetaStore. The digests were recorded when each
// store still kept its metadata as Go structs and wrote it field by field, so
// a change in how the stores hold their slots cannot change a snapshot byte.
// Those bytes then Load into a fresh store, read back slot for slot, and Save
// again to the same bytes.
func TestSnapshotBytesGolden(t *testing.T) {
	cases := []struct {
		name  string
		build func() Store
		want  string
	}{
		{"payload", func() Store {
			st, err := NewPayloadStore(goldenGeom(24), nil)
			if err != nil {
				t.Fatal(err)
			}
			return st
		}, "b784742aba787c1207dbf9e542d8726ec8991a582c06a727ba526003353193d8"},
		{"sealed", func() Store {
			st, err := NewPayloadStore(goldenGeom(24), goldenSealer(t))
			if err != nil {
				t.Fatal(err)
			}
			return st
		}, "0ddc503c9e6278665300836cd9b501c2b7679c5e046a96cdbf2a2af60ef07a1a"},
		{"meta", func() Store { return NewMetaStore(goldenGeom(0)) }, "445c126c0635293667270839f854b176fff0c75ee25bae931654a27dd2e765ff"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.build()
			want := seedStore(t, st, 26)
			var snap bytes.Buffer
			if err := st.(Snapshotter).Save(&snap); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(snap.Bytes())
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("Save digest %s, want %s", got, tc.want)
			}

			fresh := tc.build()
			if err := fresh.(Snapshotter).Load(bytes.NewReader(snap.Bytes())); err != nil {
				t.Fatal(err)
			}
			g := fresh.Geometry()
			i := 0
			for lvl := 0; lvl < g.Levels(); lvl++ {
				for node := uint64(0); node < 1<<uint(lvl); node++ {
					got := make([]Slot, g.BucketSize(lvl))
					if err := fresh.ReadBucket(lvl, node, got); err != nil {
						t.Fatal(err)
					}
					for k := range got {
						w := want[i][k]
						if got[k].ID != w.ID || (!w.Dummy() && (got[k].Leaf != w.Leaf || !bytes.Equal(got[k].Payload, w.Payload))) {
							t.Fatalf("bucket (%d,%d) slot %d = %+v, want %+v", lvl, node, k, got[k], w)
						}
					}
					i++
				}
			}
			var again bytes.Buffer
			if err := fresh.(Snapshotter).Save(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), snap.Bytes()) {
				t.Error("a loaded snapshot saves to different bytes")
			}
		})
	}
}
