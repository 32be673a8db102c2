package oram

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/crypto"
)

// parallel_test.go pins the crypto fan-out's determinism contract
// (DESIGN.md invariant 10): a PayloadStore with a multi-worker crypto pool
// must produce byte-identical server state — ciphertext arena included —
// and byte-identical reads, compared with the strictly serial store, for
// any mix of bucket, path and batch operations. The comparison uses
// same-key same-nonce-field sealers (NewSealerWithPrefix), so any divergence
// in sequence assignment or work partitioning shows up as differing bytes.

func parallelTestStores(t *testing.T, workers int) (serial, parallel *PayloadStore, pool *crypto.Pool) {
	t.Helper()
	g := MustGeometry(GeometryConfig{LeafBits: 6, LeafZ: 4, BlockSize: 48})
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i*11 + 3)
	}
	var prefix [6]byte
	copy(prefix[:], "laoram")
	mk := func() *PayloadStore {
		s, err := crypto.NewSealerWithPrefix(key, prefix)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := NewPayloadStore(g, s)
		if err != nil {
			t.Fatal(err)
		}
		return ps
	}
	serial, parallel = mk(), mk()
	pool = crypto.NewPool(workers)
	t.Cleanup(pool.Close)
	if err := parallel.SetCryptoPool(pool); err != nil {
		t.Fatal(err)
	}
	return serial, parallel, pool
}

// randomBuckets draws a deduplicated set of bucket refs and fills write
// buffers with a deterministic mix of real and dummy slots.
func randomBuckets(g *Geometry, rng *rand.Rand, count int, nextID *uint64) ([]BucketRef, [][]Slot) {
	seen := map[BucketRef]bool{}
	var refs []BucketRef
	var bufs [][]Slot
	for len(refs) < count {
		lvl := rng.Intn(g.Levels())
		ref := BucketRef{Level: lvl, Node: uint64(rng.Intn(1 << uint(lvl)))}
		if seen[ref] {
			continue
		}
		seen[ref] = true
		z := g.BucketSize(lvl)
		buf := make([]Slot, z)
		for k := range buf {
			if rng.Intn(3) == 0 {
				buf[k] = DummySlot()
				continue
			}
			p := make([]byte, g.BlockSize())
			rng.Read(p)
			buf[k] = Slot{ID: BlockID(*nextID), Leaf: Leaf(rng.Intn(int(g.Leaves()))), Payload: p}
			*nextID++
		}
		refs = append(refs, ref)
		bufs = append(bufs, buf)
	}
	return refs, bufs
}

func snapshotBytes(t *testing.T, st Snapshotter) []byte {
	t.Helper()
	var sb bytes.Buffer
	if err := st.Save(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.Bytes()
}

// TestParallelSealByteIdentical: identical operation sequences on a serial
// and a pooled store leave byte-identical trees, across worker widths and
// across bucket/path/batch write shapes interleaved in one counter stream.
func TestParallelSealByteIdentical(t *testing.T) {
	for _, workers := range []int{2, 3, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			serial, parallel, _ := parallelTestStores(t, workers)
			g := serial.Geometry()
			rng := rand.New(rand.NewSource(int64(workers) * 97))
			var nextID uint64
			for round := 0; round < 12; round++ {
				switch round % 3 {
				case 0: // batched bucket union (multipath write-back shape)
					refs, bufs := randomBuckets(g, rng, 5+rng.Intn(8), &nextID)
					if err := serial.WriteBuckets(refs, bufs); err != nil {
						t.Fatal(err)
					}
					if err := parallel.WriteBuckets(refs, bufs); err != nil {
						t.Fatal(err)
					}
				case 1: // whole-path write-back
					leaf := Leaf(rng.Intn(int(g.Leaves())))
					src := make([][]Slot, g.Levels())
					for lvl := range src {
						src[lvl] = make([]Slot, g.BucketSize(lvl))
						for k := range src[lvl] {
							if rng.Intn(4) == 0 {
								src[lvl][k] = DummySlot()
							} else {
								p := make([]byte, g.BlockSize())
								rng.Read(p)
								src[lvl][k] = Slot{ID: BlockID(nextID), Leaf: Leaf(rng.Intn(int(g.Leaves()))), Payload: p}
								nextID++
							}
						}
					}
					if err := serial.WritePath(leaf, src); err != nil {
						t.Fatal(err)
					}
					if err := parallel.WritePath(leaf, src); err != nil {
						t.Fatal(err)
					}
				case 2: // single-bucket writes (the per-access shape)
					refs, bufs := randomBuckets(g, rng, 3, &nextID)
					for i := range refs {
						if err := serial.WriteBucket(refs[i].Level, refs[i].Node, bufs[i]); err != nil {
							t.Fatal(err)
						}
						if err := parallel.WriteBucket(refs[i].Level, refs[i].Node, bufs[i]); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			if !bytes.Equal(snapshotBytes(t, serial), snapshotBytes(t, parallel)) {
				t.Fatal("parallel store's tree (ciphertext arena included) diverged from the serial store")
			}

			// Read everything back through both the batch and path fast
			// paths: decrypted slots must match the serial reads.
			var refs []BucketRef
			for lvl := 0; lvl < g.Levels(); lvl++ {
				for node := uint64(0); node < 1<<uint(lvl); node++ {
					refs = append(refs, BucketRef{Level: lvl, Node: node})
				}
			}
			mkBufs := func() [][]Slot {
				bufs := make([][]Slot, len(refs))
				for i, r := range refs {
					bufs[i] = make([]Slot, g.BucketSize(r.Level))
				}
				return bufs
			}
			want, got := mkBufs(), mkBufs()
			if err := serial.ReadBuckets(refs, want); err != nil {
				t.Fatal(err)
			}
			if err := parallel.ReadBuckets(refs, got); err != nil {
				t.Fatal(err)
			}
			for i := range refs {
				for k := range want[i] {
					w, gg := want[i][k], got[i][k]
					if w.ID != gg.ID || w.Leaf != gg.Leaf || !bytes.Equal(w.Payload, gg.Payload) {
						t.Fatalf("bucket %v slot %d: parallel read diverged", refs[i], k)
					}
				}
			}
		})
	}
}

// TestParallelPathRoundTrip: the PathStore fast path of a pooled store
// opens exactly what it sealed.
func TestParallelPathRoundTrip(t *testing.T) {
	_, parallel, _ := parallelTestStores(t, 4)
	g := parallel.Geometry()
	rng := rand.New(rand.NewSource(5))
	leaf := Leaf(3)
	src := make([][]Slot, g.Levels())
	var id uint64
	for lvl := range src {
		src[lvl] = make([]Slot, g.BucketSize(lvl))
		for k := range src[lvl] {
			p := make([]byte, g.BlockSize())
			rng.Read(p)
			src[lvl][k] = Slot{ID: BlockID(id), Leaf: leaf, Payload: p}
			id++
		}
	}
	if err := parallel.WritePath(leaf, src); err != nil {
		t.Fatal(err)
	}
	dst := make([][]Slot, g.Levels())
	for lvl := range dst {
		dst[lvl] = make([]Slot, g.BucketSize(lvl))
	}
	if err := parallel.ReadPath(leaf, dst); err != nil {
		t.Fatal(err)
	}
	for lvl := range src {
		for k := range src[lvl] {
			if src[lvl][k].ID != dst[lvl][k].ID || !bytes.Equal(src[lvl][k].Payload, dst[lvl][k].Payload) {
				t.Fatalf("level %d slot %d: path round trip mismatch", lvl, k)
			}
		}
	}
}
