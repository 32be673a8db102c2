package diskstore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/crypto"
	"repro/internal/oram"
)

func newTestSealer(t *testing.T) oram.Sealer {
	t.Helper()
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i * 11)
	}
	s, err := crypto.NewSealer(key)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// recOff is the file offset of bucket (level, node)'s record, by the
// table as it stands.
func (st *Store) recOff(level int, node uint64) int64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	at, _ := st.locate(level, node).recOff()
	return at
}

func readFileRange(t *testing.T, path string, off int64, n int) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, n)
	if _, err := f.ReadAt(buf, off); err != nil {
		t.Fatal(err)
	}
	return buf
}

func writeFileRange(t *testing.T, path string, off int64, p []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteAt(p, off); err != nil {
		t.Fatal(err)
	}
}

// dirtyBuckets reads and then rewrites n distinct leaf buckets, which
// leaves real dirt in the cache: spans faulted in by the reads, newer than
// the file, that only an eviction or a Sync would write back.
func dirtyBuckets(t *testing.T, st *Store, g *oram.Geometry, n int) {
	t.Helper()
	lvl := g.Levels() - 1
	src := make([]oram.Slot, g.BucketSize(lvl))
	for node := 0; node < n; node++ {
		if err := st.ReadBucket(lvl, uint64(node), src); err != nil {
			t.Fatal(err)
		}
		for k := range src {
			src[k] = oram.Slot{ID: oram.BlockID(k), Leaf: 1, Payload: bytes.Repeat([]byte{byte(k + 1)}, g.BlockSize())}
		}
		if err := st.WriteBucket(lvl, uint64(node), src); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCrashMidWriteBack: a store killed with dirty spans in its cache
// (Abandon — no write-back, no sync, like a SIGKILL) must NOT reopen as if
// nothing happened. The dirty header (forced to disk before the first
// change of the cycle) makes the next Open fail with ErrUnclean instead of
// serving a possibly-blended tree, and Reset is the documented way back.
func TestCrashMidWriteBack(t *testing.T) {
	g := testGeometry(t, 4, 4, 16)
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	dirtyBuckets(t, st, g, 8)
	st.Abandon()

	if _, err := Open(Config{Path: path, Geometry: g}); !errors.Is(err, ErrUnclean) {
		t.Fatalf("reopening a crashed arena: got %v, want ErrUnclean", err)
	}

	// Recovery: Reset reinitialises (epoch preserved and advanced), and a
	// checkpoint restores a consistent tree.
	mem, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := mem.Save(&snap); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(Config{Path: path, Geometry: g, Reset: true})
	if err != nil {
		t.Fatalf("Reset of a crashed arena: %v", err)
	}
	defer st2.Close()
	if st2.Epoch() == 0 {
		t.Fatal("Reset lost the epoch lineage")
	}
	if err := st2.Load(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("restoring a checkpoint into the reset arena: %v", err)
	}
	buf := make([]oram.Slot, g.BucketSize(0))
	if err := st2.ReadBucket(0, 0, buf); err != nil {
		t.Fatal(err)
	}
}

// TestCleanCloseThenCrashWindow: an arena that only ever reached clean
// states reopens fine even after an Abandon with nothing dirty (the
// header stayed clean), pinning that ErrUnclean fires on actual dirt, not
// on every non-Close exit.
func TestCleanCloseThenCrashWindow(t *testing.T) {
	g := testGeometry(t, 3, 4, 16)
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	dirtyBuckets(t, st, g, 2)
	if err := st.Sync(); err != nil {
		t.Fatal(err)
	}
	st.Abandon() // crash after a clean sync: nothing in flight
	st2, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatalf("arena crashed at a clean point must reopen: %v", err)
	}
	st2.Close()
}

// TestTornRecordFailsLoudly: a record corrupted on disk (the torn-write
// model: some bytes of a pwrite landed, others did not) is detected by
// its CRC on the demand path and never decoded into slots.
func TestTornRecordFailsLoudly(t *testing.T) {
	g := testGeometry(t, 3, 4, 16)
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	dirtyBuckets(t, st, g, 4)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the middle of bucket (lastLevel, 2)'s record.
	lvl := g.Levels() - 1
	st2, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	off := st2.recOff(lvl, 2) + 5
	raw := readFileRange(t, path, off, 3)
	raw[0] ^= 0xFF
	writeFileRange(t, path, off, raw)

	buf := make([]oram.Slot, g.BucketSize(lvl))
	err = st2.ReadBucket(lvl, 2, buf)
	if err == nil || !strings.Contains(err.Error(), "torn") {
		t.Fatalf("reading a torn record: got %v, want a torn-bucket error", err)
	}
	// Other buckets still serve.
	if err := st2.ReadBucket(lvl, 1, buf); err != nil {
		t.Fatalf("intact bucket refused after an unrelated tear: %v", err)
	}
	st2.Abandon()
}

// TestTruncatedArenaRefused: chaos-style truncation — mid-record, inside
// the free slots, inside the span table, one byte short of FileBytes — is
// caught at Open by the size check: fail loudly, never serve short reads.
func TestTruncatedArenaRefused(t *testing.T) {
	g := testGeometry(t, 3, 4, 16)
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != FileBytes(g, nil) {
		t.Fatalf("a fresh arena of %v bytes (%v), FileBytes says %d", fi.Size(), err, FileBytes(g, nil))
	}
	leaf := &st.tiers[len(st.tiers)-1]
	for _, cut := range []int64{
		st.recOff(g.Levels()-1, 3) + 7,   // mid-record
		leaf.slotOff(len(leaf.slot)) + 5, // in the free slots
		tableOff(st.tiers) + 3,           // in the table
		FileBytes(g, nil) - 1,            // the table's CRC
	} {
		if err := os.Truncate(path, cut); err != nil {
			t.Fatal(err)
		}
		_, err = Open(Config{Path: path, Geometry: g})
		if !errors.Is(err, ErrMismatch) || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("opening an arena truncated at %d: got %v, want a truncation error", cut, err)
		}
		// Reset recovers even from truncation.
		st2, err := Open(Config{Path: path, Geometry: g, Reset: true})
		if err != nil {
			t.Fatalf("Reset of a truncated arena: %v", err)
		}
		st2.Close()
	}
}

// TestOtherLayoutRefused is the format guard: an arena whose header says
// its records are in another order — the bucket-ordered LAORDSK1 format,
// LAORDSK2's spans in place without a table, or spans of another height —
// is refused with ErrLayout from the header
// alone (the file below is cut off right behind it: were a record looked
// for, or the size checked first, the error would be another), and Reset,
// which a checkpoint restore follows, is the way back.
func TestOtherLayoutRefused(t *testing.T) {
	g := testGeometry(t, 5, 4, 16)
	for name, patch := range map[string]func(hdr []byte){
		"LAORDSK1":       func(hdr []byte) { hdr[7] = '1' },
		"LAORDSK2":       func(hdr []byte) { hdr[7] = '2' },
		"span height 5":  func(hdr []byte) { hdr[63] = 5 },
		"no span height": func(hdr []byte) { hdr[63] = 0 },
	} {
		path := filepath.Join(t.TempDir(), "tree.laor")
		st, err := Open(Config{Path: path, Geometry: g})
		if err != nil {
			t.Fatal(err)
		}
		dirtyBuckets(t, st, g, 2)
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		epoch := st.Epoch()
		hdr := readFileRange(t, path, 0, headerLen)
		patch(hdr)
		writeFileRange(t, path, 0, hdr)
		if err := os.Truncate(path, headerLen); err != nil {
			t.Fatal(err)
		}
		_, err = Open(Config{Path: path, Geometry: g})
		if !errors.Is(err, ErrLayout) || !strings.Contains(err.Error(), "Reset") || !strings.Contains(err.Error(), "checkpoint") {
			t.Fatalf("%s: got %v, want ErrLayout naming the fix", name, err)
		}
		st2, err := Open(Config{Path: path, Geometry: g, Reset: true})
		if err != nil {
			t.Fatalf("%s: Reset of an arena in another layout: %v", name, err)
		}
		if st2.Epoch() <= epoch {
			t.Errorf("%s: Reset lost the epoch lineage: %d -> %d", name, epoch, st2.Epoch())
		}
		buf := make([]oram.Slot, g.BucketSize(g.Levels()-1))
		if err := st2.ReadBucket(g.Levels()-1, 0, buf); err != nil || buf[0].ID != oram.DummyID {
			t.Errorf("%s: reset arena does not serve a fresh tree: %v, %+v", name, err, buf[0])
		}
		st2.Close()
	}
}

// TestNotAnArena: garbage files are refused by magic.
func TestNotAnArena(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, bytes.Repeat([]byte{0x42}, 4096), 0o644); err != nil {
		t.Fatal(err)
	}
	g := testGeometry(t, 3, 4, 16)
	if _, err := Open(Config{Path: path, Geometry: g}); !errors.Is(err, ErrMismatch) {
		t.Fatalf("garbage file opened as a bucket arena: %v", err)
	}
}

// TestMisplacedSpanRefused: a valid span image copied onto another span's
// slot — what a stale table entry, or a slot reused under a read, hands
// the demand path — is refused as misplaced, not decoded as the other
// bucket's blocks; the spans around it still serve.
func TestMisplacedSpanRefused(t *testing.T) {
	g := testGeometry(t, 7, 4, 16)
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	lvl := g.Levels() - 1
	for node := uint64(0); node < 1<<uint(lvl); node++ {
		if err := st.WriteBucket(lvl, node, taggedBucket(g, lvl, node, 1)); err != nil {
			t.Fatal(err)
		}
	}
	tr := &st.tiers[len(st.tiers)-1]
	const from, to = 3, 9 // leaf-tier span roots
	src := readFileRange(t, path, st.recOff(tr.lo, from), tr.size)
	dst := st.recOff(tr.lo, to)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	writeFileRange(t, path, dst, src)
	st2, err := Open(Config{Path: path, Geometry: g})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Abandon()
	got := make([]oram.Slot, g.BucketSize(lvl))
	for node := uint64(0); node < 1<<uint(lvl); node++ {
		err := st2.ReadBucket(lvl, node, got)
		switch root := node >> uint(lvl-tr.lo); {
		case root == to && (err == nil || !strings.Contains(err.Error(), "misplaced")):
			t.Fatalf("bucket (%d,%d) read from span %d's image: %v, %+v", lvl, node, from, err, got)
		case root != to && err != nil:
			t.Fatalf("bucket (%d,%d) of an intact span: %v", lvl, node, err)
		case root != to && !slotsEqual(got, taggedBucket(g, lvl, node, 1)):
			t.Fatalf("bucket (%d,%d) of an intact span diverged", lvl, node)
		}
	}
}

// TestTamperedRecordIsErrAuth: a sealed slot altered on disk by someone
// who also fixes the record's CRC — which guards against torn writes, not
// against the server — gets past the CRC and is stopped by the sealer:
// the read fails with crypto.ErrAuth.
func TestTamperedRecordIsErrAuth(t *testing.T) {
	g := testGeometry(t, 3, 4, 32)
	path := filepath.Join(t.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g, Sealer: newTestSealer(t)})
	if err != nil {
		t.Fatal(err)
	}
	src := make([]oram.Slot, g.BucketSize(1))
	for k := range src {
		src[k] = oram.Slot{ID: oram.BlockID(k + 1), Leaf: 2, Payload: bytes.Repeat([]byte{byte(k)}, 32)}
	}
	if err := st.WriteBucket(1, 1, src); err != nil {
		t.Fatal(err)
	}
	off, n := st.recOff(1, 1), recLen(g.BucketSize(1), st.stride)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rec := readFileRange(t, path, off, n)
	rec[slotMeta+20] ^= 0x01 // slot 0's ciphertext
	stampRecord(rec, bucketKey(1, 1))
	writeFileRange(t, path, off, rec)

	st2, err := Open(Config{Path: path, Geometry: g, Sealer: newTestSealer(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Abandon()
	err = st2.ReadBucket(1, 1, make([]oram.Slot, g.BucketSize(1)))
	if !errors.Is(err, crypto.ErrAuth) {
		t.Fatalf("reading a tampered sealed record: err = %v, want crypto.ErrAuth", err)
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

// TestOldSealedArenaRefused: an arena and a snapshot written at the old
// sealed stride (BlockSize+32) are refused up front by a store sealed at
// today's (BlockSize+28) — at Open from the header, at Load from the
// snapshot preamble — without a single slot being opened.
func TestOldSealedArenaRefused(t *testing.T) {
	g := testGeometry(t, 3, 4, 16)
	path := filepath.Join(t.TempDir(), "tree.laor")
	old, err := Open(Config{Path: path, Geometry: g, Sealer: &strideSealer{overhead: 32}})
	if err != nil {
		t.Fatal(err)
	}
	dirtyBuckets(t, old, g, 4)
	var snap bytes.Buffer
	if err := old.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if err := old.Close(); err != nil {
		t.Fatal(err)
	}

	now := &strideSealer{overhead: crypto.Overhead}
	_, err = Open(Config{Path: path, Geometry: g, Sealer: now})
	if err == nil || !strings.Contains(err.Error(), "arena stride 48 != 44 (sealing mismatch?)") {
		t.Fatalf("opening a BlockSize+32 arena: err = %v, want the stride mismatch", err)
	}

	fresh, err := Open(Config{Path: filepath.Join(t.TempDir(), "fresh.laor"), Geometry: g, Sealer: now})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	err = fresh.Load(bytes.NewReader(snap.Bytes()))
	if err == nil || !strings.Contains(err.Error(), "snapshot stride 48 != 44 (sealing mismatch?)") {
		t.Fatalf("loading a BlockSize+32 snapshot: err = %v, want the stride mismatch", err)
	}
	if now.opens != 0 {
		t.Errorf("%d slots opened from files that were refused", now.opens)
	}
}

// FuzzOpenArena opens an arena whose header and span table were mutated:
// the fuzz bytes are XORed in from an offset into the two (header first,
// then the table, wrapping), and the table's CRC is optionally re-stamped
// for the header's epoch so that a mutation reaches the range and sharing
// checks behind it. The arena was synced after its spans moved, so its
// table is not the identity and its free slots hold older images. Open must
// fail with one of the package's errors, or serve: every bucket then reads
// back CRC-valid or is refused as torn or misplaced. Nothing panics.
func FuzzOpenArena(f *testing.F) {
	g := testGeometry(f, 5, 4, 16)
	path := filepath.Join(f.TempDir(), "tree.laor")
	st, err := Open(Config{Path: path, Geometry: g, MemBudget: 1})
	if err != nil {
		f.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	bufs := pathBufs(g)
	for range 64 {
		leaf := oram.Leaf(rng.Intn(int(g.Leaves())))
		if err := st.ReadPath(leaf, bufs); err != nil {
			f.Fatal(err)
		}
		for lvl := range bufs {
			bufs[lvl] = taggedBucket(g, lvl, g.NodeAt(leaf, lvl), byte(rng.Intn(256)))
		}
		if err := st.WritePath(leaf, bufs); err != nil {
			f.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		f.Fatal(err)
	}
	base, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	tabAt := tableOff(st.tiers)
	if identity := slices.Equal(st.tiers[1].slot, []uint32{0, 1, 2, 3}); identity {
		f.Fatal("the fuzzed arena's leaf tier still has the identity table")
	}

	f.Add(uint16(16), []byte{1}, false)                     // the clean flag
	f.Add(uint16(8), []byte{0, 0, 0, 0, 0, 0, 0, 1}, false) // the epoch
	f.Add(uint16(7), []byte{'3' ^ '2'}, false)              // LAORDSK2
	f.Add(uint16(headerLen+4), []byte{1}, true)             // a leaf-tier slot, re-stamped
	f.Add(uint16(headerLen+4), []byte{0, 0, 0, 0x80}, true)
	f.Fuzz(func(t *testing.T, at uint16, xor []byte, restamp bool) {
		img := slices.Clone(base)
		region := headerLen + tableLen(st.tiers)
		for i, b := range xor {
			v := (int(at) + i) % region
			if v >= headerLen {
				v += int(tabAt) - headerLen
			}
			img[v] ^= b
		}
		if restamp {
			entries := img[tabAt : len(img)-crcLen]
			epoch := binary.BigEndian.Uint64(img[8:16])
			binary.LittleEndian.PutUint32(img[len(img)-crcLen:], keyed(crc32.ChecksumIEEE(entries), epoch))
		}
		p := filepath.Join(t.TempDir(), "tree.laor")
		if err := os.WriteFile(p, img, 0o644); err != nil {
			t.Fatal(err)
		}
		fuzzed, err := Open(Config{Path: p, Geometry: g})
		if err != nil {
			for _, typed := range []error{ErrUnclean, ErrLayout, ErrTable, ErrMismatch} {
				if errors.Is(err, typed) {
					return
				}
			}
			t.Fatalf("untyped error: %v", err)
		}
		defer fuzzed.Abandon()
		for lvl := 0; lvl < g.Levels(); lvl++ {
			dst := make([]oram.Slot, g.BucketSize(lvl))
			for node := uint64(0); node < 1<<uint(lvl); node++ {
				if err := fuzzed.ReadBucket(lvl, node, dst); err != nil && !strings.Contains(err.Error(), "torn or misplaced") {
					t.Fatalf("bucket (%d,%d): %v", lvl, node, err)
				}
			}
		}
	})
}
