package oram

import (
	"bytes"
	"crypto/sha256"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"
)

// raceBuild reports whether the test binary was built with -race, read from
// the build settings rather than from the slab bodies' own build tags.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestSlabAllocator pins which body each build uses — mapped under
// linux && !race, the heap everywhere else — and that a fresh slab of either
// kind is exactly n zeroed, writable bytes.
func TestSlabAllocator(t *testing.T) {
	if want := runtime.GOOS == "linux" && !raceBuild(); slabMapped != want {
		t.Fatalf("slabMapped = %v on %s (race %v), want %v", slabMapped, runtime.GOOS, raceBuild(), want)
	}
	for _, n := range []int64{1, 4096 + 7, minMappedSlab, 3*minMappedSlab + 5} {
		s, err := newSlab(n)
		if err != nil {
			t.Fatalf("newSlab(%d): %v", n, err)
		}
		switch mapped := mappedBytes.Load(); {
		case !slabMapped && mapped != 0:
			t.Errorf("heap build has %d bytes mapped", mapped)
		case slabMapped && n >= minMappedSlab && mapped < n:
			t.Errorf("newSlab(%d) in a mapping build: only %d bytes mapped", n, mapped)
		}
		if int64(len(s.b)) != n || int64(cap(s.b)) != n {
			t.Fatalf("newSlab(%d): len %d cap %d", n, len(s.b), cap(s.b))
		}
		for i, c := range s.b {
			if c != 0 {
				t.Fatalf("newSlab(%d): byte %d is %#x, want 0", n, i, c)
			}
		}
		for i := range s.b {
			s.b[i] = byte(i * 7)
		}
		for i, c := range s.b {
			if c != byte(i*7) {
				t.Fatalf("newSlab(%d): byte %d reads %#x after writing %#x", n, i, c, byte(i*7))
			}
		}
		runtime.KeepAlive(s)
	}
}

// TestPayloadStoreGuardCountsMetadata: the 8 GiB guard is on the whole slab.
// This tree's 128-B arena alone fits under it; its 16 B/slot of metadata
// (12.5 % more) does not.
func TestPayloadStoreGuardCountsMetadata(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 23, LeafZ: 4, BlockSize: 128})
	if arena := g.TotalSlots() * 128; arena > maxTree {
		t.Fatalf("test arena %d bytes is over the guard by itself", arena)
	}
	if _, err := NewPayloadStore(g, nil); err == nil || !strings.Contains(err.Error(), "of metadata") {
		t.Fatalf("NewPayloadStore = %v, want the guard's error", err)
	}
}

// awaitUnmapped collects until the mapped-byte counter is back at or below
// base. Cleanups run on their own goroutine after the cycle that finds their
// slab unreachable, so it polls against a deadline.
func awaitUnmapped(t *testing.T, base int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if mappedBytes.Load() <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d bytes still mapped 10 s after their stores became unreachable (baseline %d)", mappedBytes.Load(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSlabReleasedWhenUnreachable builds and drops 32 PayloadStores of
// ≥ 8 MiB each: every one is mapped while it lives, and all of it is unmapped
// once the collector finds the stores unreachable.
func TestSlabReleasedWhenUnreachable(t *testing.T) {
	if !slabMapped {
		t.Skip("this build takes slabs from the heap")
	}
	g := MustGeometry(GeometryConfig{LeafBits: 12, LeafZ: 4, BlockSize: 256})
	size := g.TotalSlots() * (256 + recordSize)
	if size < 8<<20 {
		t.Fatalf("test tree is %d bytes, want ≥ 8 MiB", size)
	}
	base := mappedBytes.Load()
	for i := range 32 {
		st, err := NewPayloadStore(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WriteSlot(g.Levels()-1, uint64(i), 0, Slot{ID: BlockID(i), Leaf: Leaf(i), Payload: bytes.Repeat([]byte{byte(i)}, 256)}); err != nil {
			t.Fatal(err)
		}
		if m := mappedBytes.Load(); m < size {
			t.Fatalf("store %d live with only %d bytes mapped", i, m)
		}
	}
	awaitUnmapped(t, base)
}

// TestSlabViewsDoNotOutliveStore holds the aliasing rule: nothing a store
// hands out — payloads from ReadBucket (into fresh slices and into the
// caller's), ReadPath and ReadBuckets, or the bytes Save writes — is a view of
// its slab, so all of it stays intact after the store is collected and its
// mapping released. A view that escaped would fault when read here.
func TestSlabViewsDoNotOutliveStore(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 10, LeafZ: 4, BlockSize: 256})
	if g.TotalSlots()*(256+recordSize) < minMappedSlab {
		t.Fatal("test tree too small to be mapped")
	}
	base := mappedBytes.Load()
	st, err := NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	const leaf = Leaf(77)
	want := make([][]Slot, g.Levels())
	var refs []BucketRef
	for lvl := range want {
		want[lvl] = make([]Slot, g.BucketSize(lvl))
		for k := range want[lvl] {
			want[lvl][k] = Slot{ID: BlockID(lvl*10 + k), Leaf: leaf, Payload: bytes.Repeat([]byte{byte(lvl*10 + k + 1)}, 256)}
		}
		refs = append(refs, BucketRef{Level: lvl, Node: g.NodeAt(leaf, lvl)})
	}
	if err := st.WritePath(leaf, want); err != nil {
		t.Fatal(err)
	}
	bufs := func(prealloc bool) [][]Slot {
		out := make([][]Slot, g.Levels())
		for lvl := range out {
			out[lvl] = make([]Slot, g.BucketSize(lvl))
			if prealloc {
				for k := range out[lvl] {
					out[lvl][k].Payload = make([]byte, 256)
				}
			}
		}
		return out
	}
	fresh, into, path, ranged := bufs(false), bufs(true), bufs(false), bufs(false)
	for i, r := range refs {
		if err := st.ReadBucket(r.Level, r.Node, fresh[i]); err != nil {
			t.Fatal(err)
		}
		if err := st.ReadBucket(r.Level, r.Node, into[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.ReadPath(leaf, path); err != nil {
		t.Fatal(err)
	}
	if err := st.ReadBuckets(refs, ranged); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := st.Save(&snap); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(snap.Bytes())

	st = nil
	if slabMapped {
		awaitUnmapped(t, base)
	} else {
		runtime.GC()
	}
	for name, got := range map[string][][]Slot{"ReadBucket": fresh, "ReadBucket into buffers": into, "ReadPath": path, "ReadBuckets": ranged} {
		for lvl := range want {
			for k, w := range want[lvl] {
				if g := got[lvl][k]; g.ID != w.ID || g.Leaf != w.Leaf || !bytes.Equal(g.Payload, w.Payload) {
					t.Errorf("%s: level %d slot %d changed after its store was released", name, lvl, k)
				}
			}
		}
	}
	if sha256.Sum256(snap.Bytes()) != sum {
		t.Error("Save's bytes changed after the store was released")
	}
}
