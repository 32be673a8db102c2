package oram

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// stashslab_test.go checks the slab-backed stash against a trivially
// correct reference (a plain map of copied values) over randomised op
// sequences, and pins the payload-ownership contract: the stash copies on
// Put/SetPayload, so no buffer a caller hands in — or mutates afterwards —
// can change stash contents, and slab-slot recycling never bleeds one
// block's bytes into another's.

// refStash is the obviously-correct model the slab must match.
type refStash struct {
	leaf    map[BlockID]Leaf
	payload map[BlockID][]byte
}

func newRefStash() *refStash {
	return &refStash{leaf: make(map[BlockID]Leaf), payload: make(map[BlockID][]byte)}
}

func (r *refStash) put(id BlockID, leaf Leaf, p []byte) {
	r.leaf[id] = leaf
	if p == nil {
		r.payload[id] = nil
	} else {
		r.payload[id] = append([]byte(nil), p...)
	}
}

func (r *refStash) remove(id BlockID) {
	delete(r.leaf, id)
	delete(r.payload, id)
}

// TestQuickSlabMatchesMapStash drives both implementations with the same
// random op sequence (put / set-leaf / set-payload / remove / a marked set
// of slab slots removed at once, with payload buffers deliberately mutated
// after each call) and compares full contents. A marked removal takes a third
// of the stash or most of it, so that it runs both ways — deleting each
// removed block's cell, and packing the survivors under a rebuilt index —
// and moves at most one survivor per removed block.
func TestQuickSlabMatchesMapStash(t *testing.T) {
	var deleted, packed int
	f := func(seed int64, steps uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStash()
		ref := newRefStash()
		scratch := make([]byte, 32)
		n := int(steps) + 32
		for i := 0; i < n; i++ {
			id := BlockID(rng.Intn(24)) // small ID space forces collisions & reuse
			leaf := Leaf(rng.Intn(64))
			var p []byte
			if rng.Intn(4) > 0 {
				p = scratch[:1+rng.Intn(31)]
				rng.Read(p)
			}
			switch rng.Intn(6) {
			case 0, 1:
				if err := s.Put(id, leaf, p); err != nil {
					return false
				}
				ref.put(id, leaf, p)
			case 2:
				ok := s.SetLeaf(id, leaf)
				if _, exists := ref.leaf[id]; exists != ok {
					return false
				}
				if ok {
					ref.leaf[id] = leaf
				}
			case 3:
				ok := s.SetPayload(id, p)
				if _, exists := ref.leaf[id]; exists != ok {
					return false
				}
				if ok {
					if p == nil {
						ref.payload[id] = nil
					} else {
						ref.payload[id] = append([]byte(nil), p...)
					}
				}
			case 4:
				s.Remove(id)
				ref.remove(id)
			case 5: // a write-back's removal: random slab slots at once
				marked := make([]bool, s.Len())
				was := make(map[BlockID]int)
				removed, most := 0, rng.Intn(2) == 0
				for slot := range marked {
					if most {
						marked[slot] = rng.Intn(6) > 0
					} else {
						marked[slot] = rng.Intn(3) == 0
					}
					if marked[slot] {
						ref.remove(s.entries[slot].id)
						removed++
					} else {
						was[s.entries[slot].id] = slot
					}
				}
				if 2*removed > len(marked)+minIndexCells/16 {
					packed++
				} else if removed > 0 {
					deleted++
				}
				s.removeMarked(marked, removed)
				checkIndex(t, s)
				// Only survivors that fill a hole move: at most one per
				// removed block.
				moved := 0
				for id, slot := range was {
					if s.slot(id) != slot {
						moved++
					}
				}
				if moved > removed {
					t.Logf("removeMarked moved %d survivors for %d removed blocks", moved, removed)
					return false
				}
			}
			// The caller's buffer is scribbled over after every op: if the
			// stash aliased it instead of copying, contents would drift.
			rng.Read(scratch)
		}
		if s.Len() != len(ref.leaf) {
			return false
		}
		for id, wantLeaf := range ref.leaf {
			gotLeaf, ok := s.Leaf(id)
			if !ok || gotLeaf != wantLeaf {
				return false
			}
			gotP, ok := s.Payload(id)
			if !ok || !bytes.Equal(gotP, ref.payload[id]) {
				return false
			}
			if (gotP == nil) != (ref.payload[id] == nil) {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(41))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
	if deleted == 0 || packed == 0 {
		t.Errorf("marked removals deleted cells %d times and packed %d times; want both > 0", deleted, packed)
	}
}

// checkIndex verifies the open-addressed index against the slab: every
// stashed block is found at its slot, nothing else occupies a cell, and the
// table is at most half full. It reports whether some probe chain currently
// wraps around the end of the table.
func checkIndex(t *testing.T, s *Stash) (wrapped bool) {
	t.Helper()
	x := &s.index
	if len(x.cells)&(len(x.cells)-1) != 0 || 2*len(s.entries) > len(x.cells) {
		t.Fatalf("index has %d cells for %d blocks, want a power of two at most half full", len(x.cells), len(s.entries))
	}
	for i := range s.entries {
		pos, ok := x.find(s.entries[i].id)
		if !ok || int(x.cells[pos].slot-1) != i {
			t.Fatalf("block %d in slab slot %d: index finds %v at cell %d -> slot %d", s.entries[i].id, i, ok, pos, x.cells[pos].slot-1)
		}
	}
	occupied := 0
	for pos, c := range x.cells {
		if c.slot != 0 {
			occupied++
			wrapped = wrapped || x.home(c.id) > pos
		}
	}
	if occupied != len(s.entries) {
		t.Fatalf("index holds %d cells for %d blocks", occupied, len(s.entries))
	}
	return wrapped
}

// TestQuickIndexMatchesMap is TestQuickSlabMatchesMapStash's twin for the
// open-addressed index: random Put / replace / SetLeaf / Contains / Remove over
// an id pool built to hurt — ids equal in their low 32 and low 48 bits, dense
// small ids, and ids chosen so that their home is one of the last two cells of
// every table size the run passes through — with the stash swinging between
// empty and several hundred blocks, so the table grows more than once, probe
// chains run around its end and backward-shift deletes move cells across the
// wrap. After every step Len, Peak, IDs (as a set), every leaf and every
// payload agree with the map model and the index is consistent with the slab.
func TestQuickIndexMatchesMap(t *testing.T) {
	var pool []BlockID
	for k := uint64(1); k <= 150; k++ {
		pool = append(pool, BlockID(k), BlockID(k<<32), BlockID(k<<48|7))
	}
	for size := minIndexCells; size <= 2048; size *= 2 {
		var x stashIndex
		x.rebuild(size, nil)
		for id, n := BlockID(1<<20), 0; n < 24; id++ {
			if x.home(id) >= size-2 {
				pool = append(pool, id)
				n++
			}
		}
	}
	sawWrap, sawWrapDelete, sawGrowth := false, false, 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewStash()
		ref := newRefStash()
		peak, cells := 0, len(s.index.cells)
		scratch := make([]byte, 16)
		for step := 0; step < 4000; step++ {
			id := pool[rng.Intn(len(pool))]
			leaf := Leaf(rng.Intn(1 << 12))
			// Long growing and long draining phases, so that the stash swings.
			grow := (step/500)%2 == 0
			switch op := rng.Intn(10); {
			case op < 5 && grow, op < 2:
				p := scratch[:1+rng.Intn(15)]
				rng.Read(p)
				if err := s.Put(id, leaf, p); err != nil {
					return false
				}
				ref.put(id, leaf, p)
				rng.Read(scratch)
			case op < 7:
				wrapped := checkIndex(t, s)
				_, exists := ref.leaf[id]
				s.Remove(id)
				ref.remove(id)
				sawWrapDelete = sawWrapDelete || wrapped && exists
			case op < 8:
				_, exists := ref.leaf[id]
				if s.SetLeaf(id, leaf) != exists {
					return false
				}
				if exists {
					ref.leaf[id] = leaf
				}
			default:
				if _, exists := ref.leaf[id]; s.Contains(id) != exists {
					return false
				}
			}
			peak = max(peak, len(ref.leaf))
			if s.Len() != len(ref.leaf) || s.Peak() != peak {
				t.Logf("step %d: Len %d Peak %d, model %d / %d", step, s.Len(), s.Peak(), len(ref.leaf), peak)
				return false
			}
			sawWrap = checkIndex(t, s) || sawWrap
			if len(s.index.cells) != cells {
				cells = len(s.index.cells)
				sawGrowth++
			}
			ids := s.IDs()
			if len(ids) != len(ref.leaf) {
				return false
			}
			for _, id := range ids {
				wantLeaf, ok := ref.leaf[id]
				gotLeaf, _ := s.Leaf(id)
				gotP, _ := s.Payload(id)
				if !ok || gotLeaf != wantLeaf || !bytes.Equal(gotP, ref.payload[id]) {
					t.Logf("step %d: block %d = (%d, %x), model (%v %d, %x)", step, id, gotLeaf, gotP, ok, wantLeaf, ref.payload[id])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12, Rand: rand.New(rand.NewSource(43))}); err != nil {
		t.Error(err)
	}
	if !sawWrap || !sawWrapDelete || sawGrowth < 3 {
		t.Errorf("the run never reached what it is for: wrapped chain %v, delete under a wrapped chain %v, table growths %d",
			sawWrap, sawWrapDelete, sawGrowth)
	}
}

// TestStashSlabRecycling: Remove + re-Put cycles reuse slab slots without
// the recycled buffer leaking a previous block's payload.
func TestStashSlabRecycling(t *testing.T) {
	s := NewStash()
	big := bytes.Repeat([]byte{0xAA}, 64)
	if err := s.Put(1, 0, big); err != nil {
		t.Fatal(err)
	}
	s.Remove(1)
	small := []byte{0x01, 0x02}
	if err := s.Put(2, 0, small); err != nil {
		t.Fatal(err)
	}
	p, ok := s.Payload(2)
	if !ok || !bytes.Equal(p, small) {
		t.Fatalf("recycled payload = %x, want %x", p, small)
	}
	if len(s.entries) != 1 {
		t.Errorf("slab grew to %d entries for serial reuse, want 1", len(s.entries))
	}
	// nil payload after a buffered one must read back as nil.
	if !s.SetPayload(2, nil) {
		t.Fatal("SetPayload failed")
	}
	if p, ok := s.Payload(2); !ok || p != nil {
		t.Errorf("nil payload read back as %v", p)
	}
}

// TestStashPutCopies is the aliasing regression the refactor is pinned by:
// mutating the buffer passed to Put/SetPayload after the call must not
// change what the stash returns.
func TestStashPutCopies(t *testing.T) {
	s := NewStash()
	buf := []byte{1, 2, 3, 4}
	if err := s.Put(7, 3, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99
	if p, _ := s.Payload(7); p[0] != 1 {
		t.Errorf("stash aliased the Put buffer: got %v", p)
	}
	buf2 := []byte{5, 6, 7, 8}
	s.SetPayload(7, buf2)
	buf2[3] = 42
	if p, _ := s.Payload(7); p[3] != 8 {
		t.Errorf("stash aliased the SetPayload buffer: got %v", p)
	}
	// Self-aliasing: writing a block's own live payload back is a no-op.
	p, _ := s.Payload(7)
	s.SetPayload(7, p)
	if got, _ := s.Payload(7); !bytes.Equal(got, []byte{5, 6, 7, 8}) {
		t.Errorf("self-aliased SetPayload corrupted payload: %v", got)
	}
}
