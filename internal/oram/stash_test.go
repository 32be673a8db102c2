package oram

import (
	"math/rand"
	"testing"
)

// writtenPlan runs WriteBackPath(target) on a client holding a copy of s's
// blocks over a recording store, and returns the ids written into each level
// of the path. s is left as it was. The path must go out root first, one
// bucket per level.
func writtenPlan(t *testing.T, s *Stash, g *Geometry, target Leaf) [][]BlockID {
	t.Helper()
	st := &recStore{g: g}
	c, err := NewClient(ClientConfig{Store: st, Rand: rand.New(rand.NewSource(1)), Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range s.IDs() {
		leaf, _ := s.Leaf(id)
		p, _ := s.Payload(id)
		if err := c.stash.Put(id, leaf, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.WriteBackPath(target); err != nil {
		t.Fatal(err)
	}
	if len(st.writes) != g.Levels() {
		t.Fatalf("WriteBackPath wrote %d buckets, want %d", len(st.writes), g.Levels())
	}
	plan := make([][]BlockID, g.Levels())
	for lvl, w := range st.writes {
		if want := (BucketRef{Level: lvl, Node: g.NodeAt(target, lvl)}); w.ref != want {
			t.Fatalf("write %d went to %+v, want %+v", lvl, w.ref, want)
		}
		for _, sl := range w.slots {
			if !sl.Dummy() {
				plan[lvl] = append(plan[lvl], sl.ID)
			}
		}
	}
	return plan
}

func TestStashBasics(t *testing.T) {
	s := NewStash()
	if s.Len() != 0 || s.Peak() != 0 {
		t.Fatal("new stash not empty")
	}
	if err := s.Put(DummyID, 0, nil); err == nil {
		t.Error("dummy accepted into stash")
	}
	if err := s.Put(5, 3, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(9, 1, nil); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 || s.Peak() != 2 {
		t.Errorf("len=%d peak=%d, want 2/2", s.Len(), s.Peak())
	}
	if !s.Contains(5) || s.Contains(6) {
		t.Error("Contains wrong")
	}
	if l, ok := s.Leaf(5); !ok || l != 3 {
		t.Errorf("Leaf(5) = %d,%v", l, ok)
	}
	if _, ok := s.Leaf(1234); ok {
		t.Error("Leaf of absent block reported present")
	}
	if p, ok := s.Payload(5); !ok || len(p) != 1 || p[0] != 1 {
		t.Errorf("Payload(5) = %v,%v", p, ok)
	}
	if !s.SetLeaf(5, 7) {
		t.Error("SetLeaf failed")
	}
	if l, _ := s.Leaf(5); l != 7 {
		t.Errorf("leaf after SetLeaf = %d", l)
	}
	if s.SetLeaf(77, 0) || s.SetPayload(77, nil) {
		t.Error("mutators on absent block succeeded")
	}
	// Re-put updates in place without growing.
	if err := s.Put(5, 2, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Errorf("re-put grew stash to %d", s.Len())
	}
	s.Remove(5)
	if s.Contains(5) || s.Len() != 1 {
		t.Error("Remove failed")
	}
	if s.Peak() != 2 {
		t.Errorf("peak lost: %d", s.Peak())
	}
	s.ResetPeak()
	if s.Peak() != 1 {
		t.Errorf("ResetPeak: %d", s.Peak())
	}
	ids := s.IDs()
	if len(ids) != 1 || ids[0] != 9 {
		t.Errorf("IDs = %v", ids)
	}
}

// TestEvictPlanRespectsConstraints checks the two safety properties of the
// greedy write-back of one path (WriteBackPath): bucket capacities are
// honoured, and a block is only written at a level where its assigned path
// and the target path share a node.
func TestEvictPlanRespectsConstraints(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 6, LeafZ: 2, BlockSize: 0})
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		s := NewStash()
		n := rng.Intn(40)
		for i := 0; i < n; i++ {
			id := BlockID(rng.Intn(1000))
			leaf := Leaf(rng.Int63n(int64(g.Leaves())))
			if err := s.Put(id, leaf, nil); err != nil {
				t.Fatal(err)
			}
		}
		target := Leaf(rng.Int63n(int64(g.Leaves())))
		plan := writtenPlan(t, s, g, target)
		if len(plan) != g.Levels() {
			t.Fatalf("plan has %d levels, want %d", len(plan), g.Levels())
		}
		seen := make(map[BlockID]bool)
		for lvl, ids := range plan {
			if len(ids) > g.BucketSize(lvl) {
				t.Fatalf("level %d overfilled: %d > %d", lvl, len(ids), g.BucketSize(lvl))
			}
			for _, id := range ids {
				if seen[id] {
					t.Fatalf("block %d planned twice", id)
				}
				seen[id] = true
				bl, ok := s.Leaf(id)
				if !ok {
					t.Fatalf("planned block %d not in stash", id)
				}
				if g.CommonLevel(target, bl) < lvl {
					t.Fatalf("block %d (leaf %d) planned too deep (level %d, common %d)",
						id, bl, lvl, g.CommonLevel(target, bl))
				}
			}
		}
	}
}

// TestEvictPlanGreedyDepth: with one block whose leaf equals the target and
// room everywhere, WriteBackPath must place it at the deepest (leaf) level.
func TestEvictPlanGreedyDepth(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 4, LeafZ: 2, BlockSize: 0})
	s := NewStash()
	if err := s.Put(1, 9, nil); err != nil {
		t.Fatal(err)
	}
	plan := writtenPlan(t, s, g, 9)
	if len(plan[g.LeafBits()]) != 1 || plan[g.LeafBits()][0] != 1 {
		t.Errorf("block not placed at leaf: %v", plan)
	}
	// A block with no common prefix with the target can only go at root.
	s2 := NewStash()
	if err := s2.Put(2, 0x0, nil); err != nil { // leaf 0b0000
		t.Fatal(err)
	}
	plan2 := writtenPlan(t, s2, g, 0x8) // leaf 0b1000: disagree at level 1
	if len(plan2[0]) != 1 {
		t.Errorf("expected root placement, got %v", plan2)
	}
	for lvl := 1; lvl < g.Levels(); lvl++ {
		if len(plan2[lvl]) != 0 {
			t.Errorf("level %d unexpectedly used: %v", lvl, plan2[lvl])
		}
	}
}

// TestEvictPlanSpill: overfill the deepest level and verify the overflow
// spills toward the root instead of being dropped.
func TestEvictPlanSpill(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 3, LeafZ: 1, BlockSize: 0})
	s := NewStash()
	// Four blocks all assigned exactly the target leaf; leaf bucket holds
	// one, so three must spill upward across levels 2,1,0.
	for i := BlockID(0); i < 4; i++ {
		if err := s.Put(i, 5, nil); err != nil {
			t.Fatal(err)
		}
	}
	plan := writtenPlan(t, s, g, 5)
	total := 0
	for lvl, ids := range plan {
		if len(ids) > g.BucketSize(lvl) {
			t.Fatalf("level %d overfilled", lvl)
		}
		total += len(ids)
	}
	if total != 4 {
		t.Errorf("placed %d of 4 blocks", total)
	}
}

// TestEvictPlanDeterministic: two stashes with identical contents built in
// opposite orders must be written back identically (slab order must not
// leak through).
func TestEvictPlanDeterministic(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 5, LeafZ: 2, BlockSize: 0})
	build := func(order []int) *Stash {
		s := NewStash()
		for _, i := range order {
			if err := s.Put(BlockID(i), Leaf(i*7%32), nil); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	fwd := make([]int, 64)
	rev := make([]int, 64)
	for i := range fwd {
		fwd[i] = i
		rev[i] = 63 - i
	}
	p1 := writtenPlan(t, build(fwd), g, 13)
	p2 := writtenPlan(t, build(rev), g, 13)
	for lvl := range p1 {
		if len(p1[lvl]) != len(p2[lvl]) {
			t.Fatalf("level %d: lengths differ", lvl)
		}
		for i := range p1[lvl] {
			if p1[lvl][i] != p2[lvl][i] {
				t.Fatalf("level %d slot %d: %d vs %d", lvl, i, p1[lvl][i], p2[lvl][i])
			}
		}
	}
}
