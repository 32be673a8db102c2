package oram

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestQuickGeometrySlotIndexInjective: for random geometries, slot indices
// are unique and dense across the tree.
func TestQuickGeometrySlotIndexInjective(t *testing.T) {
	f := func(leafBitsRaw, leafZRaw, rootZRaw uint8, profRaw uint8) bool {
		leafBits := 1 + int(leafBitsRaw%7) // 1..7
		leafZ := 1 + int(leafZRaw%6)       // 1..6
		rootZ := leafZ + int(rootZRaw%8)   // leafZ..leafZ+7
		prof := Profile(profRaw % 4)
		g, err := NewGeometry(GeometryConfig{
			LeafBits: leafBits, LeafZ: leafZ, RootZ: rootZ, Profile: prof, BlockSize: 64,
		})
		if err != nil {
			return false
		}
		seen := make(map[int64]bool, g.TotalSlots())
		for lvl := 0; lvl < g.Levels(); lvl++ {
			for node := uint64(0); node < 1<<uint(lvl); node++ {
				for s := 0; s < g.BucketSize(lvl); s++ {
					i := g.SlotIndex(lvl, node, s)
					if i < 0 || i >= g.TotalSlots() || seen[i] {
						return false
					}
					seen[i] = true
				}
			}
		}
		return int64(len(seen)) == g.TotalSlots()
	}
	cfg := &quick.Config{MaxCount: 100, Rand: rand.New(rand.NewSource(3))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickPosMapRoundTrip: Set/Get round-trips arbitrary leaves and the
// NoLeaf sentinel.
func TestQuickPosMapRoundTrip(t *testing.T) {
	pm := NewPosMap(1 << 12)
	f := func(idRaw uint16, leafRaw uint32, clear bool) bool {
		id := BlockID(uint64(idRaw) % pm.Len())
		if clear {
			pm.Set(id, NoLeaf)
			return pm.Get(id) == NoLeaf
		}
		leaf := Leaf(leafRaw % (1 << 24))
		pm.Set(id, leaf)
		return pm.Get(id) == leaf
	}
	cfg := &quick.Config{MaxCount: 3000, Rand: rand.New(rand.NewSource(4))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickBulkLoadConservation: for random table sizes, Load places every
// block exactly once on its assigned path.
func TestQuickBulkLoadConservation(t *testing.T) {
	f := func(nRaw uint16, seed int64) bool {
		n := 16 + uint64(nRaw%1000)
		g, err := NewGeometry(GeometryConfig{LeafBits: LeafBitsFor(n), LeafZ: 4, BlockSize: 0})
		if err != nil {
			return false
		}
		st := NewMetaStore(g)
		c, err := NewClient(ClientConfig{
			Store: st, Rand: rand.New(rand.NewSource(seed)), StashHits: true, Blocks: n,
		})
		if err != nil {
			return false
		}
		if err := c.Load(n, nil, nil); err != nil {
			return false
		}
		count := make(map[BlockID]int)
		buf := make([]Slot, 4)
		for lvl := 0; lvl < g.Levels(); lvl++ {
			for node := uint64(0); node < 1<<uint(lvl); node++ {
				if err := st.ReadBucket(lvl, node, buf); err != nil {
					return false
				}
				for i := range buf {
					if buf[i].Dummy() {
						continue
					}
					count[buf[i].ID]++
					if g.NodeAt(buf[i].Leaf, lvl) != node {
						return false // off-path placement
					}
				}
			}
		}
		for id := BlockID(0); id < BlockID(n); id++ {
			k := count[id]
			if c.Stash().Contains(id) {
				k++
			}
			if k != 1 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(5))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// faultyStore injects an error after a countdown of operations, testing
// that clients surface failures instead of corrupting state silently.
type faultyStore struct {
	Store
	countdown int
}

var errInjected = errors.New("injected storage fault")

func (f *faultyStore) tick() error {
	f.countdown--
	if f.countdown <= 0 {
		return errInjected
	}
	return nil
}

func (f *faultyStore) ReadBucket(level int, node uint64, dst []Slot) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.Store.ReadBucket(level, node, dst)
}

func (f *faultyStore) WriteBucket(level int, node uint64, src []Slot) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.Store.WriteBucket(level, node, src)
}

func (f *faultyStore) ReadSlot(level int, node uint64, slot int, dst *Slot) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.Store.ReadSlot(level, node, slot, dst)
}

func (f *faultyStore) WriteSlot(level int, node uint64, slot int, src Slot) error {
	if err := f.tick(); err != nil {
		return err
	}
	return f.Store.WriteSlot(level, node, slot, src)
}

// TestFaultInjectionSurfacesErrors: faults at every depth of the access
// path must propagate as errors (never panic, never silent success).
func TestFaultInjectionSurfacesErrors(t *testing.T) {
	const blocks = 64
	for countdown := 1; countdown < 40; countdown += 3 {
		g := MustGeometry(GeometryConfig{LeafBits: 6, LeafZ: 4, BlockSize: 0})
		inner := NewMetaStore(g)
		c, err := NewClient(ClientConfig{
			Store: inner, Rand: rand.New(rand.NewSource(6)), StashHits: true, Blocks: blocks,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Load(blocks, nil, nil); err != nil {
			t.Fatal(err)
		}
		// Swap in the faulty wrapper after loading.
		cf, err := NewClient(ClientConfig{
			Store: &faultyStore{Store: inner, countdown: countdown},
			Rand:  rand.New(rand.NewSource(7)), StashHits: true, Blocks: blocks,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Copy the position map so accesses resolve.
		for id := BlockID(0); id < blocks; id++ {
			cf.PosMap().Set(id, c.PosMap().Get(id))
		}
		var firstErr error
		for i := 0; i < 10 && firstErr == nil; i++ {
			_, firstErr = cf.Access(OpRead, BlockID(i), nil)
		}
		if firstErr == nil {
			t.Fatalf("countdown %d: fault never surfaced", countdown)
		}
		if !errors.Is(firstErr, errInjected) {
			// Wrapped is fine; the chain must reach the injected error.
			if !containsInjected(firstErr) {
				t.Fatalf("countdown %d: error chain lost the cause: %v", countdown, firstErr)
			}
		}
	}
}

func containsInjected(err error) bool {
	for err != nil {
		if errors.Is(err, errInjected) {
			return true
		}
		err = errors.Unwrap(err)
	}
	return false
}

// TestFaultInjectionDuringDummyReads: background eviction faults surface
// too.
func TestFaultInjectionDuringDummyReads(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 6, LeafZ: 1, BlockSize: 0})
	inner := NewMetaStore(g)
	c, err := NewClient(ClientConfig{
		Store:     &faultyStore{Store: inner, countdown: 1 << 30},
		Rand:      rand.New(rand.NewSource(8)),
		Evict:     EvictConfig{Enabled: true, High: 4, Low: 1},
		StashHits: true, Blocks: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(64, nil, nil); err != nil {
		t.Fatal(err)
	}
	fs := c.Store().(*faultyStore)
	fs.countdown = 50 // let a few accesses through, then fail mid-eviction
	var sawErr bool
	for i := 0; i < 200; i++ {
		if _, err := c.Access(OpRead, BlockID(i%64), nil); err != nil {
			sawErr = true
			break
		}
	}
	if !sawErr {
		t.Error("fault during eviction never surfaced")
	}
}

// TestAccessStatsString sanity-checks stat arithmetic under quick-generated
// values.
func TestAccessStatsQuick(t *testing.T) {
	f := func(a, b uint32) bool {
		s := AccessStats{Accesses: uint64(a), DummyReads: uint64(b)}
		got := s.DummyReadsPerAccess()
		if a == 0 {
			return got == 0
		}
		want := float64(b) / float64(a)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}

// TestGeometryStringFormats pins the descriptive formats used in logs.
func TestGeometryStringFormats(t *testing.T) {
	u := MustGeometry(GeometryConfig{LeafBits: 5, LeafZ: 4, BlockSize: 0})
	if want := "tree L=5 Z=4 uniform"; u.String() != want {
		t.Errorf("uniform: %q != %q", u.String(), want)
	}
	f := MustGeometry(GeometryConfig{LeafBits: 5, LeafZ: 4, RootZ: 8, Profile: ProfileLinear, BlockSize: 0})
	if want := fmt.Sprintf("tree L=5 Z=8→4 %v", ProfileLinear); f.String() != want {
		t.Errorf("fat: %q != %q", f.String(), want)
	}
}
