package oram

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLeafBitsFor(t *testing.T) {
	cases := []struct {
		n    uint64
		want int
	}{
		{0, 1}, {1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3},
		{1 << 20, 20}, {1<<20 + 1, 21},
		{8 << 20, 23},  // the paper's 8M configuration
		{16 << 20, 24}, // 16M
		{10131227, 24}, // Kaggle's largest table
		{262144, 18},   // XNLI vocabulary
		{1<<40 - 1, 40}, {1 << 39, 39},
	}
	for _, c := range cases {
		if got := LeafBitsFor(c.n); got != c.want {
			t.Errorf("LeafBitsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestUniformGeometry(t *testing.T) {
	g, err := NewGeometry(GeometryConfig{LeafBits: 4, LeafZ: 4, BlockSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	if g.Levels() != 5 {
		t.Errorf("Levels = %d, want 5", g.Levels())
	}
	if g.Leaves() != 16 {
		t.Errorf("Leaves = %d, want 16", g.Leaves())
	}
	if g.TotalBuckets() != 31 {
		t.Errorf("TotalBuckets = %d, want 31", g.TotalBuckets())
	}
	if g.TotalSlots() != 31*4 {
		t.Errorf("TotalSlots = %d, want %d", g.TotalSlots(), 31*4)
	}
	if g.PathSlots() != 5*4 {
		t.Errorf("PathSlots = %d, want 20", g.PathSlots())
	}
	for lvl := 0; lvl < g.Levels(); lvl++ {
		if g.BucketSize(lvl) != 4 {
			t.Errorf("BucketSize(%d) = %d, want 4", lvl, g.BucketSize(lvl))
		}
	}
}

// TestPaperTable1PathORAMSizes checks Table I's PathORAM server-storage
// column: 8M×128B → ~8 GB, 16M×128B → ~16 GB, Kaggle (10,131,227×128B) →
// ~16 GB. (The XNLI row is known-inconsistent in the paper; see DESIGN.md.)
func TestPaperTable1PathORAMSizes(t *testing.T) {
	cases := []struct {
		name      string
		entries   uint64
		blockSize int
		wantGB    float64
		tolGB     float64
	}{
		{"8M", 8 << 20, 128, 8, 1},
		{"16M", 16 << 20, 128, 16, 2},
		{"Kaggle", 10131227, 128, 16, 2},
	}
	for _, c := range cases {
		g := MustGeometry(GeometryConfig{
			LeafBits:  LeafBitsFor(c.entries),
			LeafZ:     4,
			BlockSize: c.blockSize,
		})
		gotGB := float64(g.ServerBytes()) / (1 << 30)
		if gotGB < c.wantGB-c.tolGB || gotGB > c.wantGB+c.tolGB {
			t.Errorf("%s: server bytes = %.2f GB, want %.0f±%.0f GB", c.name, gotGB, c.wantGB, c.tolGB)
		}
	}
}

// TestFatTreePaperExample checks §V's worked example: leaf bucket 5 with 6
// levels gives bucket sizes 10,9,8,7,6,5 from root to leaf.
func TestFatTreePaperExample(t *testing.T) {
	g, err := NewGeometry(GeometryConfig{
		LeafBits: 5, LeafZ: 5, RootZ: 10, Profile: ProfileLinear, BlockSize: 128,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{10, 9, 8, 7, 6, 5}
	for lvl, w := range want {
		if got := g.BucketSize(lvl); got != w {
			t.Errorf("BucketSize(%d) = %d, want %d", lvl, got, w)
		}
	}
}

func TestFatTreeMemNeutralShape(t *testing.T) {
	// §VIII-C: fat tree 9→5 vs normal Z=6 must use less memory at depth
	// ~20 (paper reports 16.6% less at their scale).
	fat := MustGeometry(GeometryConfig{LeafBits: 20, LeafZ: 5, RootZ: 9, Profile: ProfileLinear, BlockSize: 128})
	wide := MustGeometry(GeometryConfig{LeafBits: 20, LeafZ: 6, BlockSize: 128})
	if fat.ServerBytes() >= wide.ServerBytes() {
		t.Errorf("fat 9→5 (%d B) should use less memory than uniform Z=6 (%d B)", fat.ServerBytes(), wide.ServerBytes())
	}
	saving := 1 - float64(fat.ServerBytes())/float64(wide.ServerBytes())
	if saving < 0.10 || saving > 0.25 {
		t.Errorf("memory saving = %.1f%%, expected roughly the paper's 16.6%% (10-25%% band)", saving*100)
	}
}

func TestProfiles(t *testing.T) {
	step := MustGeometry(GeometryConfig{LeafBits: 7, LeafZ: 4, RootZ: 8, Profile: ProfileStep, BlockSize: 0})
	if step.BucketSize(0) != 8 || step.BucketSize(7) != 4 {
		t.Errorf("step profile ends: root=%d leaf=%d, want 8/4", step.BucketSize(0), step.BucketSize(7))
	}
	exp := MustGeometry(GeometryConfig{LeafBits: 7, LeafZ: 4, RootZ: 16, Profile: ProfileExp, BlockSize: 0})
	if exp.BucketSize(7) != 4 || exp.BucketSize(6) != 8 || exp.BucketSize(5) != 16 || exp.BucketSize(0) != 16 {
		t.Errorf("exp profile = %d,%d,%d,...,%d; want 16,...,16,8,4",
			exp.BucketSize(0), exp.BucketSize(5), exp.BucketSize(6), exp.BucketSize(7))
	}
	for _, p := range []Profile{ProfileUniform, ProfileLinear, ProfileStep, ProfileExp} {
		if p.String() == "" {
			t.Errorf("empty String() for profile %d", p)
		}
	}
}

func TestGeometryErrors(t *testing.T) {
	bad := []GeometryConfig{
		{LeafBits: 0, LeafZ: 4},
		{LeafBits: 41, LeafZ: 4},
		{LeafBits: 4, LeafZ: 0},
		{LeafBits: 4, LeafZ: 4, BlockSize: -1},
		{LeafBits: 4, LeafZ: 4, RootZ: 2, Profile: ProfileLinear},
	}
	for i, cfg := range bad {
		if _, err := NewGeometry(cfg); err == nil {
			t.Errorf("case %d: expected error for %+v", i, cfg)
		}
	}
}

// TestGeometryRefusesWideBuckets: the loader's fill counts and the stores'
// live bounds count a bucket's slots in one byte, so a geometry with a bucket
// wider than 255 slots, at any level and under any profile, is refused when it
// is built; 255 is admitted and loads.
func TestGeometryRefusesWideBuckets(t *testing.T) {
	wide := []GeometryConfig{
		{LeafBits: 1, LeafZ: 256},
		{LeafBits: 4, LeafZ: 4, RootZ: 256, Profile: ProfileLinear},
		{LeafBits: 4, LeafZ: 4, RootZ: 300, Profile: ProfileStep},
		{LeafBits: 12, LeafZ: 4, RootZ: 1 << 12, Profile: ProfileExp},
	}
	for _, cfg := range wide {
		if _, err := NewGeometry(cfg); err == nil || !strings.Contains(err.Error(), "at most 255") {
			t.Errorf("NewGeometry(%+v) = %v, want the 255-slot error", cfg, err)
		}
	}
	// Levels 0–4 hold 255 slots, 5–9 hold 4: 300 blocks on leaf 0 fill the
	// path's lower 20 slots, all 255 of level 4's bucket, and 25 above it.
	g := MustGeometry(GeometryConfig{LeafBits: 9, LeafZ: 4, RootZ: 255, Profile: ProfileStep})
	c, err := NewClient(ClientConfig{Store: NewMetaStore(g), Rand: rand.New(rand.NewSource(1)), Blocks: 300})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Load(300, func(BlockID) Leaf { return 0 }, nil); err != nil {
		t.Fatal(err)
	}
	bucket := make([]Slot, 255)
	if err := c.Store().ReadBucket(4, 0, bucket); err != nil {
		t.Fatal(err)
	}
	if n := liveLen(bucket); n != 255 || c.stash.Len() != 0 {
		t.Errorf("255-slot bucket holds %d blocks with %d stashed, want 255 and 0", n, c.stash.Len())
	}
}

func TestNodeAtAndSlotIndex(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 3, LeafZ: 2, BlockSize: 0})
	// Leaf 5 = 0b101: path nodes are 0, 1, 2(=0b10), 5(=0b101).
	wantNodes := []uint64{0, 1, 2, 5}
	for lvl, w := range wantNodes {
		if got := g.NodeAt(5, lvl); got != w {
			t.Errorf("NodeAt(5,%d) = %d, want %d", lvl, got, w)
		}
	}
	// Slot indices must be unique across the whole tree.
	seen := make(map[int64]bool)
	for lvl := 0; lvl < g.Levels(); lvl++ {
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			for s := 0; s < g.BucketSize(lvl); s++ {
				i := g.SlotIndex(lvl, node, s)
				if i < 0 || i >= g.TotalSlots() {
					t.Fatalf("SlotIndex(%d,%d,%d) = %d out of range", lvl, node, s, i)
				}
				if seen[i] {
					t.Fatalf("SlotIndex(%d,%d,%d) = %d collides", lvl, node, s, i)
				}
				seen[i] = true
			}
		}
	}
	if int64(len(seen)) != g.TotalSlots() {
		t.Errorf("covered %d slots, want %d", len(seen), g.TotalSlots())
	}
}

func TestCommonLevelProperties(t *testing.T) {
	g := MustGeometry(GeometryConfig{LeafBits: 12, LeafZ: 4, BlockSize: 0})
	rng := rand.New(rand.NewSource(1))
	f := func(aRaw, bRaw uint16) bool {
		a := Leaf(uint64(aRaw) % g.Leaves())
		b := Leaf(uint64(bRaw) % g.Leaves())
		cl := g.CommonLevel(a, b)
		if cl < 0 || cl > g.LeafBits() {
			return false
		}
		if g.CommonLevel(b, a) != cl {
			return false // symmetry
		}
		if a == b && cl != g.LeafBits() {
			return false
		}
		// Definition: nodes agree at all levels <= cl, disagree after.
		for lvl := 0; lvl <= g.LeafBits(); lvl++ {
			same := g.NodeAt(a, lvl) == g.NodeAt(b, lvl)
			if (lvl <= cl) != same {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestGeometryString(t *testing.T) {
	u := MustGeometry(GeometryConfig{LeafBits: 20, LeafZ: 4, BlockSize: 128})
	if u.String() == "" || u.Profile() != ProfileUniform {
		t.Errorf("bad uniform description %q", u.String())
	}
	f := MustGeometry(GeometryConfig{LeafBits: 20, LeafZ: 4, RootZ: 8, Profile: ProfileLinear, BlockSize: 128})
	if f.String() == "" || f.Profile() != ProfileLinear {
		t.Errorf("bad fat description %q", f.String())
	}
}
