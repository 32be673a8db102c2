package diskstore

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/oram"
)

// TestLogMatchesPayloadStore is the log's property test. Random path reads
// and writes, bucket writes around the cache, Syncs, close/reopen and
// Abandon drive a disk store — prefetching the paths ahead — and a
// PayloadStore twin, until the leaf tier's head has gone round its slots 20
// times; every read must agree. Abandon with writes since the last clean point must
// reopen as ErrUnclean, and both stores go back to the snapshot taken
// there; without, the arena must reopen as it was. At the 10 % budget the
// batches must go down in at least 4 spans per write call on average —
// in place, the write-back took one call per evicted span.
func TestLogMatchesPayloadStore(t *testing.T) {
	for _, tc := range []struct {
		name     string
		leafBits int
		budget   func(*oram.Geometry) int64
		every    int // steps per reopen, in expectation
		perCall  float64
	}{
		{"two-path", 9, func(*oram.Geometry) int64 { return 1 }, 500, 0},
		{"10%", 13, func(g *oram.Geometry) int64 { return CacheBytes(g, nil) / 10 }, 15_000, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := testGeometry(t, tc.leafBits, 4, 16)
			cfg := Config{Path: filepath.Join(t.TempDir(), "tree.laor"), Geometry: g, MemBudget: tc.budget(g), Prefetch: true}
			st, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			mem, err := oram.NewPayloadStore(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			snapshot := func() []byte {
				var b bytes.Buffer
				if err := mem.Save(&b); err != nil {
					t.Fatal(err)
				}
				return b.Bytes()
			}
			synced, dirty := snapshot(), false
			// The leaf tier's rounds of the head — st's and the retired
			// instances' — and the retired instances' appends.
			var rounds float64
			var calls, spans uint64
			stRounds := func() float64 {
				st.mu.Lock()
				defer st.mu.Unlock()
				leaf := &st.tiers[len(st.tiers)-1]
				return float64(leaf.travel) / float64(len(leaf.owner))
			}
			retire := func() {
				rounds += stRounds()
				st.mu.Lock()
				defer st.mu.Unlock()
				calls += st.logCalls
				spans += st.logSpans
			}
			sameTree := func(op string) {
				t.Helper()
				var b bytes.Buffer
				if err := st.Save(&b); err != nil {
					t.Fatalf("%s: %v", op, err)
				}
				if !bytes.Equal(b.Bytes(), snapshot()) {
					t.Fatalf("%s: the arena's tree is not its twin's", op)
				}
			}

			rng := rand.New(rand.NewSource(int64(tc.leafBits)))
			randSlots := func(lvl int) []oram.Slot {
				out := make([]oram.Slot, g.BucketSize(lvl))
				for k := range out {
					if rng.Intn(3) == 0 {
						out[k] = oram.Slot{ID: oram.DummyID}
						continue
					}
					p := make([]byte, g.BlockSize())
					rng.Read(p)
					out[k] = oram.Slot{ID: oram.BlockID(rng.Intn(1 << 20)), Leaf: oram.Leaf(rng.Intn(int(g.Leaves()))), Payload: p}
				}
				return out
			}
			upcoming := make([]oram.Leaf, 64)
			for i := range upcoming {
				upcoming[i] = oram.Leaf(rng.Intn(int(g.Leaves())))
			}
			want, got := pathBufs(g), pathBufs(g)
			for step := 0; rounds+stRounds() < 20; step++ {
				if step > 200_000 {
					t.Fatalf("the leaf tier's head went round %.1f times in %d steps", rounds, step)
				}
				leaf := upcoming[step%len(upcoming)]
				upcoming[step%len(upcoming)] = oram.Leaf(rng.Intn(int(g.Leaves())))
				if step%len(upcoming) == 0 {
					st.PrefetchPaths(upcoming)
				}
				switch r := rng.Intn(tc.every); {
				case r < 4:
					if err := st.Sync(); err != nil {
						t.Fatal(err)
					}
					synced, dirty = snapshot(), false
				case r < 5:
					retire()
					if err := st.Close(); err != nil {
						t.Fatal(err)
					}
					if st, err = Open(cfg); err != nil {
						t.Fatalf("step %d: reopening a closed arena: %v", step, err)
					}
					sameTree(fmt.Sprintf("step %d: reopened", step))
					synced, dirty = snapshot(), false
				case r < 6:
					retire()
					st.Abandon()
					st, err = Open(cfg)
					if !dirty {
						if err != nil {
							t.Fatalf("step %d: reopening an arena abandoned clean: %v", step, err)
						}
						sameTree(fmt.Sprintf("step %d: abandoned clean", step))
						break
					}
					if !errors.Is(err, ErrUnclean) {
						t.Fatalf("step %d: reopening an arena abandoned with writes: %v, want ErrUnclean", step, err)
					}
					c := cfg
					c.Reset = true
					if st, err = Open(c); err != nil {
						t.Fatal(err)
					}
					if err := st.Load(bytes.NewReader(synced)); err != nil {
						t.Fatal(err)
					}
					if err := mem.Load(bytes.NewReader(synced)); err != nil {
						t.Fatal(err)
					}
					dirty = false
				case r < 6+tc.every/8:
					lvl := rng.Intn(g.Levels())
					node := uint64(rng.Intn(1 << uint(lvl)))
					src := randSlots(lvl)
					if err := mem.WriteBucket(lvl, node, src); err != nil {
						t.Fatal(err)
					}
					if err := st.WriteBucket(lvl, node, src); err != nil {
						t.Fatal(err)
					}
					dirty = true
				default:
					if err := mem.ReadPath(leaf, want); err != nil {
						t.Fatal(err)
					}
					if err := st.ReadPath(leaf, got); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					for lvl := range want {
						if !slotsEqual(want[lvl], got[lvl]) {
							t.Fatalf("step %d: path to leaf %d diverged at level %d", step, leaf, lvl)
						}
					}
					if rng.Intn(4) == 0 {
						break // the path's spans stay clean
					}
					for lvl := range want {
						want[lvl] = randSlots(lvl)
					}
					if err := mem.WritePath(leaf, want); err != nil {
						t.Fatal(err)
					}
					if err := st.WritePath(leaf, want); err != nil {
						t.Fatal(err)
					}
					want = pathBufs(g)
					dirty = true
				}
			}
			retire()
			sameTree("at the end")
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			perCall := float64(spans) / float64(calls)
			t.Logf("%.1f rounds, %d spans appended in %d write calls: %.2f per call", rounds, spans, calls, perCall)
			if perCall < tc.perCall {
				t.Errorf("%.2f spans per write call, want at least %.0f", perCall, tc.perCall)
			}
		})
	}
}
