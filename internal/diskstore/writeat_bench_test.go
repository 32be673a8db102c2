package diskstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/oram"
)

// BenchmarkArenaWriteAt prices the positioned writes a dirty leaf-tier span
// could go back to its arena with, at random span offsets of an arena-sized,
// fully written file (train-disk's rows: 128 B, leaf buckets of 4): one leaf
// record, the four records a path dirties in a span — one per level, each its
// own pwrite — and the whole span in one. A span pread is beside them for
// scale. On a page-cached file a pwrite costs about the same whatever its size
// up to a span, so a path's dirty extent, spread over the span, is no cheaper
// to write than the span itself: only fewer calls are.
//
//	go test -run '^$' -bench ArenaWriteAt ./internal/diskstore/
func BenchmarkArenaWriteAt(b *testing.B) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 14, LeafZ: 4, BlockSize: 128})
	tiers, _ := newLayout(g, g.BlockSize())
	leaf := &tiers[len(tiers)-1]
	f, err := os.Create(filepath.Join(b.TempDir(), "arena"))
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, leaf.size)
	spans := 1 << leaf.lo
	for r := range spans {
		if _, err := f.WriteAt(buf, leaf.spanOff(uint64(r))); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	last := spanLevels - 1
	bench := func(name string, bytes int, op func(span int64, below int) error) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(bytes))
			for b.Loop() {
				// A random span and a random leaf below its root.
				if err := op(leaf.spanOff(uint64(rng.Intn(spans))), rng.Intn(1<<last)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	bench("record", leaf.rec[last], func(span int64, below int) error {
		_, err := f.WriteAt(buf[:leaf.rec[last]], span+int64(leaf.off[last]+below*leaf.rec[last]))
		return err
	})
	four := 0
	for j := range spanLevels {
		four += leaf.rec[j]
	}
	bench("4-records", four, func(span int64, below int) error {
		for j := range spanLevels {
			node := below >> (last - j)
			if _, err := f.WriteAt(buf[:leaf.rec[j]], span+int64(leaf.off[j]+node*leaf.rec[j])); err != nil {
				return err
			}
		}
		return nil
	})
	bench("span", leaf.size, func(span int64, _ int) error {
		_, err := f.WriteAt(buf, span)
		return err
	})
	bench("span-pread", leaf.size, func(span int64, _ int) error {
		_, err := f.ReadAt(buf, span)
		return err
	})
}
