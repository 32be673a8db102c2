package diskstore

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/oram"
)

// BenchmarkArenaWriteAt prices the positioned writes a dirty leaf-tier span
// could go back to its arena with, at random span-aligned offsets of an
// arena-sized, fully written file (train-disk's rows: 128 B, leaf buckets of
// 4): one leaf record, the four records a path dirties in a span — one per
// level, each its own pwrite — the whole span in one, and a batch of
// batchSpans spans appended in one, the log's write. A span pread is beside
// them for scale. Every row also reports ns per span it carries. On a
// page-cached file a pwrite costs about the same whatever its size up to a
// span, so a path's dirty extent, spread over the span, is no cheaper to
// write than the span itself: only fewer calls are.
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
	buf := make([]byte, batchSpans*leaf.size)
	slots := len(leaf.owner)
	for s := 0; s < slots; s += batchSpans {
		if _, err := f.WriteAt(buf, leaf.slotOff(s)); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	last := spanLevels - 1
	bench := func(name string, bytes, spans int, op func(span int64, below int) error) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(bytes))
			for b.Loop() {
				// A random slot with room for the write and a random leaf below
				// the root of the span in it.
				if err := op(leaf.slotOff(rng.Intn(slots-spans+1)), rng.Intn(1<<last)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*spans), "ns/span")
		})
	}
	bench("record", leaf.rec[last], 1, func(span int64, below int) error {
		_, err := f.WriteAt(buf[:leaf.rec[last]], span+int64(leaf.off[last]+below*leaf.rec[last]))
		return err
	})
	four := 0
	for j := range spanLevels {
		four += leaf.rec[j]
	}
	bench("4-records", four, 1, func(span int64, below int) error {
		for j := range spanLevels {
			node := below >> (last - j)
			if _, err := f.WriteAt(buf[:leaf.rec[j]], span+int64(leaf.off[j]+node*leaf.rec[j])); err != nil {
				return err
			}
		}
		return nil
	})
	bench("span", leaf.size, 1, func(span int64, _ int) error {
		_, err := f.WriteAt(buf[:leaf.size], span)
		return err
	})
	bench("batch", len(buf), batchSpans, func(span int64, _ int) error {
		_, err := f.WriteAt(buf, span)
		return err
	})
	bench("span-pread", leaf.size, 1, func(span int64, _ int) error {
		_, err := f.ReadAt(buf[:leaf.size], span)
		return err
	})
}
