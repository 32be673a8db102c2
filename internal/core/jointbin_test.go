package core

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"testing"

	"repro/internal/oram"
	"repro/internal/trace"
)

// binCall is one store call as binSpy saw it: which method, and for a batch
// the bucket refs it named.
type binCall struct {
	op   string
	refs []oram.BucketRef
}

// binSpy records the path- and batch-granularity calls that reach the payload
// store under a fixture's CountingStore.
type binSpy struct {
	*oram.PayloadStore
	calls []binCall
}

func (s *binSpy) ReadPath(leaf oram.Leaf, dst [][]oram.Slot) error {
	s.calls = append(s.calls, binCall{op: "ReadPath"})
	return s.PayloadStore.ReadPath(leaf, dst)
}

func (s *binSpy) WritePath(leaf oram.Leaf, src [][]oram.Slot) error {
	s.calls = append(s.calls, binCall{op: "WritePath"})
	return s.PayloadStore.WritePath(leaf, src)
}

func (s *binSpy) ReadBuckets(refs []oram.BucketRef, dst [][]oram.Slot) error {
	s.calls = append(s.calls, binCall{op: "ReadBuckets", refs: slices.Clone(refs)})
	return s.PayloadStore.ReadBuckets(refs, dst)
}

func (s *binSpy) WriteBuckets(refs []oram.BucketRef, src [][]oram.Slot) error {
	s.calls = append(s.calls, binCall{op: "WriteBuckets", refs: slices.Clone(refs)})
	return s.PayloadStore.WriteBuckets(refs, src)
}

// stepBinPerLeaf is a one-bin Step as it was before the joint fetch — one path
// fetch per distinct leaf, shared upper buckets fetched and stashed again for every path
// — kept here, and only here, as the reference the joint bin is held to.
func stepBinPerLeaf(l *LAORAM, visit Visit) error {
	bin := l.cursor.PeekBin(0)
	if bin == nil {
		return fmt.Errorf("plan exhausted")
	}
	st := l.base.StatsMut()
	st.Accesses += uint64(len(bin.Blocks))
	l.fetch.Reset()
	for _, id := range bin.Blocks {
		hit, err := l.base.GatherLeaf(&l.fetch, id)
		if err != nil {
			return err
		}
		if hit {
			st.StashHits++
		}
	}
	readLeaves := l.fetch.Leaves()
	for i, leaf := range readLeaves {
		if err := l.base.ReadPaths([]oram.Leaf{leaf}); err != nil {
			return err
		}
		st.PathReads++
		if i > 0 {
			l.sess.ColdPathReads++
		}
	}
	_, nextLeaves, err := l.cursor.Advance()
	if err != nil {
		return err
	}
	for i, id := range bin.Blocks {
		l.remap(id, nextLeaves[i])
	}
	for _, id := range bin.Blocks {
		p, _ := l.base.Stash().Payload(id)
		if np := visit(id, p); np != nil {
			l.base.Stash().SetPayload(id, np)
		}
	}
	if err := l.base.WriteBackPaths(readLeaves); err != nil {
		return err
	}
	st.PathWrites += uint64(len(readLeaves))
	if _, err := l.base.MaybeEvict(); err != nil {
		return err
	}
	l.sess.Bins++
	return nil
}

// coldBinFixture builds a tree whose bins are cold. The first 1,024 bins take
// blocks nothing has touched, each on its own uniform path: four paths a bin.
// After that a bin mixes k blocks seen before — look-ahead put those on the
// path of the bin's first untouched block, its donor — with 4−k untouched
// ones, k cycling through 0, 1 and 2, so bins of four, three and two distinct
// paths alternate, and both remap kinds occur.
func coldBinFixture(t *testing.T, spy *binSpy) *fixture {
	t.Helper()
	const blocks, firstTouch = 1 << 13, 1 << 12
	stream, err := trace.Generate(trace.Config{Kind: trace.KindPermutation, N: firstTouch, Count: firstTouch, Seed: 51})
	if err != nil {
		t.Fatal(err)
	}
	seen, unseen := uint64(0), uint64(firstTouch)
	for bin := 0; unseen+4 <= blocks; bin++ {
		k := []int{0, 1, 2}[bin%3]
		for i := 0; i < 4; i++ {
			if i < k {
				stream = append(stream, seen)
				seen++
			} else {
				stream = append(stream, unseen)
				unseen++
			}
		}
	}
	return newFixture(t, fixtureConfig{
		leafBits: 11, blocks: blocks, blockSize: 16, s: 4, fat: true,
		evict: oram.PaperEvict, stream: stream, seed: 52, spy: spy,
	})
}

func sortedRefs(refs []oram.BucketRef) []oram.BucketRef {
	out := slices.Clone(refs)
	slices.SortFunc(out, func(a, b oram.BucketRef) int {
		return cmp.Or(cmp.Compare(a.Level, b.Level), cmp.Compare(a.Node, b.Node))
	})
	return out
}

// TestJointBinOneFetchOneWriteBack: a bin with cold members is one ReadBuckets
// and one WriteBuckets over the same bucket union — as many slots read as
// written, every shared bucket crossing once each way — and 2,000 such bins
// leave the server tree, the stash, the position map, the statistics and the
// client's random stream exactly where the per-leaf path-fetch loop leaves them.
func TestJointBinOneFetchOneWriteBack(t *testing.T) {
	const bins = 2000
	visit := func(_ oram.BlockID, p []byte) []byte {
		p[8]++
		return p
	}
	spy := &binSpy{}
	joint := coldBinFixture(t, spy)
	ref := coldBinFixture(t, nil)
	leafLevel := joint.base.Geometry().LeafBits()
	byPaths := map[int]int{}
	for i := 0; i < bins; i++ {
		spy.calls = spy.calls[:0]
		before, reads := joint.store.Counters(), joint.laoram.Stats().PathReads
		if _, err := joint.laoram.Step(1, visit); err != nil {
			t.Fatal(err)
		}
		if err := stepBinPerLeaf(ref.laoram, visit); err != nil {
			t.Fatal(err)
		}
		paths := int(joint.laoram.Stats().PathReads - reads)
		byPaths[paths]++
		moved := joint.store.Counters().Sub(before)
		if moved.SlotReads != moved.SlotWrites || moved.BucketReads != moved.BucketWrites {
			t.Fatalf("bin %d (%d paths): read %d slots in %d buckets, wrote %d in %d", i, paths,
				moved.SlotReads, moved.BucketReads, moved.SlotWrites, moved.BucketWrites)
		}
		if paths < 2 {
			continue
		}
		if len(spy.calls) != 2 || spy.calls[0].op != "ReadBuckets" || spy.calls[1].op != "WriteBuckets" {
			t.Fatalf("bin %d (%d paths) reached the store as %v, want one ReadBuckets then one WriteBuckets", i, paths, spy.calls)
		}
		fetched, written := sortedRefs(spy.calls[0].refs), sortedRefs(spy.calls[1].refs)
		if !slices.Equal(fetched, written) || len(slices.Compact(fetched)) != len(written) {
			t.Fatalf("bin %d: fetched %v, wrote back %v", i, fetched, written)
		}
		leaves := 0
		for _, r := range fetched {
			if r.Level == leafLevel {
				leaves++
			}
		}
		if leaves != paths {
			t.Fatalf("bin %d counted %d path reads for a union with %d leaf buckets", i, paths, leaves)
		}
	}
	if byPaths[2] < bins/10 || byPaths[3] < bins/10 || byPaths[4] < bins/2 {
		t.Errorf("bins by distinct paths %v: want mostly 4, and 2 and 3 a tenth each at least", byPaths)
	}

	js, rs := joint.laoram.Stats(), ref.laoram.Stats()
	// A bucket shared by two paths is ingested once by the joint fetch and
	// twice per leaf, so BlocksMoved falls with the slots read.
	if js.BlocksMoved >= rs.BlocksMoved {
		t.Errorf("joint moved %d blocks, per-leaf %d: want fewer", js.BlocksMoved, rs.BlocksMoved)
	}
	js.BlocksMoved, rs.BlocksMoved = 0, 0
	if js != rs {
		t.Errorf("stats diverged:\njoint    %+v\nper-leaf %+v", js, rs)
	}
	jc, rc := joint.store.Counters(), ref.store.Counters()
	if jc.SlotWrites != rc.SlotWrites || jc.SlotReads >= rc.SlotReads {
		t.Errorf("joint moved %d/%d slots (read/written), per-leaf %d/%d: want equal writes and fewer reads",
			jc.SlotReads, jc.SlotWrites, rc.SlotReads, rc.SlotWrites)
	}
	var jt, rt bytes.Buffer
	if err := spy.PayloadStore.Save(&jt); err != nil {
		t.Fatal(err)
	}
	if err := ref.store.Save(&rt); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jt.Bytes(), rt.Bytes()) {
		t.Error("server trees differ")
	}
	// Position map, stash (ids, leaves, payloads, peak) in one comparison.
	var jst, rst bytes.Buffer
	if err := joint.base.SaveState(&jst); err != nil {
		t.Fatal(err)
	}
	if err := ref.base.SaveState(&rst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(jst.Bytes(), rst.Bytes()) || joint.base.Stash().Peak() != ref.base.Stash().Peak() {
		t.Error("client state (position map, stash) differs")
	}
	if a, b := joint.base.Rand().Int63(), ref.base.Rand().Int63(); a != b {
		t.Errorf("next random draw %d vs %d", a, b)
	}
}
