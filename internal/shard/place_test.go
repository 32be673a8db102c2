package shard

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/oram"
)

// TestQuickFirstLeavesMatchRelease: the table a placing horizon's first
// release carries is, per shard and local id, the leaf of the id's first bin
// in the held windows, oldest first — what a reference reads by releasing
// every held window and walking their bins in order. Random streams cover S
// 1–8, D 1–6, 1–3 shards, salted and unsalted seeds, and windows whose
// per-shard slices end in short bins.
func TestQuickFirstLeavesMatchRelease(t *testing.T) {
	const entries = 60
	f := func(seed int64, lenRaw uint16, sRaw, dRaw, nRaw, winRaw uint8, salted bool) bool {
		s, d, n := 1+int(sRaw%8), 1+int(dRaw%6), 1+int(nRaw%3)
		window := s + int(winRaw%29)
		rng := rand.New(rand.NewSource(seed))
		stream := make([]uint64, lenRaw%300)
		for i := range stream {
			stream[i] = uint64(rng.Intn(entries))
		}
		e := plannerEngine(t, entries, n, 11)
		var salts []uint64
		if salted {
			salts = make([]uint64, n)
			for i := range salts {
				salts[i] = rng.Uint64()
			}
		}
		// Window 0 and the D windows held behind it when it is released.
		bin := func(h *horizon) bool {
			h.salts = salts
			for win, lo := 0, 0; win <= d && lo < len(stream); win, lo = win+1, lo+window {
				if err := h.bin(stream[lo:min(lo+window, len(stream))], win); err != nil {
					t.Log(err)
					return false
				}
			}
			return true
		}
		h, err := e.newHorizon(s)
		if err != nil || !bin(h) {
			return len(stream) == 0
		}
		if len(h.held) == 0 {
			return true
		}
		h.place = true
		got := h.release().Plan.first
		if h.place {
			t.Log("the horizon still places after its first release")
			return false
		}

		ref, err := e.newHorizon(s)
		if err != nil || !bin(ref) {
			return false
		}
		want := make([][]oram.Leaf, n)
		for sh := range want {
			want[sh] = make([]oram.Leaf, PerShardEntries(entries, n))
			for i := range want[sh] {
				want[sh][i] = oram.NoLeaf
			}
		}
		for len(ref.held) > 0 {
			p := ref.release().Plan
			for sh, sp := range p.plans {
				for b := 0; b < sp.Len(); b++ {
					for _, id := range sp.Bin(b).Blocks {
						if want[sh][id] == oram.NoLeaf {
							want[sh][id] = sp.Bin(b).Leaf
						}
					}
				}
			}
		}
		for sh := range want {
			if len(got[sh]) != len(want[sh]) {
				t.Logf("shard %d: table of %d ids, want %d", sh, len(got[sh]), len(want[sh]))
				return false
			}
			for id := range want[sh] {
				if got[sh][id] != want[sh][id] {
					t.Logf("S=%d D=%d %d shards window %d: shard %d id %d placed on %d, first bin's leaf %d",
						s, d, n, window, sh, id, got[sh][id], want[sh][id])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(48))}); err != nil {
		t.Error(err)
	}
}

// TestPreprocessLoadMatchesFirstLeaf: with one window the horizon is that
// window, so loading from a Preprocess plan's table is byte-identical —
// position maps, stashes, every bucket and the RNG draws for the ids the
// stream never touches — to loading each id on its plan's FirstLeaf.
func TestPreprocessLoadMatchesFirstLeaf(t *testing.T) {
	const entries, shards, bs = 1 << 10, 3, 16
	rng := rand.New(rand.NewSource(4))
	stream := make([]uint64, 2500)
	for i := range stream {
		stream[i] = uint64(rng.Intn(entries * 3 / 4)) // leave a quarter untouched
	}
	payload := func(id uint64) []byte { return payloadFor(id, bs) }
	got, want := payloadEngine(t, shards, entries, bs, 6), payloadEngine(t, shards, entries, bs, 6)
	plan, err := got.Preprocess(stream, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.LoadForPlan(plan, payload); err != nil {
		t.Fatal(err)
	}
	leafOf := make([]func(oram.BlockID) oram.Leaf, shards)
	for s := range leafOf {
		leafOf[s] = plan.plans[s].FirstLeaf // NoLeaf: Load's uniform draw
	}
	if err := want.load(context.Background(), entries, leafOf, payload); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < shards; s++ {
		var a, b bytes.Buffer
		for _, e := range []struct {
			eng *Engine
			buf *bytes.Buffer
		}{{got, &a}, {want, &b}} {
			sub := e.eng.subs[s]
			if err := sub.Client.SaveState(e.buf); err != nil {
				t.Fatal(err)
			}
			if err := sub.Store.Save(e.buf); err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(e.buf, "next draw %d", sub.Client.RandomLeaf())
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("shard %d: the table's load differs from the FirstLeaf load", s)
		}
	}
}
