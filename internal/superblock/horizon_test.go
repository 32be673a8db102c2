package superblock

import (
	"math/rand"
	"testing"

	"repro/internal/trace"
)

// ringBytes is the size of a horizon's member and bin rings' backing arrays
// (the last table, 4 bytes per id, is not counted).
func ringBytes(h *Horizon) int { return 4*cap(h.ids) + 4*cap(h.links) + 8*cap(h.binNext) }

// TestHorizonBytesPerAccess is the look-ahead ring's memory target at a full
// default horizon on train-mem's shape: 131,072 entries over 2 shards (id mod
// 2), Window 16,384, S = 4, a Kaggle stream, and a horizon of 4·Entries = 32
// windows. Binning D+2 windows and releasing as the planner does, the rings'
// backing arrays never exceed 12 bytes per horizon access: 4 (id) + 4 (link)
// + 8/S (leaf per bin), plus what the growth step leaves unused.
func TestHorizonBytesPerAccess(t *testing.T) {
	const entries, shards, window, s = 131072, 2, 16384, 4
	const horizon = 4 * entries
	const d = horizon / window
	stream, err := trace.Generate(trace.Config{Kind: trace.KindKaggle, N: entries, Count: (d + 2) * window, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rings := make([]*Horizon, shards)
	held := make([][]Extent, shards)
	for sh := range rings {
		if rings[sh], err = NewHorizon(s, entries/shards, entries/shards); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(5))
	peak := 0
	locals := make([][]uint64, shards)
	for win := 0; win < d+2; win++ {
		for sh := range locals {
			locals[sh] = locals[sh][:0]
		}
		for _, id := range stream[win*window : (win+1)*window] {
			locals[id%shards] = append(locals[id%shards], id/shards)
		}
		bytes := 0
		for sh, r := range rings {
			w, err := r.Bin(locals[sh], rng)
			if err != nil {
				t.Fatal(err)
			}
			held[sh] = append(held[sh], w)
			bytes += ringBytes(r)
		}
		peak = max(peak, bytes)
		for sh, r := range rings {
			if len(held[sh]) > d {
				r.Release(held[sh][0])
				held[sh] = held[sh][1:]
			}
		}
	}
	perAccess := float64(peak) / horizon
	t.Logf("ring peak %d B: %.2f B per horizon access", peak, perAccess)
	if perAccess > 12 {
		t.Errorf("rings hold %.2f B per horizon access, target <= 12", perAccess)
	}
}
