package superblock

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/oram"
)

// TestQuickPlanInvariants: for random streams and superblock sizes, the
// plan must (1) cover every stream element in order, (2) never exceed S
// unique members per bin, (3) keep per-block queues strictly increasing,
// (4) draw every bin leaf within range.
func TestQuickPlanInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(streamRaw []uint16, sRaw uint8, seed int64) bool {
		if len(streamRaw) == 0 {
			return true
		}
		s := 1 + int(sRaw%8)
		const leaves = 256
		stream := make([]uint64, len(streamRaw))
		for i, v := range streamRaw {
			stream[i] = uint64(v % 512)
		}
		p, err := NewPlan(stream, PlanConfig{
			S: s, Leaves: leaves, Rand: rand.New(rand.NewSource(seed)),
		})
		if err != nil {
			return false
		}
		// (2) bin sizes and member uniqueness; (4) leaf ranges.
		totalMembers := 0
		for i := 0; i < p.Len(); i++ {
			b := p.Bin(i)
			if b.Index != i {
				return false
			}
			if len(b.Blocks) == 0 || len(b.Blocks) > s {
				return false
			}
			if uint64(b.Leaf) >= leaves {
				return false
			}
			seen := map[oram.BlockID]bool{}
			for _, id := range b.Blocks {
				if seen[id] {
					return false
				}
				seen[id] = true
			}
			totalMembers += len(b.Blocks)
		}
		// Only full bins except possibly the last.
		for i := 0; i < p.Len()-1; i++ {
			if len(p.Bin(i).Blocks) != s {
				return false
			}
		}
		// (3) the next-leaf table and first-bin index agree with a scan of
		// the bins.
		all := binsOfAll(p)
		if len(p.firstBins()) != len(all) || p.UniqueBlocks() != len(all) {
			return false
		}
		queued := 0
		for id, q := range all {
			queued += len(q)
			if p.firstBins()[id] != int32(q[0]) {
				return false
			}
			for k, bi := range q {
				want := oram.NoLeaf
				if k+1 < len(q) {
					want = p.bins[q[k+1]].Leaf
				}
				if p.nextLeaf[bi*s+slices.Index(p.bins[bi].Blocks, id)].Leaf() != want {
					return false
				}
			}
		}
		if queued != totalMembers {
			return false
		}
		// (1) replaying the stream against a cursor: every access is
		// served by the current or an already-executed bin.
		cur := NewCursor(p)
		executed := map[oram.BlockID]bool{}
		si := 0
		all = binsOfAll(p)
		for !cur.Done() {
			bin, _, err := cur.Advance()
			if err != nil {
				return false
			}
			for _, id := range bin.Blocks {
				executed[id] = true
			}
			// Consume stream entries servable so far.
			for si < len(stream) && executed[oram.BlockID(stream[si])] {
				si++
			}
			// Reset visibility: a block's cached copy only survives
			// until re-binned; for this invariant it is enough that
			// the bin containing stream[si] is executed in order.
			if si < len(stream) {
				// The next unserved access must belong to a future bin.
				q := all[oram.BlockID(stream[si])]
				future := false
				for _, bi := range q {
					if int(bi) >= bin.Index {
						future = true
						break
					}
				}
				if !future {
					return false
				}
			}
		}
		return si == len(stream)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestQuickCursorNextLeafConsistency: the leaf handed out on Advance for a
// block equals the leaf of the block's next bin (or NoLeaf at horizon end).
func TestQuickCursorNextLeafConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	f := func(streamRaw []uint8, seed int64) bool {
		if len(streamRaw) < 4 {
			return true
		}
		stream := make([]uint64, len(streamRaw))
		for i, v := range streamRaw {
			stream[i] = uint64(v % 32)
		}
		p, err := NewPlan(stream, PlanConfig{
			S: 3, Leaves: 64, Rand: rand.New(rand.NewSource(seed)),
		})
		if err != nil {
			return false
		}
		cur := NewCursor(p)
		all := binsOfAll(p)
		pos := map[oram.BlockID]int{}
		for !cur.Done() {
			bin, next, err := cur.Advance()
			if err != nil {
				return false
			}
			for i, id := range bin.Blocks {
				q := all[id]
				k := pos[id]
				if k >= len(q) || q[k] != bin.Index {
					return false
				}
				pos[id] = k + 1
				if k+1 < len(q) {
					if next[i].Leaf() != p.Bin(q[k+1]).Leaf {
						return false
					}
				} else if next[i] != NoNext {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// binsOfAll returns, per block, the ordered indices of the bins holding it.
func binsOfAll(p *Plan) map[oram.BlockID][]int {
	out := map[oram.BlockID][]int{}
	for i := 0; i < p.Len(); i++ {
		for _, id := range p.Bin(i).Blocks {
			out[id] = append(out[id], i)
		}
	}
	return out
}

// Release is the reference a Horizon's release is held to: it extends the
// plan's horizon into the plans that follow it in the stream, nearest first.
// A member whose entry is NoNext — its last bin in this plan — gets the
// leaf of its first bin in the earliest of later that holds it, and keeps
// NoNext only if none does. Donors are not the reference's business: see
// TestQuickDonorMarks.
func (p *Plan) Release(later []*Plan) {
	for i := range p.bins {
		row := p.nextLeaf[i*p.s:]
		for j, id := range p.bins[i].Blocks {
			if row[j] != NoNext {
				continue
			}
			for _, lp := range later {
				if leaf := lp.FirstLeaf(id); leaf != oram.NoLeaf {
					row[j] = Next(leaf)
					break
				}
			}
		}
	}
}

// nextLeaves reads the drawn leaves of p's next-leaf table the way a lane
// does, through a cursor.
func nextLeaves(p *Plan) []oram.Leaf {
	var out []oram.Leaf
	for cur := NewCursor(p); !cur.Done(); {
		_, next, _ := cur.Advance()
		for _, n := range next {
			out = append(out, n.Leaf())
		}
	}
	return out
}

// TestQuickHorizonMatchesRelease: a stream of ids that recur across windows
// is split over 1, 2, 4 or 8 shards (id mod shards) and cut into windows, the
// last one short; a shard may be absent from a window. Every shard's Horizon,
// released with D windows held behind each window (D = 1..6) at S ∈ {1, 2,
// 4, 8}, yields exactly the bins and next-leaf tables of per-window NewPlan
// finished by the reference Release from the next D windows' plans — the
// plan-level proof that a horizon of Window·Depth accesses is the
// cross-window release it replaces. Random short streams cover the window
// shapes; long ones make the rings wrap, then grow.
func TestQuickHorizonMatchesRelease(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	f := func(streamRaw []uint8, winRaw, shardRaw, sRaw uint8, seed int64) bool {
		stream := make([]uint64, len(streamRaw))
		for i, v := range streamRaw {
			stream[i] = uint64(v % 40)
		}
		s, shards := []int{1, 2, 4, 8}[sRaw%4], []int{1, 2, 4, 8}[shardRaw%4]
		return horizonMatchesRelease(t, stream, 40, s+int(winRaw%32), s, shards, seed)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
	for i, s := range []int{1, 2, 4, 8} {
		// Runs of 8 equal ids bin to an eighth of the members per access,
		// so the rings are already wrapping when the uniform part makes
		// them grow.
		stream := make([]uint64, 40_000)
		for j := range stream {
			if j < len(stream)/3 && j%8 != 0 {
				stream[j] = stream[j-1]
			} else {
				stream[j] = uint64(rng.Intn(6000))
			}
		}
		if !horizonMatchesRelease(t, stream, 6000, 1500+700*i, s, 1<<i, int64(i)) {
			t.Fatalf("S=%d over %d shards: long stream diverges", s, 1<<i)
		}
	}
}

// horizonMatchesRelease checks one stream at depths 1..6 (see
// TestQuickHorizonMatchesRelease); ids is the global id space.
func horizonMatchesRelease(t *testing.T, stream []uint64, ids, window, s, shards int, seed int64) bool {
	seedOf := func(sh, k int) int64 { return seed + int64(sh)*7919 + int64(k) }
	for depth := 1; depth <= 6; depth++ {
		for sh := 0; sh < shards; sh++ {
			// Window k's slice of this shard's local ids.
			var wins [][]uint64
			for lo := 0; lo < len(stream); lo += window {
				var local []uint64
				for _, id := range stream[lo:min(lo+window, len(stream))] {
					if int(id)%shards == sh {
						local = append(local, id/uint64(shards))
					}
				}
				wins = append(wins, local)
			}
			cfg := func(k int) PlanConfig {
				return PlanConfig{S: s, Leaves: 1 << 31, Rand: rand.New(rand.NewSource(seedOf(sh, k)))}
			}
			plans := make([]*Plan, len(wins))
			for k, local := range wins {
				var err error
				if plans[k], err = NewPlan(local, cfg(k)); err != nil {
					return false
				}
			}
			for k, p := range plans {
				p.Release(plans[k+1 : min(k+1+depth, len(plans))])
			}
			h, err := NewHorizon(s, 1<<31, ids/shards+1)
			if err != nil {
				return false
			}
			var got []*Plan
			var held []Extent
			for k, local := range wins {
				w, err := h.Bin(local, cfg(k).Rand)
				if err != nil {
					return false
				}
				held = append(held, w)
				for len(held) > depth || (k == len(wins)-1 && len(held) > 0) {
					got = append(got, h.Release(held[0]))
					held = held[1:]
				}
			}
			if len(got) != len(plans) {
				return false
			}
			for k := range plans {
				if got[k].Len() != plans[k].Len() {
					return false
				}
				for i := 0; i < got[k].Len(); i++ {
					gb, wb := got[k].Bin(i), plans[k].Bin(i)
					if gb.Leaf != wb.Leaf || !slices.Equal(gb.Blocks, wb.Blocks) {
						return false
					}
				}
				if g, w := nextLeaves(got[k]), nextLeaves(plans[k]); !slices.Equal(g, w) {
					t.Logf("S=%d shards=%d depth=%d shard %d window %d: next leaves differ", s, shards, depth, sh, k)
					return false
				}
			}
		}
	}
	return true
}

// TestQuickReleaseHorizon: over random streams cut into windows and released
// at Depth 1–3, every member's next leaf is its next bin in its own window,
// else its first bin in the nearest of the next Depth windows holding it,
// else NoLeaf — never a bin further on. Leaves are drawn from 2^31 paths so
// a wrong bin cannot match by chance.
func TestQuickReleaseHorizon(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	f := func(streamRaw []uint8, winRaw, sRaw uint8, seed int64) bool {
		s := 1 + int(sRaw%4)
		window := s + int(winRaw%24)
		stream := make([]uint64, len(streamRaw))
		for i, v := range streamRaw {
			stream[i] = uint64(v % 48)
		}
		for depth := 1; depth <= 3; depth++ {
			var plans []*Plan
			for lo := 0; lo < len(stream); lo += window {
				p, err := NewPlan(stream[lo:min(lo+window, len(stream))], PlanConfig{
					S: s, Leaves: 1 << 31, Rand: rand.New(rand.NewSource(seed + int64(lo))),
				})
				if err != nil {
					return false
				}
				plans = append(plans, p)
			}
			for k, p := range plans {
				p.Release(plans[k+1 : min(k+1+depth, len(plans))])
			}
			// want scans the bins themselves, which Release leaves alone.
			want := func(k, bin int, id oram.BlockID) oram.Leaf {
				for i := bin + 1; i < plans[k].Len(); i++ {
					if slices.Contains(plans[k].Bin(i).Blocks, id) {
						return plans[k].Bin(i).Leaf
					}
				}
				for w := k + 1; w <= k+depth && w < len(plans); w++ {
					for i := 0; i < plans[w].Len(); i++ {
						if slices.Contains(plans[w].Bin(i).Blocks, id) {
							return plans[w].Bin(i).Leaf
						}
					}
				}
				return oram.NoLeaf
			}
			for k, p := range plans {
				for cur := NewCursor(p); !cur.Done(); {
					bin, next, err := cur.Advance()
					if err != nil {
						return false
					}
					for j, id := range bin.Blocks {
						if next[j].Leaf() != want(k, bin.Index, id) {
							t.Logf("depth %d window %d bin %d member %d: next leaf %d, want %d",
								depth, k, bin.Index, id, next[j], want(k, bin.Index, id))
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestQuickMetadataBytes: metadata size is exactly 8·(bins + members).
func TestQuickMetadataBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(streamRaw []uint8) bool {
		stream := make([]uint64, len(streamRaw))
		for i, v := range streamRaw {
			stream[i] = uint64(v)
		}
		p, err := NewPlan(stream, PlanConfig{S: 4, Leaves: 32, Rand: rand.New(rand.NewSource(1))})
		if err != nil {
			return false
		}
		members := 0
		for i := 0; i < p.Len(); i++ {
			members += len(p.Bin(i).Blocks)
		}
		return p.MetadataBytes() == int64(8*(p.Len()+members))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

// TestQuickDonorMarks: over random streams cut into windows (the last one
// short, so its last bin is too) and released with D = 1–6 windows held at
// S = 1–8, each bin's donor is, by brute force, its first member whose id
// occurs in no window still held when it was binned and in no earlier bin of
// its own window — and a bin with no such member has none. Salted runs
// draw every window's leaves from other seeds; donors do not depend on
// leaves. Half the runs pre-place at the first release, as a placing
// planner does: FirstLeaves over the windows held then leaves none of their
// bins a donor, and the windows binned after it are marked as before.
func TestQuickDonorMarks(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	f := func(streamRaw []uint8, winRaw, sRaw, dRaw uint8, salt uint16, place bool) bool {
		s, depth := 1+int(sRaw%8), 1+int(dRaw%6)
		window := s + int(winRaw%24)
		var wins [][]uint64
		for lo := 0; lo < len(streamRaw); lo += window {
			var w []uint64
			for _, v := range streamRaw[lo:min(lo+window, len(streamRaw))] {
				w = append(w, uint64(v%48))
			}
			wins = append(wins, w)
		}
		h, err := NewHorizon(s, 1<<10, 48)
		if err != nil {
			return false
		}
		var (
			held     []Extent
			released []*Plan
			placed   = -1 // windows below this were pre-placed
		)
		for k, w := range wins {
			ext, err := h.Bin(w, rand.New(rand.NewSource(int64(k)+int64(salt)<<20)))
			if err != nil {
				return false
			}
			held = append(held, ext)
			for len(held) > depth || (k == len(wins)-1 && len(held) > 0) {
				if place && placed < 0 {
					h.FirstLeaves(held)
					placed = len(released) + len(held)
				}
				released = append(released, h.Release(held[0]))
				held = held[1:]
			}
		}
		for k, p := range released {
			// Window k was binned with windows max(0, k−D)..k−1 held.
			before := map[oram.BlockID]bool{}
			for _, w := range wins[max(0, k-depth):k] {
				for _, id := range w {
					before[oram.BlockID(id)] = true
				}
			}
			for i := 0; i < p.Len(); i++ {
				b := p.Bin(i)
				want, wantOK := oram.BlockID(0), false
				for _, id := range b.Blocks {
					if !before[id] && !wantOK {
						want, wantOK = id, true
					}
				}
				if k < placed {
					wantOK = false
				}
				got, ok := b.Donor()
				if ok != wantOK || (ok && got != want) {
					t.Logf("S=%d D=%d window %d bin %d %v: donor %d (%v), want %d (%v)", s, depth, k, i, b.Blocks, got, ok, want, wantOK)
					return false
				}
				for _, id := range b.Blocks {
					before[id] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400, Rand: rng}); err != nil {
		t.Error(err)
	}
}
