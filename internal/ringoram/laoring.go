package ringoram

import (
	"fmt"
	"slices"

	"repro/internal/oram"
	"repro/internal/superblock"
)

// LAORing combines LAORAM's look-ahead superblocks with the RingORAM
// substrate, the §VIII-G hybrid: "Instead of fetching n×log(N) data blocks
// from n paths for every n accesses, with LAORAM, only [n×log(N)]/S + S
// blocks from n/S paths needs fetching." A bin costs one one-block-per-
// bucket path walk (logN block reads) plus one extra direct read for each
// additional member sharing a bucket with another member.
type LAORing struct {
	ring   *Ring
	plan   *superblock.Plan
	cursor *superblock.Cursor

	bins       uint64
	sinceEvict int // logical accesses since the last eviction path
}

// NewLAORing wraps a Ring with a superblock plan.
func NewLAORing(ring *Ring, plan *superblock.Plan) (*LAORing, error) {
	if ring == nil || plan == nil {
		return nil, fmt.Errorf("ringoram: ring and plan are required")
	}
	return &LAORing{ring: ring, plan: plan, cursor: superblock.NewCursor(plan)}, nil
}

// Ring returns the underlying RingORAM client.
func (lr *LAORing) Ring() *Ring { return lr.ring }

// Bins returns how many bins have been executed.
func (lr *LAORing) Bins() uint64 { return lr.bins }

// Done reports whether the plan is exhausted.
func (lr *LAORing) Done() bool { return lr.cursor.Done() }

// LoadPrePlaced populates the ring with each plan block on its first bin's
// path (see core.LAORAM.LoadPrePlaced).
func (lr *LAORing) LoadPrePlaced(n uint64, payload func(oram.BlockID) []byte) error {
	r := lr.ring
	return r.load(n, payload, func(id oram.BlockID) oram.Leaf {
		if leaf := lr.plan.FirstLeaf(id); leaf != oram.NoLeaf {
			return leaf
		}
		return oram.Leaf(r.rng.Int63n(int64(r.geom.Leaves())))
	})
}

// StepBin executes the next superblock bin through the ring.
func (lr *LAORing) StepBin(visit func(id oram.BlockID, payload []byte) []byte) error {
	bin := lr.cursor.PeekBin(0)
	if bin == nil {
		return fmt.Errorf("ringoram: plan exhausted after %d bins", lr.bins)
	}
	r := lr.ring
	r.stats.Accesses += uint64(len(bin.Blocks))

	// Group members needing fetch by their current leaf.
	groups := make(map[oram.Leaf][]oram.BlockID)
	var order []oram.Leaf
	for _, id := range bin.Blocks {
		if uint64(id) >= r.pos.Len() {
			return fmt.Errorf("ringoram: bin %d references block %d beyond table", bin.Index, id)
		}
		if r.stash.Contains(id) {
			continue
		}
		leaf := r.pos.Get(id)
		if leaf == oram.NoLeaf {
			return fmt.Errorf("ringoram: block %d not loaded", id)
		}
		if _, ok := groups[leaf]; !ok {
			order = append(order, leaf)
		}
		groups[leaf] = append(groups[leaf], id)
	}
	for _, leaf := range order {
		if err := lr.walkPath(leaf, groups[leaf]); err != nil {
			return err
		}
	}

	// Remap members per the plan (next bin's leaf or uniform).
	_, nextLeaves, err := lr.cursor.Advance()
	if err != nil {
		return err
	}
	for i, id := range bin.Blocks {
		if !r.stash.Contains(id) {
			return fmt.Errorf("ringoram: member %d missing after walks (bin %d)", id, bin.Index)
		}
		leaf := nextLeaves[i]
		if leaf == oram.NoLeaf {
			leaf = oram.Leaf(r.rng.Int63n(int64(r.geom.Leaves())))
		}
		r.pos.Set(id, leaf)
		r.stash.SetLeaf(id, leaf)
	}
	if visit != nil {
		for _, id := range bin.Blocks {
			p, _ := r.stash.Payload(id)
			if np := visit(id, p); np != nil {
				r.stash.SetPayload(id, np)
			}
		}
	}
	// Eviction cadence is per logical access, as in plain RingORAM.
	lr.sinceEvict += len(bin.Blocks)
	for lr.sinceEvict >= r.cfg.A {
		if err := r.evictPath(); err != nil {
			return err
		}
		lr.sinceEvict -= r.cfg.A
	}
	lr.bins++
	return nil
}

// walkPath reads one slot per bucket along leaf's path, preferring unread
// member blocks; members sharing a bucket with an already-read member are
// fetched afterwards with direct reads (the formula's +S term).
func (lr *LAORing) walkPath(leaf oram.Leaf, members []oram.BlockID) error {
	r := lr.ring
	remaining := make(map[oram.BlockID]bool, len(members))
	for _, m := range members {
		remaining[m] = true
	}
	for lvl := 0; lvl < r.geom.Levels(); lvl++ {
		node := r.geom.NodeAt(leaf, lvl)
		slot, hit, err := lr.findMemberSlot(lvl, node, remaining)
		if err != nil {
			return err
		}
		if slot < 0 {
			// No member here: burn a dummy.
			slot, err = r.findSlot(lvl, node, oram.DummyID)
			if err != nil {
				return err
			}
			hit = oram.DummyID
		}
		if slot < 0 {
			if err := r.earlyReshuffle(lvl, node); err != nil {
				return err
			}
			continue
		}
		if err := lr.consumeSlot(lvl, node, slot, hit, remaining); err != nil {
			return err
		}
	}
	// Direct reads for members co-located in an already-tapped bucket.
	ids := make([]oram.BlockID, 0, len(remaining))
	for m := range remaining {
		ids = append(ids, m)
	}
	slices.Sort(ids)
	for _, m := range ids {
		if err := lr.directRead(leaf, m); err != nil {
			return err
		}
	}
	return nil
}

// findMemberSlot scans the bucket for an unread slot holding any remaining
// member.
func (lr *LAORing) findMemberSlot(level int, node uint64, remaining map[oram.BlockID]bool) (int, oram.BlockID, error) {
	r := lr.ring
	if len(remaining) == 0 {
		return -1, oram.DummyID, nil
	}
	clearPayloads(r.bucketBuf)
	if err := r.store.ReadBucket(level, node, r.bucketBuf); err != nil {
		return -1, oram.DummyID, err
	}
	mask := r.readMask[r.bucketNo(level, node)]
	for i := range r.bucketBuf {
		if mask&(1<<uint(i)) != 0 {
			continue
		}
		if !r.bucketBuf[i].Dummy() && remaining[r.bucketBuf[i].ID] {
			return i, r.bucketBuf[i].ID, nil
		}
	}
	return -1, oram.DummyID, nil
}

// consumeSlot takes one slot of the bucket findSlot or findMemberSlot left in
// bucketBuf, updates marks/counters, stashes a member hit, and reshuffles the
// bucket if its dummy budget is spent.
func (lr *LAORing) consumeSlot(level int, node uint64, slot int, hit oram.BlockID, remaining map[oram.BlockID]bool) error {
	r := lr.ring
	s := r.bucketBuf[slot]
	r.stats.BlocksRead++
	b := r.bucketNo(level, node)
	r.readMask[b] |= 1 << uint(slot)
	r.readCnt[b]++
	if hit != oram.DummyID && s.ID == hit {
		if err := r.stash.Put(s.ID, s.Leaf, s.Payload); err != nil {
			return err
		}
		delete(remaining, s.ID)
	}
	if int(r.readCnt[b]) >= r.cfg.S {
		return r.earlyReshuffle(level, node)
	}
	return nil
}

// directRead fetches a specific member from whichever path bucket holds it.
func (lr *LAORing) directRead(leaf oram.Leaf, id oram.BlockID) error {
	r := lr.ring
	for lvl := 0; lvl < r.geom.Levels(); lvl++ {
		node := r.geom.NodeAt(leaf, lvl)
		slot, err := r.findSlot(lvl, node, id)
		if err != nil {
			return err
		}
		if slot < 0 {
			continue
		}
		one := map[oram.BlockID]bool{id: true}
		return lr.consumeSlot(lvl, node, slot, id, one)
	}
	return fmt.Errorf("ringoram: member %d not found on path %d", id, leaf)
}

// Run executes the whole plan.
func (lr *LAORing) Run(visit func(id oram.BlockID, payload []byte) []byte) error {
	for !lr.cursor.Done() {
		if err := lr.StepBin(visit); err != nil {
			return err
		}
	}
	return nil
}
