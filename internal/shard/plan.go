package shard

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/oram"
	"repro/internal/superblock"
	"repro/internal/trace"
)

// Plan is the sharded preprocessor output: one superblock plan (§IV-B)
// per shard, each built over the shard's slice of the global access
// stream in local-ID space. Because the §IV-B scan is a left-to-right
// pass that only groups co-accessed indices, splitting the stream by
// shard first and scanning each slice independently preserves the
// look-ahead property within every shard — a bin's members are still the
// next S unique indices that shard will serve.
type Plan struct {
	n     int
	plans []*superblock.Plan
	// first is each shard's pre-placement table, indexed by local id: the
	// leaf of the id's first bin in any window held when this plan was
	// released, or NoLeaf. Only a release asked to place carries it.
	first [][]oram.Leaf
}

// Shards returns the partition count the plan was built for.
func (p *Plan) Shards() int { return p.n }

// windowSeedStride separates the plan-RNG seed domains of consecutive
// planner windows within one shard: window w of shard s draws its bin
// paths with seed SeedFor(seed, s) + 1 + w*windowSeedStride + mix(salt).
// Window 0 at salt 0 therefore uses exactly the seed Preprocess uses — a
// full-stream window is byte-identical to one-shot preprocessing — and
// later windows stay clear of the other per-shard seed slots (client seed
// at +0; +2 is unused but stays reserved so window seeds do not move).
const windowSeedStride = 131

// planSeed returns the deterministic bin-path seed of planner window win
// on shard s under the shard's salt (window 0 at salt 0 is the one-shot
// Preprocess seed).
func (e *Engine) planSeed(s, win int, salt uint64) int64 {
	return SeedFor(e.seed, s) + 1 + int64(win)*windowSeedStride + int64(mixSalt(salt))
}

// mixSalt is SplitMix64's finaliser: it spreads a salt over all 64 bits, so
// salts a window stride apart do not land on each other's seeds, and keeps
// 0 at 0.
func mixSalt(x uint64) uint64 {
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// PlanSalts returns each shard's position in its counted RNG stream (0 for
// a shard built without one): the salts a training run mixes into its plan
// seeds. A fresh engine reads all 0; every access draws, so a later run's
// windows draw bin leaves apart from an earlier run's. SaveState and
// LoadState carry the positions, so a restored engine reads the salts the
// saved one would.
func (e *Engine) PlanSalts() []uint64 {
	salts := make([]uint64, e.n)
	for s, sub := range e.subs {
		if sub.Src != nil {
			salts[s] = sub.Src.Draws()
		}
	}
	return salts
}

// Preprocess runs the §IV-B scan per shard, concurrently: shard s bins its
// local stream with superblock size sblk and draws bin paths from its own
// tree's leaves with the deterministic seed SeedFor(seed, s)+1 (for a
// 1-shard engine this is the seed the unsharded preprocessor uses). It is
// the planner's horizon over one window spanning the stream, released with
// its pre-placement table.
func (e *Engine) Preprocess(stream []uint64, sblk int) (*Plan, error) {
	h, err := e.newHorizon(sblk)
	if err != nil {
		return nil, err
	}
	h.place = true
	if err := h.bin(stream, 0); err != nil {
		return nil, err
	}
	return h.release().Plan, nil
}

// horizon is the planner's look-ahead state: one superblock.Horizon per
// shard, the windows binned into them, and the split buffers and plan RNGs
// binning reuses every window.
type horizon struct {
	e      *Engine
	rings  []*superblock.Horizon
	locals [][]uint64
	rngs   []*rand.Rand
	salts  []uint64     // per-shard plan-seed salts; nil is all 0
	place  bool         // the next release carries the pre-placement table
	held   []heldWindow // binned windows, oldest first
}

// heldWindow is a binned window: its PlannedWindow less the Plan, and each
// shard ring's extent of it.
type heldWindow struct {
	PlannedWindow
	ext []superblock.Extent
}

func (e *Engine) newHorizon(sblk int) (*horizon, error) {
	h := &horizon{e: e, rings: make([]*superblock.Horizon, e.n), locals: make([][]uint64, e.n), rngs: make([]*rand.Rand, e.n)}
	for s := range h.rings {
		ring, err := superblock.NewHorizon(sblk, e.subs[s].Client.Geometry().Leaves(), int(PerShardEntries(e.entries, e.n)))
		if err != nil {
			return nil, err
		}
		h.rings[s], h.rngs[s] = ring, trace.NewRNG(0)
	}
	return h, nil
}

// bin validates window win's slice of the global stream, splits it into
// per-shard local-ID streams, in order, and bins every local slice into its
// shard's ring, concurrently, with the window's deterministic seed; the
// window is then held, its PlanTime the time this took. Splitting first
// preserves the look-ahead property: a bin's members are still the next S
// unique indices its shard will serve.
func (h *horizon) bin(stream []uint64, win int) error {
	start := time.Now()
	for _, id := range stream {
		if err := h.e.check(id); err != nil {
			return err
		}
	}
	n := h.e.n
	if n == 1 {
		h.locals[0] = stream
	} else {
		for s := range h.locals {
			h.locals[s] = h.locals[s][:0]
		}
		for _, id := range stream {
			s := ShardOf(id, n)
			h.locals[s] = append(h.locals[s], LocalID(id, n))
		}
	}
	ext := make([]superblock.Extent, n)
	err := h.e.fanOut(nil, func(s int) (err error) {
		var salt uint64
		if h.salts != nil {
			salt = h.salts[s]
		}
		h.rngs[s].Seed(h.e.planSeed(s, win, salt))
		ext[s], err = h.rings[s].Bin(h.locals[s], h.rngs[s])
		return err
	})
	if err != nil {
		return err
	}
	h.held = append(h.held, heldWindow{PlannedWindow{Index: win, Accesses: len(stream), PlanTime: time.Since(start)}, ext})
	return nil
}

// release removes the oldest held window from every shard's ring and
// returns it with its sharded Plan, each member's next leaf reaching into
// every window still held; its PlanTime includes the release. When the
// horizon was asked to place, this first release's Plan also carries each
// shard's first-leaf table over every held window, the released one
// included.
func (h *horizon) release() PlannedWindow {
	start := time.Now()
	w := h.held[0]
	w.Plan = &Plan{n: h.e.n, plans: make([]*superblock.Plan, h.e.n)}
	if h.place {
		w.Plan.first = make([][]oram.Leaf, h.e.n)
	}
	h.e.fanOut(nil, func(s int) error {
		if h.place {
			ext := make([]superblock.Extent, len(h.held))
			for i, hw := range h.held {
				ext[i] = hw.ext[s]
			}
			w.Plan.first[s] = h.rings[s].FirstLeaves(ext)
		}
		w.Plan.plans[s] = h.rings[s].Release(w.ext[s])
		return nil
	})
	h.place = false
	h.held = append(h.held[:0], h.held[1:]...)
	w.PlanTime += time.Since(start)
	return w.PlannedWindow
}

// Unlend clears every shard's lendable bits. A training run that ends
// before executing all it planned calls it: a bin it never ran may have been
// promised its donor's leaf, and the blocks that took that leaf sit on it
// with the donor, so the leaf is no longer the donor's alone.
func (e *Engine) Unlend() {
	for _, sub := range e.subs {
		sub.Client.PosMap().Unlend()
	}
}

// LoadForPlan bulk-initialises every shard concurrently with look-ahead
// pre-placement from the plan's table: each block the horizon held at the
// plan's release starts on the path of its first superblock bin in any
// held window (the converged steady state of §IV-B), everything else on a
// uniform leaf drawn in id order. The plan must carry the table: Preprocess
// plans do, and so does a planner's first window under PlannerConfig.Place.
func (e *Engine) LoadForPlan(p *Plan, payload func(id uint64) []byte) error {
	return e.LoadForPlanContext(context.Background(), p, payload)
}

// LoadForPlanContext is LoadForPlan with cooperative cancellation at shard
// granularity (see LoadContext).
func (e *Engine) LoadForPlanContext(ctx context.Context, p *Plan, payload func(id uint64) []byte) error {
	if p == nil {
		return fmt.Errorf("shard: nil plan")
	}
	if p.n != e.n {
		return fmt.Errorf("shard: plan built for %d shards, engine has %d", p.n, e.n)
	}
	if p.first == nil {
		return fmt.Errorf("shard: plan carries no pre-placement table (only Preprocess and a placing planner's first window do)")
	}
	leafOf := make([]func(oram.BlockID) oram.Leaf, e.n)
	for s := 0; s < e.n; s++ {
		first := p.first[s]
		// NoLeaf leaves the block to Load's uniform draw.
		leafOf[s] = func(local oram.BlockID) oram.Leaf { return first[local] }
	}
	return e.load(ctx, e.entries, leafOf, payload)
}
