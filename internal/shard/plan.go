package shard

import (
	"context"
	"fmt"

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
}

// Shards returns the partition count the plan was built for.
func (p *Plan) Shards() int { return p.n }

// SplitStream partitions a global access stream into per-shard local-ID
// streams, preserving relative order within each shard. With one shard the
// split is the identity, so the returned slice aliases stream rather than
// copying it (multi-million-access streams pass through unduplicated).
func SplitStream(stream []uint64, n int) [][]uint64 {
	if n == 1 {
		return [][]uint64{stream}
	}
	out := make([][]uint64, n)
	for _, id := range stream {
		s := ShardOf(id, n)
		out[s] = append(out[s], LocalID(id, n))
	}
	return out
}

// windowSeedStride separates the plan-RNG seed domains of consecutive
// planner windows within one shard: window w of shard s draws its bin
// paths with seed SeedFor(seed, s) + 1 + w*windowSeedStride. Window 0
// therefore uses exactly the seed Preprocess uses — a full-stream window
// is byte-identical to one-shot preprocessing — and later windows stay
// clear of the other per-shard seed slots (client seed at +0; +2 is
// unused but stays reserved so window seeds do not move).
const windowSeedStride = 131

// planSeed returns the deterministic bin-path seed of planner window win
// on shard s (window 0 is the one-shot Preprocess seed).
func (e *Engine) planSeed(s, win int) int64 {
	return SeedFor(e.seed, s) + 1 + int64(win)*windowSeedStride
}

// Preprocess runs the §IV-B scan per shard, concurrently: shard s bins its
// local stream with superblock size sblk and draws bin paths from its own
// tree's leaves with the deterministic seed SeedFor(seed, s)+1 (for a
// 1-shard engine this is the seed the unsharded preprocessor uses).
func (e *Engine) Preprocess(stream []uint64, sblk int) (*Plan, error) {
	for _, id := range stream {
		if err := e.check(id); err != nil {
			return nil, err
		}
	}
	return e.preprocessWindow(stream, sblk, 0)
}

// preprocessWindow is the shared scan behind Preprocess (window 0) and the
// incremental Planner (windows 1..): split the window's slice of the
// global stream by shard, then bin every local slice concurrently with the
// window's deterministic seed. Callers must have validated the ids.
func (e *Engine) preprocessWindow(stream []uint64, sblk, win int) (*Plan, error) {
	locals := SplitStream(stream, e.n)
	p := &Plan{n: e.n, plans: make([]*superblock.Plan, e.n)}
	err := e.fanOut(nil, func(s int) error {
		// A shard absent from the stream gets an empty plan (zero bins).
		sp, err := superblock.NewPlan(locals[s], superblock.PlanConfig{
			S:      sblk,
			Leaves: e.subs[s].Client.Geometry().Leaves(),
			Rand:   trace.NewRNG(e.planSeed(s, win)),
		})
		p.plans[s] = sp
		return err
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// release finishes every shard's plan of p from the windows planned after
// it, nearest first (superblock.Plan.Release).
func (p *Plan) release(later []PlannedWindow) {
	next := make([]*superblock.Plan, len(later))
	for s, sp := range p.plans {
		for i := range later {
			next[i] = later[i].Plan.plans[s]
		}
		sp.Release(next)
	}
}

// LoadForPlan bulk-initialises every shard concurrently with look-ahead
// pre-placement: each block starts on the path of its first superblock bin
// in its shard's plan (the converged steady state of §IV-B), everything
// else uniformly.
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
	leafOf := make([]func(oram.BlockID) oram.Leaf, e.n)
	for s := 0; s < e.n; s++ {
		sp, client := p.plans[s], e.subs[s].Client
		leafOf[s] = func(local oram.BlockID) oram.Leaf {
			if l := sp.FirstLeaf(local); l != oram.NoLeaf {
				return l
			}
			return client.RandomLeaf()
		}
	}
	return e.load(ctx, e.entries, leafOf, payload)
}
