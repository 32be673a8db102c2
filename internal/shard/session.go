package shard

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/oram"
)

// Visit is invoked for each block of a bin while it is resident in trusted
// memory; ids are global. Returning non-nil replaces the payload. During
// Run/RunContext, visit is called concurrently from different shard
// lanes — never concurrently for the same id (a block lives in exactly one
// shard) — so implementations need per-lane scratch or no shared state;
// NewVisit builds one visitor per lane for that purpose.
type Visit func(id uint64, payload []byte) []byte

// NewVisit returns a fresh Visit per shard lane, letting callers keep
// mutable scratch (decode buffers, optimiser state) lane-local during
// concurrent execution. Either may be nil.
type NewVisit func(shard int) Visit

// Session executes a sharded Plan: one core.LAORAM lane per shard, each
// consuming its shard's bins in plan order; Run/RunContext drive the lanes
// concurrently.
type Session struct {
	e   *Engine
	las []*core.LAORAM
}

// NewSession builds the per-shard LAORAM lanes for plan p.
func (e *Engine) NewSession(p *Plan) (*Session, error) {
	if p == nil {
		return nil, fmt.Errorf("shard: nil plan")
	}
	if p.n != e.n {
		return nil, fmt.Errorf("shard: plan built for %d shards, engine has %d", p.n, e.n)
	}
	s := &Session{e: e, las: make([]*core.LAORAM, e.n)}
	for i := 0; i < e.n; i++ {
		la, err := core.New(core.Config{Base: e.subs[i].Client, Plan: p.plans[i]})
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.las[i] = la
	}
	// Catch-up prefetch hint for plans that skipped the planner (one-shot
	// Preprocess); already-hinted windows dedupe inside the store.
	e.prefetchPlan(p)
	return s, nil
}

// wrap translates a global-ID visitor to shard i's local-ID space.
func (s *Session) wrap(i int, v Visit) core.Visit {
	if v == nil {
		return nil
	}
	n := s.e.n
	return func(local oram.BlockID, payload []byte) []byte {
		return v(GlobalID(uint64(local), i, n), payload)
	}
}

// Done reports whether every lane's plan is exhausted.
func (s *Session) Done() bool {
	for _, la := range s.las {
		if !la.Done() {
			return false
		}
	}
	return true
}

// Run drives every lane to completion concurrently at the default step
// (RunContext with k = 0). nv (may be nil) builds one visitor per lane; use
// it to keep scratch state lane-local.
func (s *Session) Run(nv NewVisit) error {
	return s.RunContext(context.Background(), 0, nil, nv)
}

// RunContext drives the lanes sel marks true (nil selects every lane) to
// completion concurrently, k bins per server round trip (§IV-A's
// per-training-batch fetch within each shard). k = 0 is the default step:
// StepBins(S), a batchChunk of keys' worth of bins. Every lane checks ctx
// at each round-trip boundary, so a cancelled context drains all shard
// workers (the fan-out always joins) and returns ctx.Err(); the check
// consumes no randomness — an uncancelled run is byte-identical to Run.
//
// A lane selector is the re-placement catch-up path: after a dead node's
// shards were restored from the last checkpoint onto survivors, just those
// lanes re-run the windows since the boundary while the other lanes' plans
// and live state stay untouched. A selected lane executes exactly as it
// would with every lane selected (same bin order, same randomness), so a
// caught-up lane is byte-identical to one that never failed.
func (s *Session) RunContext(ctx context.Context, k int, sel []bool, nv NewVisit) error {
	if k < 1 {
		k = StepBins(s.las[0].Plan().S())
	}
	return s.e.fanOut(sel, func(i int) error {
		var v Visit
		if nv != nil {
			v = nv(i)
		}
		if err := s.las[i].Run(ctx, k, s.wrap(i, v)); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		return nil
	})
}

// StepBins is the default step of a plan of superblock size S: as many bins
// as hold batchChunk keys (8 at the paper's S = 4), never fewer than one. A
// training step then moves one joint access's worth of keys, the bound
// ReadBatch and WriteBatch cut lookups at.
func StepBins(S int) int { return max(1, batchChunk/S) }

// Lane exposes shard i's LAORAM executor (stats, manual stepping).
func (s *Session) Lane(i int) *core.LAORAM { return s.las[i] }

// Stats sums the per-lane LAORAM counters (base AccessStats included).
func (s *Session) Stats() core.Stats {
	var out core.Stats
	for _, la := range s.las {
		st := la.Stats()
		out.AccessStats = out.AccessStats.Add(st.AccessStats)
		out.SessionStats = out.SessionStats.Add(st.SessionStats)
	}
	return out
}
