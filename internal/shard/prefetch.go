package shard

import "repro/internal/oram"

// Look-ahead prefetch: the §IV-B plan is an oracle of the paths a window
// will touch (every bin carries its pre-assigned leaf), so the moment a
// window is released its paths can start streaming from a tiered store's
// disk arena into memory — the planner releases a window while the session
// still executes the one before, which is the lead time a prefetcher needs.
// prefetchPlan hands each shard's bin leaves to its Sub.Prefetch hook; the
// hint is fire-and-forget and the store may drop it, so this costs one
// leaf-slice copy per shard per window and has no effect on correctness or
// on the client-visible access sequence (DESIGN.md invariant #14).
//
// A bin with a donor is not hinted: it reads its donor's leaf, which the
// position map holds and which is not final while the donor's last access
// may still be executing, so its drawn leaf would be a hint never read.
//
// Hints fire from two sites: Planner.release (the lead-time path) and
// Engine.NewSession (catch-up for plans built without a planner, e.g.
// one-shot Preprocess). Duplicate hints are harmless: the store skips
// already-resident buckets.
func (e *Engine) prefetchPlan(p *Plan) {
	if p == nil || p.n != e.n {
		return
	}
	for s := 0; s < e.n; s++ {
		pf := e.subs[s].Prefetch
		if pf == nil {
			continue
		}
		sp := p.plans[s]
		leaves := make([]oram.Leaf, 0, sp.Len())
		for i := 0; i < sp.Len(); i++ {
			b := sp.Bin(i)
			if _, lent := b.Donor(); !lent {
				leaves = append(leaves, b.Leaf)
			}
		}
		if len(leaves) > 0 {
			pf.PrefetchPaths(leaves)
		}
	}
}
