package oram

// Tiered-storage extensions: a Store whose buckets live below a bounded
// memory tier (internal/diskstore) exposes its cache behaviour through the
// optional interfaces here, and accepts look-ahead prefetch hints from the
// shard planner. The interfaces live in this package so CountingStore can
// forward them and the shard engine can probe them without importing the
// disk backend.

// PathPrefetcher is an optional Store extension: a hint that the paths to
// the given leaves will be read soon. A tiered store faults the hinted
// buckets into its memory tier asynchronously; an in-memory store has no
// use for it. Prefetching is strictly best-effort and MUST NOT change the
// store's observable behaviour: the client-visible access sequence (which
// buckets are read/written, in what order, with what contents) is
// identical with and without hints — only the store's own disk I/O is
// reordered (DESIGN.md invariant #14).
//
// Unlike the core Store methods, PrefetchPaths is safe to call from a
// goroutine other than the client's (the planner runs ahead of the
// session): tiered stores synchronise internally.
type PathPrefetcher interface {
	PrefetchPaths(leaves []Leaf)
}

// TierStats counts memory-tier behaviour of a tiered store, in the spirit
// of CountingStore's traffic ledger: Hits/Misses split demand bucket
// fetches by whether the bucket was already resident, PrefetchIssued
// counts buckets the look-ahead prefetcher faulted in from disk, and
// PrefetchUseful counts demand hits that landed on a still-unread
// prefetched bucket (the prefetches that actually hid a miss).
// DemandStallNs accumulates wall time the client spent blocked on demand
// disk reads — the effective miss cost prefetching is meant to hide.
type TierStats struct {
	Hits           uint64
	Misses         uint64
	PrefetchIssued uint64
	PrefetchUseful uint64
	DemandStallNs  int64
}

// Add returns the element-wise sum t + o (for cross-shard aggregation).
func (t TierStats) Add(o TierStats) TierStats {
	return TierStats{
		Hits:           t.Hits + o.Hits,
		Misses:         t.Misses + o.Misses,
		PrefetchIssued: t.PrefetchIssued + o.PrefetchIssued,
		PrefetchUseful: t.PrefetchUseful + o.PrefetchUseful,
		DemandStallNs:  t.DemandStallNs + o.DemandStallNs,
	}
}

// TieredStore is an optional Store extension implemented by stores with a
// disk tier under a bounded memory tier; purely in-memory stores do not
// implement it.
type TieredStore interface {
	// TierStats returns a snapshot of the tier counters.
	TierStats() TierStats
	// ResetTierStats zeroes the tier counters.
	ResetTierStats()
}

// TierStats forwards to the wrapped store's tier counters, returning the
// zero value when the store has no disk tier (so callers can aggregate
// unconditionally).
func (cs *CountingStore) TierStats() TierStats { return tierStatsOf(cs.inner.Store) }

// ResetTierStats forwards to the wrapped store; a no-op without a disk
// tier.
func (cs *CountingStore) ResetTierStats() { resetTierStats(cs.inner.Store) }

// tierStatsOf returns st's tier counters, or zero when it has no disk tier.
func tierStatsOf(st Store) TierStats {
	if ts, ok := st.(TieredStore); ok {
		return ts.TierStats()
	}
	return TierStats{}
}

// resetTierStats zeroes st's tier counters, if it has any.
func resetTierStats(st Store) {
	if ts, ok := st.(TieredStore); ok {
		ts.ResetTierStats()
	}
}
