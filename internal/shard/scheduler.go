package shard

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/oram"
)

// fanOut runs f(s) for every shard sel marks true (nil selects every
// shard), one worker goroutine per shard, and returns the lowest-shard
// error. A single selected shard runs inline on the calling goroutine, so a
// 1-shard engine consumes randomness and advances clocks in exactly the
// order the unsharded engine would — the property behind the
// byte-identical Shards=1 guarantee. A selector is the execution primitive
// of per-shard re-placement catch-up, where only the re-placed lanes replay
// their accesses while healthy lanes' state stays untouched; zero selected
// shards is a no-op.
//
// Shards never share mutable state (each worker touches only its own
// client, store and meter), so no locking is needed beyond the join.
func (e *Engine) fanOut(sel []bool, f func(shard int) error) error {
	if sel != nil && len(sel) != e.n {
		return fmt.Errorf("shard: lane selector has %d entries, engine has %d shards", len(sel), e.n)
	}
	on := func(s int) bool { return sel == nil || sel[s] }
	picked, last := 0, 0
	for s := 0; s < e.n; s++ {
		if on(s) {
			picked, last = picked+1, s
		}
	}
	switch picked {
	case 0:
		return nil
	case 1:
		return f(last)
	}
	errs := make([]error, e.n)
	var wg sync.WaitGroup
	for s := 0; s < e.n; s++ {
		if !on(s) {
			continue
		}
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = f(s)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats aggregates the whole engine's counters. Additive quantities
// (accesses, path I/O, traffic, stash occupancy, position-map bytes) are
// summed across shards; SimTime is the maximum over the per-shard meters,
// because the shards model independent memory channels running in
// parallel — elapsed time is the slowest lane, not the sum.
type Stats struct {
	Access      oram.AccessStats
	Counters    oram.Counters
	StashLen    int
	StashPeak   int
	ServerBytes int64
	PosBytes    int64
	SimTime     time.Duration
	// Tier sums the memory-tier counters of tiered (disk-backed) stores;
	// all-zero for pure in-memory engines.
	Tier oram.TierStats
}

// Stats sums the per-shard snapshots (see type Stats for the SimTime
// semantics).
func (e *Engine) Stats() Stats {
	var out Stats
	for _, sub := range e.subs {
		st := sub.Client.Stats()
		out.Access.Accesses += st.Accesses
		out.Access.StashHits += st.StashHits
		out.Access.PathReads += st.PathReads
		out.Access.PathWrites += st.PathWrites
		out.Access.DummyReads += st.DummyReads
		out.Access.Remaps += st.Remaps
		out.StashLen += sub.Client.Stash().Len()
		out.StashPeak += sub.Client.Stash().Peak()
		out.ServerBytes += sub.Client.Geometry().ServerBytes()
		out.PosBytes += sub.Client.PosMap().Bytes()
		if sub.Store != nil {
			c := sub.Store.Counters()
			out.Counters.BucketReads += c.BucketReads
			out.Counters.BucketWrites += c.BucketWrites
			out.Counters.SlotReads += c.SlotReads
			out.Counters.SlotWrites += c.SlotWrites
			out.Counters.BytesRead += c.BytesRead
			out.Counters.BytesWritten += c.BytesWritten
			out.Tier = out.Tier.Add(sub.Store.TierStats())
		}
		if sub.Meter != nil && sub.Meter.Now() > out.SimTime {
			out.SimTime = sub.Meter.Now()
		}
	}
	return out
}

// ResetStats zeroes every shard's counters, stash peaks and meters.
func (e *Engine) ResetStats() {
	for _, sub := range e.subs {
		sub.Client.ResetStats()
		sub.Client.Stash().ResetPeak()
		if sub.Store != nil {
			sub.Store.ResetCounters()
			sub.Store.ResetTierStats()
		}
		if sub.Meter != nil {
			sub.Meter.Reset()
		}
	}
}
