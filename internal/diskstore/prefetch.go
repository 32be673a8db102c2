package diskstore

import "repro/internal/oram"

// PrefetchPaths implements oram.PathPrefetcher: hint that the paths to
// leaves will be read soon. The hint is queued for the prefetch worker
// (and dropped when the queue is full or prefetching is disabled —
// strictly best-effort). Safe to call from any goroutine; the hint never
// influences what the store answers, only when disk reads happen
// (DESIGN.md invariant #14).
func (st *Store) PrefetchPaths(leaves []oram.Leaf) {
	if st.pfCh == nil || len(leaves) == 0 {
		return
	}
	cp := make([]oram.Leaf, len(leaves))
	copy(cp, leaves)
	select {
	case st.pfCh <- cp:
	case <-st.stop:
	default: // queue full — drop the hint
	}
}

// prefetcher is the look-ahead worker: for each hinted leaf it requests one
// span per tier the path crosses, skipping tiers that are wholly resident
// and those the client's treetop holds.
// All its disk activity is reads, and it checks no CRC: the demand path
// checks the CRC of every bucket it hands out.
func (st *Store) prefetcher() {
	defer st.wg.Done()
	for {
		select {
		case <-st.stop:
			return
		case leaves := <-st.pfCh:
			// Index the hint so the demand path can report its position in
			// it: a leaf-level lookup of leaves[i]'s node moves the demand
			// cursor to i. The worker then slides a bounded look-ahead
			// window past that cursor instead of racing to the end of the
			// hint — at small budgets, anything prefetched too early is
			// evicted by demand misses before the client arrives, and
			// anything behind the cursor has already hit or missed.
			lastLvl := st.geom.Levels() - 1
			idx := make(map[uint64]int, len(leaves))
			for i, leaf := range leaves {
				if !st.geom.ValidLeaf(leaf) {
					continue
				}
				node := st.geom.NodeAt(leaf, lastLvl)
				if _, ok := idx[node]; !ok {
					idx[node] = i
				}
			}
			st.mu.Lock()
			st.pfMap = idx
			st.pfDemand = -1
			st.mu.Unlock()
			for i, leaf := range leaves {
				if !st.geom.ValidLeaf(leaf) {
					continue
				}
				stale, ok := st.pfGate(i)
				if !ok {
					return
				}
				if stale {
					continue // demand already passed this path
				}
				for t := st.pfTier; t < len(st.tiers); t++ {
					lo := st.tiers[t].lo
					if sp := st.prefetchRead(st.locate(lo, st.geom.NodeAt(leaf, lo))); sp != nil {
						st.prefetchInsert(sp)
					}
				}
			}
		}
	}
}

// pfGate paces hint position i: it blocks while i is more than pfLead
// paths past the demand cursor, or while unconsumed prefetched spans
// occupy more than half the cache budget — parked on pfWake, which every
// change to either quantity signals. stale reports that the demand stream
// has already moved past i; ok is false when the store is stopping.
func (st *Store) pfGate(i int) (stale, ok bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	for !st.closed {
		if i < st.pfDemand {
			return true, true
		}
		if st.budget <= 0 || (i <= st.pfDemand+st.pfLead && st.pfBytes <= st.budget/2) {
			return false, true
		}
		st.pfWake.Wait()
	}
	return false, false
}

// noPrefetch is pfKey's value while no prefetch read is in flight (span
// keys are >= 0).
const noPrefetch = -1

// prefetchRead reads the span at l into a free buffer, having registered it
// as the in-flight prefetch: a span waiting in its tier's pending batch is
// copied from there under mu, any other is pread from its slot outside mu.
// It returns nil when there is nothing to hand to prefetchInsert: the span
// (or its whole tier) is resident, the store is stopping, or the read
// failed.
func (st *Store) prefetchRead(l loc) *span {
	st.mu.Lock()
	if st.closed || l.t.resident == 1<<uint(l.t.lo) || st.cache[l.key()] != nil {
		st.mu.Unlock()
		return nil
	}
	st.pfKey = l.key()
	sp := l.t.take(l.root)
	if i := l.t.pending(l.root); i >= 0 {
		copy(sp.buf, l.t.pend[i].buf)
		st.mu.Unlock()
		return sp
	}
	at := l.t.spanOff(l.root)
	st.mu.Unlock()
	if _, err := st.f.ReadAt(sp.buf, at); err != nil {
		st.mu.Lock()
		sp.t.recycle(sp)
		st.mu.Unlock()
		return nil
	}
	return sp
}

// prefetchInsert caches the span prefetchRead fetched, unless it became
// resident meanwhile or the read was cancelled: the client may have
// faulted the span in, rewritten a bucket of it and had it evicted again
// (or rewritten the bucket's record around the cache) — all inside the read
// window — and sp is then the span as it was before that write, read
// perhaps from a slot the span has left since. A span still pending is
// taken back from the batch instead: sp is a copy of its image.
func (st *Store) prefetchInsert(sp *span) {
	key := sp.key()
	st.mu.Lock()
	defer st.mu.Unlock()
	cancelled := st.pfKey != key
	st.pfKey = noPrefetch
	if cancelled || st.closed || st.cache[key] != nil {
		sp.t.recycle(sp)
		return
	}
	i := sp.t.pending(sp.root)
	if i >= 0 {
		sp.t.recycle(sp)
		sp = st.rescueLocked(sp.t, i)
	}
	sp.prefetched, sp.pfPeriod = true, st.period
	st.pfBytes += sp.t.body
	st.stats.PrefetchIssued++
	if i < 0 {
		st.insertLocked(sp) // a failed write-out of a victim is sticky in ioErr
	}
}
