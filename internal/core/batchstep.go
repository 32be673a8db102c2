package core

import (
	"context"
	"fmt"

	"repro/internal/oram"
)

// StepBatch executes up to k superblock bins as one batched server round
// trip — the paper's per-training-batch flow (§IV-A): the trainer gathers
// the paths of every entry the upcoming batch needs, fetches them in one
// burst, trains while the entries are resident, and writes the fetched
// paths back jointly.
//
// Batching is strictly cheaper than k sequential StepBin calls: buckets
// shared between the batch's paths (at least the root; long prefixes for
// nearby leaves) are read and written exactly once.
//
// Returns the number of bins executed (less than k only at plan end).
func (l *LAORAM) StepBatch(k int, visit Visit) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("core: StepBatch k must be > 0, got %d", k)
	}
	st := l.base.StatsMut()

	// Peek at the batch's bins and gather the distinct leaves to fetch.
	l.fetch.Reset()
	bins := 0
	for i := 0; i < k; i++ {
		bin := l.cursor.PeekBin(i)
		if bin == nil {
			break
		}
		bins++
		st.Accesses += uint64(len(bin.Blocks))
		for _, id := range bin.Blocks {
			hit, err := l.base.GatherLeaf(&l.fetch, id)
			if err != nil {
				return 0, fmt.Errorf("core: bin %d: %w", bin.Index, err)
			}
			if hit {
				st.StashHits++
			}
		}
	}
	if bins == 0 {
		return 0, fmt.Errorf("core: plan exhausted after %d bins", l.bins)
	}
	readLeaves := l.fetch.Leaves()

	// One burst fetch of the union of paths.
	if err := l.base.ReadPaths(readLeaves); err != nil {
		return 0, err
	}
	st.PathReads += uint64(len(readLeaves))
	if len(readLeaves) > bins {
		l.coldPathReads += uint64(len(readLeaves) - bins)
	}

	// Consume the bins in order: remap members per the plan and visit.
	for i := 0; i < bins; i++ {
		bin, nextLeaves, err := l.cursor.Advance()
		if err != nil {
			return 0, err
		}
		for j, id := range bin.Blocks {
			if !l.base.Stash().Contains(id) {
				return 0, fmt.Errorf("core: block %d missing after batch fetch (bin %d)", id, bin.Index)
			}
			leaf := nextLeaves[j]
			if leaf == oram.NoLeaf {
				leaf = l.base.RandomLeaf()
				l.uniformRemaps++
			} else {
				l.lookaheadRemaps++
			}
			l.base.PosMap().Set(id, leaf)
			l.base.Stash().SetLeaf(id, leaf)
			st.Remaps++
		}
		if visit != nil {
			for _, id := range bin.Blocks {
				p, _ := l.base.Stash().Payload(id)
				if np := visit(id, p); np != nil {
					l.base.Stash().SetPayload(id, np)
				}
			}
		}
		l.bins++
	}

	// Joint write-back of every fetched path.
	if err := l.base.WriteBackPaths(readLeaves); err != nil {
		return 0, err
	}
	st.PathWrites += uint64(len(readLeaves))
	if _, err := l.base.MaybeEvict(); err != nil {
		return 0, err
	}
	return bins, nil
}

// RunBatched executes the remaining plan in batches of k bins.
func (l *LAORAM) RunBatched(k int, visit Visit) error {
	return l.RunBatchedContext(context.Background(), k, visit)
}

// RunBatchedContext is RunBatched with cooperative cancellation: ctx is
// checked before every batch round trip (see RunContext for the
// byte-identity contract).
func (l *LAORAM) RunBatchedContext(ctx context.Context, k int, visit Visit) error {
	for !l.cursor.Done() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := l.StepBatch(k, visit); err != nil {
			return err
		}
	}
	return nil
}
