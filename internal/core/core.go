// Package core implements LAORAM, the paper's primary contribution (§IV):
// a look-ahead ORAM client for embedding-table training. The preprocessor
// (internal/superblock) has already scanned the upcoming training stream
// into superblock bins, each assigned a uniformly random path; this client
// executes the plan bin by bin on top of the PathORAM engine
// (internal/oram), optionally over a fat-tree (§V).
//
// Per §IV-A, reads and writes happen at superblock granularity: one path
// fetch serves every member of the bin, and each member is then remapped
// independently to the path of the *next* bin it appears in (its "future
// locality"), or to a fresh uniform path if it does not reappear within the
// look-ahead horizon. A bin whose first cold member (one with no earlier
// occurrence in the horizon) sits on a lendable leaf — drawn uniformly for
// that block alone and never read since — takes that leaf instead of its
// drawn one, so one read serves the donor and the members remapped to it.
// Security is unchanged from PathORAM: every path a step reads is a uniform
// draw revealed for the first time (§VI).
package core

import (
	"context"
	"fmt"

	"repro/internal/oram"
	"repro/internal/superblock"
)

// Visit is the per-block callback invoked while a bin's members are resident
// in trusted memory (the trainer GPU's cache in the paper). payload is the
// block's current content (nil under a metadata-only store); returning a
// non-nil slice replaces the content — this is where the training step's
// gradient update lands.
type Visit func(id oram.BlockID, payload []byte) []byte

// Stats extends the PathORAM counters with LAORAM-specific observability.
type Stats struct {
	oram.AccessStats
	SessionStats
}

// SessionStats are the LAORAM session counters of §IV: one shard lane's
// for a window, or their sum over lanes and windows.
type SessionStats struct {
	// Bins is the number of superblock bins executed.
	Bins uint64
	// ColdPathReads counts the paths a step read beyond one per bin. A
	// bin reads one path for itself — its donor's leaf when lendable, else
	// its drawn leaf — plus the leaf of each other cold member: a member
	// with no previous access inside the horizon that no pre-placement put
	// on the bin's path. A bin of cold members alone reads just theirs.
	ColdPathReads uint64
	// LookaheadRemaps counts remaps whose target came from the plan
	// (vs. UniformRemaps for blocks leaving the horizon).
	LookaheadRemaps uint64
	UniformRemaps   uint64
}

// Add returns the counter-wise sum s + o.
func (s SessionStats) Add(o SessionStats) SessionStats {
	return SessionStats{
		Bins:            s.Bins + o.Bins,
		ColdPathReads:   s.ColdPathReads + o.ColdPathReads,
		LookaheadRemaps: s.LookaheadRemaps + o.LookaheadRemaps,
		UniformRemaps:   s.UniformRemaps + o.UniformRemaps,
	}
}

// Sub returns the counter-wise difference s - o.
func (s SessionStats) Sub(o SessionStats) SessionStats {
	return SessionStats{
		Bins:            s.Bins - o.Bins,
		ColdPathReads:   s.ColdPathReads - o.ColdPathReads,
		LookaheadRemaps: s.LookaheadRemaps - o.LookaheadRemaps,
		UniformRemaps:   s.UniformRemaps - o.UniformRemaps,
	}
}

// LAORAM executes a superblock plan over a PathORAM engine.
type LAORAM struct {
	base   *oram.Client
	plan   *superblock.Plan
	cursor *superblock.Cursor

	sess SessionStats

	// fetch is the distinct-leaf set of the bin (or batch of bins) in
	// flight, reused across steps.
	fetch oram.LeafSet
}

// Config assembles a LAORAM instance.
type Config struct {
	// Base is the PathORAM engine (its geometry may be a fat-tree).
	Base *oram.Client
	// Plan is the preprocessor output to execute.
	Plan *superblock.Plan
}

// New validates cfg and builds the client.
func New(cfg Config) (*LAORAM, error) {
	if cfg.Base == nil {
		return nil, fmt.Errorf("core: Config.Base is required")
	}
	if cfg.Plan == nil {
		return nil, fmt.Errorf("core: Config.Plan is required")
	}
	return &LAORAM{
		base:   cfg.Base,
		plan:   cfg.Plan,
		cursor: superblock.NewCursor(cfg.Plan),
	}, nil
}

// Base returns the underlying PathORAM client.
func (l *LAORAM) Base() *oram.Client { return l.base }

// Plan returns the plan under execution.
func (l *LAORAM) Plan() *superblock.Plan { return l.plan }

// Stats returns a snapshot of combined statistics.
func (l *LAORAM) Stats() Stats {
	return Stats{AccessStats: l.base.Stats(), SessionStats: l.sess}
}

// ResetStats zeroes all counters (base and LAORAM-level).
func (l *LAORAM) ResetStats() {
	l.base.ResetStats()
	l.sess = SessionStats{}
}

// Done reports whether the plan has been fully executed.
func (l *LAORAM) Done() bool { return l.cursor.Done() }

// LoadPrePlaced populates the tree with n blocks, placing every block that
// appears in the plan on the path of its first bin and the rest uniformly.
// This is the converged steady state: after one warm-up epoch every block's
// position already agrees with the look-ahead assignment (§IV-B3 fixes a
// block's next path at its previous access; pre-placement just short-cuts
// the first epoch). Use Base().Load(n, nil, payload) + a warm-up run for
// the cold-start variant.
func (l *LAORAM) LoadPrePlaced(n uint64, payload func(oram.BlockID) []byte) error {
	// NoLeaf leaves the block to Load's uniform draw.
	return l.base.Load(n, l.plan.FirstLeaf, payload)
}

// Step executes up to k superblock bins as one server round trip — the
// paper's per-training-batch flow (§IV-A); a bin is the one-bin batch:
//
//  1. Gather the distinct leaves of every member of the k bins and fetch
//     them as one bucket union (oram.ReadPaths). Each bin contributes one
//     path: its drawn leaf, or its donor's lendable leaf, which its warm
//     members were remapped to. Cold members past the donor, still on
//     their own uniform paths, add theirs, counted in ColdPathReads, and
//     buckets the paths share cross once.
//  2. Consume the bins in order: remap every member to its own next bin's
//     path — the next bin's donor's leaf if it is lendable now, else the
//     bin's drawn leaf — or to a fresh lendable uniform leaf if it has no
//     future within the horizon, then run visit for each member while it is
//     resident in trusted memory.
//  3. Write the fetched paths back jointly with greedy eviction, then run
//     background eviction if the stash is over its high-water mark.
//
// visit may be nil. Returns the number of bins executed (less than k only
// at plan end).
func (l *LAORAM) Step(k int, visit Visit) (int, error) {
	if k <= 0 {
		return 0, fmt.Errorf("core: Step k must be > 0, got %d", k)
	}
	st := l.base.StatsMut()

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
		return 0, fmt.Errorf("core: plan exhausted after %d bins", l.sess.Bins)
	}
	readLeaves := l.fetch.Leaves()
	if err := l.base.ReadPaths(readLeaves); err != nil {
		return 0, err
	}
	st.PathReads += uint64(len(readLeaves))
	if len(readLeaves) > bins {
		// Everything beyond one path per bin is cold-start traffic.
		l.sess.ColdPathReads += uint64(len(readLeaves) - bins)
	}

	stash := l.base.Stash()
	for i := 0; i < bins; i++ {
		bin, nextLeaves, err := l.cursor.Advance()
		if err != nil {
			return 0, err
		}
		for j, id := range bin.Blocks {
			if !stash.Contains(id) {
				return 0, fmt.Errorf("core: block %d missing after path reads (bin %d)", id, bin.Index)
			}
			l.remap(id, nextLeaves[j])
		}
		if visit != nil {
			for _, id := range bin.Blocks {
				p, _ := stash.Payload(id)
				if np := visit(id, p); np != nil {
					stash.SetPayload(id, np)
				}
			}
		}
		l.sess.Bins++
	}

	if err := l.base.WriteBackPaths(readLeaves); err != nil {
		return 0, err
	}
	st.PathWrites += uint64(len(readLeaves))
	if _, err := l.base.MaybeEvict(); err != nil {
		return 0, err
	}
	return bins, nil
}

// remap moves held member id to the leaf its next-leaf entry names: a
// fresh uniform leaf, lendable, when it has no next bin in the horizon;
// else its next bin's leaf — the donor's, if the bin has a donor whose leaf
// is lendable, the drawn one otherwise.
func (l *LAORAM) remap(id oram.BlockID, next superblock.Next) {
	pos := l.base.PosMap()
	leaf := next.Leaf()
	if leaf == oram.NoLeaf {
		leaf = l.base.RandomLeaf()
		pos.SetDrawn(id, leaf)
		l.sess.UniformRemaps++
	} else {
		if d, ok := next.Donor(); ok && uint64(d) < pos.Len() {
			if lent, ok := pos.Lendable(d); ok {
				leaf = lent
			}
		}
		pos.Set(id, leaf)
		l.sess.LookaheadRemaps++
	}
	l.base.Stash().SetLeaf(id, leaf)
	l.base.StatsMut().Remaps++
}

// Run executes the remaining plan k bins per Step. ctx is checked before
// every step, so a cancelled context stops execution at the next step
// boundary and returns ctx.Err(); the check consumes no randomness — a run
// that is never cancelled is byte-identical to one without a deadline.
func (l *LAORAM) Run(ctx context.Context, k int, visit Visit) error {
	for !l.cursor.Done() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := l.Step(k, visit); err != nil {
			return err
		}
	}
	return nil
}
