package laoram

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/batch"
	"repro/internal/oram"
	"repro/internal/shard"
)

// The leaf log is the trusted side's account of §VI's freshness argument:
// every leaf a path read reveals was drawn uniformly and never revealed
// before. A spy below each shard's treetop logs the leaf of every path read;
// the client's draws are replayed from its counted RNG, and the planner's
// bin leaves from a planner re-run over the same stream, salts and horizon.
// A drawn leaf is a token of its value; a read spends one, and a read that
// finds none left repeats a value no draw renewed.

// The leaf log's instance is metadata-only with 2 shards of 16,384 leaves,
// trained over 2,048 ids in 1,024-access windows with a 2-window horizon:
// rows recur beyond the horizon, so cold members lend their leaves, and so
// few ids on so many leaves keep unspent tokens sparse.
const (
	leafLogEntries = 1 << 15
	leafLogIDs     = 2048
	leafLogWindow  = 1024
	leafLogHorizon = 2 * leafLogWindow
)

func leafLogOptions() Options {
	return Options{Entries: leafLogEntries, Shards: 2, MetadataOnly: true, Seed: 7}
}

// leafRead is one logged path read: the leaves of its leaf buckets, and
// the shard's RNG draws and lane visits when it was issued.
type leafRead struct {
	leaves []uint64
	draws  uint64
	visits int
}

// leafSpy logs a shard's path reads. It runs on the shard's lane, as does
// the lane's visit counter it samples.
type leafSpy struct {
	*oram.MetaStore
	leafLevel int
	src       interface{ Draws() uint64 }
	visits    int
	reads     []leafRead
	// atFirst runs before the first read the spy logs after reset.
	atFirst func()
}

func (s *leafSpy) ReadBuckets(refs []oram.BucketRef, dst [][]oram.Slot) error {
	r := leafRead{draws: s.src.Draws(), visits: s.visits}
	for _, ref := range refs {
		if ref.Level == s.leafLevel {
			r.leaves = append(r.leaves, ref.Node)
		}
	}
	if len(r.leaves) > 0 {
		if s.atFirst != nil {
			s.atFirst()
			s.atFirst = nil
		}
		s.reads = append(s.reads, r)
	}
	return oram.Resolve(s.MetaStore).ReadBuckets(refs, dst)
}

func (s *leafSpy) WriteBuckets(refs []oram.BucketRef, src [][]oram.Slot) error {
	return oram.Resolve(s.MetaStore).WriteBuckets(refs, src)
}

// newLeafLogged builds the instance with a spy under every shard's treetop.
func newLeafLogged(t *testing.T) (*ORAM, []*leafSpy) {
	t.Helper()
	var spies []*leafSpy
	wrapStore = func(_ int, s oram.Store) oram.Store {
		spy := &leafSpy{MetaStore: s.(*oram.MetaStore), leafLevel: s.Geometry().LeafBits()}
		spies = append(spies, spy)
		return spy
	}
	db, err := New(leafLogOptions())
	wrapStore = nil
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i, spy := range spies {
		spy.src = db.eng.Sub(i).Src
	}
	return db, spies
}

// leafModel is one shard's token account, carried across Train calls and a
// checkpoint restore.
type leafModel struct {
	gen     rand.Source // the client's RNG stream, replayed
	drawn   uint64      // client draws already turned into tokens
	mask    uint64      // leaves − 1
	tokens  map[uint64]int
	repeats []uint64 // leaves read with no token left
}

func newLeafModels(db *ORAM) []*leafModel {
	models := make([]*leafModel, db.eng.Shards())
	for s := range models {
		sub := db.eng.Sub(s)
		models[s] = &leafModel{
			gen:    rand.NewSource(sub.Src.SeedValue()),
			mask:   sub.Client.Geometry().Leaves() - 1,
			tokens: map[uint64]int{},
		}
	}
	return models
}

// leafPlan is one shard's view of a Train call's plan, window by window:
// the members each window executes, its bins and their drawn leaves, and
// the horizon D in windows.
type leafPlan struct {
	members []int
	leaves  [][]uint64
	bins    [][][]oram.BlockID
	d       int
}

// window returns the window of the lane's member at visit count v.
func (p *leafPlan) window(v int) int {
	for w, n := range p.members {
		if v < n {
			return w
		}
		v -= n
	}
	return len(p.members) - 1
}

// replanLeaves runs a planner over stream as a Train call with these options
// plans it, from the engine's current salts, and returns each shard's plan.
func replanLeaves(t *testing.T, db *ORAM, stream []uint64, opts TrainOptions) []*leafPlan {
	t.Helper()
	d, err := batch.TrainConfig{S: opts.Superblock, Window: opts.Window, Horizon: opts.Horizon}.Ahead(db.eng.Entries())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := db.eng.NewPlanner(FromSlice(stream), shard.PlannerConfig{
		S: opts.Superblock, Window: opts.Window, Depth: d, Salts: db.eng.PlanSalts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := pl.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	plans := make([]*leafPlan, db.eng.Shards())
	for s := range plans {
		plans[s] = &leafPlan{d: d}
	}
	for w := range ch {
		sess, err := db.eng.NewSession(w.Plan)
		if err != nil {
			t.Fatal(err)
		}
		for s, p := range plans {
			sp := sess.Lane(s).Plan()
			var leaves []uint64
			var bins [][]oram.BlockID
			members := 0
			for i := 0; i < sp.Len(); i++ {
				b := sp.Bin(i)
				leaves = append(leaves, uint64(b.Leaf))
				bins = append(bins, b.Blocks)
				members += len(b.Blocks)
			}
			p.members = append(p.members, members)
			p.leaves = append(p.leaves, leaves)
			p.bins = append(p.bins, bins)
		}
	}
	if err := pl.Err(); err != nil {
		t.Fatal(err)
	}
	return plans
}

// spend replays one Train call's reads on the account: before each read,
// the client draws made so far and the bin leaves of every window the lane
// may have remapped into (up to D past its current window) become tokens;
// the read then spends one token per leaf.
func (m *leafModel) spend(reads []leafRead, p *leafPlan) {
	active := 0
	for _, r := range reads {
		for ; m.drawn < r.draws; m.drawn++ {
			m.tokens[uint64(m.gen.Int63())&m.mask]++
		}
		for last := min(p.window(r.visits)+p.d, len(p.leaves)-1); active <= last; active++ {
			for _, l := range p.leaves[active] {
				m.tokens[l]++
			}
		}
		for _, l := range r.leaves {
			if m.tokens[l] == 0 {
				m.repeats = append(m.repeats, l)
				continue
			}
			m.tokens[l]--
		}
	}
}

// loadTokens arms the first read of a pre-placing call: Load's uniform draws
// are skipped, and the lendable leaf of each block the stream touches is a
// token instead (a block the stream never touches is never read).
func loadTokens(db *ORAM, spies []*leafSpy, models []*leafModel, stream []uint64) {
	n := db.eng.Shards()
	for s, spy := range spies {
		s, spy, m := s, spy, models[s]
		spy.atFirst = func() {
			for ; m.drawn < spy.src.Draws(); m.drawn++ {
				m.gen.Int63()
			}
			pos := db.eng.Sub(s).Client.PosMap()
			seen := map[uint64]bool{}
			for _, id := range stream {
				if shard.ShardOf(id, n) != s || seen[id] {
					continue
				}
				seen[id] = true
				if l, ok := pos.Lendable(oram.BlockID(shard.LocalID(id, n))); ok {
					m.tokens[uint64(l)]++
				}
			}
		}
	}
}

// leafLogTrain runs one Train call under ctx with a counting visitor per
// lane, which calls stop (when set) after every visit, and replays the
// call's reads on the account.
func leafLogTrain(t *testing.T, ctx context.Context, db *ORAM, spies []*leafSpy, models []*leafModel, stream []uint64, prePlace bool, stop func(lane, visits int)) (*TrainStats, []*leafPlan, error) {
	t.Helper()
	opts := TrainOptions{
		Source: FromSlice(stream), Superblock: 4, Window: leafLogWindow, Horizon: leafLogHorizon, PrePlace: prePlace,
	}
	plans := replanLeaves(t, db, stream, opts)
	for _, spy := range spies {
		spy.reads, spy.visits = nil, 0
	}
	if prePlace {
		loadTokens(db, spies, models, stream)
	}
	opts.PerLane = func(lane int) Visit {
		spy := spies[lane]
		return func(_ uint64, row []byte) []byte {
			spy.visits++
			if stop != nil {
				stop(lane, spy.visits)
			}
			return row
		}
	}
	st, err := db.Train(ctx, opts)
	for s, m := range models {
		m.spend(spies[s].reads, plans[s])
	}
	return st, plans, err
}

func leafLogStream(t *testing.T) []uint64 {
	t.Helper()
	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: leafLogIDs, Count: 16 * leafLogWindow, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return stream
}

func repeatsOf(models []*leafModel) int {
	n := 0
	for _, m := range models {
		n += len(m.repeats)
	}
	return n
}

// TestLeafLogNoRepeatedReads: a pre-placing Train, a second Train, and a
// Train on a fresh instance restored from a checkpoint read no leaf value
// twice without a draw of it between, while the windows past the first
// horizon lend their cold members' leaves: the calls read 5,883 cold paths
// in all, where the same calls read 14,127 before bins borrowed them.
func TestLeafLogNoRepeatedReads(t *testing.T) {
	const wantCold, coldBeforeLending = 5883, 14127
	stream := leafLogStream(t)
	db, spies := newLeafLogged(t)
	models := newLeafModels(db)
	var cold uint64
	for i, prePlace := range []bool{true, false} {
		st, _, err := leafLogTrain(t, context.Background(), db, spies, models, stream, prePlace, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n := repeatsOf(models); n != 0 {
			t.Fatalf("call %d: %d reads repeated a leaf no draw renewed", i, n)
		}
		cold += st.Session.ColdPathReads
	}
	var ck bytes.Buffer
	if err := db.SaveState(&ck); err != nil {
		t.Fatal(err)
	}
	fresh, freshSpies := newLeafLogged(t)
	if err := fresh.LoadState(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatal(err)
	}
	st, _, err := leafLogTrain(t, context.Background(), fresh, freshSpies, models, stream, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := repeatsOf(models); n != 0 {
		t.Fatalf("restored call: %d reads repeated a leaf no draw renewed", n)
	}
	cold += st.Session.ColdPathReads
	if cold != wantCold || cold >= coldBeforeLending {
		t.Errorf("%d cold path reads over the three calls, want %d (%d before lending)", cold, wantCold, coldBeforeLending)
	}
}

// TestLeafLogCancelledTrain is the case that repeats a leaf: a pre-placing
// Train cancelled in its fifth window leaves the members of every bin it
// planned and never ran on those bins' leaves — the drawn leaf, or the
// donor's leaf a bin borrowed — shared by up to S blocks, which the next
// Train reads one cold member at a time. Every repeated read it finds is
// of such a leaf, and the cancelled call leaves none of those blocks
// lendable, so no donor's leaf is lent a second time.
func TestLeafLogCancelledTrain(t *testing.T) {
	const cancelAt = 2500 // lane 0's visits
	stream := leafLogStream(t)
	db, spies := newLeafLogged(t)
	models := newLeafModels(db)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, plans, err := leafLogTrain(t, ctx, db, spies, models, stream, true, func(lane, visits int) {
		if lane == 0 && visits == cancelAt {
			cancel()
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Train returned %v", err)
	}
	if n := repeatsOf(models); n != 0 {
		t.Fatalf("the cancelled call itself: %d reads repeated a leaf no draw renewed", n)
	}
	// The leaves the blocks of bins planned and never run sit on: bins past
	// each lane's last visit, in windows up to D+1 past its current one
	// (the planner holds D windows and offers one more).
	unrun := make([]map[uint64]bool, len(plans))
	for s, p := range plans {
		unrun[s] = map[uint64]bool{}
		pos := db.eng.Sub(s).Client.PosMap()
		visited, seen := spies[s].visits, 0
		for w := 0; w <= min(p.window(visited)+p.d+1, len(p.bins)-1); w++ {
			for _, bin := range p.bins[w] {
				if seen >= visited {
					for _, id := range bin {
						l, lendable := pos.Lendable(id)
						if lendable {
							t.Errorf("shard %d: block %d of a bin never run is still lendable", s, id)
						}
						unrun[s][uint64(l)] = true
					}
				}
				seen += len(bin)
			}
		}
	}
	if _, _, err := leafLogTrain(t, context.Background(), db, spies, models, stream, false, nil); err != nil {
		t.Fatal(err)
	}
	n := 0
	for s, m := range models {
		for _, l := range m.repeats {
			n++
			if !unrun[s][l] {
				t.Errorf("shard %d: leaf %d read twice without a draw, and no bin left unrun holds it", s, l)
			}
		}
	}
	if n == 0 {
		t.Error("the Train after a cancelled one repeated no leaf: the case this test confirms did not occur")
	}
	t.Logf("%d repeated leaf reads after a Train cancelled at lane 0's visit %d", n, cancelAt)
}
