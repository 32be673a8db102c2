package shard

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/oram"
	"repro/internal/trace"
)

// payloadEngine builds an N-shard engine over a payload store (real bytes)
// with per-shard counters, the way the public API does.
func payloadEngine(t testing.TB, n int, entries uint64, blockSize int, seed int64) *Engine {
	t.Helper()
	return payloadEngineWith(t, n, entries, blockSize, seed, nil)
}

// payloadEngineWith is payloadEngine with wrap (may be nil) placed between
// each shard's payload store and its CountingStore.
func payloadEngineWith(t testing.TB, n int, entries uint64, blockSize int, seed int64, wrap func(s int, ps *oram.PayloadStore) oram.Store) *Engine {
	t.Helper()
	e, err := New(Config{
		Shards:  n,
		Entries: entries,
		Seed:    seed,
		Build: func(s int, per uint64, sd int64) (Sub, error) {
			g, err := oram.NewGeometry(oram.GeometryConfig{
				LeafBits: oram.LeafBitsFor(per), LeafZ: 4, BlockSize: blockSize,
			})
			if err != nil {
				return Sub{}, err
			}
			ps, err := oram.NewPayloadStore(g, nil)
			if err != nil {
				return Sub{}, err
			}
			var st oram.Store = ps
			if wrap != nil {
				st = wrap(s, ps)
			}
			cs := oram.NewCountingStore(st, nil)
			client, err := oram.NewClient(oram.ClientConfig{
				Store: cs, Rand: trace.NewRNG(sd), Evict: oram.PaperEvict,
				StashHits: true, Blocks: per,
			})
			if err != nil {
				return Sub{}, err
			}
			return Sub{Client: client, Store: cs}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func payloadFor(id uint64, blockSize int) []byte {
	p := make([]byte, blockSize)
	for i := range p {
		p[i] = byte(id + uint64(i)*7)
	}
	return p
}

// TestPartition pins the deterministic ID→shard assignment: the modulo
// split is a bijection between the global space and the union of dense
// per-shard spaces, and loadCount partitions any prefix exactly.
func TestPartition(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 8} {
		seen := make(map[uint64]bool)
		const N = 1000
		for id := uint64(0); id < N; id++ {
			s := ShardOf(id, n)
			if s < 0 || s >= n {
				t.Fatalf("n=%d: ShardOf(%d)=%d out of range", n, id, s)
			}
			if s != ShardOf(id, n) {
				t.Fatalf("n=%d: ShardOf(%d) not deterministic", n, id)
			}
			local := LocalID(id, n)
			if local >= PerShardEntries(N, n) {
				t.Fatalf("n=%d: LocalID(%d)=%d exceeds capacity %d", n, id, local, PerShardEntries(N, n))
			}
			back := GlobalID(local, s, n)
			if back != id {
				t.Fatalf("n=%d: GlobalID(LocalID(%d))=%d", n, id, back)
			}
			key := uint64(s)<<32 | local
			if seen[key] {
				t.Fatalf("n=%d: (shard,local) collision at id %d", n, id)
			}
			seen[key] = true
		}
		var total uint64
		for s := 0; s < n; s++ {
			total += LoadCount(N, s, n)
		}
		if total != N {
			t.Errorf("n=%d: loadCounts sum to %d, want %d", n, total, N)
		}
	}
}

// TestCrossShardBatchMatchesSingle is the cross-shard correctness check:
// the same logical workload (bulk load, scattered writes, batched reads)
// must return the same payload bytes from a 4-shard engine as from the
// 1-shard reference.
func TestCrossShardBatchMatchesSingle(t *testing.T) {
	const entries = 512
	const bs = 32
	single := payloadEngine(t, 1, entries, bs, 7)
	sharded := payloadEngine(t, 4, entries, bs, 7)
	for _, e := range []*Engine{single, sharded} {
		if err := e.Load(entries, func(id uint64) []byte { return payloadFor(id, bs) }); err != nil {
			t.Fatal(err)
		}
	}
	// Scattered single writes land in different shards.
	for _, id := range []uint64{0, 1, 2, 3, 63, 127, 255, 511} {
		fresh := payloadFor(id+1000, bs)
		if err := single.Write(id, fresh); err != nil {
			t.Fatal(err)
		}
		if err := sharded.Write(id, fresh); err != nil {
			t.Fatal(err)
		}
	}
	// A batch mixing written and untouched blocks, shard-interleaved.
	ids := []uint64{511, 0, 17, 255, 40, 63, 1, 301, 2, 127, 3, 99}
	wantBatch, err := single.ReadBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	gotBatch, err := sharded.ReadBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if !bytes.Equal(gotBatch[i], wantBatch[i]) {
			t.Errorf("batch[%d] (id %d): sharded %x != single %x", i, ids[i], gotBatch[i][:4], wantBatch[i][:4])
		}
	}
	// And per-id reads agree with the batch merge order.
	for i, id := range ids {
		got, err := sharded.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, gotBatch[i]) {
			t.Errorf("Read(%d) disagrees with ReadBatch slot %d", id, i)
		}
	}
	st := sharded.Stats()
	if st.Access.Accesses == 0 || st.Counters.BytesRead == 0 {
		t.Errorf("sharded stats not aggregated: %+v", st)
	}
}

// TestWriteBatch checks the write fan-out path and its validation.
func TestWriteBatch(t *testing.T) {
	const entries = 256
	const bs = 16
	e := payloadEngine(t, 4, entries, bs, 11)
	ids := []uint64{5, 250, 17, 128, 3}
	data := make([][]byte, len(ids))
	for i, id := range ids {
		data[i] = payloadFor(id, bs)
	}
	if err := e.WriteBatch(ids, data); err != nil {
		t.Fatal(err)
	}
	got, err := e.ReadBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if !bytes.Equal(got[i], data[i]) {
			t.Errorf("id %d: round trip mismatch", ids[i])
		}
	}
	if err := e.WriteBatch(ids, data[:2]); err == nil {
		t.Error("mismatched ids/data lengths accepted")
	}
	if err := e.WriteBatch([]uint64{entries}, [][]byte{data[0]}); err == nil {
		t.Error("out-of-range id accepted")
	}
}

// TestSessionConcurrentMatchesSerial builds two identically-seeded engines
// and executes the same sharded plan once via the concurrent Run scheduler
// and once via a serial round-robin Step loop at the default step.
// Per-shard work is deterministic given the seed, so the final table
// contents and the aggregate counters must be identical regardless of lane
// interleaving.
func TestSessionConcurrentMatchesSerial(t *testing.T) {
	const entries = 1 << 10
	const bs = 16
	const S = 4
	stream, err := trace.Generate(trace.Config{Kind: trace.KindKaggle, N: entries, Count: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	visitGen := func() NewVisit {
		return func(shard int) Visit {
			// Lane-local counter: deterministic per shard because each
			// lane consumes its own bins in plan order.
			var step byte
			return func(id uint64, payload []byte) []byte {
				step++
				out := make([]byte, len(payload))
				copy(out, payload)
				out[0] = byte(id) ^ step
				return out
			}
		}
	}

	run := func(concurrent bool) (*Engine, core.Stats) {
		t.Helper()
		e := payloadEngine(t, 4, entries, bs, 21)
		plan, err := e.Preprocess(stream, S)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.LoadForPlan(plan, func(id uint64) []byte { return payloadFor(id, bs) }); err != nil {
			t.Fatal(err)
		}
		sess, err := e.NewSession(plan)
		if err != nil {
			t.Fatal(err)
		}
		nv := visitGen()
		if concurrent {
			if err := sess.Run(nv); err != nil {
				t.Fatal(err)
			}
		} else {
			visitors := make([]Visit, e.Shards())
			for i := range visitors {
				visitors[i] = nv(i)
			}
			// Serial round-robin through the same lanes, one default
			// step each.
			for !sess.Done() {
				for i := range visitors {
					if sess.Lane(i).Done() {
						continue
					}
					if _, err := sess.Lane(i).Step(StepBins(S), sess.wrap(i, visitors[i])); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		if !sess.Done() {
			t.Fatal("session not done")
		}
		return e, sess.Stats()
	}

	eConc, stConc := run(true)
	eSer, stSer := run(false)
	if stConc != stSer {
		t.Errorf("stats diverge: concurrent %+v serial %+v", stConc, stSer)
	}
	// Compare every block touched by the stream.
	uniq := map[uint64]bool{}
	for _, id := range stream {
		uniq[id] = true
	}
	for id := range uniq {
		a, err := eConc.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		b, err := eSer.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("block %d diverges between concurrent and serial execution", id)
		}
	}
}

// stepSpy counts the fetches and write-backs that reach one shard's payload
// store — every one a bucket union — by how many refs they name, and samples
// the stash at each fetch: what the previous write-back (and any background
// eviction) left behind.
type stepSpy struct {
	*oram.PayloadStore
	stash            *oram.Stash
	fetches, writes  int
	paths, wider     int // transfers of exactly one path's refs, of more
	stashPeakAtFetch int
}

func (s *stepSpy) moved(refs []oram.BucketRef) {
	switch levels := s.Geometry().Levels(); {
	case len(refs) == levels:
		s.paths++
	case len(refs) > levels:
		s.wider++
	}
}

func (s *stepSpy) ReadBuckets(refs []oram.BucketRef, dst [][]oram.Slot) error {
	s.fetches++
	s.stashPeakAtFetch = max(s.stashPeakAtFetch, s.stash.Len())
	s.moved(refs)
	return s.PayloadStore.ReadBuckets(refs, dst)
}

func (s *stepSpy) WriteBuckets(refs []oram.BucketRef, src [][]oram.Slot) error {
	s.writes++
	s.moved(refs)
	return s.PayloadStore.WriteBuckets(refs, src)
}

// TestSessionDefaultStep runs a plan at the default step (k = 0) and checks
// that a step is a batchChunk of keys' worth of bins: each lane's store sees
// one fetch and one write-back per ⌈bins/k⌉ step, with k = 8 at S = 4, 4 at
// S = 8 and 1 at S = 64: a one-bin step moves its one path's Levels() refs
// each way, and a step of several bins more. The trained rows and every lane's visitor calls are those of a
// one-bin-step run on the same seed (invariant #5), and the stash a step
// leaves behind stays within invariant #4's bound.
func TestSessionDefaultStep(t *testing.T) {
	const entries = 1 << 10
	const bs = 16
	const shards = 4
	stream, err := trace.Generate(trace.Config{Kind: trace.KindKaggle, N: entries, Count: 4000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	type visitCall struct {
		id      uint64
		payload string
	}
	run := func(S, k int) (*Engine, []*stepSpy, [][]visitCall, *Session) {
		t.Helper()
		spies := make([]*stepSpy, shards)
		e := payloadEngineWith(t, shards, entries, bs, 31, func(s int, ps *oram.PayloadStore) oram.Store {
			spies[s] = &stepSpy{PayloadStore: ps}
			return spies[s]
		})
		for i, sp := range spies {
			sp.stash = e.Sub(i).Client.Stash()
		}
		plan, err := e.Preprocess(stream, S)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.LoadForPlan(plan, func(id uint64) []byte { return payloadFor(id, bs) }); err != nil {
			t.Fatal(err)
		}
		for _, sp := range spies {
			sp.fetches, sp.writes, sp.paths, sp.wider = 0, 0, 0, 0
		}
		sess, err := e.NewSession(plan)
		if err != nil {
			t.Fatal(err)
		}
		calls := make([][]visitCall, shards)
		nv := func(lane int) Visit {
			return func(id uint64, payload []byte) []byte {
				calls[lane] = append(calls[lane], visitCall{id, string(payload)})
				out := bytes.Clone(payload)
				out[0] ^= byte(id)
				out[1]++
				return out
			}
		}
		if err := sess.RunContext(context.Background(), k, nil, nv); err != nil {
			t.Fatal(err)
		}
		return e, spies, calls, sess
	}

	for _, tc := range []struct{ S, k int }{{4, 8}, {8, 4}, {64, 1}} {
		t.Run(fmt.Sprintf("S=%d", tc.S), func(t *testing.T) {
			e, spies, calls, sess := run(tc.S, 0)
			for i, sp := range spies {
				st := sess.Lane(i).Stats()
				if st.DummyReads != 0 {
					t.Fatalf("lane %d ran %d background evictions; the counts below assume none", i, st.DummyReads)
				}
				steps := (int(st.Bins) + tc.k - 1) / tc.k
				if sp.fetches != steps || sp.writes != steps {
					t.Errorf("lane %d: %d bins took %d fetches and %d write-backs, want %d of each (%d bins a step)",
						i, st.Bins, sp.fetches, sp.writes, steps, tc.k)
				}
				// A step of several bins fetches several paths' union; a
				// one-bin step in steady state fetches its bin's one path.
				multi := 0
				if tc.k > 1 {
					multi = int(st.Bins) / tc.k
					if int(st.Bins)%tc.k > 1 {
						multi++
					}
				}
				if sp.wider != 2*multi || sp.paths != 2*(steps-multi) {
					t.Errorf("lane %d: of %d step transfers %d moved one path's refs and %d more, want %d and %d",
						i, 2*steps, sp.paths, sp.wider, 2*(steps-multi), 2*multi)
				}
				if sp.stashPeakAtFetch > oram.PaperEvict.High {
					t.Errorf("lane %d: a step left %d blocks in the stash, bound %d", i, sp.stashPeakAtFetch, oram.PaperEvict.High)
				}
				if n := sp.stash.Len(); n > oram.PaperEvict.High {
					t.Errorf("lane %d: the last step left %d blocks in the stash, bound %d", i, n, oram.PaperEvict.High)
				}
			}

			ref, _, refCalls, _ := run(tc.S, 1)
			for lane := range calls {
				if !slices.Equal(calls[lane], refCalls[lane]) {
					t.Errorf("lane %d: visitor calls diverge from the one-bin-step run", lane)
				}
			}
			for id := uint64(0); id < entries; id++ {
				a, err := e.Read(id)
				if err != nil {
					t.Fatal(err)
				}
				b, err := ref.Read(id)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(a, b) {
					t.Fatalf("row %d diverges from the one-bin-step run", id)
				}
			}
		})
	}
}

// TestPreprocessPartition checks that per-shard plans only reference local
// IDs belonging to their shard and that pre-placement makes every bin a
// single-path fetch (zero cold reads), as in the single-instance engine.
func TestPreprocessPartition(t *testing.T) {
	const entries = 1 << 10
	e := payloadEngine(t, 4, entries, 16, 5)
	stream, err := trace.Generate(trace.Config{Kind: trace.KindGaussian, N: entries, Count: 3000, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.Preprocess(stream, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		seen := map[uint64]bool{}
		for _, id := range stream {
			if ShardOf(id, 4) == s {
				seen[LocalID(id, 4)] = true
			}
		}
		sp := plan.plans[s]
		if sp.Len() == 0 || sp.UniqueBlocks() != len(seen) {
			t.Fatalf("shard %d plan: %d bins over %d blocks, stream slice has %d unique", s, sp.Len(), sp.UniqueBlocks(), len(seen))
		}
		for b := 0; b < sp.Len(); b++ {
			for _, id := range sp.Bin(b).Blocks {
				if !seen[uint64(id)] {
					t.Fatalf("shard %d bin %d references local id %d not in shard stream", s, b, id)
				}
			}
		}
	}
	if err := e.LoadForPlan(plan, nil); err != nil {
		t.Fatal(err)
	}
	sess, err := e.NewSession(plan)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Run(nil); err != nil {
		t.Fatal(err)
	}
	if cold := sess.Stats().ColdPathReads; cold != 0 {
		t.Errorf("pre-placed sharded run had %d cold path reads", cold)
	}
	if got, want := sess.Stats().Accesses, uint64(plan.accessCount()); got != want {
		t.Errorf("session served %d accesses, plan holds %d", got, want)
	}
}

// accessCount sums bin membership across shards (test helper).
func (p *Plan) accessCount() int {
	total := 0
	for _, sp := range p.plans {
		for b := 0; b < sp.Len(); b++ {
			total += len(sp.Bin(b).Blocks)
		}
	}
	return total
}

// TestSchedulerStress hammers the concurrent fan-out under load so `go
// test -race ./internal/shard/...` exercises the scheduler: repeated
// batched reads and writes over 8 lanes plus a full concurrent session.
func TestSchedulerStress(t *testing.T) {
	const entries = 1 << 11
	const bs = 16
	e := payloadEngine(t, 8, entries, bs, 13)
	if err := e.Load(entries, func(id uint64) []byte { return payloadFor(id, bs) }); err != nil {
		t.Fatal(err)
	}
	rng := trace.NewRNG(99)
	for round := 0; round < 20; round++ {
		ids := make([]uint64, 64)
		data := make([][]byte, len(ids))
		for i := range ids {
			ids[i] = uint64(rng.Int63n(entries))
			data[i] = payloadFor(ids[i]+uint64(round), bs)
		}
		if err := e.WriteBatch(ids, data); err != nil {
			t.Fatal(err)
		}
		if _, err := e.ReadBatch(ids); err != nil {
			t.Fatal(err)
		}
	}
	stream, err := trace.Generate(trace.Config{Kind: trace.KindUniform, N: entries, Count: 5000, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := e.Preprocess(stream, 4)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := e.NewSession(plan)
	if err != nil {
		t.Fatal(err)
	}
	err = sess.Run(func(shard int) Visit {
		return func(id uint64, payload []byte) []byte {
			out := make([]byte, len(payload))
			copy(out, payload)
			out[0] ^= byte(shard + 1)
			return out
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sess.Done() {
		t.Error("session incomplete after Run")
	}
}

// TestConfigValidation covers Engine construction errors.
func TestConfigValidation(t *testing.T) {
	build := func(s int, per uint64, sd int64) (Sub, error) { return Sub{}, fmt.Errorf("boom") }
	if _, err := New(Config{Shards: 0, Entries: 8, Build: build}); err == nil {
		t.Error("0 shards accepted")
	}
	if _, err := New(Config{Shards: 1, Entries: 0, Build: build}); err == nil {
		t.Error("0 entries accepted")
	}
	if _, err := New(Config{Shards: 1, Entries: 8}); err == nil {
		t.Error("nil Build accepted")
	}
	if _, err := New(Config{Shards: 16, Entries: 8, Build: build}); err == nil {
		t.Error("more shards than entries accepted")
	}
	if _, err := New(Config{Shards: 1, Entries: 8, Build: build}); err == nil {
		t.Error("Build error not propagated")
	}
	e := payloadEngine(t, 2, 64, 16, 1)
	if _, err := e.Read(64); err == nil {
		t.Error("out-of-range Read accepted")
	}
	if err := e.Write(1000, nil); err == nil {
		t.Error("out-of-range Write accepted")
	}
	if _, err := e.Preprocess([]uint64{1, 2, 64}, 2); err == nil {
		t.Error("out-of-range stream id accepted")
	}
	if _, err := e.Preprocess([]uint64{1}, 0); err == nil {
		t.Error("S=0 accepted")
	}
	if err := e.LoadForPlan(nil, nil); err == nil {
		t.Error("nil plan accepted for load")
	}
	if _, err := e.NewSession(nil); err == nil {
		t.Error("nil plan accepted for session")
	}
	other := payloadEngine(t, 4, 64, 16, 1)
	p, err := other.Preprocess([]uint64{1, 2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.LoadForPlan(p, nil); err == nil {
		t.Error("shard-count mismatch plan accepted for load")
	}
	if _, err := e.NewSession(p); err == nil {
		t.Error("shard-count mismatch plan accepted for session")
	}
}
