package laoram

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/oram"
	"repro/internal/shard"
	"repro/internal/superblock"
	"repro/internal/trace"
)

// TestShardsEquivalentToSingleORAM is the Shards=1 byte-identity check:
// the public engine with one shard must produce exactly the results of the
// hand-assembled single-ORAM stack (geometry → payload store → PathORAM
// client → superblock plan → LAORAM executor, stepped at Train's default
// step) on a fixed-seed trace — same payload bytes after training, same
// counter values.
func TestShardsEquivalentToSingleORAM(t *testing.T) {
	const entries = 1 << 10
	const blockSize = 32
	const S = 4
	const seed = 1234
	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: 4000, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	initPayload := func(id uint64) []byte {
		p := make([]byte, blockSize)
		for i := range p {
			p[i] = byte(id + uint64(i))
		}
		return p
	}
	visit := func(id uint64, payload []byte) []byte {
		out := make([]byte, len(payload))
		copy(out, payload)
		out[0] ^= byte(id)
		out[1]++
		return out
	}

	// Reference: the single-ORAM path assembled directly from internals,
	// mirroring what New and Train compose.
	g, err := oram.NewGeometry(oram.GeometryConfig{
		LeafBits: oram.LeafBitsFor(entries), LeafZ: 4, BlockSize: blockSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	ps, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := oram.NewCountingStore(ps, nil)
	base, err := oram.NewClient(oram.ClientConfig{
		Store: cs, Rand: trace.NewRNG(seed), Evict: oram.PaperEvict,
		StashHits: true, Blocks: entries,
	})
	if err != nil {
		t.Fatal(err)
	}
	refPlan, err := superblock.NewPlan(stream, superblock.PlanConfig{
		S: S, Leaves: g.Leaves(), Rand: trace.NewRNG(seed + 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	la, err := core.New(core.Config{Base: base, Plan: refPlan})
	if err != nil {
		t.Fatal(err)
	}
	if err := la.LoadPrePlaced(entries, func(id oram.BlockID) []byte { return initPayload(uint64(id)) }); err != nil {
		t.Fatal(err)
	}
	if err := la.Run(context.Background(), shard.StepBins(S), func(id oram.BlockID, p []byte) []byte { return visit(uint64(id), p) }); err != nil {
		t.Fatal(err)
	}

	// Public path, Shards: 1 explicitly.
	db, err := New(Options{Entries: entries, BlockSize: blockSize, Seed: seed, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	pubSess := trainOneWindow(t, db, stream, S, 0, initPayload, visit).Session
	if got, want := pubSess.Bins, uint64(refPlan.Len()); got != want {
		t.Fatalf("plan bins: public %d, reference %d", got, want)
	}

	refStats := la.Stats()
	if pubSess.Bins != refStats.Bins ||
		pubSess.LookaheadRemaps != refStats.LookaheadRemaps ||
		pubSess.UniformRemaps != refStats.UniformRemaps ||
		pubSess.ColdPathReads != refStats.ColdPathReads {
		t.Errorf("session stats diverge: public %+v, reference %+v", pubSess, refStats)
	}
	pub := db.Stats()
	if pub.Accesses != refStats.Accesses || pub.PathReads != refStats.PathReads ||
		pub.PathWrites != refStats.PathWrites || pub.DummyReads != refStats.DummyReads {
		t.Errorf("access stats diverge: public %+v, reference %+v", pub, refStats)
	}

	uniq := map[uint64]bool{}
	for _, id := range stream {
		uniq[id] = true
	}
	for id := range uniq {
		want, err := base.Read(oram.BlockID(id))
		if err != nil {
			t.Fatal(err)
		}
		got, err := db.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: public path diverges from single-ORAM reference", id)
		}
	}
}

// TestShardsOption exercises the public sharded surface: round trips,
// batch fan-out, stats aggregation and the introspection helpers.
func TestShardsOption(t *testing.T) {
	const entries = 512
	const blockSize = 16
	db, err := New(Options{Entries: entries, BlockSize: blockSize, Seed: 5, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", db.Shards())
	}
	if err := db.Load(entries, nil); err != nil {
		t.Fatal(err)
	}
	ids := []uint64{0, 1, 2, 3, 100, 257, 511}
	data := make([][]byte, len(ids))
	for i, id := range ids {
		data[i] = bytes.Repeat([]byte{byte(id)}, blockSize)
	}
	if err := db.WriteBatch(ids, data); err != nil {
		t.Fatal(err)
	}
	got, err := db.ReadBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if !bytes.Equal(got[i], data[i]) {
			t.Errorf("id %d: batch round trip mismatch", ids[i])
		}
	}
	st := db.Stats()
	if st.Accesses == 0 || st.ServerBytes <= 0 || st.PositionBytes <= 0 {
		t.Errorf("aggregated stats look empty: %+v", st)
	}
	if desc := db.Describe(); len(desc) == 0 || desc[0] != '4' {
		t.Errorf("Describe() = %q, want 4×[...] prefix", desc)
	}
	db.ResetStats()
	if st := db.Stats(); st.Accesses != 0 || st.StashPeak != 0 {
		t.Errorf("ResetStats left counters: %+v", st)
	}
}

// TestShardedSession runs a full look-ahead session over 4 shards and
// checks plan accounting, steady-state behaviour and payload updates.
func TestShardedSession(t *testing.T) {
	const entries = 1 << 10
	const blockSize = 16
	db, err := New(Options{Entries: entries, BlockSize: blockSize, Seed: 9, Shards: 4, FatTree: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stream, err := GenerateTrace(TraceConfig{Kind: TraceGaussian, N: entries, Count: 5000, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// A pure marker update: safe under concurrent lanes.
	marker := func(id uint64, payload []byte) []byte {
		out := bytes.Repeat([]byte{0xAB}, len(payload))
		out[0] = byte(id)
		return out
	}
	ts := trainOneWindow(t, db, stream, 4, 0, func(id uint64) []byte {
		return bytes.Repeat([]byte{byte(id)}, blockSize)
	}, marker)
	if ts.Windows != 1 || ts.Accesses != uint64(len(stream)) {
		t.Fatalf("trained %d accesses in %d windows, want %d in 1", ts.Accesses, ts.Windows, len(stream))
	}
	st := ts.Session
	// Every bin holds at most 4 blocks and every access lands in one.
	if distinct := uint64(len(uniqueSorted(stream))); st.Bins == 0 || 4*st.Bins < distinct {
		t.Errorf("executed %d bins for %d distinct blocks", st.Bins, distinct)
	}
	if st.ColdPathReads != 0 {
		t.Errorf("pre-placed run saw %d cold path reads", st.ColdPathReads)
	}
	for _, id := range []uint64{stream[0], stream[1], stream[len(stream)-1]} {
		got, err := db.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(id) || got[1] != 0xAB {
			t.Errorf("block %d: visit not applied: % x", id, got[:2])
		}
	}
}

// TestShardsValidation pins the sharding-specific construction errors.
func TestShardsValidation(t *testing.T) {
	if _, err := New(Options{Entries: 8, BlockSize: 16, Shards: 2, RemoteAddrs: []string{"127.0.0.1:1"}}); err == nil {
		t.Error("Shards > 1 with a dead remote accepted")
	}
	if _, err := New(Options{Entries: 8, BlockSize: 16, Shards: 16}); err == nil {
		t.Error("more shards than entries accepted")
	}
}
