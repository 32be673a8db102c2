package laoram

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/chaos"
)

// clusterAddrs boots an N-node serving tier for a (entries, shards) table
// on the shared fixture and returns its Options.RemoteAddrs.
func clusterAddrs(t *testing.T, entries uint64, shards, nodes, blockSize int) []string {
	t.Helper()
	cl, err := chaos.NewCluster(chaos.ClusterConfig{
		Entries: entries, Shards: shards, BlockSize: blockSize, Nodes: nodes,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl.Addrs()
}

// TestMultiNodeMatchesLocal extends the remote byte-identity invariant to
// the multi-node tier: 4 shards spread over 2 nodes must produce the same
// plan, counters and payloads as the all-local sharded engine on a
// fixed-seed trace.
func TestMultiNodeMatchesLocal(t *testing.T) {
	const entries = 1 << 10
	const blockSize = 32
	const shards = 4
	const nodes = 2
	const S = 4
	const seed = 42

	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: 2000, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	initPayload := func(id uint64) []byte {
		p := make([]byte, blockSize)
		for i := range p {
			p[i] = byte(id * 5 / (uint64(i) + 1))
		}
		return p
	}
	visit := func(id uint64, payload []byte) []byte {
		out := bytes.Clone(payload)
		out[0] ^= byte(id)
		out[1]++
		return out
	}

	run := func(opts Options) (*ORAM, SessionStats, Stats) {
		t.Helper()
		db, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		st := trainOneWindow(t, db, stream, S, 0, initPayload, visit)
		return db, st.Session, db.Stats()
	}

	local, localSess, localStats := run(Options{
		Entries: entries, BlockSize: blockSize, Seed: seed, Shards: shards,
	})
	defer local.Close()

	addrs := clusterAddrs(t, entries, shards, nodes, blockSize)
	multi, multiSess, multiStats := run(Options{
		Entries: entries, Seed: seed, Shards: shards, RemoteAddrs: addrs,
	})
	defer multi.Close()

	if multiSess != localSess {
		t.Errorf("session stats diverge: multi-node %+v, local %+v", multiSess, localSess)
	}
	if multiStats.Accesses != localStats.Accesses || multiStats.PathReads != localStats.PathReads ||
		multiStats.PathWrites != localStats.PathWrites || multiStats.DummyReads != localStats.DummyReads ||
		multiStats.StashPeak != localStats.StashPeak {
		t.Errorf("access stats diverge: multi-node %+v, local %+v", multiStats, localStats)
	}
	uniq := map[uint64]bool{}
	for _, id := range stream {
		uniq[id] = true
	}
	for id := range uniq {
		want, err := local.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := multi.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: multi-node engine diverges from local", id)
		}
	}
}

// TestReplacementRestore: a checkpoint taken under one node count restores
// onto a different one. The v2 envelope records per-SHARD tree sections
// with no node count, so LoadState re-partitions them through the restoring
// instance's own placement — here 6 shards trained halfway on 2 nodes, then
// restored onto 3 fresh nodes, which must finish the epoch byte-identical
// to the run that stayed on 2 nodes: reads, session stats, and the final
// client checkpoint (including its epoch) all match.
func TestReplacementRestore(t *testing.T) {
	const entries = 1 << 10
	const blockSize = 16
	const shards = 6
	const S = 4
	const seed = 42
	const window = 500

	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: 3000, Seed: 57})
	if err != nil {
		t.Fatal(err)
	}
	half1, half2 := stream[:1500], stream[1500:]
	initPayload := func(id uint64) []byte {
		p := make([]byte, blockSize)
		for i := range p {
			p[i] = byte(id*3 + uint64(i))
		}
		return p
	}
	visit := func(id uint64, payload []byte) []byte {
		out := bytes.Clone(payload)
		out[0] ^= byte(id)
		out[1]++
		return out
	}
	train := func(db *ORAM, part []uint64, prePlace bool) (*TrainStats, error) {
		opts := TrainOptions{
			Source: FromSlice(part), Superblock: S, Window: window, Visit: visit,
		}
		if prePlace {
			opts.PrePlace = true
			opts.Payload = initPayload
		}
		return db.Train(context.Background(), opts)
	}

	// First half of the epoch on the 2-node tier, then the mid-epoch
	// checkpoint that will cross node counts.
	addrs2 := clusterAddrs(t, entries, shards, 2, blockSize)
	ref, err := New(Options{Entries: entries, Seed: seed, Shards: shards, RemoteAddrs: addrs2})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	if _, err := train(ref, half1, true); err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if err := ref.SaveState(&ck); err != nil {
		t.Fatal(err)
	}

	// Reference: the original 2-node instance finishes the epoch.
	refSt, err := train(ref, half2, false)
	if err != nil {
		t.Fatal(err)
	}

	// Replacement: restore the 2-node checkpoint onto 3 fresh nodes and
	// finish the same second half there.
	addrs3 := clusterAddrs(t, entries, shards, 3, blockSize)
	repl, err := New(Options{Entries: entries, Seed: seed, Shards: shards, RemoteAddrs: addrs3})
	if err != nil {
		t.Fatal(err)
	}
	defer repl.Close()
	if err := repl.LoadState(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatalf("restore onto 3 nodes of a 2-node checkpoint: %v", err)
	}
	replSt, err := train(repl, half2, false)
	if err != nil {
		t.Fatal(err)
	}
	if replSt.Session != refSt.Session {
		t.Errorf("session stats diverge after re-placement: %+v vs %+v", replSt.Session, refSt.Session)
	}
	uniq := map[uint64]bool{}
	for _, id := range stream {
		uniq[id] = true
	}
	for id := range uniq {
		want, err := ref.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := repl.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d diverges after restore onto a different node count", id)
		}
	}
	// The probe reads above perturbed both instances identically, so their
	// final checkpoints must agree byte for byte — epoch included (both are
	// each instance's second save: ck/adopted ck, then this one).
	var refFinal, replFinal bytes.Buffer
	if err := ref.SaveState(&refFinal); err != nil {
		t.Fatal(err)
	}
	if err := repl.SaveState(&replFinal); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(replFinal.Bytes(), refFinal.Bytes()) {
		t.Error("final checkpoint bytes diverge between 2-node and re-placed 3-node runs")
	}
}

// TestMultiNodeOptionValidation pins the construction errors of the
// multi-node placement.
func TestMultiNodeOptionValidation(t *testing.T) {
	if _, err := New(Options{Entries: 64, RemoteAddrs: []string{"x:1", ""}}); err == nil {
		t.Error("empty node address accepted")
	}
	addrs := clusterAddrs(t, 64, 2, 2, 8)
	// More nodes than shards: node 2 would serve nothing.
	if _, err := New(Options{Entries: 64, Shards: 2, RemoteAddrs: append(addrs, addrs[0])}); err == nil {
		t.Error("more nodes than shards accepted")
	}
	// Placement mismatch: 4 shards over 2 nodes needs 2 stores per node,
	// but these nodes hold 1 each.
	if _, err := New(Options{Entries: 64, Shards: 4, RemoteAddrs: addrs}); err == nil {
		t.Error("store-count mismatch accepted")
	}
	// The correct placement dials fine.
	db, err := New(Options{Entries: 64, Shards: 2, RemoteAddrs: addrs, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
}
