package laoram

import (
	"bytes"
	"testing"

	"repro/internal/oram"
	"repro/internal/remote"
	"repro/internal/shard"
)

// startShardedServer boots an in-process sharded remote server whose
// per-shard trees match exactly what the local engine would build for the
// same (entries, shards, blockSize) — the precondition for byte identity.
func startShardedServer(t *testing.T, entries uint64, shards, blockSize int) string {
	t.Helper()
	per := shard.PerShardEntries(entries, shards)
	g, err := oram.NewGeometry(oram.GeometryConfig{
		LeafBits: oram.LeafBitsFor(per), LeafZ: 4, BlockSize: blockSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]oram.Store, shards)
	for i := range stores {
		ps, err := oram.NewPayloadStore(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = ps
	}
	srv, err := remote.NewSharded(stores, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr
}

// TestShardedRemoteMatchesLocal extends invariant #6 across the network
// boundary: a sharded engine over a remote sharded server must be
// byte-identical — same plan, same counters, same payloads — to the local
// sharded engine on a fixed-seed trace. The remote side moves whole paths
// and batched bucket unions per frame, so this also pins that the path/
// batch opcodes are semantically transparent.
func TestShardedRemoteMatchesLocal(t *testing.T) {
	const entries = 1 << 10
	const blockSize = 32
	const shards = 4
	const S = 4
	const seed = 4321

	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: 3000, Seed: 55})
	if err != nil {
		t.Fatal(err)
	}
	initPayload := func(id uint64) []byte {
		p := make([]byte, blockSize)
		for i := range p {
			p[i] = byte(id * 3 / (uint64(i) + 1))
		}
		return p
	}
	visit := func(id uint64, payload []byte) []byte {
		out := make([]byte, len(payload))
		copy(out, payload)
		out[0] ^= byte(id)
		out[2]++
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

	addr := startShardedServer(t, entries, shards, blockSize)
	rem, remSess, remStats := run(Options{
		Entries: entries, Seed: seed, Shards: shards, RemoteAddrs: []string{addr},
	})
	defer rem.Close()

	if rem.Shards() != shards {
		t.Fatalf("remote engine has %d shards, want %d", rem.Shards(), shards)
	}
	if remSess != localSess {
		t.Errorf("session stats diverge: remote %+v, local %+v", remSess, localSess)
	}
	if remStats.Accesses != localStats.Accesses || remStats.PathReads != localStats.PathReads ||
		remStats.PathWrites != localStats.PathWrites || remStats.DummyReads != localStats.DummyReads ||
		remStats.StashPeak != localStats.StashPeak {
		t.Errorf("access stats diverge: remote %+v, local %+v", remStats, localStats)
	}

	// Every block the trace touched must read back byte-identical.
	uniq := map[uint64]bool{}
	for _, id := range stream {
		uniq[id] = true
	}
	checked := 0
	for id := range uniq {
		want, err := local.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rem.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("block %d: remote sharded engine diverges from local", id)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("empty trace")
	}
}

// TestRemoteShardCountMismatch pins the construction error when the server
// and client disagree on the partition count.
func TestRemoteShardCountMismatch(t *testing.T) {
	addr := startShardedServer(t, 1<<8, 2, 16)
	if _, err := New(Options{Entries: 1 << 8, Shards: 4, RemoteAddrs: []string{addr}}); err == nil {
		t.Error("4-shard client accepted by 2-shard server")
	}
	db, err := New(Options{Entries: 1 << 8, Shards: 2, RemoteAddrs: []string{addr}, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	db.Close()
}
