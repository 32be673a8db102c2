package laoram

import (
	"bytes"
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/oram"
	"repro/internal/remote"
)

// TestIncompatibleOptions: an option that would silently do nothing in the
// requested combination fails construction, before any node is dialled (the
// addresses here answer nothing).
func TestIncompatibleOptions(t *testing.T) {
	dead := []string{"127.0.0.1:1"}
	cases := []struct {
		name string
		opts Options
		want string
	}{
		{"encrypt over remote storage", Options{Entries: 256, Encrypt: true, RemoteAddrs: dead}, "Options.Encrypt is incompatible with RemoteAddrs"},
		{"encrypt with a key over sharded remote storage",
			Options{Entries: 256, Shards: 2, Encrypt: true, Key: make([]byte, 32), RemoteAddrs: []string{dead[0], dead[0]}},
			"Options.Encrypt is incompatible with RemoteAddrs"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// TestWideBucketsRefused: a bucket wider than 255 slots fails construction
// with the geometry's own error (the stores count a bucket's slots in a byte).
func TestWideBucketsRefused(t *testing.T) {
	_, want := oram.NewGeometry(oram.GeometryConfig{LeafBits: 6, LeafZ: 256, BlockSize: 16})
	if want == nil {
		t.Fatal("NewGeometry accepted 256-slot buckets")
	}
	if _, err := New(Options{Entries: 64, BlockSize: 16, BucketSize: 256}); err == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Fatalf("New = %v, want error containing %q", err, want)
	}
}

// TestVerifyOption: the Merkle-authenticated store works end to end
// through the public API.
func TestVerifyOption(t *testing.T) {
	db, err := New(Options{Entries: 128, BlockSize: 16, Verify: true, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Load(128, func(id uint64) []byte {
		b := make([]byte, 16)
		b[0] = byte(id)
		return b
	}); err != nil {
		t.Fatal(err)
	}
	for id := uint64(0); id < 128; id += 17 {
		got, err := db.Read(id)
		if err != nil {
			t.Fatalf("read %d: %v", id, err)
		}
		if got[0] != byte(id) {
			t.Fatalf("block %d corrupt", id)
		}
	}
	want := bytes.Repeat([]byte{0xAB}, 16)
	if err := db.Write(5, want); err != nil {
		t.Fatal(err)
	}
	got, err := db.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("verified round trip failed")
	}
}

// TestVerifyWithEncryptAndSession: the full hardened stack — sealed
// payloads + Merkle authentication + look-ahead session.
func TestVerifyWithEncryptAndSession(t *testing.T) {
	const entries = 256
	db, err := New(Options{
		Entries: entries, BlockSize: 32, Verify: true, Encrypt: true, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stream, err := GenerateTrace(TraceConfig{Kind: TracePermutation, N: entries, Count: 512, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	trainOneWindow(t, db, stream, 4, 0, func(id uint64) []byte { return make([]byte, 32) },
		func(id uint64, payload []byte) []byte {
			n++
			return nil
		})
	if n != len(stream) {
		t.Errorf("visited %d rows, want %d", n, len(stream))
	}
}

// TestVerifyOverRemote: Merkle authentication over a serving node, the one
// public path whose store moves single buckets, each a one-ref union on the
// wire. Load, a multi-window Train and read-your-writes pass authentication;
// then another connection overwrites one leaf-level bucket (below the
// treetop, so it lives only on the node) and a later read fails it.
func TestVerifyOverRemote(t *testing.T) {
	const entries, blockSize = 256, 16
	addr := startShardedServer(t, entries, 1, blockSize)
	db, err := New(Options{Entries: entries, RemoteAddrs: []string{addr}, Verify: true, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	row := func(id uint64) []byte {
		p := make([]byte, blockSize)
		binary.LittleEndian.PutUint64(p, id*0x9E3779B97F4A7C15)
		return p
	}
	if err := db.Load(entries, row); err != nil {
		t.Fatal(err)
	}
	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: 1500, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	st, err := db.Train(context.Background(), TrainOptions{
		Source: FromSlice(stream), Superblock: 4, Window: 256,
		Visit: func(id uint64, p []byte) []byte {
			p[8] = 1
			return p
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Windows < 2 {
		t.Fatalf("Train ran %d window(s), want several", st.Windows)
	}
	ids := make([]uint64, entries)
	for i := range ids {
		ids[i] = uint64(i)
	}
	trained := map[uint64]bool{}
	for _, id := range stream {
		trained[id] = true
	}
	rows, err := db.ReadBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for id, got := range rows {
		want := row(uint64(id))
		if trained[uint64(id)] {
			want[8] = 1
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("row %d reads %x, want %x", id, got, want)
		}
	}

	attacker, err := remote.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer attacker.Close()
	node, err := attacker.Store(0)
	if err != nil {
		t.Fatal(err)
	}
	g := node.Geometry()
	leafLevel := g.LeafBits()
	if leafLevel-1 < oram.TreetopLevels(g) {
		t.Fatalf("the leaf level's parents are inside the treetop (%d levels)", oram.TreetopLevels(g))
	}
	forged := make([]oram.Slot, g.BucketSize(leafLevel))
	for i := range forged {
		forged[i] = oram.Slot{ID: 7, Leaf: 0, Payload: bytes.Repeat([]byte{0xEE}, blockSize)}
	}
	if err := node.WriteBucket(leafLevel, 0, forged); err != nil {
		t.Fatal(err)
	}
	if err := node.ReadBucket(leafLevel, 0, make([]oram.Slot, len(forged))); err != nil { // sends the forgery
		t.Fatal(err)
	}
	// The client writes a bucket only after reading it, and the write it may
	// still hold is not a leaf bucket's (re-hashing a leaf bucket reads its
	// parent from the node, which carries the write), so nothing it sends
	// replaces the forgery before a read through it fails.
	for round := 0; ; round++ {
		_, err := db.ReadBatch(ids)
		if err != nil {
			if !strings.Contains(err.Error(), "integrity") {
				t.Fatalf("a read over the forged bucket failed with %v, want an authentication failure", err)
			}
			break
		}
		if round == 20 {
			t.Fatal("20 reads of every row never met the forged bucket")
		}
	}
}
