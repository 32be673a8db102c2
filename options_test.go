package laoram

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"slices"
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

// TestVerifyOption: a verifying instance loads, trains and reads back through
// the public API — rows from a Payload function or nil (zero) rows, loaded by
// Load or pre-placed by Train — over an in-memory, a metadata-only and a
// sealed disk-backed tree.
func TestVerifyOption(t *testing.T) {
	const entries, blockSize = 128, 16
	row := func(id uint64) []byte {
		b := make([]byte, blockSize)
		b[0] = byte(id) + 1
		return b
	}
	stream, err := GenerateTrace(TraceConfig{Kind: TracePermutation, N: entries, Count: 512, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"memory", Options{BlockSize: blockSize}},
		{"metadata-only", Options{MetadataOnly: true}},
		{"data-dir+encrypt", Options{BlockSize: blockSize, Encrypt: true}},
	} {
		for _, load := range []string{"Load", "Load/nil", "PrePlace", "PrePlace/nil"} {
			t.Run(tc.name+"/"+load, func(t *testing.T) {
				opts := tc.opts
				opts.Entries, opts.Verify, opts.Seed = entries, true, 11
				if opts.Encrypt {
					opts.DataDir = t.TempDir()
				}
				db, err := New(opts)
				if err != nil {
					t.Fatal(err)
				}
				defer db.Close()
				payload, want := row, row
				if strings.HasSuffix(load, "/nil") {
					payload, want = nil, func(uint64) []byte { return make([]byte, blockSize) }
				}
				if strings.HasPrefix(load, "Load") {
					err = db.Load(entries, payload)
				} else {
					_, err = db.Train(context.Background(), TrainOptions{Source: FromSlice(stream), Superblock: 4, PrePlace: true, Payload: payload})
				}
				if err != nil {
					t.Fatal(err)
				}
				for id := uint64(0); id < entries; id += 17 {
					got, err := db.Read(id)
					if err != nil {
						t.Fatalf("read %d: %v", id, err)
					}
					if !opts.MetadataOnly && !bytes.Equal(got, want(id)) {
						t.Fatalf("block %d reads %x, want %x", id, got, want(id))
					}
				}
				w := bytes.Repeat([]byte{0xAB}, blockSize)
				if err := db.Write(5, w); err != nil {
					t.Fatal(err)
				}
				got, err := db.Read(5)
				if err != nil {
					t.Fatal(err)
				}
				if !opts.MetadataOnly && !bytes.Equal(got, w) {
					t.Error("verified round trip failed")
				}
			})
		}
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

// TestVerifyOverRemote: verification over a serving node. Load, a
// multi-window Train and read-your-writes pass it; then another connection
// overwrites the leaf level (below the treetop, so it lives only on the node)
// and a later read fails with oram.ErrIntegrity.
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
	if leafLevel < oram.TreetopLevels(g) {
		t.Fatalf("the leaf level is inside the treetop (%d levels)", oram.TreetopLevels(g))
	}
	forged := make([]oram.Slot, g.BucketSize(leafLevel))
	for i := range forged {
		forged[i] = oram.Slot{ID: 7, Leaf: 0, Payload: bytes.Repeat([]byte{0xEE}, blockSize)}
	}
	// Every leaf bucket: the client may still hold a write-back of a few of
	// them, which replaces their forgery when it goes out; it reads the rest
	// first.
	for n := uint64(0); n < g.Leaves(); n++ {
		if err := node.WriteBucket(leafLevel, n, forged); err != nil {
			t.Fatal(err)
		}
	}
	if err := node.ReadBucket(leafLevel, 0, make([]oram.Slot, len(forged))); err != nil { // sends the forgery
		t.Fatal(err)
	}
	for round := 0; ; round++ {
		_, err := db.ReadBatch(ids)
		if err != nil {
			if !errors.Is(err, oram.ErrIntegrity) {
				t.Fatalf("a read over the forged bucket failed with %v, want oram.ErrIntegrity", err)
			}
			break
		}
		if round == 20 {
			t.Fatal("20 reads of every row never met a forged bucket")
		}
	}
}

// TestVerifyMovesNothingExtra: verification checks what moves and moves
// nothing more. The same seed and stream, with Verify on and off, give the
// same Stats and read back the same rows — locally, and over a node whose
// store sees the same calls on the same buckets.
func TestVerifyMovesNothingExtra(t *testing.T) {
	const entries, blockSize = 1024, 32
	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: 4000, Seed: 45})
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]uint64, entries)
	for i := range ids {
		ids[i] = uint64(i)
	}
	row := func(id uint64) []byte {
		p := make([]byte, blockSize)
		binary.LittleEndian.PutUint64(p, id*0x9E3779B97F4A7C15)
		return p
	}
	// run trains, looks every row up and writes one, and returns the Stats,
	// the rows and — over a node — the calls its store saw.
	run := func(opts Options, spy *refSpy) (Stats, [][]byte, []spyCall) {
		t.Helper()
		db, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Train(context.Background(), TrainOptions{
			Source: FromSlice(stream), Superblock: 4, Window: 1024, PrePlace: true, Payload: row,
			Visit: func(id uint64, p []byte) []byte {
				p[8]++
				return p
			},
		}); err != nil {
			t.Fatal(err)
		}
		if err := db.Write(3, row(9)); err != nil {
			t.Fatal(err)
		}
		rows, err := db.ReadBatch(ids)
		if err != nil {
			t.Fatal(err)
		}
		st := db.Stats()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if spy == nil {
			return st, rows, nil
		}
		return st, rows, spy.take()
	}
	check := func(t *testing.T, build func(verify bool) (Options, *refSpy)) {
		opts, spy := build(false)
		wantStats, wantRows, wantCalls := run(opts, spy)
		opts, spy = build(true)
		stats, rows, calls := run(opts, spy)
		if stats != wantStats {
			t.Errorf("Stats with Verify %+v, without %+v", stats, wantStats)
		}
		for id := range rows {
			if !bytes.Equal(rows[id], wantRows[id]) {
				t.Fatalf("row %d reads %x with Verify, %x without", id, rows[id], wantRows[id])
			}
		}
		if len(calls) != len(wantCalls) {
			t.Fatalf("the node's store saw %d calls with Verify, %d without", len(calls), len(wantCalls))
		}
		for i := range calls {
			if calls[i].op != wantCalls[i].op || !slices.Equal(calls[i].refs, wantCalls[i].refs) {
				t.Fatalf("node call %d is %s of %d buckets with Verify, %s of %d without",
					i, calls[i].op, len(calls[i].refs), wantCalls[i].op, len(wantCalls[i].refs))
			}
		}
	}
	t.Run("local", func(t *testing.T) {
		check(t, func(verify bool) (Options, *refSpy) {
			return Options{Entries: entries, BlockSize: blockSize, Seed: 45, Verify: verify}, nil
		})
	})
	t.Run("node", func(t *testing.T) {
		check(t, func(verify bool) (Options, *refSpy) {
			addr, spies, _ := spyNode(t, entries, blockSize, 1)
			return Options{Entries: entries, RemoteAddrs: []string{addr}, Seed: 45, Verify: verify}, spies[0]
		})
	})
}
