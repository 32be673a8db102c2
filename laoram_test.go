package laoram

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"repro/internal/oram"
	"repro/internal/remote"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{}); err == nil {
		t.Error("zero options accepted")
	}
	if _, err := New(Options{Entries: 8}); err == nil {
		t.Error("missing BlockSize accepted")
	}
	if _, err := New(Options{Entries: 8, BlockSize: 16, EvictHigh: 10, EvictLow: 20}); err == nil {
		t.Error("inverted watermarks accepted")
	}
	if _, err := New(Options{Entries: 8, BlockSize: 16, EvictLow: 20}); err == nil || !strings.Contains(err.Error(), "EvictLow") {
		t.Errorf("EvictLow without EvictHigh: err = %v, want one naming EvictLow", err)
	}
	if _, err := New(Options{Entries: 8, BlockSize: 16, EvictHigh: -2}); err == nil || !strings.Contains(err.Error(), "EvictHigh") {
		t.Errorf("EvictHigh -2: err = %v, want one naming EvictHigh", err)
	}
	if _, err := New(Options{Entries: 8, BlockSize: 16, Encrypt: true, Key: []byte("short")}); err == nil {
		t.Error("short key accepted")
	}
	if _, err := New(Options{Entries: 8, RemoteAddrs: []string{"127.0.0.1:1"}}); err == nil {
		t.Error("dead remote accepted")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	db, err := New(Options{Entries: 256, BlockSize: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := bytes.Repeat([]byte{0xEE}, 32)
	if err := db.Write(5, want); err != nil {
		t.Fatal(err)
	}
	got, err := db.Read(5)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("round trip mismatch")
	}
	if _, err := db.Read(6); err == nil {
		t.Error("read of unwritten block succeeded")
	}
	// The failed read of block 6 changes nothing, so it is not an access.
	st := db.Stats()
	if st.Accesses != 2 || st.ServerBytes <= 0 || st.PositionBytes <= 0 {
		t.Errorf("stats wrong: %+v", st)
	}
	if got, err := db.ReadInto(5, make([]byte, 32)); err != nil || !bytes.Equal(got, want) {
		t.Errorf("ReadInto = %v, %v; want the written row", got, err)
	}
}

func TestEncryptedStore(t *testing.T) {
	key := bytes.Repeat([]byte{7}, 32)
	db, err := New(Options{Entries: 64, BlockSize: 64, Encrypt: true, Key: key, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Load(64, func(id uint64) []byte { return bytes.Repeat([]byte{byte(id)}, 64) }); err != nil {
		t.Fatal(err)
	}
	if got, err := db.ReadInto(5, make([]byte, 64)); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{5}, 64)) {
		t.Errorf("ReadInto of a loaded row = %v, %v", got, err)
	}
	secret := bytes.Repeat([]byte("secret!!"), 8)
	if err := db.Write(3, secret); err != nil {
		t.Fatal(err)
	}
	got, err := db.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, secret) {
		t.Error("encrypted round trip failed")
	}
}

func TestMetadataOnlyMode(t *testing.T) {
	db, err := New(Options{Entries: 1 << 12, MetadataOnly: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Load(1<<12, nil); err != nil {
		t.Fatal(err)
	}
	got, err := db.Read(9)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Errorf("metadata-only read returned payload %v", got)
	}
}

func TestFatTreeOption(t *testing.T) {
	normal, err := New(Options{Entries: 1 << 10, BlockSize: 128, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer normal.Close()
	fat, err := New(Options{Entries: 1 << 10, BlockSize: 128, FatTree: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer fat.Close()
	if fat.ServerBytes() <= normal.ServerBytes() {
		t.Errorf("fat tree (%d B) should use more server storage than normal (%d B)",
			fat.ServerBytes(), normal.ServerBytes())
	}
	if fat.Describe() == normal.Describe() {
		t.Error("descriptions should differ")
	}
}

// TestPreprocessAndSession runs one whole-stream look-ahead pass through
// Train and checks the plan accounting, the steady-state path cost and that
// the training update persisted.
func TestPreprocessAndSession(t *testing.T) {
	const entries = 1 << 10
	db, err := New(Options{Entries: entries, BlockSize: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stream, err := GenerateTrace(TraceConfig{Kind: TracePermutation, N: entries, Count: 2048, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	visits := 0
	ts := trainOneWindow(t, db, stream, 4, 0, func(id uint64) []byte { return make([]byte, 16) },
		func(id uint64, payload []byte) []byte {
			visits++
			out := make([]byte, len(payload))
			out[0] = 0xAB
			return out
		})
	if ts.Windows != 1 || ts.Accesses != uint64(len(stream)) {
		t.Errorf("trained %d accesses in %d windows, want %d in 1", ts.Accesses, ts.Windows, len(stream))
	}
	if visits != len(stream) {
		t.Errorf("visited %d blocks, want %d", visits, len(stream))
	}
	ss := ts.Session
	if ss.Bins != 512 {
		t.Errorf("session bins = %d, want 512", ss.Bins)
	}
	st := db.Stats()
	if st.Accesses == 0 || st.SimTimeSeconds <= 0 {
		t.Errorf("stats missing: %+v", st)
	}
	// Steady state: 1 path read per bin.
	if st.PathReads > ss.Bins {
		t.Errorf("path reads %d > bins %d in steady state", st.PathReads, ss.Bins)
	}
	// A second pass over an exhausted source is a successful no-op.
	if again, err := db.Train(context.Background(), TrainOptions{Source: FromSlice(nil)}); err != nil || again.Windows != 0 {
		t.Errorf("Train past the end of the stream = %+v, %v", again, err)
	}
	got, err := db.Read(stream[0])
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB {
		t.Error("visit mutation lost")
	}
}

// TestSessionValidation: a superblock size or stream the planner rejects
// fails Train, and leaves the instance usable.
func TestSessionValidation(t *testing.T) {
	db, err := New(Options{Entries: 16, BlockSize: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	if _, err := db.Train(ctx, TrainOptions{Source: FromSlice([]uint64{1}), Superblock: -1}); err == nil {
		t.Error("negative Superblock accepted")
	}
	if _, err := db.Train(ctx, TrainOptions{Source: FromSlice([]uint64{1, 16}), PrePlace: true}); err == nil {
		t.Error("out-of-range stream id accepted")
	}
	if err := db.Load(16, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Train(ctx, TrainOptions{Source: FromSlice([]uint64{1, 2, 3})}); err != nil {
		t.Errorf("Train after rejected runs: %v", err)
	}
}

func TestRemoteOption(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 8, LeafZ: 4, BlockSize: 16})
	ps, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := remote.NewServer(ps, nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	db, err := New(Options{Entries: 256, RemoteAddrs: []string{addr}, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	want := bytes.Repeat([]byte{9}, 16)
	if err := db.Write(1, want); err != nil {
		t.Fatal(err)
	}
	got, err := db.Read(1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("remote round trip failed")
	}
	// Entries exceeding the remote tree are rejected.
	if _, err := New(Options{Entries: 1 << 20, RemoteAddrs: []string{addr}}); err == nil {
		t.Error("oversized Entries accepted for small remote tree")
	}
}

func TestEvictDisabled(t *testing.T) {
	db, err := New(Options{Entries: 128, BlockSize: 8, EvictHigh: -1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Load(128, nil); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 128; i++ {
		if _, err := db.Read(i); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().DummyReads != 0 {
		t.Error("dummy reads despite disabled eviction")
	}
}

func TestTableHelpers(t *testing.T) {
	d := DLRMTable(0)
	if d.Rows != 10131227 || d.RowBytes() != 128 {
		t.Errorf("DLRMTable = %+v", d)
	}
	x := XLMRTable(100)
	if x.Rows != 100 || x.RowBytes() != 4096 {
		t.Errorf("XLMRTable = %+v", x)
	}
	cfg := TableConfig{Rows: 10, Dim: 4}
	row := InitRow(cfg, 3)
	enc := InitRowBytes(cfg)(3)
	dec, err := DecodeRow(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if dec[i] != row[i] {
			t.Fatal("InitRowBytes disagrees with InitRow")
		}
	}
	re := EncodeRow(row)
	if !bytes.Equal(re, enc) {
		t.Error("EncodeRow mismatch")
	}
}

func TestResetStats(t *testing.T) {
	db, err := New(Options{Entries: 64, BlockSize: 8, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Write(1, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Accesses == 0 {
		t.Fatal("no accesses counted")
	}
	db.ResetStats()
	st := db.Stats()
	if st.Accesses != 0 || st.BytesMoved != 0 || st.SimTimeSeconds != 0 {
		t.Errorf("reset incomplete: %+v", st)
	}
	if db.Entries() != 64 {
		t.Errorf("Entries = %d", db.Entries())
	}
}

// TestSimTimeWithoutOption: every instance prices its own counts, so
// SimTimeSeconds is populated with no option set — in memory, on disk and
// over a node — and reads zero again after ResetStats.
func TestSimTimeWithoutOption(t *testing.T) {
	const entries, blockSize = 256, 16
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"memory", Options{}},
		{"disk", Options{DataDir: t.TempDir()}},
		{"remote", Options{RemoteAddrs: clusterAddrs(t, entries, 1, 1, blockSize)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := tc.opts
			opts.Entries, opts.BlockSize, opts.Seed = entries, blockSize, 3
			db, err := New(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for id := uint64(0); id < 8; id++ {
				if err := db.Write(id, make([]byte, blockSize)); err != nil {
					t.Fatal(err)
				}
			}
			if st := db.Stats(); st.SimTimeSeconds <= 0 {
				t.Errorf("SimTimeSeconds = %v after %d accesses, want > 0", st.SimTimeSeconds, st.Accesses)
			}
			db.ResetStats()
			if st := db.Stats(); st.SimTimeSeconds != 0 {
				t.Errorf("SimTimeSeconds = %v after ResetStats, want 0", st.SimTimeSeconds)
			}
		})
	}
}
