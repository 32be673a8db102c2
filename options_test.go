package laoram

import (
	"bytes"
	"strings"
	"testing"
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

// TestRecursivePosMapOption: O(log N) client state through the public API.
func TestRecursivePosMapOption(t *testing.T) {
	const entries = 1 << 12 // big enough to force at least one recursion level
	db, err := New(Options{Entries: entries, BlockSize: 8, RecursivePosMap: true, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Load(entries, nil); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{7}, 8)
	if err := db.Write(9, want); err != nil {
		t.Fatal(err)
	}
	got, err := db.Read(9)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("recursive posmap round trip failed")
	}
	// Client-resident position state must be far below the flat map's
	// 4 bytes/entry.
	st := db.Stats()
	if st.PositionBytes >= int64(entries)*4 {
		t.Errorf("recursive posmap client state %d B not below flat %d B",
			st.PositionBytes, entries*4)
	}
}
