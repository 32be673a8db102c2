package laoram

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/oram"
)

// TestCryptoWorkersEquivalence pins the crypto fan-out's determinism
// contract through the public API (runs under -race in CI): for Shards ∈
// {1, 4} under seed 42, CryptoWorkers=4 must be byte-identical to
// CryptoWorkers=1 — the serial path — in every observable: batch read
// payloads, engine statistics, session counters, and a full tree snapshot
// (per-shard position map, stash and every decrypted server slot).
// Parallel seals draw their CTR counters from deterministic per-slot
// reservation, so which worker sealed a bucket can never show.
func TestCryptoWorkersEquivalence(t *testing.T) {
	const entries = 1 << 10
	const blockSize = 32
	const seed = 42
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i*13 + 7)
	}
	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: 3000, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	payload := func(id uint64) []byte {
		p := make([]byte, blockSize)
		for i := range p {
			p[i] = byte(id + uint64(i)*3)
		}
		return p
	}

	type outcome struct {
		reads [][]byte
		stats Stats
		sess  SessionStats
		snap  []byte
	}
	run := func(t *testing.T, shards, workers int) outcome {
		t.Helper()
		db, err := New(Options{
			Entries:       entries,
			BlockSize:     blockSize,
			Encrypt:       true,
			Key:           key,
			FatTree:       true,
			Seed:          seed,
			Shards:        shards,
			CryptoWorkers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		sess := trainOneWindow(t, db, stream, 4, 8, payload, func(id uint64, row []byte) []byte {
			row[0] += byte(id) // training update: every bin reseals its paths
			return row
		}).Session
		// Ad-hoc batch traffic on top of the session: the ReadBatch /
		// WriteBatch / single-access shapes all cross the sealed store.
		var ids []uint64
		for i := uint64(0); i < 64; i++ {
			ids = append(ids, (i*37)%entries)
		}
		wdata := make([][]byte, len(ids))
		for i, id := range ids {
			wdata[i] = payload(id + 1)
		}
		if err := db.WriteBatch(ids, wdata); err != nil {
			t.Fatal(err)
		}
		reads, err := db.ReadBatch(ids)
		if err != nil {
			t.Fatal(err)
		}
		if one, err := db.Read(ids[0]); err != nil {
			t.Fatal(err)
		} else {
			reads = append(reads, one)
		}
		return outcome{reads: reads, stats: db.Stats(), sess: sess, snap: snapshotTree(t, db)}
	}

	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			serial := run(t, shards, 1)
			fanned := run(t, shards, 4)
			if len(serial.reads) != len(fanned.reads) {
				t.Fatalf("read counts diverged: %d vs %d", len(serial.reads), len(fanned.reads))
			}
			for i := range serial.reads {
				if !bytes.Equal(serial.reads[i], fanned.reads[i]) {
					t.Fatalf("read %d diverged between CryptoWorkers 1 and 4", i)
				}
			}
			if serial.stats != fanned.stats {
				t.Fatalf("engine stats diverged:\n  workers=1: %+v\n  workers=4: %+v", serial.stats, fanned.stats)
			}
			if serial.sess != fanned.sess {
				t.Fatalf("session stats diverged:\n  workers=1: %+v\n  workers=4: %+v", serial.sess, fanned.sess)
			}
			if !bytes.Equal(serial.snap, fanned.snap) {
				t.Fatal("tree snapshot (position maps, stashes, decrypted server slots) diverged")
			}
		})
	}
}

// snapshotTree serialises the full plaintext state of every shard: the
// trusted client state (position map + stash, via SaveState) and every
// server slot's (ID, leaf, decrypted payload). Ciphertext arenas are not
// directly comparable across instances — each Sealer draws a random nonce
// field — but the per-slot sequence assignment is pinned byte-for-byte at
// the store layer by oram's TestParallelSealByteIdentical.
func snapshotTree(t *testing.T, db *ORAM) []byte {
	t.Helper()
	var sb bytes.Buffer
	for i := 0; i < db.Shards(); i++ {
		client := db.eng.Sub(i).Client
		if err := client.SaveState(&sb); err != nil {
			t.Fatal(err)
		}
		g := client.Geometry()
		st := client.Store()
		for lvl := 0; lvl < g.Levels(); lvl++ {
			buf := make([]oram.Slot, g.BucketSize(lvl))
			for node := uint64(0); node < 1<<uint(lvl); node++ {
				for k := range buf {
					buf[k] = oram.Slot{}
				}
				if err := st.ReadBucket(lvl, node, buf); err != nil {
					t.Fatal(err)
				}
				for k := range buf {
					binary.Write(&sb, binary.LittleEndian, uint64(buf[k].ID))
					binary.Write(&sb, binary.LittleEndian, uint64(buf[k].Leaf))
					binary.Write(&sb, binary.LittleEndian, uint32(len(buf[k].Payload)))
					sb.Write(buf[k].Payload)
				}
			}
		}
	}
	return sb.Bytes()
}
