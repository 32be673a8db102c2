package laoram

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"repro/internal/oram"
)

// TestCryptoWorkersEquivalence pins the crypto fan-out's determinism
// contract through the public API (runs under -race in CI): under seed 42,
// every crypto width in {2, 4, 8} must be byte-identical to width 1 — the
// serial path — in every observable: batch read payloads, engine
// statistics, session counters, and a full tree snapshot (per-shard
// position map, stash and every decrypted server slot). The width is
// crypto.DefaultWorkers(), so each run sets it through GOMAXPROCS and
// checks the pool the instance built. The cases are Shards ∈ {1, 4} on
// 32 B rows, and the train-sealed shape — 4 KB rows fetched 16 bins per
// round trip — where a bucket union is large enough for every width to
// actually fan out. Parallel seals draw their nonce sequence numbers from
// deterministic per-slot reservation, so which worker sealed a bucket can
// never show.
func TestCryptoWorkersEquivalence(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const entries = 1 << 10
	const seed = 42
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i*13 + 7)
	}
	type shape struct {
		name                   string
		shards, blockSize      int
		accesses, s, batchBins int
	}
	type outcome struct {
		reads [][]byte
		stats Stats
		sess  SessionStats
		snap  []byte
	}
	run := func(t *testing.T, sh shape, stream []uint64, workers int) outcome {
		t.Helper()
		payload := func(id uint64) []byte {
			p := make([]byte, sh.blockSize)
			for i := range p {
				p[i] = byte(id + uint64(i)*3)
			}
			return p
		}
		runtime.GOMAXPROCS(workers)
		db, err := New(Options{
			Entries:   entries,
			BlockSize: sh.blockSize,
			Encrypt:   true,
			Key:       key,
			FatTree:   true,
			Seed:      seed,
			Shards:    sh.shards,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if workers == 1 && db.pool != nil {
			t.Fatalf("width 1 built a pool of %d workers", db.pool.Workers())
		}
		if workers > 1 && (db.pool == nil || db.pool.Workers() != workers) {
			t.Fatalf("GOMAXPROCS %d did not build a pool of %d workers", workers, workers)
		}
		sess := trainOneWindow(t, db, stream, sh.s, sh.batchBins, payload, func(id uint64, row []byte) []byte {
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

	for _, sh := range []shape{
		{name: "shards=1", shards: 1, blockSize: 32, accesses: 3000, s: 4, batchBins: 8},
		{name: "shards=4", shards: 4, blockSize: 32, accesses: 3000, s: 4, batchBins: 8},
		{name: "4KB-rows-16-bins", shards: 1, blockSize: 4096, accesses: 1500, s: 8, batchBins: 16},
	} {
		t.Run(sh.name, func(t *testing.T) {
			stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: sh.accesses, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			serial := run(t, sh, stream, 1)
			for _, workers := range []int{2, 4, 8} {
				fanned := run(t, sh, stream, workers)
				if len(serial.reads) != len(fanned.reads) {
					t.Fatalf("read counts diverged: %d vs %d at width %d", len(serial.reads), len(fanned.reads), workers)
				}
				for i := range serial.reads {
					if !bytes.Equal(serial.reads[i], fanned.reads[i]) {
						t.Fatalf("read %d diverged between widths 1 and %d", i, workers)
					}
				}
				if serial.stats != fanned.stats {
					t.Fatalf("engine stats diverged:\n  workers=1: %+v\n  workers=%d: %+v", serial.stats, workers, fanned.stats)
				}
				if serial.sess != fanned.sess {
					t.Fatalf("session stats diverged:\n  workers=1: %+v\n  workers=%d: %+v", serial.sess, workers, fanned.sess)
				}
				if !bytes.Equal(serial.snap, fanned.snap) {
					t.Fatalf("tree snapshot (position maps, stashes, decrypted server slots) diverged at width %d", workers)
				}
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
