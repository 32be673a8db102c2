package laoram

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

// lookupOp is one step of the batched-lookup script the backends replay.
type lookupOp struct {
	write bool
	ids   []uint64
	data  [][]byte
}

// lookupScript draws a fixed sequence of ReadBatch/WriteBatch requests:
// sizes from one key to several chunks per lane, ids repeated within a
// request, reads only of rows some earlier request wrote. model is the row
// contents after the whole script.
func lookupScript(entries uint64, blockSize, steps int, seed int64) (script []lookupOp, model map[uint64][]byte) {
	rng := rand.New(rand.NewSource(seed))
	model = make(map[uint64][]byte)
	var known []uint64
	for s := 0; s < steps; s++ {
		n := 1 + rng.Intn(150)
		op := lookupOp{write: len(known) == 0 || rng.Intn(2) == 0, ids: make([]uint64, n)}
		if op.write {
			op.data = make([][]byte, n)
		}
		for i := range op.ids {
			if op.write {
				id := uint64(rng.Int63n(int64(entries)))
				if rng.Intn(8) == 0 && i > 0 {
					id = op.ids[rng.Intn(i)] // duplicate inside the request
				}
				op.ids[i] = id
				if blockSize > 0 {
					op.data[i] = make([]byte, blockSize)
					binary.LittleEndian.PutUint64(op.data[i], rng.Uint64())
				}
				if _, ok := model[id]; !ok {
					known = append(known, id)
				}
				model[id] = op.data[i]
			} else {
				op.ids[i] = known[rng.Intn(len(known))]
			}
		}
		script = append(script, op)
	}
	return script, model
}

// replayLookups runs script against db, checking every read against the
// rows the script has written so far (read-your-writes, invariant #2).
func replayLookups(t *testing.T, db *ORAM, script []lookupOp) {
	t.Helper()
	cur := make(map[uint64][]byte)
	for s, op := range script {
		if op.write {
			if err := db.WriteBatch(op.ids, op.data); err != nil {
				t.Fatalf("step %d: WriteBatch: %v", s, err)
			}
			for i, id := range op.ids {
				cur[id] = op.data[i] // batch order: the last duplicate wins
			}
			continue
		}
		rows, err := db.ReadBatch(op.ids)
		if err != nil {
			t.Fatalf("step %d: ReadBatch: %v", s, err)
		}
		for i, id := range op.ids {
			if !bytes.Equal(rows[i], cur[id]) {
				t.Fatalf("step %d: row %d = %x, want %x", s, id, rows[i], cur[id])
			}
		}
	}
}

// identityStats strips what legitimately differs between backends (server
// footprint, tier telemetry, simulated time).
func identityStats(s Stats) Stats {
	return Stats{
		Accesses: s.Accesses, PathReads: s.PathReads, PathWrites: s.PathWrites, DummyReads: s.DummyReads,
		StashHits: s.StashHits, StashSize: s.StashSize, StashPeak: s.StashPeak, BytesMoved: s.BytesMoved,
	}
}

// TestBatchedLookupsAcrossBackends: the joint multi-path ReadBatch/WriteBatch
// is checked against the map reference model (invariant #2) on every storage
// shape — metadata-only, in-memory, sealed, disk-backed at a 25% cache, and
// a remote sharded server over loopback — and, extending invariant #6 to
// batched lookups, all payload-bearing shapes are byte-identical to the
// plain in-memory engine: same rows, same access statistics, same traffic.
func TestBatchedLookupsAcrossBackends(t *testing.T) {
	const (
		entries   = 1 << 10
		blockSize = 32
		shards    = 2
		seed      = 99
	)
	key := bytes.Repeat([]byte{0x5A}, 32)
	script, model := lookupScript(entries, blockSize, 60, 7)
	base := Options{Entries: entries, BlockSize: blockSize, Seed: seed, Shards: shards}

	t.Run("meta", func(t *testing.T) {
		metaScript, _ := lookupScript(entries, 0, 60, 7)
		db, err := New(Options{Entries: entries, MetadataOnly: true, Seed: seed, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		replayLookups(t, db, metaScript)
	})

	run := func(t *testing.T, opts Options) (Stats, [][]byte) {
		t.Helper()
		db, err := New(opts)
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		replayLookups(t, db, script)
		st := identityStats(db.Stats())
		ids := make([]uint64, 0, len(model))
		for id := uint64(0); id < entries; id++ {
			if _, ok := model[id]; ok {
				ids = append(ids, id)
			}
		}
		rows, err := db.ReadBatch(ids)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			if !bytes.Equal(rows[i], model[id]) {
				t.Fatalf("final row %d = %x, want %x", id, rows[i], model[id])
			}
		}
		return st, rows
	}

	wantStats, wantRows := run(t, base)
	if wantStats.PathReads == 0 || wantStats.PathReads > wantStats.Accesses {
		t.Fatalf("in-memory run: %d path reads for %d accesses", wantStats.PathReads, wantStats.Accesses)
	}
	variants := map[string]func(t *testing.T) Options{
		"sealed": func(*testing.T) Options {
			o := base
			o.Encrypt, o.Key = true, key
			return o
		},
		"disk": func(t *testing.T) Options {
			o := base
			o.DataDir = t.TempDir()
			mem, err := New(base)
			if err != nil {
				t.Fatal(err)
			}
			o.MemBudget = mem.Stats().ServerBytes / 4
			mem.Close()
			return o
		},
		"remote": func(t *testing.T) Options {
			return Options{Entries: entries, Seed: seed, Shards: shards, RemoteAddrs: []string{startShardedServer(t, entries, shards, blockSize)}}
		},
	}
	for name, opts := range variants {
		t.Run(name, func(t *testing.T) {
			st, rows := run(t, opts(t))
			if st != wantStats {
				t.Errorf("stats diverge from the in-memory engine:\n got  %+v\n want %+v", st, wantStats)
			}
			for i := range rows {
				if !bytes.Equal(rows[i], wantRows[i]) {
					t.Fatalf("row %d differs from the in-memory engine", i)
				}
			}
		})
	}
}

// TestReadBatchOfOneIsRead: a one-key batch takes the single-access path —
// the same row, statistics and traffic as Read/Write on a twin instance.
func TestReadBatchOfOneIsRead(t *testing.T) {
	const entries, blockSize = 256, 16
	mk := func() *ORAM {
		db, err := New(Options{Entries: entries, BlockSize: blockSize, Seed: 5, Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Load(entries, func(id uint64) []byte { return bytes.Repeat([]byte{byte(id)}, blockSize) }); err != nil {
			t.Fatal(err)
		}
		db.ResetStats()
		return db
	}
	a, b := mk(), mk()
	defer a.Close()
	defer b.Close()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 400; i++ {
		id := uint64(rng.Intn(entries))
		if rng.Intn(3) == 0 {
			row := bytes.Repeat([]byte{byte(i)}, blockSize)
			if err := a.Write(id, row); err != nil {
				t.Fatal(err)
			}
			if err := b.WriteBatch([]uint64{id}, [][]byte{row}); err != nil {
				t.Fatal(err)
			}
		} else {
			want, err := a.Read(id)
			if err != nil {
				t.Fatal(err)
			}
			got, err := b.ReadBatch([]uint64{id})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[0], want) {
				t.Fatalf("op %d: ReadBatch([%d]) = %x, Read = %x", i, id, got[0], want)
			}
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("op %d: stats diverge:\n single %+v\n batch  %+v", i, a.Stats(), b.Stats())
		}
	}
}

// TestReadBatchCancelledAtChunkBoundary: ctx is checked per joint access, so
// a batch under an already-cancelled context does no work at all.
func TestReadBatchCancelledAtChunkBoundary(t *testing.T) {
	db, err := New(Options{Entries: 512, BlockSize: 16, Seed: 3, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Load(512, nil); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ids := make([]uint64, 200)
	for i := range ids {
		ids[i] = uint64(i)
	}
	if _, err := db.ReadBatchContext(ctx, ids); !errors.Is(err, context.Canceled) {
		t.Fatalf("ReadBatchContext under a cancelled context: %v", err)
	}
	if err := db.WriteBatchContext(ctx, ids, make([][]byte, len(ids))); !errors.Is(err, context.Canceled) {
		t.Fatalf("WriteBatchContext under a cancelled context: %v", err)
	}
	if st := db.Stats(); st.Accesses != 0 || st.BytesMoved != 0 {
		t.Errorf("cancelled batches did work: %+v", st)
	}
}
