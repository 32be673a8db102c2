package laoram

import (
	"bytes"
	"context"
	"encoding/binary"
	"flag"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// stressSeeds is how many seeds TestTinyCacheTrainStress runs: 25 in tier-1,
// 150 in CI's diskstore job (go test -race -timeout 30m -run TestTinyCacheTrainStress . -args
// -stress-seeds=150).
var stressSeeds = flag.Int("stress-seeds", 25, "seeds for TestTinyCacheTrainStress")

// TestTieredIdentity pins DESIGN.md invariant #14 through the public API:
// a disk-backed instance (Options.DataDir) is byte-identical to the
// in-memory store under seed 42 for Shards ∈ {1, 4} at every memory
// budget (100%, 25%, 5% of tree size), with the look-ahead prefetcher on
// and off — same batch read payloads, same engine statistics, same session
// counters, same decrypted tree snapshot. The cache may thrash and the
// prefetcher may race ahead, but nothing the client can observe moves.
// CryptoWorkers is pinned to 1 because the disk tier always seals serially;
// tier telemetry (which IS timing- and residency-dependent) is zeroed
// before comparison.
//
// Training's tier counters, read first, are held to the prefetcher's bars.
// Off issues nothing and its demand misses (deterministic) stay within 1.2×
// the recorded counts; useful never exceeds issued. Where the prefetcher
// has room to run — the "experiment" shape, one shard of 8,192 rows of
// 128 B, S 8, 16 bins per round trip — prefetch on issues spans and has
// them demanded below 100%, and at 5% demand-misses strictly less than
// off. On 1,024 rows training ends within milliseconds, and whether the
// prefetch goroutine is scheduled before demand passes its hints is up to
// the host: under a loaded `go test ./...` it issued nothing.
func TestTieredIdentity(t *testing.T) {
	const seed = 42
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i*13 + 7)
	}
	type shape struct {
		name             string
		entries          uint64
		blockSize, count int
		shards, s, bins  int
		offMisses        [3]uint64 // at 100, 25, 5 %, recorded before the prefetch axis
		prefetchHasRoom  bool
	}
	budgets := [3]int64{100, 25, 5}
	shapes := []shape{
		{"shards=1", 1 << 10, 32, 3000, 1, 4, 8, [3]uint64{136, 614, 3544}, false},
		{"shards=4", 1 << 10, 32, 3000, 4, 4, 8, [3]uint64{136, 2400, 2566}, false},
		{"experiment", 1 << 13, 128, 6000, 1, 8, 16, [3]uint64{609, 695, 3123}, true},
	}

	type outcome struct {
		reads [][]byte
		stats Stats
		sess  SessionStats
		snap  []byte
		tier  Stats // after Train, tier counters intact
	}
	run := func(t *testing.T, sh shape, stream []uint64, dataDir string, budget int64, prefetch bool) (outcome, int64) {
		t.Helper()
		payload := func(id uint64) []byte {
			p := make([]byte, sh.blockSize)
			for i := range p {
				p[i] = byte(id + uint64(i)*3)
			}
			return p
		}
		db, err := New(Options{
			Entries:         sh.entries,
			BlockSize:       sh.blockSize,
			Encrypt:         true,
			Key:             key,
			FatTree:         true,
			Seed:            seed,
			Shards:          sh.shards,
			CryptoWorkers:   1,
			DataDir:         dataDir,
			MemBudget:       budget,
			DisablePrefetch: dataDir != "" && !prefetch,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		sess := trainOneWindow(t, db, stream, sh.s, sh.bins, payload, func(id uint64, row []byte) []byte {
			row[0] += byte(id)
			return row
		}).Session
		// The training session is the prefetcher's period (its hints come
		// from the plan), so its counters are read before the lookups below.
		tier := db.Stats()
		var ids []uint64
		for i := uint64(0); i < 64; i++ {
			ids = append(ids, (i*37)%sh.entries)
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
		var tree int64
		for _, ds := range db.disks {
			tree += ds.TreeBytes()
		}
		o := outcome{reads: reads, stats: db.Stats(), sess: sess, snap: snapshotTree(t, db), tier: tier}
		// Tier counters are the disk run's own telemetry — residency and
		// timing dependent, deliberately outside the identity contract.
		o.stats.TierHits = 0
		o.stats.TierMisses = 0
		o.stats.TierPrefetchIssued = 0
		o.stats.TierPrefetchUseful = 0
		o.stats.TierStallSeconds = 0
		return o, tree
	}

	same := func(t *testing.T, label string, mem, disk outcome) {
		t.Helper()
		if len(mem.reads) != len(disk.reads) {
			t.Fatalf("%s: read counts diverged: %d vs %d", label, len(mem.reads), len(disk.reads))
		}
		for i := range mem.reads {
			if !bytes.Equal(mem.reads[i], disk.reads[i]) {
				t.Fatalf("%s: read %d diverged from the in-memory run", label, i)
			}
		}
		if mem.stats != disk.stats {
			t.Fatalf("%s: engine stats diverged:\n  memory: %+v\n  disk:   %+v", label, mem.stats, disk.stats)
		}
		if mem.sess != disk.sess {
			t.Fatalf("%s: session stats diverged:\n  memory: %+v\n  disk:   %+v", label, mem.sess, disk.sess)
		}
		if !bytes.Equal(mem.snap, disk.snap) {
			t.Fatalf("%s: tree snapshot (position maps, stashes, decrypted server slots) diverged", label)
		}
	}

	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: sh.entries, Count: sh.count, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			mem, _ := run(t, sh, stream, "", 0, false)
			// 100% runs first, unbounded, and learns the tree size the
			// smaller budgets are cut from.
			var tree int64
			for b, pct := range budgets {
				var misses [2]uint64 // prefetch off, on
				for i, prefetch := range []bool{false, true} {
					label := fmt.Sprintf("budget=%d%% prefetch=%v", pct, prefetch)
					budget := tree * pct / 100
					if pct == 100 {
						budget = 0
					}
					disk, n := run(t, sh, stream, filepath.Join(t.TempDir(), fmt.Sprintf("pct%d-pf%v", pct, prefetch)), budget, prefetch)
					if tree == 0 {
						tree = n
					}
					same(t, label, mem, disk)
					ts := disk.tier
					misses[i] = ts.TierMisses
					t.Logf("%s: %d hits, %d misses, prefetch issued %d useful %d", label,
						ts.TierHits, ts.TierMisses, ts.TierPrefetchIssued, ts.TierPrefetchUseful)
					if ts.TierPrefetchUseful > ts.TierPrefetchIssued {
						t.Errorf("%s: %d prefetched spans useful of %d issued", label, ts.TierPrefetchUseful, ts.TierPrefetchIssued)
					}
					switch {
					case !prefetch && (ts.TierPrefetchIssued != 0 || ts.TierPrefetchUseful != 0):
						t.Errorf("%s: prefetch disabled but issued %d, useful %d", label, ts.TierPrefetchIssued, ts.TierPrefetchUseful)
					case !prefetch && float64(ts.TierMisses) > 1.2*float64(sh.offMisses[b]):
						t.Errorf("%s: %d demand misses, recorded %d (>20%% regression)", label, ts.TierMisses, sh.offMisses[b])
					case prefetch && pct < 100 && sh.prefetchHasRoom && ts.TierPrefetchIssued == 0:
						t.Errorf("%s: prefetcher enabled but never faulted a span", label)
					case prefetch && pct < 100 && sh.prefetchHasRoom && ts.TierPrefetchUseful == 0:
						t.Errorf("%s: no prefetched span was ever demanded", label)
					}
				}
				if pct == 5 && sh.prefetchHasRoom && misses[1] >= misses[0] {
					t.Errorf("budget=5%%: prefetch on suffered %d demand misses vs %d with prefetch off; want fewer", misses[1], misses[0])
				}
			}
		})
	}
}

// TestTieredOptionValidation pins the Options cross-checks for the tiered
// storage fields: budgets and prefetch switches are meaningless without a
// data dir, and a data dir is incompatible with modes that have no payload
// tree to put on disk.
func TestTieredOptionValidation(t *testing.T) {
	base := Options{Entries: 256, BlockSize: 16}
	cases := []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"negative budget", func(o *Options) { o.DataDir = t.TempDir(); o.MemBudget = -1 }, "MemBudget must be >= 0"},
		{"budget without data dir", func(o *Options) { o.MemBudget = 1 << 20 }, "requires Options.DataDir"},
		{"disable prefetch without data dir", func(o *Options) { o.DisablePrefetch = true }, "requires Options.DataDir"},
		{"metadata-only on disk", func(o *Options) { o.DataDir = t.TempDir(); o.MetadataOnly = true }, "MetadataOnly"},
		{"remote with data dir", func(o *Options) { o.DataDir = t.TempDir(); o.RemoteAddrs = []string{"127.0.0.1:1"} }, "laoramserve -data-dir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := base
			tc.mut(&opts)
			_, err := New(opts)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("New(%s) = %v, want error containing %q", tc.name, err, tc.want)
			}
		})
	}
	// The valid combination works end to end, including DisablePrefetch.
	db, err := New(Options{Entries: 256, BlockSize: 16, Seed: 1,
		DataDir: t.TempDir(), MemBudget: 1 << 20, DisablePrefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Load(256, nil); err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{9}, 16)
	if err := db.Write(3, want); err != nil {
		t.Fatal(err)
	}
	got, err := db.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("disk-backed round trip without prefetch failed")
	}
}

// TestTinyCacheTrainStress trains 20 k operations over a 4096-row table on
// disk arenas whose cache (500 kB over two shards) turns over within a few
// disk reads, with the prefetcher on — the shape in which a stale prefetch
// once lost a block in 3 of 150 runs ("block … missing after path reads").
// Every seed must train without error and leave every row with exactly the
// visits §IV-B binning gives it: a window is split by shard, a shard's share
// cut into bins of the next S distinct ids, and a row visited once per bin
// that holds it.
func TestTinyCacheTrainStress(t *testing.T) {
	const entries, blockSize, ops = 4096, 128, 20000
	const shards, superblock, window = 2, 4, 512
	for seed := int64(1); seed <= int64(*stressSeeds); seed++ {
		stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: ops, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		db, err := New(Options{
			Entries: entries, BlockSize: blockSize, FatTree: true, Seed: seed, Shards: shards,
			DataDir: t.TempDir(), MemBudget: 500 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		visits := make(map[uint64]uint64)
		for lo := 0; lo < len(stream); lo += window {
			var bins [shards][]uint64
			for _, id := range stream[lo:min(lo+window, len(stream))] {
				b := &bins[id%shards]
				if slices.Contains(*b, id) {
					continue
				}
				visits[id]++
				if *b = append(*b, id); len(*b) == superblock {
					*b = (*b)[:0]
				}
			}
		}
		_, err = db.Train(context.Background(), TrainOptions{
			Source: FromSlice(stream), Superblock: superblock, Window: window, PrePlace: true,
			Payload: func(id uint64) []byte {
				row := make([]byte, blockSize)
				binary.LittleEndian.PutUint64(row, id)
				return row
			},
			Visit: func(id uint64, row []byte) []byte {
				binary.LittleEndian.PutUint64(row[8:], binary.LittleEndian.Uint64(row[8:])+1)
				return row
			},
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for id, n := range visits {
			row, err := db.Read(id)
			if err != nil {
				t.Fatalf("seed %d: row %d: %v", seed, id, err)
			}
			if binary.LittleEndian.Uint64(row) != id || binary.LittleEndian.Uint64(row[8:]) != n {
				t.Fatalf("seed %d: row %d reads id %d with %d visits, want %d", seed, id, binary.LittleEndian.Uint64(row), binary.LittleEndian.Uint64(row[8:]), n)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatalf("seed %d: close: %v", seed, err)
		}
	}
}
