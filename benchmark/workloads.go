package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	laoram "repro"
)

// Every workload runs one ORAM client over two shard lanes: an instance is a
// single trusted client and its parallelism is its lanes, so lanes = the two
// cores the benchmark is sized for.
const (
	shards     = 2
	superblock = 4 // the paper's default S
	planDepth  = 2 // TrainOptions.Depth default: windows the planner reads ahead
)

// workload is one set of inputs and the deployment shape they run through.
type workload struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	entries   uint64
	blockSize int
	encrypt   bool
	disk      bool    // DataDir arenas with MemBudget = budgetShare of the tree
	budget    float64 // share of the tree the disk tier may cache
	nodes     int     // loopback remote.Server nodes; 0 = local stores

	// train-* workloads (window > 0): one look-ahead training stream.
	trace     laoram.TraceConfig
	window    int
	batchBins int
	// countWindows sizes the fixed phase after the bulk load: it warms the
	// instance up and, being the same work on every run of a seed, gives
	// the count metrics that repeat exactly.
	countWindows int
	// maxOpsPerSec sizes the pre-generated stream (maxOpsPerSec × seconds):
	// about four times the rate seen on the sizing host, so the deadline and
	// not the stream ends the measured phase.
	maxOpsPerSec int

	// lookup-remote (window == 0): point requests, no look-ahead.
	keysPerReq int
	countReqs  int
}

func (w workload) train() bool { return w.window > 0 }

// workloads is the fixed set. Sizes follow ISSUE 12; the observed rates that
// sized them are in README.md, not baselines.
var workloads = []workload{
	{
		name:    "train-mem",
		why:     "paper's headline case: in-memory fat tree, DLRM rows; oram client + PayloadStore copies + shard sessions do the work, crypto/diskstore/remote idle",
		entries: 131072, blockSize: 128,
		trace:  laoram.TraceConfig{Kind: laoram.TraceKaggle},
		window: 16384, countWindows: 4, maxOpsPerSec: 280_000,
	},
	{
		name:    "train-sealed",
		why:     "same engine with Encrypt and 4 KB XLM-R rows on a Zipf trace: crypto seal/open dominates, so crypto-width, HMAC/CTR and fetch/crypto-overlap work shows here",
		entries: 16384, blockSize: 4096, encrypt: true,
		trace:  laoram.TraceConfig{Kind: laoram.TraceXNLI},
		window: 8192, countWindows: 2, maxOpsPerSec: 36_000,
	},
	{
		name:    "train-disk",
		why:     "train-mem geometry on disk arenas with a cache of 10% of the tree and plan-driven prefetch: diskstore cache, write-behind and demand stalls dominate",
		entries: 131072, blockSize: 128, disk: true, budget: 0.10,
		trace:  laoram.TraceConfig{Kind: laoram.TraceKaggle},
		window: 16384, countWindows: 2, maxOpsPerSec: 120_000,
	},
	{
		name:    "train-remote",
		why:     "two loopback nodes, one shard each, BatchBins=16: the remote layer moves opBatch frames (codec, admission, worker pool, server store); throughput-bound wire use",
		entries: 131072, blockSize: 128, nodes: 2,
		trace:  laoram.TraceConfig{Kind: laoram.TraceKaggle},
		window: 16384, batchBins: 16, countWindows: 2, maxOpsPerSec: 48_000,
	},
	{
		name:    "lookup-remote",
		why:     "one node, two shards, plain PathORAM reads and writes of 32 uniform keys: latency-bound opReadPath/opWritePath frames with planner and superblocks bypassed",
		entries: 32768, blockSize: 128, nodes: 1,
		keysPerReq: 32, countReqs: 200,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// scaled shrinks a workload to about 1% of its size for the unit tests.
func (w workload) scaled(scale string) (workload, error) {
	switch scale {
	case "full":
		return w, nil
	case "smoke":
		w.entries /= 32
		if w.disk {
			// On a tree this small a 10% cache turns over within one disk
			// read, and diskstore's prefetcher can then insert a bucket it
			// read before the client rewrote and evicted it (about 2% of
			// smoke runs lose a block that way; none at full size). Half
			// the tree keeps the tests deterministic.
			w.budget = 0.5
		}
		if w.train() {
			w.window /= 32
		} else {
			w.countReqs /= 10
		}
		return w, nil
	}
	return workload{}, fmt.Errorf("unknown scale %q (full, smoke)", scale)
}

// Rows carry their id and a visit counter so that training can be checked
// from outside: [0:8) id, [8:16) visits, the rest a filler derived from the
// id.
const rowHeader = 16

func fillRow(dst []byte, id, visits uint64) {
	binary.LittleEndian.PutUint64(dst, id)
	binary.LittleEndian.PutUint64(dst[8:], visits)
	for i := rowHeader; i < len(dst); i++ {
		dst[i] = byte(id) + byte(i)
	}
}

// checkRow reports whether row is block id's row with the given visit count.
func checkRow(row []byte, id, visits uint64) bool {
	if len(row) < rowHeader || binary.LittleEndian.Uint64(row) != id || binary.LittleEndian.Uint64(row[8:]) != visits {
		return false
	}
	for i := rowHeader; i < len(row); i++ {
		if row[i] != byte(id)+byte(i) {
			return false
		}
	}
	return true
}

func (w workload) initRow(id uint64) []byte {
	row := make([]byte, w.blockSize)
	fillRow(row, id, 0)
	return row
}

// trainStream generates the whole training stream of a run from the seed.
func (w workload) trainStream(seed int64, measure time.Duration) ([]uint64, error) {
	cfg := w.trace
	cfg.N = w.entries
	cfg.Seed = seed
	windows := w.countWindows + int(float64(w.maxOpsPerSec)*measure.Seconds())/w.window + 1
	cfg.Count = windows * w.window
	return laoram.GenerateTrace(cfg)
}

// request is one point request of lookup-remote: distinct uniform keys, read
// or written as a batch.
type request struct {
	write bool
	ids   []uint64
}

// requestGen produces the request sequence of a seed; how much of it a run
// consumes depends on how long it measures.
type requestGen struct {
	rng  *rand.Rand
	w    workload
	seen map[uint64]bool
}

func newRequestGen(w workload, seed int64) *requestGen {
	return &requestGen{rng: rand.New(rand.NewSource(seed)), w: w, seen: make(map[uint64]bool, w.keysPerReq)}
}

func (g *requestGen) next() request {
	clear(g.seen)
	r := request{write: g.rng.Intn(2) == 0, ids: make([]uint64, 0, g.w.keysPerReq)}
	for len(r.ids) < g.w.keysPerReq {
		id := uint64(g.rng.Int63n(int64(g.w.entries)))
		if !g.seen[id] {
			g.seen[id] = true
			r.ids = append(r.ids, id)
		}
	}
	return r
}

// visitModel is the reference for training: §IV-B binning replayed from
// outside. A window is split by shard, each shard's slice is cut into bins of
// the next `superblock` distinct ids, and a row is visited once per bin that
// holds it. It returns the visitor calls the windows should make and adds
// each row's share to visits.
func visitModel(stream []uint64, window int, visits []uint32) uint64 {
	var total uint64
	var bins [shards][]uint64
	for lo := 0; lo < len(stream); lo += window {
		hi := min(lo+window, len(stream))
		for s := range bins {
			bins[s] = bins[s][:0]
		}
		for _, id := range stream[lo:hi] {
			b := &bins[id%shards]
			dup := false
			for _, m := range *b {
				if m == id {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			visits[id]++
			total++
			if *b = append(*b, id); len(*b) == superblock {
				*b = (*b)[:0]
			}
		}
	}
	return total
}
