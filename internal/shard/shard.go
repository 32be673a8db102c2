// Package shard implements the sharded concurrent ORAM engine: the
// embedding table is hash-partitioned across N independent LAORAM
// instances, each with its own position map, stash, server tree and
// superblock preprocessor, and a concurrent scheduler fans batches of
// accesses out to per-shard worker goroutines and merges the results.
//
// Sharding is the scaling move DLRM-style deployments already make for
// plaintext embedding tables (state is split across many tables/hosts);
// here each partition is a complete, self-contained ORAM. The security
// argument is unchanged per shard: within a shard every fetched path was
// drawn uniformly (§VI of the paper), and the shard an access routes to
// depends only on the public block ID stream the §IV-B preprocessor
// already scans, so the server learns nothing beyond what the
// single-instance design leaks. What sharding buys is parallelism: the N
// trees are independent, so path fetches, evictions and plan execution
// proceed concurrently — on real hardware over N memory channels or
// hosts, in simulation over N independent memsim channels (elapsed time
// is the slowest shard's, see Stats).
//
// The partition is the modulo split
//
//	shard(id)  = id mod N
//	local(id)  = id div N
//
// which is deterministic, trivially invertible (both properties the
// position-map translation needs: each shard's map stays dense over
// 0..ceil(Entries/N)-1) and balanced to within one block for the dense ID
// spaces embedding tables use. A mixing hash would destroy the dense
// local ID space without changing the security argument, since shard
// routing is public either way.
//
// See DESIGN.md ("Sharded engine") for the paper-to-module map and the
// abl-shards experiment measuring throughput vs shard count.
package shard

import (
	"context"
	"fmt"

	"repro/internal/oram"
	"repro/internal/trace"
)

// SeedStride separates the deterministic RNG seed domains of neighbouring
// shards: shard i derives its client seed as base + i*SeedStride and its
// per-window plan seeds from the slots in between. Shard 0 therefore uses
// exactly the seeds the single-instance engine uses, which is what makes a
// 1-shard engine byte-identical to the unsharded path.
const SeedStride = 1_000_003

// SeedFor returns the base RNG seed of a shard.
func SeedFor(base int64, shard int) int64 { return base + int64(shard)*SeedStride }

// ShardOf routes a global block ID to its shard (the partition function).
func ShardOf(id uint64, n int) int { return int(id % uint64(n)) }

// LocalID translates a global block ID to the dense per-shard ID space.
func LocalID(id uint64, n int) uint64 { return id / uint64(n) }

// GlobalID inverts (ShardOf, LocalID).
func GlobalID(local uint64, shard, n int) uint64 { return local*uint64(n) + uint64(shard) }

// PerShardEntries returns the per-shard position-map capacity for a table
// of entries blocks split n ways (every shard gets the same capacity; the
// last partial stripe leaves at most one slack slot per shard).
func PerShardEntries(entries uint64, n int) uint64 {
	return (entries + uint64(n) - 1) / uint64(n)
}

// Sub is one shard's engine stack. Client is required; Store is the optional
// traffic-counting wrapper the caller may have threaded under the client,
// from whose counts Engine.Stats derives the shard's simulated time. Src,
// when the builder wires
// the Client's RNG through a trace.CountedSource, is what makes the shard
// checkpointable: Engine.SaveState serialises (seed, draws) so a restored
// engine resumes the exact leaf-selection stream (see state.go).
type Sub struct {
	Client *oram.Client
	Store  *oram.CountingStore
	Src    *trace.CountedSource
	// Prefetch, when non-nil, receives look-ahead path hints: as soon as a
	// window's superblock plan exists, the bin leaves are handed to the
	// tiered store so it can fault the paths in from disk before the
	// session arrives (see prefetch.go). Hints never change what the store
	// answers — DESIGN.md invariant #14 — so in-memory stacks leave this
	// nil at zero cost.
	Prefetch oram.PathPrefetcher
}

// Config assembles an Engine.
type Config struct {
	// Shards is the number of partitions N (>= 1).
	Shards int
	// Entries is the global block count; shard capacity is
	// PerShardEntries(Entries, Shards).
	Entries uint64
	// Seed is the base RNG seed; shard i is built around
	// SeedFor(Seed, i).
	Seed int64
	// Build constructs one shard's stack. entries is the per-shard
	// capacity and seed the shard's base seed (already strided). The
	// returned Client must be configured with Blocks = entries.
	Build func(shard int, entries uint64, seed int64) (Sub, error)
}

// Engine is the sharded ORAM: N independent instances behind one flat
// block-ID space. Single accesses route inline on the calling goroutine
// (so a 1-shard engine behaves exactly like an unsharded client);
// batch operations, loads, preprocessing and session execution fan out to
// one worker goroutine per shard.
//
// The Engine itself is not safe for concurrent use by multiple
// goroutines; concurrency happens inside batch calls, across shards.
type Engine struct {
	n       int
	entries uint64
	seed    int64
	subs    []Sub

	// Batch-call scratch, one entry per shard: which batch positions each
	// lane owns, and the lane's chunk buffers.
	lanes   [][]int
	scratch []laneScratch
}

// New builds the N shard stacks via cfg.Build.
func New(cfg Config) (*Engine, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: Config.Shards must be >= 1, got %d", cfg.Shards)
	}
	if cfg.Entries == 0 {
		return nil, fmt.Errorf("shard: Config.Entries must be > 0")
	}
	if cfg.Build == nil {
		return nil, fmt.Errorf("shard: Config.Build is required")
	}
	if uint64(cfg.Shards) > cfg.Entries {
		return nil, fmt.Errorf("shard: %d shards over %d entries leaves empty shards", cfg.Shards, cfg.Entries)
	}
	e := &Engine{
		n: cfg.Shards, entries: cfg.Entries, seed: cfg.Seed,
		lanes:   make([][]int, cfg.Shards),
		scratch: make([]laneScratch, cfg.Shards),
	}
	per := PerShardEntries(cfg.Entries, cfg.Shards)
	for i := 0; i < cfg.Shards; i++ {
		sub, err := cfg.Build(i, per, SeedFor(cfg.Seed, i))
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if sub.Client == nil {
			return nil, fmt.Errorf("shard %d: Build returned nil Client", i)
		}
		if got := sub.Client.PosMap().Len(); got < per {
			return nil, fmt.Errorf("shard %d: client holds %d blocks, need %d", i, got, per)
		}
		e.subs = append(e.subs, sub)
	}
	return e, nil
}

// Shards returns the partition count N.
func (e *Engine) Shards() int { return e.n }

// Entries returns the global block count.
func (e *Engine) Entries() uint64 { return e.entries }

// Sub exposes shard i's stack (read-only use: stats, geometry).
func (e *Engine) Sub(i int) Sub { return e.subs[i] }

func (e *Engine) check(id uint64) error {
	if id >= e.entries {
		return fmt.Errorf("shard: block %d out of range (have %d)", id, e.entries)
	}
	return nil
}

// Read obliviously fetches one block, routing inline to its shard.
func (e *Engine) Read(id uint64) ([]byte, error) {
	if err := e.check(id); err != nil {
		return nil, err
	}
	return e.subs[ShardOf(id, e.n)].Client.Read(oram.BlockID(LocalID(id, e.n)))
}

// ReadInto obliviously fetches one block into buf's capacity (see
// oram.Client.ReadInto): the allocation-free read form for steady-state
// loops over sealed payload stores.
func (e *Engine) ReadInto(id uint64, buf []byte) ([]byte, error) {
	if err := e.check(id); err != nil {
		return nil, err
	}
	return e.subs[ShardOf(id, e.n)].Client.ReadInto(oram.BlockID(LocalID(id, e.n)), buf)
}

// Write obliviously updates (or creates) one block.
func (e *Engine) Write(id uint64, data []byte) error {
	if err := e.check(id); err != nil {
		return err
	}
	return e.subs[ShardOf(id, e.n)].Client.Write(oram.BlockID(LocalID(id, e.n)), data)
}

// ReadBatch fans ids out to per-shard workers and merges the payloads back
// in request order. Each lane serves its share as joint multi-path accesses
// (oram.Client.AccessBatch): one fetch of the deduplicated bucket union of up
// to batchChunk keys, one joint write-back — two store operations per chunk
// instead of two per key, which over a remote store is two frames per lane
// for any request of up to batchChunk keys per shard. Within a shard,
// accesses apply in batch order, so results are deterministic for a fixed
// seed regardless of scheduling; a one-key share is byte-identical to Read.
func (e *Engine) ReadBatch(ids []uint64) ([][]byte, error) {
	return e.ReadBatchContext(context.Background(), ids)
}

// batchChunk is how many keys of one lane share a joint access. It bounds
// what a request of any size can make one access hold — the transient stash
// (the real blocks of batchChunk paths, ≈ 25 per path on the benchmark's
// trees) and the bucket-union frame — and is a constant, not an option: no
// caller at hand needs another value, larger chunks gain little (the paths
// share only their top few levels) and smaller ones give the round trips
// back.
const batchChunk = 32

// laneScratch is one lane's reusable view of its share of a batch: the
// chunk's local ids and the payload slots AccessBatch reads or fills.
type laneScratch struct {
	ids []oram.BlockID
	buf [][]byte
}

// ReadBatchContext is ReadBatch with cooperative cancellation: every shard
// worker checks ctx before each chunk of batchChunk keys, so a cancelled
// context drains the fan-out at the next chunk boundary and returns
// ctx.Err(). The check consumes no randomness — an uncancelled batch is
// byte-identical to ReadBatch.
func (e *Engine) ReadBatchContext(ctx context.Context, ids []uint64) ([][]byte, error) {
	out := make([][]byte, len(ids))
	if err := e.accessBatch(ctx, oram.OpRead, ids, out); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteBatch fans (ids[i], data[i]) pairs out to per-shard workers, each lane
// applying its share as joint accesses (see ReadBatch); an id repeated in the
// batch takes its payloads in batch order, so the last one wins.
func (e *Engine) WriteBatch(ids []uint64, data [][]byte) error {
	return e.WriteBatchContext(context.Background(), ids, data)
}

// WriteBatchContext is WriteBatch with cooperative cancellation (see
// ReadBatchContext for the contract).
func (e *Engine) WriteBatchContext(ctx context.Context, ids []uint64, data [][]byte) error {
	if len(ids) != len(data) {
		return fmt.Errorf("shard: WriteBatch got %d ids, %d payloads", len(ids), len(data))
	}
	return e.accessBatch(ctx, oram.OpWrite, ids, data)
}

// accessBatch is the one batched-access path: split by shard, then every
// lane walks its share in chunks of batchChunk through its client's joint
// access. rows[j] is the payload written for ids[j] (OpWrite) or the slot
// that receives its caller-owned copy (OpRead).
func (e *Engine) accessBatch(ctx context.Context, op oram.Op, ids []uint64, rows [][]byte) error {
	lanes, err := e.split(ids)
	if err != nil {
		return err
	}
	return e.fanOut(nil, func(s int) error {
		c, sc := e.subs[s].Client, &e.scratch[s]
		for lane := lanes[s]; len(lane) > 0; {
			if err := ctx.Err(); err != nil {
				return err
			}
			chunk := lane[:min(batchChunk, len(lane))]
			lane = lane[len(chunk):]
			sc.ids, sc.buf = sc.ids[:0], sc.buf[:0]
			for _, j := range chunk {
				sc.ids = append(sc.ids, oram.BlockID(LocalID(ids[j], e.n)))
				sc.buf = append(sc.buf, rows[j])
			}
			if op == oram.OpWrite {
				if err := c.AccessBatch(op, sc.ids, sc.buf, nil); err != nil {
					return err
				}
			} else {
				if err := c.AccessBatch(op, sc.ids, nil, sc.buf); err != nil {
					return err
				}
				for k, j := range chunk {
					rows[j] = sc.buf[k]
				}
			}
			clear(sc.buf) // drop the references to caller-owned rows
		}
		return nil
	})
}

// split groups batch positions by owning shard, preserving batch order
// within each lane. The lanes alias engine-owned scratch (the Engine is
// single-caller) and are valid until the next batch call.
func (e *Engine) split(ids []uint64) ([][]int, error) {
	for s := range e.lanes {
		e.lanes[s] = e.lanes[s][:0]
	}
	for j, id := range ids {
		if err := e.check(id); err != nil {
			return nil, err
		}
		s := ShardOf(id, e.n)
		e.lanes[s] = append(e.lanes[s], j)
	}
	return e.lanes, nil
}

// LoadCount is |{id < n : id ≡ s (mod N)}|: how many of the first n global
// IDs shard s owns (its bulk-load count).
func LoadCount(n uint64, s, shards int) uint64 {
	if uint64(s) >= n {
		return 0
	}
	return (n-uint64(s)-1)/uint64(shards) + 1
}

// Load bulk-initialises blocks 0..n-1 of the global space with random
// placement, each shard loading its partition concurrently (oram.Client.Load:
// placement first, then whole buckets into an empty tree). payload (may be
// nil) receives global IDs, exactly once each, in no particular order and
// from every shard's goroutine at once: it must depend on the id only.
func (e *Engine) Load(n uint64, payload func(id uint64) []byte) error {
	return e.load(context.Background(), n, nil, payload)
}

// LoadContext is Load with cooperative cancellation at shard granularity:
// ctx is checked before each shard starts its bulk load (a shard load in
// flight runs to completion, keeping the tree consistent).
func (e *Engine) LoadContext(ctx context.Context, n uint64, payload func(id uint64) []byte) error {
	return e.load(ctx, n, nil, payload)
}

func (e *Engine) load(ctx context.Context, n uint64, leafOf []func(oram.BlockID) oram.Leaf, payload func(id uint64) []byte) error {
	if n > e.entries {
		return fmt.Errorf("shard: Load of %d blocks exceeds configured %d", n, e.entries)
	}
	return e.fanOut(nil, func(s int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		cnt := LoadCount(n, s, e.n)
		if cnt == 0 {
			return nil
		}
		var pl func(oram.BlockID) []byte
		if payload != nil {
			pl = func(local oram.BlockID) []byte {
				return payload(GlobalID(uint64(local), s, e.n))
			}
		}
		var lf func(oram.BlockID) oram.Leaf
		if leafOf != nil {
			lf = leafOf[s]
		}
		return e.subs[s].Client.Load(cnt, lf, pl)
	})
}
