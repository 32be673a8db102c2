// Package laoram is the public API of this LAORAM reproduction: an
// oblivious block store for embedding-table training that hides the access
// pattern from the storage server (the paper's server_storage), built on
// PathORAM with the paper's two contributions layered on top:
//
//   - Look-ahead superblocks (§IV): when the upcoming access stream is
//     known — as it is in ML training — Train's planner groups future
//     co-accessed blocks into superblock bins on shared paths and serves
//     each bin with (ideally) a single path fetch.
//   - Fat trees (§V): wider buckets near the root absorb superblock
//     write-back pressure, cutting background evictions.
//
// Beyond the paper, Options.Shards partitions the table across N
// independent ORAM instances (internal/shard): each shard has its own
// position map, stash, server tree and preprocessor, and batch operations
// plus Train's execution fan out to per-shard worker goroutines. Shards=1
// (the default) is byte-identical to the unsharded engine.
//
// Typical use:
//
//	db, _ := laoram.New(laoram.Options{Entries: 1 << 20, BlockSize: 128})
//	db.Load(1<<20, initRow)                  // bulk-load the table
//	db.Write(42, row)                        // ad-hoc oblivious access
//	row, _ := db.Read(42)
//
//	st, _ := db.Train(ctx, laoram.TrainOptions{   // look-ahead training
//	    Source:   laoram.FromSlice(upcomingIndices),
//	    Window:   1 << 16,                        // execute in 64k-access windows
//	    PrePlace: true,
//	    Visit:    func(id uint64, row []byte) []byte { return update(row) },
//	})
//
// Train streams the upcoming indices through an incremental planner
// (window k+1 is preprocessed while window k trains — the §VIII-A
// two-stage pipeline) and is cancellable through its context; it is the
// one way to run a look-ahead training pass.
//
// Everything here wraps the internal packages; see DESIGN.md for the
// paper-to-module map and README.md for a walkthrough.
package laoram

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/diskstore"
	"repro/internal/oram"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/trace"
)

// Options configures an ORAM instance.
type Options struct {
	// Entries is the number of blocks (embedding rows), IDs 0..Entries-1.
	Entries uint64
	// BlockSize is the payload size in bytes (e.g. 128 for DLRM rows,
	// 4096 for XLM-R rows). Required unless MetadataOnly.
	BlockSize int
	// BucketSize is the leaf bucket capacity Z (default 4, the paper's).
	BucketSize int
	// FatTree selects the §V fat tree (root buckets 2× leaf, linear
	// decay).
	FatTree bool
	// MetadataOnly simulates payloads (16 B/slot server state), allowing
	// paper-scale trees; Read returns nil payloads.
	MetadataOnly bool
	// Encrypt seals payloads with AES-128-GCM before they reach server
	// storage (the §III threat model's "content of the memory itself is
	// considered encrypted"). Ignored with MetadataOnly; rejected with
	// RemoteAddrs, where nothing on the client would seal (the nodes own
	// their storage). In-memory sealed stores fan seal/open out over
	// crypto.DefaultWorkers() workers (GOMAXPROCS, capped at 8); the bytes
	// are the same at any width.
	Encrypt bool
	// Key is the optional 32-byte sealing key; nil generates a random
	// one.
	Key []byte
	// EvictHigh/EvictLow are the background-eviction watermarks
	// (§VIII-E; defaults 500/50). Set EvictHigh = -1 to disable; EvictLow
	// needs an EvictHigh of its own.
	EvictHigh, EvictLow int
	// Seed makes all randomized behaviour reproducible (leaf choices,
	// bin paths). Shard i derives its seeds as shard.SeedFor(Seed, i).
	Seed int64
	// Shards partitions the table across this many independent ORAM
	// instances (internal/shard), each with its own position map, stash,
	// tree and preprocessor. 0 or 1 (the default) keeps the
	// single-instance behaviour; batch operations and Train then fan out
	// to per-shard worker goroutines. Composes with RemoteAddrs: the
	// nodes together must expose Shards shard stores (laoramserve
	// -shards N), and every shard lane then pipelines its requests on
	// its node's one multiplexed connection.
	Shards int
	// RemoteAddrs, when set, uses laoramserve nodes at these addresses as
	// server storage instead of in-process memory, spreading the shard
	// trees across the N of them. Entries must fit the servers' tree
	// capacity; BlockSize/BucketSize/FatTree are taken from the servers.
	// Placement is fixed and public: node j
	// (RemoteAddrs[j]) serves every shard i with i % N == j, addressed
	// there by local store index i / N, so node j must run laoramserve
	// with -shards equal to its placement count (validated at dial time).
	// The client keeps one multiplexed connection per node, dialled
	// concurrently at construction. N must not exceed Shards (a node with
	// no shards would be dead weight). Placement is public information —
	// which shard an access routes to already depends only on the public
	// block ID — so spreading shards over nodes leaks nothing beyond the
	// single-server deployment.
	RemoteAddrs []string
	// Reconnect makes remote connections self-healing: when a node's
	// connection dies, in-flight calls park while the client redials with
	// bounded exponential backoff, replaying them once the node answers —
	// transparently when the node survived (same boot ID), or failing
	// with ErrNodeDown{StateLost: true} when it restarted and its
	// in-memory trees are gone (the caller must then restore from a
	// checkpoint; see ORAM.SaveState and internal/chaos). Without
	// Reconnect a dead connection fails every call immediately.
	Reconnect bool
	// RetryElapsed bounds how long a Reconnect client keeps redialling a
	// dead node before failing parked calls with ErrNodeDown (default
	// 5s). The client remains usable after exhaustion: the next call
	// lazily redials.
	RetryElapsed time.Duration
	// RequestDeadline attaches a relative execution budget to every data
	// request sent to a remote node (protocol v3): a request still queued
	// server-side past the budget is shed — answered with a typed busy
	// frame — instead of executed late. Shed requests are retried inside
	// the lane (see ShedRetries); the ORAM client above never observes a
	// shed, only the final result. Zero sends no deadlines.
	RequestDeadline time.Duration
	// ShedRetries bounds how many times one remote request is retried
	// after an overloaded node sheds it, before the call fails with
	// remote.ErrOverloaded. Retries use jittered exponential backoff and
	// honor the server's retry-after hint. An overloaded node is alive and
	// intact, so a shed never triggers rollback or recovery — unlike
	// ErrNodeDown. Zero means 12; negative fails on the first shed.
	ShedRetries int
	// Verify authenticates server storage against an actively malicious
	// server (an extension beyond the paper's honest-but-curious model): the
	// client-side treetop keeps a SHA-256 of every bucket below it as last
	// written, and a bucket that reads back otherwise — forged, replayed or
	// moved — fails with oram.ErrIntegrity in the error chain. It costs one
	// hash per bucket moved below the top and 32 B of client memory per such
	// bucket, and moves no extra bucket or frame. Not checkpointable.
	Verify bool
	// DataDir, when set, backs every shard tree with a disk arena file
	// (internal/diskstore) under this directory instead of an in-memory
	// store — the tiered storage backend that lets tables exceed RAM. A
	// bounded cache of 4-level subtrees (MemBudget) absorbs the working
	// set, dirty ones are written back on eviction and at Close, and the
	// look-ahead planner prefetches each upcoming window's superblock paths
	// from disk before the session arrives. Accesses, stats and decrypted tree state are byte-identical
	// to the in-memory store at any budget (DESIGN.md invariant #14).
	// Existing clean arenas are resumed; an arena from a crashed run fails
	// construction with diskstore.ErrUnclean inside the error chain, one
	// written by an older build in another record order with
	// diskstore.ErrLayout, one whose span table does not hold with
	// diskstore.ErrTable.
	// Incompatible with MetadataOnly (a 16 B/slot tree fits in RAM by
	// construction) and with RemoteAddrs (the server owns its storage; use
	// laoramserve -data-dir for a disk-backed serving tier).
	DataDir string
	// MemBudget bounds the disk-backed stores' total in-memory cache, in
	// bytes, split evenly across shards (each shard keeps at least two
	// root→leaf paths of subtrees so it can always make progress). 0 means
	// unbounded — the whole tree may be cached. Requires DataDir.
	MemBudget int64
}

func (o Options) evict() (oram.EvictConfig, error) {
	switch {
	case o.EvictHigh == -1:
		return oram.EvictConfig{}, nil
	case o.EvictHigh < -1:
		return oram.EvictConfig{}, fmt.Errorf("laoram: EvictHigh %d: want -1 (off), 0 (default) or a watermark", o.EvictHigh)
	case o.EvictHigh == 0 && o.EvictLow != 0:
		return oram.EvictConfig{}, fmt.Errorf("laoram: EvictLow %d set without EvictHigh", o.EvictLow)
	case o.EvictHigh == 0:
		return oram.PaperEvict, nil
	}
	if o.EvictLow < 0 || o.EvictLow > o.EvictHigh {
		return oram.EvictConfig{}, fmt.Errorf("laoram: invalid eviction watermarks %d/%d", o.EvictHigh, o.EvictLow)
	}
	return oram.EvictConfig{Enabled: true, High: o.EvictHigh, Low: o.EvictLow}, nil
}

func (o Options) shards() int {
	if o.Shards < 1 {
		return 1
	}
	return o.Shards
}

// ORAM is an oblivious block store, possibly sharded (Options.Shards).
type ORAM struct {
	opts    Options
	eng     *shard.Engine
	pool    *crypto.Pool // shared crypto fan-out pool (nil when serial)
	ckEpoch uint64       // checkpoint epoch: ++ per SaveState, adopted by LoadState

	// pmu guards the node connection list, which Migrate may grow by
	// dialling a target node the instance did not start with. places is
	// the dynamic placement table: places[i] is shard i's serving view,
	// repointed live by Migrate/re-placement (the slice itself is fixed;
	// each view carries its own placement lock). Both are nil for local
	// instances.
	pmu     sync.Mutex
	remotes []*remote.Client // one multiplexed connection per serving node
	places  []*remote.ShardStore

	// disks tracks the shard arena stores of a DataDir instance so Close
	// can flush and sync them (nil otherwise).
	disks []*diskstore.Store
}

// Stats summarises client activity and server traffic. With Shards > 1,
// additive quantities (accesses, traffic, stash occupancy, trusted bytes)
// are summed across shards and SimTimeSeconds is the slowest shard's
// simulated time (shards model independent memory channels).
//
// SimTimeSeconds is the deterministic DDR4 model's time for the traffic
// counted since the last ResetStats (memsim.DDR4Default), computed from the
// counts on every instance — in-memory, disk-backed and remote alike. Like
// BytesMoved it is telemetry: a checkpoint does not carry the traffic counts
// it is priced from, so after a rollback it also prices the discarded
// windows' traffic.
type Stats struct {
	Accesses       uint64
	PathReads      uint64
	PathWrites     uint64
	DummyReads     uint64
	StashHits      uint64
	StashSize      int
	StashPeak      int
	BytesMoved     uint64
	ServerBytes    int64
	PositionBytes  int64
	SimTimeSeconds float64
	// Memory-tier counters of disk-backed instances (Options.DataDir),
	// summed across shards; all zero for in-memory and remote instances.
	// TierHits counts bucket lookups served from a resident span and
	// TierMisses span faults, TierPrefetchIssued counts spans the
	// look-ahead prefetcher faulted in, TierPrefetchUseful those of them a
	// demand access then hit (never more than issued: a span issued before
	// the last reset is not counted), and TierStallSeconds the wall time
	// spent blocked on demand disk reads (the miss cost prefetching hides).
	TierHits           uint64
	TierMisses         uint64
	TierPrefetchIssued uint64
	TierPrefetchUseful uint64
	TierStallSeconds   float64
}

// New builds an ORAM instance: Options.Shards independent PathORAM stacks
// (trees, stashes, position maps) behind one flat block-ID space.
func New(opts Options) (*ORAM, error) {
	return NewContext(context.Background(), opts)
}

// NewContext is New with a context governing construction and, for remote
// instances, the connection's lifetime: cancelling ctx closes the server
// connection, failing every in-flight and future remote call — the lever
// that makes a client stalled on a dead server cancellable. Local
// instances ignore ctx after construction.
func NewContext(ctx context.Context, opts Options) (*ORAM, error) {
	if opts.Entries == 0 {
		return nil, fmt.Errorf("laoram: Options.Entries must be > 0")
	}
	evict, err := opts.evict()
	if err != nil {
		return nil, err
	}
	addrs := opts.RemoteAddrs
	for j, a := range addrs {
		if a == "" {
			return nil, fmt.Errorf("laoram: Options.RemoteAddrs[%d] is empty", j)
		}
	}
	if opts.Encrypt && len(addrs) > 0 {
		return nil, fmt.Errorf("laoram: Options.Encrypt is incompatible with RemoteAddrs (nothing on the client seals remote storage: rows would reach the nodes in plaintext)")
	}
	if opts.MemBudget < 0 {
		return nil, fmt.Errorf("laoram: Options.MemBudget must be >= 0, got %d", opts.MemBudget)
	}
	if opts.DataDir == "" {
		if opts.MemBudget != 0 {
			return nil, fmt.Errorf("laoram: Options.MemBudget requires Options.DataDir (nothing to tier without a disk arena)")
		}
	} else {
		if opts.MetadataOnly {
			return nil, fmt.Errorf("laoram: Options.DataDir is incompatible with MetadataOnly (metadata trees fit in memory)")
		}
		if len(addrs) > 0 {
			return nil, fmt.Errorf("laoram: Options.DataDir is incompatible with remote storage (run laoramserve -data-dir instead)")
		}
	}
	n := opts.shards()
	o := &ORAM{opts: opts}
	// One bounded crypto pool serves every shard's sealed store: the
	// fan-out width models the host's cores, which the shards already
	// share. Disk-backed stores seal serially (their cost model is disk
	// I/O, and serial sealing keeps them byte-identical to the serial
	// in-memory path), so no pool is built for them.
	if opts.Encrypt && !opts.MetadataOnly && opts.DataDir == "" {
		if w := crypto.DefaultWorkers(); w > 1 {
			o.pool = crypto.NewPool(w)
		}
	}
	if len(addrs) > 0 {
		if err := o.dialNodes(ctx, addrs, n); err != nil {
			o.pool.Close()
			return nil, err
		}
	}
	eng, err := shard.New(shard.Config{
		Shards:  n,
		Entries: opts.Entries,
		Seed:    opts.Seed,
		Build: func(i int, per uint64, seed int64) (shard.Sub, error) {
			return o.buildSub(i, per, seed, evict)
		},
	})
	if err != nil {
		o.closeDisks()
		o.closeRemotes()
		o.pool.Close()
		return nil, err
	}
	o.eng = eng
	return o, nil
}

// dialNodes connects to every serving node concurrently (one dial
// goroutine per node, one multiplexed connection each) and validates the
// placement: node j must expose exactly the number of shard stores the
// i % N == j rule assigns it.
func (o *ORAM) dialNodes(ctx context.Context, addrs []string, n int) error {
	if len(addrs) > n {
		return fmt.Errorf("laoram: %d serving nodes over %d shards leaves empty nodes (need len(RemoteAddrs) <= Shards)", len(addrs), n)
	}
	o.remotes = make([]*remote.Client, len(addrs))
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for j, addr := range addrs {
		wg.Add(1)
		go func(j int, addr string) {
			defer wg.Done()
			rc, err := remote.DialConfig(ctx, addr, remote.Config{
				Reconnect:       o.opts.Reconnect,
				RetryElapsed:    o.opts.RetryElapsed,
				RequestDeadline: o.opts.RequestDeadline,
				ShedRetries:     o.opts.ShedRetries,
				ShardBase:       j,
				ShardStride:     len(addrs),
			})
			if err != nil {
				errs[j] = fmt.Errorf("laoram: node %d (%s): %w", j, addr, err)
				return
			}
			o.remotes[j] = rc
		}(j, addr)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			o.closeRemotes()
			return err
		}
	}
	for j, rc := range o.remotes {
		want := int(shard.LoadCount(uint64(n), j, len(addrs)))
		// At least the placement count: a node may legitimately carry
		// extra stores grown for migrations or re-placements.
		if rc.Shards() < want {
			err := fmt.Errorf("laoram: node %d (%s) exposes %d shard stores; placement of %d shards over %d nodes assigns it %d (start laoramserve with -shards %d)",
				j, addrs[j], rc.Shards(), n, len(addrs), want, want)
			o.closeRemotes()
			return err
		}
	}
	o.places = make([]*remote.ShardStore, n)
	return nil
}

// closeRemotes closes every node connection, keeping the first error.
func (o *ORAM) closeRemotes() error {
	o.pmu.Lock()
	remotes := o.remotes
	o.remotes = nil
	o.pmu.Unlock()
	var first error
	for _, rc := range remotes {
		if rc == nil {
			continue
		}
		if err := rc.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// remoteList snapshots the node connection list (Migrate may grow it
// concurrently with a training run's context watcher).
func (o *ORAM) remoteList() []*remote.Client {
	o.pmu.Lock()
	defer o.pmu.Unlock()
	return append([]*remote.Client(nil), o.remotes...)
}

// buildSub assembles shard idx's stack — server store (in-memory,
// metadata-only, encrypted, disk-backed or remote) under the client-side
// treetop (which verifies under Verify), traffic counters, then the
// PathORAM client — for per blocks
// seeded with seed. With Shards <= 1 this is exactly the unsharded
// construction. Remote shards share one multiplexed connection per node:
// shard idx lives on node idx % N as that node's store idx / N.
// wrapStore, when a test sets it, wraps every shard's backing store below
// the treetop: a spy there sees each path read's leaf bucket, and a wrapper
// without PrefetchPaths gets no look-ahead hints.
var wrapStore func(shard int, s oram.Store) oram.Store

func (o *ORAM) buildSub(idx int, per uint64, seed int64, evict oram.EvictConfig) (shard.Sub, error) {
	opts := o.opts
	var inner oram.Store
	payloads := !opts.MetadataOnly // whether inner keeps rows
	if len(o.remotes) > 0 {
		nodes := len(o.remotes)
		st, err := o.remotes[idx%nodes].Store(idx / nodes)
		if err != nil {
			return shard.Sub{}, err
		}
		g := st.Geometry()
		z := uint64(g.BucketSize(g.LeafBits()))
		if g.Leaves() < (per+z-1)/z {
			return shard.Sub{}, fmt.Errorf("laoram: remote tree (%s) too small for %d entries", g, per)
		}
		// The view is the shard's placement-table entry: Migrate and
		// re-placement repoint it live; everything above (counting store,
		// client) keeps addressing the same view object.
		o.places[idx] = st
		inner = st
		payloads = g.BlockSize() > 0
	} else {
		z := opts.BucketSize
		if z == 0 {
			z = 4
		}
		gc := oram.GeometryConfig{
			LeafBits:  oram.LeafBitsFor(per),
			LeafZ:     z,
			BlockSize: opts.BlockSize,
		}
		if opts.FatTree {
			gc.RootZ = 2 * z
			gc.Profile = oram.ProfileLinear
		}
		g, err := oram.NewGeometry(gc)
		if err != nil {
			return shard.Sub{}, err
		}
		if opts.MetadataOnly {
			inner = oram.NewMetaStore(g)
		} else {
			if opts.BlockSize <= 0 {
				return shard.Sub{}, fmt.Errorf("laoram: BlockSize required unless MetadataOnly")
			}
			var sealer oram.Sealer
			if opts.Encrypt {
				var s *crypto.Sealer
				var err error
				if opts.Key != nil {
					s, err = crypto.NewSealer(opts.Key)
				} else {
					s, err = crypto.NewRandomSealer()
				}
				if err != nil {
					return shard.Sub{}, err
				}
				sealer = s
			}
			if opts.DataDir != "" {
				if err := os.MkdirAll(opts.DataDir, 0o755); err != nil {
					return shard.Sub{}, fmt.Errorf("laoram: data dir: %w", err)
				}
				budget := int64(0)
				if opts.MemBudget > 0 {
					// Even split across shards; the store clamps tiny
					// budgets up to a workable floor itself.
					budget = max(opts.MemBudget/int64(o.opts.shards()), 1)
				}
				ds, err := diskstore.Open(diskstore.Config{
					Path:          filepath.Join(opts.DataDir, fmt.Sprintf("tree-%d.laor", idx)),
					Geometry:      g,
					Sealer:        sealer,
					MemBudget:     budget,
					Prefetch:      true,
					TreetopLevels: oram.TreetopLevels(g),
				})
				if err != nil {
					return shard.Sub{}, err
				}
				o.disks = append(o.disks, ds)
				inner = ds
			} else {
				ps, err := oram.NewPayloadStore(g, sealer)
				if err != nil {
					return shard.Sub{}, err
				}
				if o.pool != nil && sealer != nil {
					if err := ps.SetCryptoPool(o.pool); err != nil {
						return shard.Sub{}, err
					}
				}
				inner = ps
			}
		}
	}
	if wrapStore != nil {
		inner = wrapStore(idx, inner)
	}
	// The planner's look-ahead hints go to whatever store can take them:
	// a disk arena prefetches the paths ahead of their session.
	prefetch, _ := inner.(oram.PathPrefetcher)
	// The top half of the levels stays in trusted memory, and so do the
	// digests Verify checks the rest against (DESIGN.md "Treetop"); the
	// counters above it tally the logical traffic.
	top, err := oram.NewTreetop(inner, payloads, opts.Verify)
	if err != nil {
		return shard.Sub{}, err
	}
	cs := oram.NewCountingStore(top, nil)
	// The client RNG runs through a counted source: same stream as
	// trace.NewRNG(seed) draw for draw, but its (seed, draws) position is
	// serialisable, which is what makes the instance checkpointable
	// (ORAM.SaveState).
	rng, src := trace.NewCountedRNG(seed)
	client, err := oram.NewClient(oram.ClientConfig{
		Store:     cs,
		Rand:      rng,
		Evict:     evict,
		StashHits: true,
		Blocks:    per,
	})
	if err != nil {
		return shard.Sub{}, err
	}
	return shard.Sub{Client: client, Store: cs, Src: src, Prefetch: prefetch}, nil
}

// closeDisks flushes, syncs and closes every shard arena, keeping the
// first error.
func (o *ORAM) closeDisks() error {
	disks := o.disks
	o.disks = nil
	var first error
	for _, ds := range disks {
		if err := ds.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close releases resources: every node connection, the crypto worker pool
// and — for DataDir instances — the disk arenas, which are flushed and
// fsynced clean so the next run can resume them.
func (o *ORAM) Close() error {
	o.pool.Close()
	o.pool = nil
	derr := o.closeDisks()
	if rerr := o.closeRemotes(); rerr != nil && derr == nil {
		derr = rerr
	}
	return derr
}

// Entries returns the configured number of blocks.
func (o *ORAM) Entries() uint64 { return o.opts.Entries }

// Shards returns the partition count (1 when unsharded).
func (o *ORAM) Shards() int { return o.eng.Shards() }

// ServerBytes returns the server-storage requirement across all shard
// trees — the paper's Table I metric.
func (o *ORAM) ServerBytes() int64 {
	var total int64
	for i := 0; i < o.eng.Shards(); i++ {
		total += o.eng.Sub(i).Client.Geometry().ServerBytes()
	}
	return total
}

// Describe returns a one-line description of the server tree(s).
func (o *ORAM) Describe() string {
	g := o.eng.Sub(0).Client.Geometry().String()
	if n := o.eng.Shards(); n > 1 {
		return fmt.Sprintf("%d×[%s]", n, g)
	}
	return g
}

// Load bulk-initialises blocks 0..n-1 with random placement, each shard
// loading its partition concurrently. payload may be nil (zero/simulated
// content); it is called exactly once per loaded id, in no particular
// order and from all shard lanes at once, so it must be safe for
// concurrent use and depend on the id only. Precondition: the trees are
// empty — Load is called once, before any access, and writes whole buckets
// (one frame per chunk of buckets on a remote store, not one per row).
func (o *ORAM) Load(n uint64, payload func(id uint64) []byte) error {
	return o.eng.Load(n, payload)
}

// LoadContext is Load with cooperative cancellation at shard granularity
// (a shard load in flight completes, keeping its tree consistent).
func (o *ORAM) LoadContext(ctx context.Context, n uint64, payload func(id uint64) []byte) error {
	return o.eng.LoadContext(ctx, n, payload)
}

// Read obliviously fetches a block (PathORAM access, §II-C). Returns nil
// under MetadataOnly.
func (o *ORAM) Read(id uint64) ([]byte, error) {
	return o.eng.Read(id)
}

// ReadInto obliviously fetches a block into buf's capacity (growing it
// only when too small) and returns the filled slice — the allocation-free
// form of Read for steady-state loops over encrypted stores. The returned
// slice aliases buf; the access is indistinguishable from Read on the
// memory bus.
func (o *ORAM) ReadInto(id uint64, buf []byte) ([]byte, error) {
	return o.eng.ReadInto(id, buf)
}

// Write obliviously updates (or creates) a block.
func (o *ORAM) Write(id uint64, data []byte) error {
	return o.eng.Write(id, data)
}

// ReadBatch obliviously fetches a batch of blocks, fanning the requests
// out to per-shard worker goroutines and merging the payloads back in
// request order (with one shard, the batch runs inline). Each shard serves
// its share as joint multi-path accesses: the paths of up to 32 keys are
// fetched as one deduplicated bucket union, every touched block is remapped
// to a fresh uniform path, and the union is written back jointly — two store
// operations (two frames on a remote store) per 32 keys of a shard instead
// of two per key. The server sees the union of independent uniform paths,
// as it does under Train with BatchBins; a key that is already stashed, or
// repeated in the batch, costs no path. Returned rows are the caller's.
func (o *ORAM) ReadBatch(ids []uint64) ([][]byte, error) {
	return o.eng.ReadBatch(ids)
}

// ReadBatchContext is ReadBatch with cooperative cancellation: every shard
// worker checks ctx before each joint access (a chunk of up to 32 of its
// keys), so a cancelled context drains the fan-out at the next chunk
// boundary and returns ctx.Err(). The check consumes no randomness — an
// uncancelled batch is byte-identical to ReadBatch.
func (o *ORAM) ReadBatchContext(ctx context.Context, ids []uint64) ([][]byte, error) {
	return o.eng.ReadBatchContext(ctx, ids)
}

// WriteBatch obliviously updates a batch of blocks; data[i] is written to
// ids[i]. Like ReadBatch, requests fan out across shards and each shard
// applies its share as joint accesses; an id that appears more than once
// takes its payloads in batch order (the last one wins), and the first
// write of a block costs one cover path, as under Write.
func (o *ORAM) WriteBatch(ids []uint64, data [][]byte) error {
	return o.eng.WriteBatch(ids, data)
}

// WriteBatchContext is WriteBatch with cooperative cancellation (see
// ReadBatchContext).
func (o *ORAM) WriteBatchContext(ctx context.Context, ids []uint64, data [][]byte) error {
	return o.eng.WriteBatchContext(ctx, ids, data)
}

// Stats returns a snapshot of activity counters (summed across shards; see
// type Stats for the SimTimeSeconds semantics).
func (o *ORAM) Stats() Stats {
	st := o.eng.Stats()
	return Stats{
		Accesses:       st.Access.Accesses,
		PathReads:      st.Access.PathReads,
		PathWrites:     st.Access.PathWrites,
		DummyReads:     st.Access.DummyReads,
		StashHits:      st.Access.StashHits,
		StashSize:      st.StashLen,
		StashPeak:      st.StashPeak,
		BytesMoved:     st.Counters.BytesRead + st.Counters.BytesWritten,
		ServerBytes:    st.ServerBytes,
		PositionBytes:  st.PosBytes,
		SimTimeSeconds: st.SimTime.Seconds(),

		TierHits:           st.Tier.Hits,
		TierMisses:         st.Tier.Misses,
		TierPrefetchIssued: st.Tier.PrefetchIssued,
		TierPrefetchUseful: st.Tier.PrefetchUseful,
		TierStallSeconds:   time.Duration(st.Tier.DemandStallNs).Seconds(),
	}
}

// ResetStats zeroes activity counters (typically after Load).
func (o *ORAM) ResetStats() { o.eng.ResetStats() }

// Visit is invoked for each block of a bin while it is resident in trusted
// memory; returning non-nil replaces the block's payload (the training
// update). payload is nil under MetadataOnly.
//
// With Shards > 1, Train calls TrainOptions.Visit concurrently from
// different shard lanes (never concurrently for the same id); visit must
// therefore avoid shared mutable state, or use the per-lane form
// TrainOptions.PerLane.
type Visit func(id uint64, payload []byte) []byte

// SessionStats exposes the LAORAM-level counters of §IV (summed across
// shard lanes and windows; see TrainStats.Session).
type SessionStats = core.SessionStats
