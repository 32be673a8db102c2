package oram

import (
	"fmt"
	"math/rand"
)

// EvictConfig controls background eviction (§II-E, §VIII-E): when the stash
// exceeds High blocks, dummy reads are issued until it drains to Low.
type EvictConfig struct {
	Enabled bool
	High    int
	Low     int
}

// PaperEvict is the paper's measurement configuration (§VIII-E): "dummy
// reads are triggered whenever the stash size grows above 500 entries, and
// a series of dummy reads are performed until the stash size reduces to 50".
var PaperEvict = EvictConfig{Enabled: true, High: 500, Low: 50}

// AccessStats are the client-side per-run statistics the paper reports:
// dummy reads per access (Table II), path read/write counts (the inputs to
// Fig. 7's speedups and Fig. 9's traffic reduction), and stash behaviour
// (Fig. 8 via Stash().Peak and sampled sizes).
type AccessStats struct {
	Accesses   uint64 // logical block accesses requested by the application
	StashHits  uint64 // accesses served from the stash without a path read
	PathReads  uint64 // real path reads (excluding dummy reads)
	PathWrites uint64 // path write-backs paired with real reads
	DummyReads uint64 // background-eviction path read+write pairs
	Remaps     uint64 // uniform re-assignments of a block's leaf
	// BlocksMoved counts real blocks taken into the stash by path reads
	// plus those placed by write-backs: the client-side work a timing model
	// prices per block (memsim.Time). Telemetry, like Counters: checkpoints
	// do not carry it.
	BlocksMoved uint64
}

// DummyReadsPerAccess returns Table II's metric.
func (s AccessStats) DummyReadsPerAccess() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.DummyReads) / float64(s.Accesses)
}

// Add returns the sum s + o, for aggregating shards.
func (s AccessStats) Add(o AccessStats) AccessStats {
	return AccessStats{
		Accesses:    s.Accesses + o.Accesses,
		StashHits:   s.StashHits + o.StashHits,
		PathReads:   s.PathReads + o.PathReads,
		PathWrites:  s.PathWrites + o.PathWrites,
		DummyReads:  s.DummyReads + o.DummyReads,
		Remaps:      s.Remaps + o.Remaps,
		BlocksMoved: s.BlocksMoved + o.BlocksMoved,
	}
}

// Sub returns the difference s - prev for windowed measurement.
func (s AccessStats) Sub(prev AccessStats) AccessStats {
	return AccessStats{
		Accesses:    s.Accesses - prev.Accesses,
		StashHits:   s.StashHits - prev.StashHits,
		PathReads:   s.PathReads - prev.PathReads,
		PathWrites:  s.PathWrites - prev.PathWrites,
		DummyReads:  s.DummyReads - prev.DummyReads,
		Remaps:      s.Remaps - prev.Remaps,
		BlocksMoved: s.BlocksMoved - prev.BlocksMoved,
	}
}

// ClientConfig configures a PathORAM client.
type ClientConfig struct {
	// Store is the server storage. Wrap it in a CountingStore to measure
	// traffic.
	Store Store
	// Rand drives leaf selection. Must be non-nil; seed it for
	// reproducible experiments.
	Rand *rand.Rand
	// Evict is the background-eviction policy.
	Evict EvictConfig
	// StashHits, when true (the paper's description, §II-C step 1:
	// "If the block is already in the stash, it is immediately
	// provided"), serves stash-resident blocks without touching the
	// server. When false every access performs a path read, as in the
	// original PathORAM presentation: a stash-resident block reads one
	// uniformly drawn cover path and is remapped (AccessBatch).
	StashHits bool
	// Blocks is the number of real blocks (dense IDs 0..Blocks-1).
	Blocks uint64
}

// Client is a PathORAM client (§II-C): position map + stash on the trusted
// side, tree on the untrusted Store. It is both the paper's baseline and
// the engine under the LAORAM client in internal/core, which composes the
// exported ReadPaths/WriteBackPath/DummyRead primitives with look-ahead path
// assignment.
type Client struct {
	geom  *Geometry
	store Store
	// face is store at batch granularity, resolved once: every path and
	// bucket union the client moves goes through it.
	face  Face
	pos   *PosMap
	stash *Stash
	rng   *rand.Rand
	evict EvictConfig
	stats AccessStats

	stashHits bool
	// top is the Treetop the client places into in place, when its store is
	// one or counts one, and count that CountingStore; over any other store
	// top is empty and count nil (see inplace.go).
	top   *Treetop
	count *CountingStore
	// multi holds the client's one set of transfer buffers and the scratch
	// of the joint operations; see multipath.go.
	multi multiScratch
	// batch holds the scratch of the joint multi-key access; see
	// accessbatch.go.
	batch batchScratch
}

// NewClient validates cfg and builds a client. The tree starts empty; call
// Load (or perform writes) to populate it.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("oram: ClientConfig.Store is required")
	}
	if cfg.Rand == nil {
		return nil, fmt.Errorf("oram: ClientConfig.Rand is required")
	}
	if cfg.Blocks == 0 {
		return nil, fmt.Errorf("oram: ClientConfig.Blocks must be > 0")
	}
	g := cfg.Store.Geometry()
	if g.Leaves() > maxPosMapLeaves {
		return nil, fmt.Errorf("oram: LeafBits %d exceeds the position map's 31", g.LeafBits())
	}
	if z := uint64(g.BucketSize(g.LeafBits())); g.Leaves() < (cfg.Blocks+z-1)/z {
		return nil, fmt.Errorf("oram: tree too small: %d leaves for %d blocks", g.Leaves(), cfg.Blocks)
	}
	if cfg.Evict.Enabled {
		if cfg.Evict.High <= 0 || cfg.Evict.Low < 0 || cfg.Evict.Low > cfg.Evict.High {
			return nil, fmt.Errorf("oram: invalid eviction thresholds high=%d low=%d", cfg.Evict.High, cfg.Evict.Low)
		}
	}
	c := &Client{
		geom:      g,
		store:     cfg.Store,
		face:      Resolve(cfg.Store),
		pos:       NewPosMap(cfg.Blocks),
		stash:     NewStash(),
		rng:       cfg.Rand,
		evict:     cfg.Evict,
		stashHits: cfg.StashHits,
	}
	c.top, c.count = treetopOf(cfg.Store, c.face)
	return c, nil
}

// Geometry returns the tree shape.
func (c *Client) Geometry() *Geometry { return c.geom }

// Store returns the server storage the client talks to.
func (c *Client) Store() Store { return c.store }

// PosMap exposes the position map (trusted client state). The LAORAM layer
// uses it to install look-ahead path assignments.
func (c *Client) PosMap() *PosMap { return c.pos }

// Stash exposes the stash (trusted client state).
func (c *Client) Stash() *Stash { return c.stash }

// Rand returns the client's random source.
func (c *Client) Rand() *rand.Rand { return c.rng }

// Stats returns a snapshot of the access statistics.
func (c *Client) Stats() AccessStats { return c.stats }

// StatsMut returns the live statistics for composing clients (the LAORAM
// layer counts its superblock-granularity path operations into the same
// ledger so that dummy reads, issued via MaybeEvict, land in one place).
func (c *Client) StatsMut() *AccessStats { return &c.stats }

// ResetStats zeroes the access statistics.
func (c *Client) ResetStats() { c.stats = AccessStats{} }

// RandomLeaf draws a uniform leaf, the remap primitive of §II-C step 4.
func (c *Client) RandomLeaf() Leaf {
	return Leaf(c.rng.Int63n(int64(c.geom.Leaves())))
}

// ingest moves every real slot of the fetched buckets into the stash (§II-C
// step 2; dummies are dropped), in bucket order, returning how many blocks
// moved. Every read — a path or a bucket union — funnels through here, so
// stash-ingestion semantics live in one place. The stash adopts the buffer
// each row was read into, and a spare row takes its place in the read arena,
// so a row is not copied again on its way in.
func (c *Client) ingest(bufs [][]Slot) (int, error) {
	moved := 0
	for i, buf := range bufs {
		for j := range buf {
			s := &buf[j]
			if s.Dummy() {
				continue
			}
			if err := c.stash.Adopt(s.ID, s.Leaf, s.Payload); err != nil {
				return moved, err
			}
			if s.Payload != nil {
				c.multi.arena[i][j] = c.multi.spareRow(len(s.Payload))
			}
			moved++
		}
	}
	return moved, nil
}

// WriteBackPath writes stashed blocks back into the path to leaf (§II-C
// step 5): the joint write-back of one path (see WriteBackPaths), whose
// placement is the PathORAM reference's greedy per-level rule.
func (c *Client) WriteBackPath(leaf Leaf) error { return c.WriteBackPaths(c.onePath(leaf)) }

// DummyRead performs one background-eviction round (§II-E): read a
// uniformly random path and write it straight back with greedy stash
// placement, remapping nothing. Counted in stats.DummyReads.
func (c *Client) DummyRead() error {
	leaf := c.RandomLeaf()
	if err := c.ReadPaths(c.onePath(leaf)); err != nil {
		return err
	}
	if err := c.WriteBackPath(leaf); err != nil {
		return err
	}
	c.stats.DummyReads++
	return nil
}

// MaybeEvict runs background eviction if the stash is above the high-water
// mark, draining to the low-water mark. Returns the number of dummy reads
// issued.
func (c *Client) MaybeEvict() (int, error) {
	if !c.evict.Enabled || c.stash.Len() <= c.evict.High {
		return 0, nil
	}
	n := 0
	for c.stash.Len() > c.evict.Low {
		if err := c.DummyRead(); err != nil {
			return n, err
		}
		n++
		// Safety valve: with a pathological configuration (e.g. Low
		// smaller than the steady-state stash of an over-full tree)
		// eviction cannot make progress; bail out rather than spin.
		if n > 64 && c.stash.Len() > c.evict.High {
			return n, fmt.Errorf("oram: background eviction not draining (stash=%d after %d dummy reads)", c.stash.Len(), n)
		}
	}
	return n, nil
}

// Access performs one PathORAM access (§II-C): look up the block's path,
// fetch it, serve the operation, remap the block uniformly, write the path
// back, then run background eviction. It is AccessBatch of one key. For
// OpRead the returned slice is a copy owned by the caller; for OpWrite,
// data is copied in.
func (c *Client) Access(op Op, id BlockID, data []byte) ([]byte, error) {
	return c.accessOne(op, id, data, nil)
}

// ReadInto is an oblivious read that copies the payload into buf's
// capacity (growing it only when too small) instead of a fresh allocation,
// returning the filled slice — the steady-state training loop's form of
// Access(OpRead): with a recycled buffer the whole sealed access cycle is
// allocation-free. The access is indistinguishable from Access on the
// memory bus; only the ownership of the returned bytes differs (they alias
// buf, which the caller must not hand to concurrent readers).
func (c *Client) ReadInto(id BlockID, buf []byte) ([]byte, error) {
	return c.accessOne(OpRead, id, nil, buf)
}

// accessOne runs AccessBatch over the one-key view in the client's batch
// scratch; an OpRead's result is copied into dst's capacity.
func (c *Client) accessOne(op Op, id BlockID, data, dst []byte) ([]byte, error) {
	b := &c.batch
	b.id[0], b.data[0], b.out[0] = id, data, dst
	err := c.AccessBatch(op, b.id[:], b.data[:], b.out[:])
	out := b.out[0]
	b.data[0], b.out[0] = nil, nil // hold no caller memory past the call
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Read is shorthand for Access(OpRead, id, nil).
func (c *Client) Read(id BlockID) ([]byte, error) { return c.Access(OpRead, id, nil) }

// Write is shorthand for Access(OpWrite, id, data).
func (c *Client) Write(id BlockID, data []byte) error {
	_, err := c.Access(OpWrite, id, data)
	return err
}

// copyInto copies p into dst's capacity, growing only when it is too
// small; a nil p (metadata-only store) yields nil.
func copyInto(dst, p []byte) []byte {
	if p == nil {
		return nil
	}
	if cap(dst) < len(p) {
		dst = make([]byte, len(p))
	}
	dst = dst[:len(p)]
	copy(dst, p)
	return dst
}
