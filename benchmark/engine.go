package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	laoram "repro"
	"repro/internal/batch"
	"repro/internal/crypto"
	"repro/internal/diskstore"
	"repro/internal/oram"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/trace"
)

// target is the part of the public API the workloads drive. *laoram.ORAM is
// the untraced target; tracedTarget is the same engine assembled by the
// benchmark so that a SpanStore can sit under each shard's CountingStore.
type target interface {
	Train(ctx context.Context, opts laoram.TrainOptions) (*laoram.TrainStats, error)
	Load(n uint64, payload func(id uint64) []byte) error
	ReadBatch(ids []uint64) ([][]byte, error)
	WriteBatch(ids []uint64, data [][]byte) error
	Stats() laoram.Stats
	ResetStats()
	Close() error
}

// instance is one set-up system: the loopback nodes and temp arena a
// workload needs, and the client on top.
type instance struct {
	db      target
	servers []*remote.Server
	dir     string // temp arena directory, "" when the workload has none

	budgetBytes int64 // disk workloads: MemBudget handed to the instance
	arenaBytes  int64 // disk workloads: size of the arena files
}

// close releases the instance in dependency order — client, then nodes, then
// the arena files — and reports the first failure. It is safe on a partly
// built instance, which is how open cleans up after itself.
func (in *instance) close() error {
	var errs []error
	if in.db != nil {
		errs = append(errs, in.db.Close())
		in.db = nil
	}
	for _, srv := range in.servers {
		errs = append(errs, srv.Close())
	}
	in.servers = nil
	if in.dir != "" {
		errs = append(errs, os.RemoveAll(in.dir))
		in.dir = ""
	}
	return errors.Join(errs...)
}

// overload sums the nodes' admission counters since they started.
func (in *instance) overload() (admitted, shed uint64) {
	for _, srv := range in.servers {
		ov := srv.OverloadStats()
		admitted += ov.Admitted
		shed += ov.Shed()
	}
	return admitted, shed
}

// env is where a run keeps what it leaves on disk while it runs.
type env struct {
	tmpRoot string // temp arenas are created below it and removed with their instance
}

func geometryFor(w workload) (*oram.Geometry, error) {
	const z = 4 // Options.BucketSize default
	return oram.NewGeometry(oram.GeometryConfig{
		LeafBits:  oram.LeafBitsFor(shard.PerShardEntries(w.entries, shards)),
		LeafZ:     z,
		RootZ:     2 * z, // Options.FatTree
		Profile:   oram.ProfileLinear,
		BlockSize: w.blockSize,
	})
}

// sealKey derives the sealing key from the seed, so that a seed fixes every
// input of a run.
func sealKey(seed int64) []byte {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(seed>>(8*(i%8))) ^ byte(i*37)
	}
	return key
}

// open sets a workload's system up: loopback nodes listening, arena
// directory made, client built and connected. tr == nil builds the client
// through laoram.New; otherwise the traced twin is assembled and the nodes'
// stores are wrapped too. On error everything already started is stopped.
func (e *env) open(ctx context.Context, w workload, seed int64, tr *tracer) (_ *instance, err error) {
	in := &instance{}
	defer func() {
		if err != nil {
			err = errors.Join(err, in.close())
		}
	}()
	g, err := geometryFor(w)
	if err != nil {
		return nil, err
	}
	opts := laoram.Options{
		Entries:   w.entries,
		BlockSize: w.blockSize,
		FatTree:   true,
		Encrypt:   w.encrypt,
		Seed:      seed,
		Shards:    shards,
	}
	if w.encrypt {
		opts.Key = sealKey(seed)
	}
	for j := 0; j < w.nodes; j++ {
		stores := make([]oram.Store, shard.LoadCount(shards, j, w.nodes))
		for k := range stores {
			ps, err := oram.NewPayloadStore(g, nil)
			if err != nil {
				return nil, err
			}
			stores[k] = ps
			if tr != nil {
				if stores[k], _, err = newSpanStore(ps, tr, seamServer, j+k*w.nodes); err != nil {
					return nil, err
				}
			}
		}
		srv, err := remote.NewSharded(stores, 0, nil)
		if err != nil {
			return nil, err
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		in.servers = append(in.servers, srv)
		opts.RemoteAddrs = append(opts.RemoteAddrs, addr)
	}
	if w.disk {
		if err := os.MkdirAll(e.tmpRoot, 0o755); err != nil {
			return nil, err
		}
		if in.dir, err = os.MkdirTemp(e.tmpRoot, w.name+"-"); err != nil {
			return nil, err
		}
		opts.DataDir = in.dir
		opts.MemBudget = int64(w.budget * float64(shards*diskstore.CacheBytes(g, nil)))
		in.budgetBytes = opts.MemBudget
		in.arenaBytes = shards * diskstore.FileBytes(g, nil)
	}
	if tr == nil {
		db, err := laoram.NewContext(ctx, opts)
		if err != nil {
			return nil, err
		}
		in.db = db
		return in, nil
	}
	tt := &tracedTarget{}
	in.db = tt
	if err := tt.build(ctx, opts, g, tr); err != nil {
		return nil, err
	}
	return in, nil
}

// tracedTarget assembles the engine the way laoram.NewContext/buildSub and
// Trainer.Train do for the option sets the workloads use, with one
// difference: a SpanStore between each shard's backing store and its
// CountingStore. Every traced run checks the twin against the public
// assembly: their identity counters must be equal.
type tracedTarget struct {
	eng     *shard.Engine
	pool    *crypto.Pool
	disks   []*diskstore.Store
	remotes []*remote.Client
}

func (t *tracedTarget) build(ctx context.Context, opts laoram.Options, g *oram.Geometry, tr *tracer) error {
	nodes := len(opts.RemoteAddrs)
	for j, addr := range opts.RemoteAddrs {
		rc, err := remote.DialConfig(ctx, addr, remote.Config{ShardBase: j, ShardStride: nodes})
		if err != nil {
			return fmt.Errorf("node %d (%s): %w", j, addr, err)
		}
		t.remotes = append(t.remotes, rc)
	}
	if opts.Encrypt && nodes == 0 && opts.DataDir == "" {
		if w := crypto.DefaultWorkers(); w > 1 {
			t.pool = crypto.NewPool(w)
		}
	}
	eng, err := shard.New(shard.Config{
		Shards:  opts.Shards,
		Entries: opts.Entries,
		Seed:    opts.Seed,
		Build: func(i int, per uint64, seed int64) (shard.Sub, error) {
			inner, err := t.backing(i, opts, g)
			if err != nil {
				return shard.Sub{}, err
			}
			spanned, _, err := newSpanStore(inner, tr, seamClient, i)
			if err != nil {
				return shard.Sub{}, err
			}
			prefetch, _ := spanned.(oram.PathPrefetcher)
			cs := oram.NewCountingStore(spanned, nil)
			rng, src := trace.NewCountedRNG(seed)
			client, err := oram.NewClient(oram.ClientConfig{
				Store:     cs,
				Rand:      rng,
				Evict:     oram.PaperEvict,
				StashHits: true,
				Blocks:    per,
			})
			if err != nil {
				return shard.Sub{}, err
			}
			return shard.Sub{Client: client, Store: cs, Src: src, Prefetch: prefetch}, nil
		},
	})
	if err != nil {
		return err
	}
	t.eng = eng
	return nil
}

// backing builds shard i's server store: a view onto its node, a disk arena,
// or an in-memory (possibly sealed) tree.
func (t *tracedTarget) backing(i int, opts laoram.Options, g *oram.Geometry) (oram.Store, error) {
	if nodes := len(t.remotes); nodes > 0 {
		return t.remotes[i%nodes].Store(i / nodes)
	}
	var sealer oram.Sealer
	if opts.Encrypt {
		s, err := crypto.NewSealer(opts.Key)
		if err != nil {
			return nil, err
		}
		sealer = s
	}
	if opts.DataDir != "" {
		ds, err := diskstore.Open(diskstore.Config{
			Path:      filepath.Join(opts.DataDir, fmt.Sprintf("tree-%d.laor", i)),
			Geometry:  g,
			Sealer:    sealer,
			MemBudget: max(opts.MemBudget/int64(opts.Shards), 1),
			Prefetch:  true,
		})
		if err != nil {
			return nil, err
		}
		t.disks = append(t.disks, ds)
		return ds, nil
	}
	ps, err := oram.NewPayloadStore(g, sealer)
	if err != nil {
		return nil, err
	}
	if t.pool != nil && sealer != nil {
		if err := ps.SetCryptoPool(t.pool); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

func (t *tracedTarget) Train(ctx context.Context, opts laoram.TrainOptions) (*laoram.TrainStats, error) {
	st, err := batch.Train(ctx, t.eng, opts.Source, batch.TrainConfig{
		S:         opts.Superblock,
		Window:    opts.Window,
		Depth:     opts.Depth,
		BatchBins: opts.BatchBins,
		PrePlace:  opts.PrePlace,
		Payload:   opts.Payload,
		NewVisit:  func(lane int) shard.Visit { return shard.Visit(opts.PerLane(lane)) },
	})
	return &laoram.TrainStats{
		Windows:  st.Windows,
		Accesses: st.Accesses,
		Session: laoram.SessionStats{
			Bins:            st.Bins,
			ColdPathReads:   st.ColdPathReads,
			LookaheadRemaps: st.LookaheadRemaps,
			UniformRemaps:   st.UniformRemaps,
		},
		PlanTime:       st.PlanTime,
		TrainTime:      st.TrainTime,
		TrainerStalled: st.Stalled,
		TrainerStalls:  st.TrainerStalls,
		PlannerStalled: st.PlannerStalled,
		PlanQueuePeak:  st.QueuePeak,
		PlanQueueMean:  st.QueueMean,
		WallTime:       st.Wall,
	}, err
}

func (t *tracedTarget) Load(n uint64, payload func(id uint64) []byte) error {
	return t.eng.Load(n, payload)
}

func (t *tracedTarget) ReadBatch(ids []uint64) ([][]byte, error) { return t.eng.ReadBatch(ids) }

func (t *tracedTarget) WriteBatch(ids []uint64, data [][]byte) error {
	return t.eng.WriteBatch(ids, data)
}

func (t *tracedTarget) Stats() laoram.Stats {
	st := t.eng.Stats()
	return laoram.Stats{
		Accesses:      st.Access.Accesses,
		PathReads:     st.Access.PathReads,
		PathWrites:    st.Access.PathWrites,
		DummyReads:    st.Access.DummyReads,
		StashHits:     st.Access.StashHits,
		StashSize:     st.StashLen,
		StashPeak:     st.StashPeak,
		BytesMoved:    st.Counters.BytesRead + st.Counters.BytesWritten,
		ServerBytes:   st.ServerBytes,
		PositionBytes: st.PosBytes,

		TierHits:           st.Tier.Hits,
		TierMisses:         st.Tier.Misses,
		TierPrefetchIssued: st.Tier.PrefetchIssued,
		TierPrefetchUseful: st.Tier.PrefetchUseful,
		TierStallSeconds:   time.Duration(st.Tier.DemandStallNs).Seconds(),
	}
}

func (t *tracedTarget) ResetStats() { t.eng.ResetStats() }

func (t *tracedTarget) Close() error {
	t.pool.Close()
	t.pool = nil
	var errs []error
	for _, ds := range t.disks {
		errs = append(errs, ds.Close())
	}
	for _, rc := range t.remotes {
		errs = append(errs, rc.Close())
	}
	t.disks, t.remotes = nil, nil
	return errors.Join(errs...)
}
