// Command laoramserve runs the paper's server_storage component as a TCP
// service (§III, Fig. 5): the untrusted CPU-DRAM side of LAORAM holding the
// ORAM tree(s). Clients (examples/remote, or any oram client over
// remote.Dial) connect and issue bucket-, path- or batch-granularity
// requests; the address stream on this socket is exactly what the paper's
// adversary observes.
//
// With -shards N the table is served as N independent shard trees (one
// backing store per shard, the partition rules of internal/shard), matching
// a client started with laoram.Options{Shards: N, RemoteAddrs: ...}. Many
// clients may connect concurrently; requests are multiplexed per
// connection and dispatched to a bounded worker pool with per-shard
// locking.
//
// With -checkpoint DIR the server restores its shard trees from
// DIR/shard-N.ck at startup (when present) and saves fresh snapshots there —
// periodically with -checkpoint-interval, and once on shutdown. Each save is
// an epoch-stamped SET: every shard file carries the same epoch number in its
// header, all files are written and fsynced to temp names before any is
// renamed into place, and the directory itself is fsynced afterwards so the
// set survives power loss, not just process death. Restore is all-or-nothing:
// the full set must be present with one common epoch, or startup fails — a
// torn set (crash between renames, or files hand-mixed from different saves)
// is rejected instead of silently blending trees from different points in
// time. Pair server checkpoints with the client's laoram.SaveState taken at
// the same boundary: restoring both rewinds the whole system and the run
// continues byte-identically (DESIGN.md invariant #11).
//
// The server is elastic: clients migrating a shard in (laoram.Migrate)
// grow a fresh backing store over the wire (opAddStore), so a node can
// start with -shards covering its modulo placement and end up serving more
// (not under -sealed, whose fresh per-store key could not open the snapshot).
// SIGTERM begins a graceful drain instead of stopping: the listener closes
// (no new connections), the health heartbeat (opHealth) announces draining
// so connected clients migrate their shards off, and once the last
// connection leaves — or after -drain-grace — the server takes its final
// checkpoint and exits. SIGINT/Ctrl-C still stops immediately (after the
// shutdown checkpoint).
//
// Usage:
//
//	laoramserve -addr :7312 -entries 1048576 -block 128 -fat -shards 4
package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/crypto"
	"repro/internal/diskstore"
	"repro/internal/oram"
	"repro/internal/remote"
	"repro/internal/shard"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:7312", "listen address")
		entries = flag.Uint64("entries", 1<<20, "embedding table entries across all shards (sizes the trees)")
		block   = flag.Int("block", 128, "block (embedding row) size in bytes; 0 = metadata-only")
		leafZ   = flag.Int("z", 4, "leaf bucket size")
		fat     = flag.Bool("fat", false, "use the fat-tree (root 2x leaf, linear decay)")
		shards  = flag.Int("shards", 1, "number of shard stores (match the client's Options.Shards)")
		workers = flag.Int("workers", 0, "request worker pool size (0 = one per CPU)")
		sealed  = flag.Bool("sealed", false, "seal payloads at rest (AES-128-GCM, fresh random key per shard store and per start): refuses -checkpoint and -data-dir, and grows no store for a migration")
		dataDir = flag.String("data-dir", "", "directory for disk-backed shard trees (one bucket arena file per store, internal/diskstore): the tiered storage backend — served trees may exceed RAM; clean arenas are resumed at startup, crashed arenas are restored from -checkpoint or refused")
		memBud  = flag.Int64("mem-budget", 0, "total in-memory bucket cache across all disk-backed stores, in bytes, split evenly per store (0 = unbounded); requires -data-dir")
		ckDir   = flag.String("checkpoint", "", "directory for shard tree checkpoints: restore shard-N.ck at startup if present, save on shutdown (and periodically with -checkpoint-interval)")
		ckEvery = flag.Duration("checkpoint-interval", 0, "periodic checkpoint cadence (0 = only on shutdown); requires -checkpoint")
		drainT  = flag.Duration("drain-grace", 10*time.Second, "on SIGTERM, how long to wait for connected clients to migrate off before exiting anyway")

		maxInflight = flag.Int("max-inflight", 0, "global concurrency budget: admitted-but-unfinished data requests across all connections; beyond it requests are shed with a typed busy frame (0 = unbounded)")
		perConnRate = flag.Float64("per-conn-rate", 0, "per-connection sustained data-request rate limit, requests/second, via token bucket (0 = unlimited)")
		perConnBur  = flag.Int("per-conn-burst", 0, "token bucket capacity: back-to-back requests one connection may issue before -per-conn-rate applies (0 = one second's worth of -per-conn-rate); requires -per-conn-rate")
		fairQ       = flag.Bool("fair", false, "dispatch the worker pool across connections by round robin, one request per connection per turn, with bounded per-connection queues instead of one shared FIFO: a flooding connection's backlog hurts only itself, its overflow is shed")
	)
	flag.Parse()

	if *shards < 1 {
		log.Fatalf("laoramserve: -shards must be >= 1")
	}
	if err := validateStorageFlags(*dataDir, *memBud, *ckDir, *block, *sealed); err != nil {
		log.Fatalf("laoramserve: %v", err)
	}
	limits := remote.Limits{
		MaxInflight:  *maxInflight,
		PerConnRate:  *perConnRate,
		PerConnBurst: *perConnBur,
		Fair:         *fairQ,
	}
	if err := validateAdmissionFlags(limits, *workers); err != nil {
		log.Fatalf("laoramserve: %v", err)
	}
	per := shard.PerShardEntries(*entries, *shards)
	cfg := oram.GeometryConfig{
		LeafBits:  oram.LeafBitsFor(per),
		LeafZ:     *leafZ,
		BlockSize: *block,
	}
	if *fat {
		cfg.RootZ = 2 * *leafZ
		cfg.Profile = oram.ProfileLinear
	}
	g, err := oram.NewGeometry(cfg)
	if err != nil {
		log.Fatalf("laoramserve: %v", err)
	}

	if *sealed && *block <= 0 {
		log.Fatalf("laoramserve: -sealed requires a payload-bearing store (-block > 0)")
	}
	// One bounded crypto pool, one worker per CPU up to 8, is shared by
	// every sealed shard store; the server's request workers already model
	// per-shard concurrency, the crypto pool parallelises within one
	// request.
	var pool *crypto.Pool
	if w := crypto.DefaultWorkers(); *sealed && w > 1 {
		pool = crypto.NewPool(w)
		defer pool.Close()
	}

	// Disk-backed stores get an even split of the memory budget; the store
	// itself clamps tiny budgets up to a workable floor.
	perBudget := int64(0)
	if *memBud > 0 {
		perBudget = *memBud / int64(*shards)
		if perBudget == 0 {
			perBudget = 1
		}
	}
	var disksMu sync.Mutex
	var arenaSeq int
	var disks []*diskstore.Store
	// newStore builds one shard backing store — used for the -shards
	// initial set and again whenever a client migrates a shard in
	// (opAddStore grows one through the factory below).
	newStore := func() (*oram.CountingStore, error) {
		var inner oram.Store
		if *dataDir != "" {
			disksMu.Lock()
			idx := arenaSeq
			arenaSeq++
			disksMu.Unlock()
			ds, err := openArena(*dataDir, *ckDir, idx, g, perBudget)
			if err != nil {
				return nil, err
			}
			disksMu.Lock()
			disks = append(disks, ds)
			disksMu.Unlock()
			inner = ds
		} else if *block > 0 {
			var sealer oram.Sealer
			if *sealed {
				s, err := crypto.NewRandomSealer()
				if err != nil {
					return nil, err
				}
				sealer = s
			}
			ps, err := oram.NewPayloadStore(g, sealer)
			if err != nil {
				return nil, fmt.Errorf("%w (hint: -block 0 for metadata-only at large scales)", err)
			}
			if pool != nil {
				if err := ps.SetCryptoPool(pool); err != nil {
					return nil, err
				}
			}
			inner = ps
		} else {
			inner = oram.NewMetaStore(g)
		}
		return oram.NewCountingStore(inner, nil), nil
	}
	stores := make([]oram.Store, *shards)
	counters := make([]*oram.CountingStore, *shards)
	for i := range stores {
		cs, err := newStore()
		if err != nil {
			log.Fatalf("laoramserve: %v", err)
		}
		counters[i] = cs
		stores[i] = cs
	}

	srv, err := remote.NewSharded(stores, *workers, log.Printf)
	if err != nil {
		log.Fatalf("laoramserve: %v", err)
	}
	// Admission limits must be in place before Listen: a server that
	// accepted even one connection unprotected would admit its backlog.
	if err := srv.SetLimits(limits); err != nil {
		log.Fatalf("laoramserve: %v", err)
	}
	// Migrated-in shards count toward the shutdown byte totals too. A sealed
	// node grows no stores: a fresh store has a fresh key, so the snapshot a
	// migration restores into it could never be opened. Without a factory
	// opAddStore is refused and the migration fails before it moves a byte.
	var cmu sync.Mutex
	if !*sealed {
		srv.SetStoreFactory(func() (oram.Store, error) {
			cs, err := newStore()
			if err != nil {
				return nil, err
			}
			cmu.Lock()
			counters = append(counters, cs)
			cmu.Unlock()
			return cs, nil
		})
	}
	if *ckEvery < 0 || (*ckEvery > 0 && *ckDir == "") {
		log.Fatalf("laoramserve: -checkpoint-interval requires -checkpoint")
	}
	var ckEpoch uint64
	if *ckDir != "" {
		if err := os.MkdirAll(*ckDir, 0o755); err != nil {
			log.Fatalf("laoramserve: %v", err)
		}
		// Restore before Listen so no request ever sees pre-restore trees.
		n, epoch, err := restoreCheckpoints(*ckDir, srv)
		if err != nil {
			log.Fatalf("laoramserve: %v", err)
		}
		ckEpoch = epoch
		if n > 0 {
			fmt.Printf("laoramserve: restored %d/%d shard trees from %s (epoch %d)\n", n, srv.Shards(), *ckDir, epoch)
		}
	}
	// Epochs keep counting from the restored set, and the periodic ticker
	// and the shutdown save may overlap — serialise them.
	var ckMu sync.Mutex
	saveSet := func() error {
		ckMu.Lock()
		defer ckMu.Unlock()
		ckEpoch++
		return saveCheckpoints(*ckDir, srv, ckEpoch)
	}
	bound, err := srv.Listen(*addr)
	if err != nil {
		log.Fatalf("laoramserve: %v", err)
	}
	kind := storeKindSealed(*block, *sealed)
	if *dataDir != "" {
		kind = fmt.Sprintf("disk-backed payload %dB in %s, cache budget %s", *block, *dataDir, budgetString(*memBud))
	}
	fmt.Printf("laoramserve: serving %d×[%s] (%s, %d entries, server bytes %.2f GB) on %s\n",
		*shards, g.String(), kind, *entries,
		float64(int64(*shards)*g.ServerBytes())/(1<<30), bound)
	if desc := admissionString(limits); desc != "" {
		fmt.Printf("laoramserve: admission — %s\n", desc)
	}
	fmt.Println("laoramserve: Ctrl-C to stop, SIGTERM to drain")

	// Serve until the process context is cancelled (Ctrl-C / SIGINT): the
	// same cancellation idiom clients use — a cancelled laoram.NewContext
	// closes its connection; a cancelled server drains and closes here.
	// SIGTERM takes the graceful path instead: announce the drain over the
	// health heartbeat, give connected clients -drain-grace to migrate
	// their shards off, then fall through to the same shutdown tail.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	drainCh := make(chan os.Signal, 1)
	signal.Notify(drainCh, syscall.SIGTERM)
	if *ckDir != "" && *ckEvery > 0 {
		go func() {
			tick := time.NewTicker(*ckEvery)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					if err := saveSet(); err != nil {
						log.Printf("laoramserve: periodic checkpoint: %v", err)
					}
				}
			}
		}()
	}
	select {
	case <-ctx.Done():
	case <-drainCh:
		fmt.Printf("laoramserve: SIGTERM — draining (refusing new connections, waiting up to %v for %d client conn(s) to migrate off)\n",
			*drainT, srv.ActiveConns())
		srv.Drain()
		deadline := time.Now().Add(*drainT)
		for srv.ActiveConns() > 0 && time.Now().Before(deadline) && ctx.Err() == nil {
			select {
			case <-ctx.Done(): // SIGINT during the drain stops the wait
			case <-time.After(50 * time.Millisecond):
			}
		}
		if n := srv.ActiveConns(); n > 0 {
			fmt.Printf("laoramserve: drain grace expired with %d conn(s) still open\n", n)
		} else {
			fmt.Println("laoramserve: drained")
		}
	}
	if *ckDir != "" {
		if err := saveSet(); err != nil {
			log.Printf("laoramserve: shutdown checkpoint: %v", err)
		} else {
			fmt.Printf("laoramserve: saved %d shard trees to %s (epoch %d)\n", srv.Shards(), *ckDir, ckEpoch)
		}
	}
	var total oram.Counters
	cmu.Lock()
	defer cmu.Unlock()
	for _, cs := range counters {
		total = total.Add(cs.Counters())
	}
	fmt.Printf("\nlaoramserve: shutting down — served %d bucket reads, %d bucket writes, %.2f MB moved\n",
		total.BucketReads, total.BucketWrites, float64(total.BytesRead+total.BytesWritten)/(1<<20))
	if err := srv.Close(); err != nil {
		log.Printf("laoramserve: close: %v", err)
	}
	// Disk arenas close last (after the server stops issuing requests):
	// Close writes the dirty spans back, fsyncs, and marks the arena
	// clean so the next start resumes instead of demanding a checkpoint.
	disksMu.Lock()
	var tier oram.TierStats
	for _, ds := range disks {
		tier = tier.Add(ds.TierStats())
		if err := ds.Close(); err != nil {
			log.Printf("laoramserve: disk store close: %v", err)
		}
	}
	disksMu.Unlock()
	if *dataDir != "" {
		fmt.Printf("laoramserve: store tier — %d cache hits, %d demand misses, %d buckets prefetched (%d useful), %.1f ms demand stall\n",
			tier.Hits, tier.Misses, tier.PrefetchIssued, tier.PrefetchUseful,
			float64(tier.DemandStallNs)/1e6)
	}
}

// Typed flag-validation errors, so operators (and tests) can tell the
// failure modes apart with errors.Is.
var (
	errMemBudgetWithoutDataDir = errors.New("-mem-budget requires -data-dir (the cache budget only applies to disk-backed stores)")
	errDataDirIsCheckpointDir  = errors.New("-data-dir and -checkpoint must be different directories (checkpoints must survive an arena reset)")
	errDataDirMetadataOnly     = errors.New("-data-dir requires a payload-bearing store (-block > 0); metadata-only trees fit in memory")
	errDataDirSealed           = errors.New("-sealed uses a fresh random key per start and cannot resume sealed arenas across restarts; run -data-dir without -sealed")
	errCheckpointSealed        = errors.New("-sealed uses a fresh random key per store and per start, so a sealed store cannot open a checkpoint sealed under another key; run -checkpoint without -sealed")
	errNegativeMemBudget       = errors.New("-mem-budget must be >= 0")

	errNegativeMaxInflight   = errors.New("-max-inflight must be >= 0")
	errNegativePerConnRate   = errors.New("-per-conn-rate must be >= 0")
	errNegativePerConnBurst  = errors.New("-per-conn-burst must be >= 0")
	errBurstWithoutRate      = errors.New("-per-conn-burst requires -per-conn-rate (a bucket capacity without a refill rate meters nothing)")
	errBurstExceedsInflight  = errors.New("-per-conn-burst exceeds -max-inflight: a single connection's permitted burst could never be admitted under the global budget")
	errAdmissionNeedsWorkers = errors.New("admission control (-max-inflight/-per-conn-rate/-fair) requires a positive worker pool (-workers >= 0; 0 = one per CPU)")
)

// validateAdmissionFlags rejects nonsensical admission combinations up
// front, before any store is built or socket bound. The remote package
// re-validates in SetLimits; duplicating the checks here turns them into
// flag errors with flag names instead of library errors after startup work.
func validateAdmissionFlags(l remote.Limits, workers int) error {
	if l.MaxInflight < 0 {
		return errNegativeMaxInflight
	}
	if l.PerConnRate < 0 {
		return errNegativePerConnRate
	}
	if l.PerConnBurst < 0 {
		return errNegativePerConnBurst
	}
	if l.PerConnBurst > 0 && l.PerConnRate == 0 {
		return errBurstWithoutRate
	}
	if l.MaxInflight > 0 && l.PerConnBurst > l.MaxInflight {
		return errBurstExceedsInflight
	}
	// A rate with a derived burst (one second's worth) must also fit the
	// global budget — the same rule SetLimits enforces, surfaced as a flag
	// error: -per-conn-rate 500 -max-inflight 10 silently shrinks nothing.
	if l.MaxInflight > 0 && l.PerConnBurst == 0 && l.PerConnRate > 0 && int(l.PerConnRate) > l.MaxInflight {
		return errBurstExceedsInflight
	}
	if (l.MaxInflight > 0 || l.PerConnRate > 0 || l.Fair) && workers < 0 {
		return errAdmissionNeedsWorkers
	}
	return nil
}

// validateStorageFlags rejects tiered-storage flag combinations that could
// not work: a cache budget with nothing to cache, arenas sharing a
// directory with the checkpoints that are supposed to outlive them, disk
// backing for metadata-only trees, and sealed arenas or checkpoints whose
// key would be lost on restart.
func validateStorageFlags(dataDir string, memBudget int64, ckDir string, block int, sealed bool) error {
	if memBudget < 0 {
		return errNegativeMemBudget
	}
	if sealed && ckDir != "" {
		return errCheckpointSealed
	}
	if dataDir == "" {
		if memBudget != 0 {
			return errMemBudgetWithoutDataDir
		}
		return nil
	}
	if block <= 0 {
		return errDataDirMetadataOnly
	}
	if sealed {
		return errDataDirSealed
	}
	if ckDir != "" && sameDir(dataDir, ckDir) {
		return errDataDirIsCheckpointDir
	}
	return nil
}

// sameDir reports whether two paths name the same directory, comparing
// absolute cleaned forms (falling back to cleaned forms if Abs fails).
func sameDir(a, b string) bool {
	aa, errA := filepath.Abs(a)
	bb, errB := filepath.Abs(b)
	if errA != nil || errB != nil {
		return filepath.Clean(a) == filepath.Clean(b)
	}
	return aa == bb
}

// openArena opens (or creates) the disk arena backing store idx under
// dataDir. A cleanly closed arena resumes as-is. An arena left dirty by a
// crash mid write-back (diskstore.ErrUnclean), laid out by a build with
// another record order (diskstore.ErrLayout), or whose span table does not
// hold (diskstore.ErrTable), is reset — but only when a
// checkpoint exists to restore from; otherwise startup fails loudly rather
// than serving possibly-torn buckets or dropping a tree it cannot read. The prefetcher stays off on
// the server: the remote protocol carries no look-ahead hints, the client
// plans the windows.
func openArena(dataDir, ckDir string, idx int, g *oram.Geometry, budget int64) (*diskstore.Store, error) {
	if err := os.MkdirAll(dataDir, 0o755); err != nil {
		return nil, fmt.Errorf("data dir: %w", err)
	}
	path := filepath.Join(dataDir, fmt.Sprintf("tree-%d.laor", idx))
	cfg := diskstore.Config{Path: path, Geometry: g, MemBudget: budget}
	ds, err := diskstore.Open(cfg)
	if err == nil {
		return ds, nil
	}
	if !errors.Is(err, diskstore.ErrUnclean) && !errors.Is(err, diskstore.ErrLayout) && !errors.Is(err, diskstore.ErrTable) {
		return nil, err
	}
	if ckDir == "" {
		return nil, fmt.Errorf("%w (no -checkpoint configured to restore from; rerun with -checkpoint, or delete %s to start empty)", err, path)
	}
	if _, serr := os.Stat(checkpointPath(ckDir, idx)); serr != nil {
		return nil, fmt.Errorf("%w (no checkpoint for store %d in %s; delete %s to start empty)", err, idx, ckDir, path)
	}
	log.Printf("laoramserve: %v; resetting, checkpoint restore will rebuild it", err)
	cfg.Reset = true
	return diskstore.Open(cfg)
}

// admissionString renders the enabled admission mechanisms for the startup
// banner; empty when admission is off (the pre-v3 default).
func admissionString(l remote.Limits) string {
	var parts []string
	if l.MaxInflight > 0 {
		parts = append(parts, fmt.Sprintf("max %d in-flight", l.MaxInflight))
	}
	if l.PerConnRate > 0 {
		b := l.PerConnBurst
		if b == 0 {
			b = int(l.PerConnRate)
			if b < 1 {
				b = 1
			}
		}
		parts = append(parts, fmt.Sprintf("%.0f req/s per conn (burst %d)", l.PerConnRate, b))
	}
	if l.Fair {
		parts = append(parts, "fair queueing (round robin, one request per conn per turn, bounded per-conn queues)")
	}
	return strings.Join(parts, ", ")
}

// budgetString renders a byte budget for the startup banner.
func budgetString(b int64) string {
	if b <= 0 {
		return "unbounded"
	}
	return fmt.Sprintf("%.1f MB", float64(b)/(1<<20))
}

// checkpointPath is where shard s's tree snapshot lives under dir.
func checkpointPath(dir string, s int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.ck", s))
}

// Every shard-N.ck starts with a 16-byte header: the file magic ("LAORCKF1")
// and the epoch of the save that produced it. All files written by one
// saveCheckpoints call share one epoch, which is how restoreCheckpoints
// tells a coherent set from a torn one.
const ckFileMagic = 0x4C414F52434B4631 // "LAORCKF1"

const ckHeaderLen = 16

// restoreCheckpoints loads the checkpoint set in dir into the server's
// stores. Valid states are exactly two: no files at all (a fresh tree starts
// empty — restored == 0) or one file per shard, all stamped with the same
// epoch (restored == Shards). Anything in between — files missing, epochs
// mixed — is a torn set from a crash mid-save or operator error, and
// restoring it would silently blend trees from different points in time, so
// it is rejected. Returns the set's epoch so new saves keep counting from it.
func restoreCheckpoints(dir string, srv *remote.Server) (restored int, epoch uint64, err error) {
	files := make([]*os.File, srv.Shards())
	defer func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}()
	var present, missing []int
	for s := 0; s < srv.Shards(); s++ {
		path := checkpointPath(dir, s)
		f, err := os.Open(path)
		if errors.Is(err, os.ErrNotExist) {
			missing = append(missing, s)
			continue
		}
		if err != nil {
			return 0, 0, err
		}
		files[s] = f
		var hdr [ckHeaderLen]byte
		if _, err := io.ReadFull(f, hdr[:]); err != nil {
			return 0, 0, fmt.Errorf("restore %s: short header: %w", path, err)
		}
		if got := binary.BigEndian.Uint64(hdr[0:8]); got != ckFileMagic {
			return 0, 0, fmt.Errorf("restore %s: bad magic %#x — not a shard checkpoint", path, got)
		}
		e := binary.BigEndian.Uint64(hdr[8:16])
		if len(present) > 0 && e != epoch {
			return 0, 0, fmt.Errorf("torn checkpoint set in %s: shard %d is epoch %d, shard %d is epoch %d",
				dir, present[0], epoch, s, e)
		}
		epoch = e
		present = append(present, s)
	}
	if len(present) == 0 {
		return 0, 0, nil
	}
	if len(missing) > 0 {
		return 0, 0, fmt.Errorf("torn checkpoint set in %s: shard %d has no file but shard %d does (epoch %d)",
			dir, missing[0], present[0], epoch)
	}
	for s, f := range files {
		if err := srv.RestoreShard(s, bufio.NewReader(f)); err != nil {
			return restored, 0, fmt.Errorf("restore %s: %w", checkpointPath(dir, s), err)
		}
		restored++
	}
	return restored, epoch, nil
}

// saveCheckpoints snapshots every shard tree to dir as one epoch-stamped
// set. All files are written and fsynced under temp names first, then
// renamed into place, then the directory is fsynced — so the set is durable
// against power loss, not just process death. The renames themselves are not
// atomic as a group; a crash between them leaves files from two epochs,
// which restoreCheckpoints detects and rejects rather than mixing.
// SnapshotShard holds the shard lock, so each file is a consistent
// point-in-time image even while the server keeps serving.
func saveCheckpoints(dir string, srv *remote.Server, epoch uint64) error {
	// One stable count for both loops: a migration may grow the store set
	// concurrently, and a set must rename exactly the files it wrote.
	n := srv.Shards()
	tmps := make([]string, 0, n)
	cleanup := func() {
		for _, t := range tmps {
			os.Remove(t)
		}
	}
	for s := 0; s < n; s++ {
		tmp := checkpointPath(dir, s) + ".tmp"
		if err := writeSnapshotFile(tmp, srv, s, epoch); err != nil {
			cleanup()
			return fmt.Errorf("checkpoint shard %d: %w", s, err)
		}
		tmps = append(tmps, tmp)
	}
	for s := 0; s < n; s++ {
		if err := os.Rename(checkpointPath(dir, s)+".tmp", checkpointPath(dir, s)); err != nil {
			cleanup()
			return fmt.Errorf("checkpoint shard %d: %w", s, err)
		}
	}
	return syncDir(dir)
}

// writeSnapshotFile writes header + snapshot of shard s to path and fsyncs
// it; on any failure the partial file is removed.
func writeSnapshotFile(path string, srv *remote.Server, s int, epoch uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var hdr [ckHeaderLen]byte
	binary.BigEndian.PutUint64(hdr[0:8], ckFileMagic)
	binary.BigEndian.PutUint64(hdr[8:16], epoch)
	bw := bufio.NewWriter(f)
	_, err = bw.Write(hdr[:])
	if err == nil {
		err = srv.SnapshotShard(s, bw)
	}
	if err == nil {
		err = bw.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// syncDir fsyncs a directory so renames into it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func storeKind(block int) string {
	if block > 0 {
		return fmt.Sprintf("payload %dB", block)
	}
	return "metadata-only"
}

func storeKindSealed(block int, sealed bool) string {
	if sealed {
		return fmt.Sprintf("sealed payload %dB", block)
	}
	return storeKind(block)
}
