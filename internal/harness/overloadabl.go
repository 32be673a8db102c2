package harness

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/loadgen"
	"repro/internal/oram"
	"repro/internal/remote"
	"repro/internal/trace"
)

// overloadabl.go is the serve-overload drill (ISSUE 10): one aggressor
// connection offering ~10x a well-behaved client's load against a worker
// pool sized so the total offered load exceeds capacity. Three
// configurations are measured with identical traffic:
//
//   - baseline: the four well-behaved clients alone (admission on) — the
//     unloaded reference for goodput and tail latency.
//   - fifo: aggressor present, admission off (the pre-v3 single shared
//     FIFO). The aggressor's backlog is everyone's backlog.
//   - fair: aggressor present, per-connection fair queueing + bounded
//     queues with busy-shed overflow. The aggressor's queue depth hurts
//     only the aggressor.
//
// A separate identity phase drives a real ORAM client through a server
// whose admission limits force sheds on shards {1,4} and checks the final
// reads are byte-identical to an unloaded run of the same seed-42 sequence
// — invariant 15: admission control is byte-transparent.

// OverloadRow is one measured configuration of the drill.
type OverloadRow struct {
	// Config is "baseline", "fifo" or "fair" (see the file comment).
	Config string
	// Aggressor reports whether the 10x client was present.
	Aggressor bool
	// OfferedFair/OfferedAggr are the open-loop offered rates (req/s): per
	// well-behaved client, and for the aggressor.
	OfferedFair, OfferedAggr float64
	// FairGoodput is completed req/s aggregated over the well-behaved
	// clients; FairMinGoodput is the worst single client's rate — the
	// starvation detector.
	FairGoodput, FairMinGoodput float64
	// FairP50/P95/P99 are completed-request latency percentiles across the
	// well-behaved clients (measured from the scheduled arrival slot, so
	// queueing delay is not omitted).
	FairP50, FairP95, FairP99 time.Duration
	// FairShedRate / AggrShedRate are the shed fractions per class.
	FairShedRate, AggrShedRate float64
	// AggrGoodput is the aggressor's completed req/s.
	AggrGoodput float64
	// Admitted/Shed are the server's own admission counters for the run.
	Admitted, Shed uint64
}

// OverloadResult is the serve-overload experiment.
type OverloadResult struct {
	// Capacity is the calibrated closed-loop capacity of the throttled
	// server (req/s) that the offered rates are derived from.
	Capacity float64
	// Workers is the server worker pool size; FairClients the number of
	// well-behaved connections.
	Workers, FairClients int
	Rows                 []OverloadRow

	// IdentitySheds counts server-side sheds during the identity phase
	// (must be > 0 for the phase to have tested anything); IdentityIdentical
	// reports the byte-compare verdict.
	IdentitySheds     uint64
	IdentityIdentical bool
	// IdentityShards names the shards the identity phase exercised.
	IdentityShards []int
}

// Row returns the row for config, or nil.
func (r *OverloadResult) Row(config string) *OverloadRow {
	for i := range r.Rows {
		if r.Rows[i].Config == config {
			return &r.Rows[i]
		}
	}
	return nil
}

// slowStore throttles every bucket operation by a fixed delay, giving the
// drill a deterministic per-request service time so offered load can
// exceed capacity on any host. Deliberately NOT a BatchStore: the server
// loops a path's bucket union bucket by bucket, so one path read costs
// levels*delay under the shard lock.
type slowStore struct {
	oram.Store
	delay time.Duration
}

func (s *slowStore) ReadBucket(level int, node uint64, dst []oram.Slot) error {
	time.Sleep(s.delay)
	return s.Store.ReadBucket(level, node, dst)
}

func (s *slowStore) WriteBucket(level int, node uint64, src []oram.Slot) error {
	time.Sleep(s.delay)
	return s.Store.WriteBucket(level, node, src)
}

// overloadGeom fixes the drill's tree shape.
func overloadGeom(perShard uint64, blockSize int) (*oram.Geometry, error) {
	return oram.NewGeometry(oram.GeometryConfig{
		LeafBits: oram.LeafBitsFor(perShard), LeafZ: 4, BlockSize: blockSize,
	})
}

// newOverloadServer builds a throttled server: nstores slow payload stores
// and a small worker pool. Clients spread requests across all stores, so
// the worker pool — not any single shard's mutex — is the contended
// resource: the server serialises same-shard requests under a per-shard
// lock, and a client that funnelled everything into one shard would
// self-serialise there (and make workers block on its lock), hiding the
// queueing behaviour this drill measures.
func newOverloadServer(nstores int, perShard uint64, blockSize, workers int, delay time.Duration, limits remote.Limits) (*remote.Server, string, error) {
	g, err := overloadGeom(perShard, blockSize)
	if err != nil {
		return nil, "", err
	}
	stores := make([]oram.Store, nstores)
	for i := range stores {
		ps, err := oram.NewPayloadStore(g, nil)
		if err != nil {
			return nil, "", err
		}
		stores[i] = &slowStore{Store: ps, delay: delay}
	}
	srv, err := remote.NewSharded(stores, workers, nil)
	if err != nil {
		return nil, "", err
	}
	if err := srv.SetLimits(limits); err != nil {
		return nil, "", err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	return srv, addr, nil
}

// pathBufs allocates a read buffer matching the tree shape.
func pathBufs(g *oram.Geometry) [][]oram.Slot {
	bufs := make([][]oram.Slot, g.Levels())
	for lvl := range bufs {
		bufs[lvl] = make([]oram.Slot, g.BucketSize(lvl))
	}
	return bufs
}

// overloadClient drives one connection's open-loop load for window: an
// arrival goroutine draws a (shard, leaf) pair on the pacer's schedule, a
// pool of senders issues path reads (one opBatch frame each), and every
// request's latency is measured from its arrival slot (queue wait included —
// no coordinated omission). The sender pool is deliberately larger than the
// server's per-connection queue bound: with fewer senders the client would
// self-throttle at `senders` outstanding requests and the bounded queue
// could never overflow, so sheds would be structurally impossible.
func overloadClient(addr string, nshards int, rng *rand.Rand, rate float64, keys loadgen.Keys, window time.Duration, rec *loadgen.Recorder) error {
	cl, err := remote.DialConfig(nil, addr, remote.Config{ShedRetries: -1})
	if err != nil {
		return err
	}
	defer cl.Close()
	sts := make([]*remote.ShardStore, nshards)
	for s := range sts {
		if sts[s], err = cl.Store(s); err != nil {
			return err
		}
	}
	g := cl.Geometry()
	leaves := uint64(g.Leaves())

	type job struct {
		t0    time.Time
		shard int
		leaf  oram.Leaf
	}
	jobs := make(chan job, 8192)
	pacer := loadgen.NewPacer(rate)
	go func() {
		defer close(jobs)
		deadline := time.Now().Add(window)
		for time.Now().Before(deadline) {
			pacer.Wait()
			leaf := oram.Leaf(keys.Next() % leaves)
			select {
			case jobs <- job{t0: time.Now(), shard: rng.Intn(nshards), leaf: leaf}:
			default:
				// The sender pool is hopelessly behind; drop the arrival
				// rather than block the schedule.
				rec.Observe(loadgen.Errored, 0)
			}
		}
	}()

	const senders = 48
	var wg sync.WaitGroup
	for w := 0; w < senders; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bufs := pathBufs(g)
			for j := range jobs {
				err := sts[j.shard].ReadPath(j.leaf, bufs)
				switch {
				case err == nil:
					rec.Observe(loadgen.OK, time.Since(j.t0))
				default:
					if _, ok := remote.AsOverloaded(err); ok {
						rec.Observe(loadgen.Shed, 0)
					} else {
						rec.Observe(loadgen.Errored, 0)
					}
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

// calibrateCapacity measures the throttled server's closed-loop capacity:
// `workers` connections issuing back-to-back path reads for the window,
// each against its own shard so no shard lock serialises the measurement.
func calibrateCapacity(nstores int, perShard uint64, blockSize, workers int, delay time.Duration, window time.Duration) (float64, error) {
	srv, addr, err := newOverloadServer(nstores, perShard, blockSize, workers, delay, remote.Limits{})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	counts := make([]int, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = func() error {
				cl, err := remote.Dial(addr)
				if err != nil {
					return err
				}
				defer cl.Close()
				st, err := cl.Store(i)
				if err != nil {
					return err
				}
				g := cl.Geometry()
				bufs := pathBufs(g)
				deadline := time.Now().Add(window)
				for time.Now().Before(deadline) {
					if err := st.ReadPath(0, bufs); err != nil {
						return err
					}
					counts[i]++
				}
				return nil
			}()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	total := 0
	for _, n := range counts {
		total += n
	}
	return float64(total) / elapsed.Seconds(), nil
}

// runOverloadRow measures one configuration.
func runOverloadRow(config string, aggressor bool, limits remote.Limits,
	nstores int, perShard uint64, blockSize, workers int, delay time.Duration,
	fairClients int, fairRate, aggrRate float64, window time.Duration, seed int64) (OverloadRow, error) {

	row := OverloadRow{Config: config, Aggressor: aggressor, OfferedFair: fairRate}
	conns := fairClients
	if aggressor {
		conns++
		row.OfferedAggr = aggrRate
	}
	srv, addr, err := newOverloadServer(nstores, perShard, blockSize, workers, delay, limits)
	if err != nil {
		return row, err
	}
	defer srv.Close()

	recs := make([]*loadgen.Recorder, conns)
	for i := range recs {
		recs[i] = &loadgen.Recorder{}
	}
	errs := make([]error, conns)
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < fairClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			keys := loadgen.Uniform(rand.New(rand.NewSource(seed+int64(i))), perShard)
			rng := rand.New(rand.NewSource(seed + 100 + int64(i)))
			errs[i] = overloadClient(addr, nstores, rng, fairRate, keys, window, recs[i])
		}(i)
	}
	if aggressor {
		ai := conns - 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The aggressor hammers a hot working set — the skewed-tenant
			// shape, though under ORAM every path read costs the same.
			keys := loadgen.Hotkey(rand.New(rand.NewSource(seed+999)), perShard, 8, 0.9)
			rng := rand.New(rand.NewSource(seed + 998))
			errs[ai] = overloadClient(addr, nstores, rng, aggrRate, keys, window, recs[ai])
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return row, err
		}
	}

	// Aggregate the well-behaved class.
	row.FairMinGoodput = -1
	var fairSent, fairShed int
	for i := 0; i < fairClients; i++ {
		s := recs[i].Stats(elapsed)
		row.FairGoodput += s.Goodput
		if row.FairMinGoodput < 0 || s.Goodput < row.FairMinGoodput {
			row.FairMinGoodput = s.Goodput
		}
		fairSent += s.Sent
		fairShed += s.Shed
	}
	row.FairP50, row.FairP95, row.FairP99 = pooledPercentiles(recs[:fairClients], elapsed)
	if fairSent > 0 {
		row.FairShedRate = float64(fairShed) / float64(fairSent)
	}
	if aggressor {
		s := recs[conns-1].Stats(elapsed)
		row.AggrGoodput = s.Goodput
		row.AggrShedRate = s.ShedRate()
	}
	st := srv.OverloadStats()
	row.Admitted, row.Shed = st.Admitted, st.Shed()
	return row, nil
}

// pooledPercentiles reports the class-wide latency percentiles as the
// worst member's percentiles — a conservative pooling that needs no
// raw-sample access. The well-behaved clients offer equal rates and get
// equal treatment, so their distributions coincide and the max is the
// pooled value; when they do NOT coincide, taking the max makes the 3x
// gate strictly harder to pass, never easier.
func pooledPercentiles(recs []*loadgen.Recorder, elapsed time.Duration) (p50, p95, p99 time.Duration) {
	for _, r := range recs {
		s := r.Stats(elapsed)
		if s.OK == 0 {
			continue
		}
		if s.P50 > p50 {
			p50 = s.P50
		}
		if s.P95 > p95 {
			p95 = s.P95
		}
		if s.P99 > p99 {
			p99 = s.P99
		}
	}
	return p50, p95, p99
}

// overloadIdentity runs the byte-transparency check: the same seed-42
// write/read sequence through shards {1,4} of (a) an unloaded, unlimited
// server and (b) a rate-limited server whose admission control sheds the
// client repeatedly (retried transparently in the lane), then compares
// every final read byte for byte.
func overloadIdentity(perShard uint64, blockSize, opsPer int, seed int64) (sheds uint64, identical bool, shards []int, err error) {
	shards = []int{1, 4}
	run := func(limits remote.Limits, cfg remote.Config) (map[int][][]byte, uint64, error) {
		g, err := overloadGeom(perShard, blockSize)
		if err != nil {
			return nil, 0, err
		}
		stores := make([]oram.Store, 5)
		for i := range stores {
			ps, err := oram.NewPayloadStore(g, nil)
			if err != nil {
				return nil, 0, err
			}
			stores[i] = ps
		}
		srv, err := remote.NewSharded(stores, 2, nil)
		if err != nil {
			return nil, 0, err
		}
		if err := srv.SetLimits(limits); err != nil {
			return nil, 0, err
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			return nil, 0, err
		}
		defer srv.Close()
		cl, err := remote.DialConfig(nil, addr, cfg)
		if err != nil {
			return nil, 0, err
		}
		defer cl.Close()
		finals := make(map[int][][]byte, len(shards))
		for _, shard := range shards {
			st, err := cl.Store(shard)
			if err != nil {
				return nil, 0, err
			}
			client, err := oram.NewClient(oram.ClientConfig{
				Store: st, Rand: trace.NewRNG(seed + int64(shard)),
				Evict: oram.PaperEvict, StashHits: true, Blocks: perShard,
			})
			if err != nil {
				return nil, 0, err
			}
			rng := trace.NewRNG(seed + 100 + int64(shard))
			pay := make([]byte, blockSize)
			ids := make([]oram.BlockID, opsPer)
			for k := 0; k < opsPer; k++ {
				id := oram.BlockID(rng.Int63n(int64(perShard)))
				ids[k] = id
				binary.LittleEndian.PutUint64(pay, uint64(id)^rng.Uint64())
				if err := client.Write(id, pay); err != nil {
					return nil, 0, fmt.Errorf("shard %d write %d: %w", shard, k, err)
				}
			}
			reads := make([][]byte, opsPer)
			for k, id := range ids {
				got, err := client.Read(id)
				if err != nil {
					return nil, 0, fmt.Errorf("shard %d read %d: %w", shard, k, err)
				}
				reads[k] = append([]byte(nil), got...)
			}
			finals[shard] = reads
		}
		return finals, srv.OverloadStats().Shed(), nil
	}

	want, baseSheds, err := run(remote.Limits{}, remote.Config{})
	if err != nil {
		return 0, false, shards, fmt.Errorf("unloaded run: %w", err)
	}
	if baseSheds != 0 {
		return 0, false, shards, fmt.Errorf("unloaded run shed %d requests", baseSheds)
	}
	// The loaded run: a tight per-connection rate with burst 1 sheds the
	// closed-loop ORAM client on most requests; ShedRetries absorbs them.
	got, sheds, err := run(
		remote.Limits{PerConnRate: 400, PerConnBurst: 1, Fair: true},
		remote.Config{ShedRetries: 64, RequestDeadline: 2 * time.Second},
	)
	if err != nil {
		return sheds, false, shards, fmt.Errorf("loaded run: %w", err)
	}
	identical = true
	for _, shard := range shards {
		if len(want[shard]) != len(got[shard]) {
			identical = false
			break
		}
		for k := range want[shard] {
			if !bytes.Equal(want[shard][k], got[shard][k]) {
				identical = false
			}
		}
	}
	return sheds, identical, shards, nil
}

// OverloadExp runs the serve-overload drill: capacity calibration, the
// three load rows, and the byte-transparency identity phase.
func OverloadExp(sc Scale, seed int64) (*OverloadResult, error) {
	const (
		perShard    = 1 << 9
		blockSize   = 64
		workers     = 2
		delay       = 60 * time.Microsecond
		fairClients = 4
		// nstores is deliberately much larger than the worker pool: requests
		// spread over 16 shards so two workers rarely collide on one shard's
		// lock, keeping the worker pool the contended resource.
		nstores = 16
	)
	window := 1200 * time.Millisecond
	opsPer := 60
	if sc.Accesses > 6000 { // beyond CI scale: longer windows, more ops
		window = 3 * time.Second
		opsPer = 200
	}

	res := &OverloadResult{Workers: workers, FairClients: fairClients}
	capacity, err := calibrateCapacity(nstores, perShard, blockSize, workers, delay, window/3)
	if err != nil {
		return nil, fmt.Errorf("overload calibrate: %w", err)
	}
	res.Capacity = capacity
	// Well-behaved clients each offer a tenth of capacity (0.4C total);
	// the aggressor offers full capacity — 10x one fair client, 1.4C
	// total: sustained overload, caused by one tenant.
	fairRate := capacity / 10
	aggrRate := capacity

	// Fair queueing with a small per-connection queue bound and NO global
	// in-flight budget: a global budget is first-come-first-served, so a
	// flooding tenant would win it and well-behaved clients would be shed
	// at the gate — the opposite of fairness. Per-connection queues let
	// every client in; the DRR ring then divides workers evenly, and only
	// the tenant whose own queue overflows gets shed.
	fairLimits := remote.Limits{Fair: true, MaxQueuePerConn: 16}
	rows := []struct {
		config    string
		aggressor bool
		limits    remote.Limits
	}{
		{"baseline", false, fairLimits},
		{"fifo", true, remote.Limits{}},
		{"fair", true, fairLimits},
	}
	for _, r := range rows {
		row, err := runOverloadRow(r.config, r.aggressor, r.limits,
			nstores, perShard, blockSize, workers, delay, fairClients, fairRate, aggrRate, window, seed)
		if err != nil {
			return nil, fmt.Errorf("overload %s: %w", r.config, err)
		}
		res.Rows = append(res.Rows, row)
	}

	sheds, identical, shards, err := overloadIdentity(perShard, blockSize, opsPer, 42)
	if err != nil {
		return nil, fmt.Errorf("overload identity: %w", err)
	}
	res.IdentitySheds = sheds
	res.IdentityIdentical = identical
	res.IdentityShards = shards
	return res, nil
}

// Render formats the drill.
func (r *OverloadResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("Serve-overload — admission control & fair queueing (capacity %.0f req/s, %d workers, %d fair clients)",
			r.Capacity, r.Workers, r.FairClients),
		Headers: []string{"config", "aggr", "offered/fair", "fair good", "fair min", "p50", "p95", "p99", "fair shed", "aggr good", "aggr shed", "server shed"},
	}
	for _, row := range r.Rows {
		aggr := "-"
		if row.Aggressor {
			aggr = "10x"
		}
		t.AddRow(row.Config, aggr,
			f2(row.OfferedFair),
			f2(row.FairGoodput), f2(row.FairMinGoodput),
			row.FairP50.Round(time.Microsecond).String(),
			row.FairP95.Round(time.Microsecond).String(),
			row.FairP99.Round(time.Microsecond).String(),
			fmt.Sprintf("%.1f%%", row.FairShedRate*100),
			f2(row.AggrGoodput),
			fmt.Sprintf("%.1f%%", row.AggrShedRate*100),
			fmt.Sprintf("%d", row.Shed),
		)
	}
	t.AddNote("baseline = 4 well-behaved clients alone; fifo = +aggressor, no admission; fair = +aggressor, fair queueing + bounded queues")
	t.AddNote("latency measured from the scheduled arrival slot (open-loop): queueing delay is not omitted")
	t.AddNote("identity: shards %v under forced sheds (%d server sheds) byte-identical to unloaded seed-42 run = %v",
		r.IdentityShards, r.IdentitySheds, r.IdentityIdentical)
	return t.Render()
}
