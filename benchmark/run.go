package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	laoram "repro"
	"repro/internal/crypto"
)

// A run goes through the same phases on every workload:
//
//	set-up   New (+ nodes, dial, arena) + bulk load, until the first op can run
//	count    a fixed amount of work: warms the instance and yields the counts
//	measure  timed, for the requested seconds
//	verify   untimed: outputs against a reference kept outside the program
//	close
//
// The untraced run repeats set-up (fresh instances, the earlier ones closed)
// and reports the median. The traced run sets up twice — once through the
// public API, once through the traced twin — checks that both did identical
// work in the count phase, and measures each for half the time.

// setupsPerRun is how many times an untraced run sets the system up.
const setupsPerRun = 3

// chunksPerWindow sizes a train-* step: a window is this many chunks of
// visitor calls, whatever the window size of the workload.
const chunksPerWindow = 32

// runConfig is one invocation's parameters.
type runConfig struct {
	w       workload
	seed    int64
	measure time.Duration // length of the measured phase
	traced  bool
	spans   io.Writer // traced runs write their spans here when non-nil
}

// outcome is what a run hands to main: the contract's result plus the notes
// printed above it.
type outcome struct {
	attempted uint64
	failed    uint64
	metrics   metrics
	notes     []string
}

// identity is the work an instance did in the count phase, in the counters
// that must not depend on timing. The traced twin must reproduce it exactly.
type identity struct {
	ops, windows                      uint64
	accesses, pathReads, pathWrites   uint64
	dummyReads, stashHits, bytesMoved uint64
	stashPeak                         int
	positionBytes, serverBytes        int64
	session                           laoram.SessionStats
}

func identityOf(st laoram.Stats, ops uint64, ts *laoram.TrainStats) identity {
	id := identity{
		ops: ops, accesses: st.Accesses, pathReads: st.PathReads, pathWrites: st.PathWrites,
		dummyReads: st.DummyReads, stashHits: st.StashHits, bytesMoved: st.BytesMoved,
		stashPeak: st.StashPeak, positionBytes: st.PositionBytes, serverBytes: st.ServerBytes,
	}
	if ts != nil {
		id.windows, id.session = uint64(ts.Windows), ts.Session
	}
	return id
}

// phases is what one instance's run yields, whichever workload drove it.
type phases struct {
	newS, loadS, warmupS, closeS float64

	count identity // fixed phase

	// measured phase
	ops      uint64 // stream indices trained, or keys looked up
	wall     time.Duration
	steps    []float64 // ms per chunk or per request
	stats    laoram.Stats
	train    *laoram.TrainStats // nil on lookup-remote
	mem      memDelta
	from, to int64 // tracer clock at the phase's ends (traced runs)
	visitNs  int64 // time inside the benchmark's visitor (traced runs)
	admitted uint64
	shed     uint64

	checked, failed uint64

	budgetBytes, arenaBytes int64
}

type memDelta struct {
	mallocs, bytes uint64
	gcPause        time.Duration
}

// measureMem brackets f with allocation counters. The collection before it
// keeps set-up garbage out of the measured phase.
func measureMem(f func() error) (memDelta, error) {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	err := f()
	runtime.ReadMemStats(&b)
	return memDelta{b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, time.Duration(b.PauseTotalNs - a.PauseTotalNs)}, err
}

// driver sets one instance up, takes it through the phases and closes it.
// measure == 0 is a set-up repetition: set-up and the count phase's first
// step only. tr == nil is the untraced run.
type driver func(measure time.Duration, tr *tracer) (*phases, error)

// pass is one instance's way through the phases.
type pass struct {
	cfg     runConfig
	stream  []uint64 // train-*: the run's pre-generated stream
	in      *instance
	ph      *phases
	t0      time.Time // start of set-up
	measure time.Duration
	tr      *tracer
}

func (e *env) run(ctx context.Context, cfg runConfig) (*outcome, error) {
	var stream []uint64
	if cfg.w.train() {
		var err error
		if stream, err = cfg.w.trainStream(cfg.seed, cfg.measure); err != nil {
			return nil, err
		}
	}
	// Set-up and close are the same on every workload: open under a
	// laoram.new span, take the instance through the workload's phases, close
	// under a laoram.close span whatever they returned.
	drive := func(measure time.Duration, tr *tracer) (*phases, error) {
		p := &pass{cfg: cfg, stream: stream, ph: &phases{}, t0: time.Now(), measure: measure, tr: tr}
		root := tr.begin(spanNew)
		in, err := e.open(ctx, cfg.w, cfg.seed, tr)
		if err != nil {
			return nil, err
		}
		tr.end(root)
		p.in = in
		p.ph.newS = time.Since(p.t0).Seconds()
		p.ph.budgetBytes, p.ph.arenaBytes = in.budgetBytes, in.arenaBytes
		if cfg.w.train() {
			err = p.train(ctx)
		} else {
			err = p.lookup()
		}
		t := time.Now()
		root = tr.begin(spanClose)
		cerr := in.close()
		tr.end(root)
		p.ph.closeS = time.Since(t).Seconds()
		if err == nil {
			err = cerr
		}
		return p.ph, err
	}
	if cfg.traced {
		return runTraced(cfg, drive)
	}

	// Set-up is repeated on fresh instances; the earlier ones do the count
	// phase's first step only and are closed before the next is built.
	var setups []float64
	var ph *phases
	for i := 0; i < setupsPerRun; i++ {
		measure := time.Duration(0)
		if i == setupsPerRun-1 {
			measure = cfg.measure
		}
		p, err := drive(measure, nil)
		if err != nil {
			return nil, err
		}
		setups = append(setups, p.newS+p.loadS)
		ph = p
		runtime.GC()
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	steps := summariseSteps(ph.steps)
	out := &outcome{
		attempted: ph.ops + ph.checked,
		failed:    ph.failed,
		metrics: metrics{
			"setup_s":            median(setups),
			"ops_per_s":          ratio(float64(ph.ops), ph.wall.Seconds()),
			"step_ms_p50":        steps.p50,
			"path_reads_per_op":  ratio(float64(ph.count.pathReads), float64(ph.count.ops)),
			"bytes_moved_per_op": ratio(float64(ph.count.bytesMoved), float64(ph.count.ops)),
			"peak_rss_mb":        rss,
		},
	}
	out.notes = append(out.notes,
		fmt.Sprintf("set-ups %.4v s; count phase %d ops; measured %d ops in %.3f s; %d steps; %d rows verified, %d failures",
			setups, ph.count.ops, ph.ops, ph.wall.Seconds(), steps.samples, ph.checked, ph.failed))
	return out, nil
}

// runTraced is the --trace 1 run: the public assembly as the reference, the
// traced twin for the per-layer numbers.
func runTraced(cfg runConfig, drive driver) (*outcome, error) {
	half := cfg.measure / 2
	ref, err := drive(half, nil)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	runtime.GC()
	tr := newTracer()
	ph, err := drive(half, tr)
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if cfg.spans != nil {
		if err := tr.writeSpans(cfg.spans); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	out := &outcome{attempted: ph.ops + ph.checked, failed: ph.failed + ref.failed, metrics: metrics{}}
	if ref.count != ph.count {
		// The twin took a different path through the engine than the public
		// assembly: its per-layer numbers would describe another program.
		out.failed++
		out.notes = append(out.notes, fmt.Sprintf("IDENTITY MISMATCH\n  public: %+v\n  traced: %+v", ref.count, ph.count))
	}

	w := cfg.w
	m := out.metrics
	for _, d := range perLayer {
		m[d.name] = 0
	}
	ops := float64(ph.ops)
	steps := summariseSteps(ph.steps)
	m["laoram.new_s"], m["laoram.load_s"] = ph.newS, ph.loadS
	m["laoram.warmup_s"], m["laoram.close_s"] = ph.warmupS, ph.closeS
	m["laoram.visit_s"] = time.Duration(ph.visitNs).Seconds()
	m["laoram.allocs_per_op"] = ratio(float64(ph.mem.mallocs), ops)
	m["laoram.alloc_bytes_per_op"] = ratio(float64(ph.mem.bytes), ops)
	m["laoram.gc_pause_ms"] = float64(ph.mem.gcPause) / 1e6
	m["laoram.step_ms_p95"] = steps.p95
	m["laoram.step_ms_tail"], m["laoram.step_tail_pct"], m["laoram.step_samples"] = steps.tail, steps.tailPct, float64(steps.samples)

	// Lane time is what the lanes had to spend: both lanes for the whole
	// of window execution, or of the request loop.
	laneTime := shards * ph.wall
	if ts := ph.train; ts != nil {
		laneTime = shards * ts.TrainTime
		m["batch.exec_s"], m["batch.plan_s"] = ts.TrainTime.Seconds(), ts.PlanTime.Seconds()
		m["batch.trainer_stalled_s"], m["batch.trainer_stalls"] = ts.TrainerStalled.Seconds(), float64(ts.TrainerStalls)
		m["batch.planner_stalled_s"], m["batch.plan_queue_mean"] = ts.PlannerStalled.Seconds(), ts.PlanQueueMean
		m["batch.windows"] = float64(ts.Windows)
		m["shard.bins"] = float64(ts.Session.Bins)
		m["shard.ops_per_bin"] = ratio(ops, float64(ts.Session.Bins))
		m["shard.cold_path_reads"] = float64(ts.Session.ColdPathReads)
		m["shard.lookahead_remap_share"] = ratio(float64(ts.Session.LookaheadRemaps), float64(ts.Session.LookaheadRemaps+ts.Session.UniformRemaps))
	}
	st := ph.stats
	m["oram.path_reads"], m["oram.path_writes"] = float64(st.PathReads), float64(st.PathWrites)
	m["oram.dummy_reads"], m["oram.stash_hits"] = float64(st.DummyReads), float64(st.StashHits)
	m["oram.stash_peak"], m["oram.position_bytes"] = float64(st.StashPeak), float64(st.PositionBytes)

	client := tr.totals(seamClient, ph.from, ph.to)
	m["oram.store_calls"] = float64(client.calls)
	m["oram.store_slots_read"], m["oram.store_slots_written"] = float64(client.slotsRead), float64(client.slotsWritten)
	m["oram.client_busy_s"] = (laneTime - client.busy - time.Duration(ph.visitNs)).Seconds()
	switch {
	case w.nodes > 0:
		server := tr.totals(seamServer, ph.from, ph.to)
		callMs := tr.callMs(seamClient, ph.from, ph.to)
		m["remote.client_calls"], m["remote.calls_per_op"] = float64(client.calls), ratio(float64(client.calls), ops)
		m["remote.client_call_s"] = client.busy.Seconds()
		m["remote.call_ms_p50"], m["remote.call_ms_p99"] = percentile(callMs, 50), percentile(callMs, 99)
		m["remote.server_store_s"] = server.busy.Seconds()
		m["remote.wire_s"] = (client.busy - server.busy).Seconds()
		m["remote.admitted"], m["remote.shed"] = float64(ph.admitted), float64(ph.shed)
	case w.disk:
		m["diskstore.store_s"] = client.busy.Seconds()
		m["diskstore.demand_stall_s"] = st.TierStallSeconds
		m["diskstore.hits"], m["diskstore.misses"] = float64(st.TierHits), float64(st.TierMisses)
		m["diskstore.hit_ratio"] = ratio(float64(st.TierHits), float64(st.TierHits+st.TierMisses))
		m["diskstore.prefetch_issued"] = float64(st.TierPrefetchIssued)
		m["diskstore.prefetch_useful_ratio"] = ratio(float64(st.TierPrefetchUseful), float64(st.TierPrefetchIssued))
		m["diskstore.arena_bytes"], m["diskstore.budget_bytes"] = float64(ph.arenaBytes), float64(ph.budgetBytes)
	default:
		m["oram.store_s"] = client.busy.Seconds()
	}
	if w.encrypt {
		sealNs, openNs, err := cryptoDrill(w.blockSize, cfg.seed)
		if err != nil {
			return nil, err
		}
		// Only slots that hold a row are opened or sealed.
		est := time.Duration(float64(client.rowsRead)*openNs + float64(client.rowsWritten)*sealNs)
		m["crypto.seal_ns_per_slot"], m["crypto.open_ns_per_slot"] = sealNs, openNs
		m["crypto.est_s"] = est.Seconds()
		m["crypto.est_share"] = ratio(est.Seconds(), laneTime.Seconds())
	}
	m["trace.spans"] = float64(tr.spanCount())
	refRate, tracedRate := ratio(float64(ref.ops), ref.wall.Seconds()), ratio(ops, ph.wall.Seconds())
	m["trace.overhead_pct"] = 100 * (ratio(refRate, tracedRate) - 1)
	out.notes = append(out.notes,
		fmt.Sprintf("public %.1f ops/s, traced %.1f ops/s over %.3f s; lane time %.3f s; %d rows verified, %d failures",
			refRate, tracedRate, ph.wall.Seconds(), laneTime.Seconds(), ph.checked+ref.checked, out.failed))
	return out, nil
}

// cryptoDrill times the sealer on its own at the workload's block size:
// what one slot costs to seal and to open, outside the engine.
func cryptoDrill(blockSize int, seed int64) (sealNs, openNs float64, err error) {
	s, err := crypto.NewSealer(sealKey(seed))
	if err != nil {
		return 0, 0, err
	}
	const rounds = 2000
	plain := make([]byte, blockSize)
	fillRow(plain, uint64(seed), 0)
	sealed := make([]byte, s.SealedSize(blockSize))
	t := time.Now()
	for i := 0; i < rounds; i++ {
		if err := s.SealTo(sealed, plain); err != nil {
			return 0, 0, err
		}
	}
	sealNs = float64(time.Since(t)) / rounds
	t = time.Now()
	for i := 0; i < rounds; i++ {
		if err := s.OpenTo(plain, sealed); err != nil {
			return 0, 0, err
		}
	}
	return sealNs, float64(time.Since(t)) / rounds, nil
}

// windowSource feeds whole look-ahead windows of a pre-generated stream for a
// fixed time. The planner asks for indices planDepth+1 windows ahead of
// execution, and everything fed is trained, so feeding has to stop that many
// windows before the end: the source paces itself by how often it is asked
// for a window, and reports the end of the stream at the first window
// boundary from which the windows still queued would overrun. The run's op
// count is what Train reports.
type windowSource struct {
	ids    []uint64
	window int
	end    time.Time // when the measured phase should be over
	pos    int

	fed       int       // windows handed out
	paceStart time.Time // when window planDepth+1 was asked for: from there on, one request per executed window
}

func (s *windowSource) Read(ctx context.Context, dst []uint64) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if s.pos%s.window == 0 {
		if s.pos+s.window > len(s.ids) {
			return 0, io.EOF
		}
		const ahead = planDepth + 1
		now := time.Now()
		if s.fed == ahead {
			s.paceStart = now
		} else if s.fed > ahead {
			pace := now.Sub(s.paceStart) / time.Duration(s.fed-ahead)
			// This window would finish ahead+1 windows from now; on
			// average a request comes half a window before the deadline
			// test could first fail.
			if now.Add(ahead*pace + pace/2).After(s.end) {
				return 0, io.EOF
			}
		}
		s.fed++
	}
	windowEnd := (s.pos/s.window + 1) * s.window
	n := copy(dst, s.ids[s.pos:windowEnd])
	s.pos += n
	return n, nil
}

// trainRun is the state the visitor shares with the driver loop for one
// instance.
type trainRun struct {
	w        workload
	st       *stamper
	badStamp atomic.Uint64 // rows whose id stamp was wrong when visited

	tr       *tracer
	loadOpen atomic.Bool // the load root is still open: the first visit closes it
	loadRoot int32
	warmRoot int32
	lanes    [shards]struct {
		row     []byte
		visitNs int64
	}
}

// perLane is TrainOptions.PerLane: the training update. It checks the row's
// id stamp, bumps its visit counter and hands the row back, counting the
// call for the chunk stamps.
func (r *trainRun) perLane(lane int) laoram.Visit {
	l := &r.lanes[lane]
	if l.row == nil {
		l.row = make([]byte, r.w.blockSize)
	}
	update := func(id uint64, row []byte) []byte {
		copy(l.row, row)
		if binary.LittleEndian.Uint64(l.row) != id {
			r.badStamp.Add(1)
		}
		binary.LittleEndian.PutUint64(l.row[8:], binary.LittleEndian.Uint64(l.row[8:])+1)
		r.st.visit()
		return l.row
	}
	if r.tr == nil {
		return update
	}
	return func(id uint64, row []byte) []byte {
		t := r.tr.now()
		if r.loadOpen.Load() && r.loadOpen.CompareAndSwap(true, false) {
			// The bulk load is over when the first row is visited.
			r.tr.end(r.loadRoot)
			r.warmRoot = r.tr.begin(spanWarmup)
		}
		out := update(id, row)
		l.visitNs += r.tr.now() - t
		return out
	}
}

func (r *trainRun) visitNs() int64 {
	var n int64
	for i := range r.lanes {
		n += r.lanes[i].visitNs
	}
	return n
}

// train takes the set-up instance through a train-* run. A set-up repetition
// (measure == 0) trains the first window only: its load pre-places exactly the
// rows the full run's load does.
func (p *pass) train(ctx context.Context) error {
	w, stream, in, ph, tr := p.cfg.w, p.stream, p.in, p.ph, p.tr
	countOps := w.countWindows * w.window
	if p.measure == 0 {
		countOps = w.window
	}
	r := &trainRun{w: w, tr: tr, st: newStamper(w.window/chunksPerWindow, len(stream))}
	opts := laoram.TrainOptions{
		Superblock: superblock,
		Window:     w.window,
		Depth:      planDepth,
		BatchBins:  w.batchBins,
		PerLane:    r.perLane,
	}

	// Bulk load + count phase: one Train call, as a user would start. The
	// load's share is the call's elapsed time minus the run's own wall; the
	// first visit ends the load span and opens the warm-up span.
	r.loadRoot = tr.begin(spanLoad)
	r.loadOpen.Store(true)
	load := opts
	load.Source, load.PrePlace, load.Payload = laoram.FromSlice(stream[:countOps]), true, w.initRow
	ts, err := in.db.Train(ctx, load)
	if err != nil {
		return fmt.Errorf("load + count phase: %w", err)
	}
	tr.end(r.warmRoot)
	ph.loadS = (time.Since(p.t0) - ts.WallTime).Seconds() - ph.newS
	ph.warmupS = ts.WallTime.Seconds()
	ph.count = identityOf(in.db.Stats(), ts.Accesses, ts)
	if p.measure == 0 {
		return nil
	}

	in.db.ResetStats()
	src := &windowSource{ids: stream[countOps:], window: w.window}
	run := opts
	run.Source = src
	visit0 := r.visitNs()
	admitted0, shed0 := in.overload()
	r.st.begin()
	root := tr.begin(spanTrain)
	ph.from = tr.now()
	ph.mem, err = measureMem(func() error {
		src.end = time.Now().Add(p.measure)
		ph.train, err = in.db.Train(ctx, run)
		return err
	})
	if err != nil {
		return fmt.Errorf("measured phase: %w", err)
	}
	ph.to = tr.now()
	tr.end(root)
	ph.ops, ph.wall = ph.train.Accesses, ph.train.WallTime
	ph.steps = r.st.chunkMs()
	ph.stats = in.db.Stats()
	ph.visitNs = r.visitNs() - visit0
	ph.admitted, ph.shed = in.overload()
	ph.admitted -= admitted0
	ph.shed -= shed0

	consumed := stream[:countOps+int(ph.ops)]
	ph.checked, ph.failed, err = verifyTraining(in.db, w, p.cfg.seed, consumed, r.st.calls.Load(), ph.count.accesses+ph.stats.Accesses)
	if err != nil {
		return fmt.Errorf("verify: %w", err)
	}
	ph.failed += r.badStamp.Load()
	return nil
}

// verifyTraining checks the trained table against the reference model of the
// stream the instance consumed: the visitor was called as often as the model
// says and as the engine counted, and a seed-chosen sample of rows — half
// taken from the stream, half from anywhere in the table, so untouched rows
// are among them — reads back with its id stamp, filler and exact visit
// count.
func verifyTraining(db target, w workload, seed int64, consumed []uint64, visitorCalls, engineVisits uint64) (checked, failed uint64, err error) {
	visits := make([]uint32, w.entries)
	want := visitModel(consumed, w.window, visits)
	if visitorCalls != want {
		failed++
	}
	if engineVisits != want {
		failed++
	}
	const sample, batchSize = 2048, 256
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	picked := make(map[uint64]bool, sample)
	ids := make([]uint64, 0, sample)
	for len(ids) < min(sample, int(w.entries)/2) {
		id := uint64(rng.Int63n(int64(w.entries)))
		if rng.Intn(2) == 0 {
			id = consumed[rng.Intn(len(consumed))]
		}
		if !picked[id] {
			picked[id] = true
			ids = append(ids, id)
		}
	}
	for lo := 0; lo < len(ids); lo += batchSize {
		batch := ids[lo:min(lo+batchSize, len(ids))]
		rows, err := db.ReadBatch(batch)
		if err != nil {
			return checked, failed, err
		}
		for i, id := range batch {
			checked++
			if !checkRow(rows[i], id, uint64(visits[id])) {
				failed++
			}
		}
	}
	return checked, failed, nil
}

// lookup takes the set-up instance through lookup-remote: bulk Load, then
// closed-loop point requests, each a ReadBatch or a WriteBatch of distinct
// uniform keys, checked against a shadow of what was written.
func (p *pass) lookup() error {
	w, in, ph, tr := p.cfg.w, p.in, p.ph, p.tr
	root := tr.begin(spanLoad)
	if err := in.db.Load(w.entries, w.initRow); err != nil {
		return fmt.Errorf("load: %w", err)
	}
	tr.end(root)
	ph.loadS = time.Since(p.t0).Seconds() - ph.newS
	if p.measure == 0 {
		return nil
	}

	in.db.ResetStats()
	gen := newRequestGen(w, p.cfg.seed)
	version := make(map[uint64]uint64) // shadow: the version last written to a row
	bufs := make([][]byte, w.keysPerReq)
	for i := range bufs {
		bufs[i] = make([]byte, w.blockSize)
	}
	// check compares rows read back with the shadow (read-your-writes).
	check := func(ids []uint64, rows [][]byte) {
		for i, id := range ids {
			ph.checked++
			if !checkRow(rows[i], id, version[id]) {
				ph.failed++
			}
		}
	}
	var written uint64
	// do runs one request and returns its latency, send to return.
	do := func() (time.Duration, error) {
		req := gen.next()
		if req.write {
			written++
			for i, id := range req.ids {
				fillRow(bufs[i], id, written)
				version[id] = written
			}
			t := time.Now()
			err := in.db.WriteBatch(req.ids, bufs)
			return time.Since(t), err
		}
		t := time.Now()
		rows, err := in.db.ReadBatch(req.ids)
		d := time.Since(t)
		if err == nil {
			check(req.ids, rows)
		}
		return d, err
	}

	root = tr.begin(spanWarmup)
	t := time.Now()
	for i := 0; i < w.countReqs; i++ {
		if _, err := do(); err != nil {
			return fmt.Errorf("count phase: %w", err)
		}
	}
	ph.warmupS = time.Since(t).Seconds()
	tr.end(root)
	ph.count = identityOf(in.db.Stats(), uint64(w.countReqs*w.keysPerReq), nil)
	in.db.ResetStats()

	admitted0, shed0 := in.overload()
	ph.from = tr.now()
	var err error
	ph.mem, err = measureMem(func() error {
		start := time.Now()
		for time.Since(start) < p.measure {
			root := tr.begin(spanRequest)
			d, err := do()
			tr.end(root)
			if err != nil {
				return err
			}
			ph.steps = append(ph.steps, float64(d)/1e6)
		}
		ph.wall = time.Since(start)
		return nil
	})
	if err != nil {
		return fmt.Errorf("measured phase: %w", err)
	}
	ph.to = tr.now()
	ph.ops = uint64(len(ph.steps) * w.keysPerReq)
	ph.stats = in.db.Stats()
	ph.admitted, ph.shed = in.overload()
	ph.admitted -= admitted0
	ph.shed -= shed0

	// Over the whole run: a sample of rows, written or not, must hold the
	// last version written.
	sample := newRequestGen(w, p.cfg.seed^0x5eed)
	for n := 0; n < 1024; n += w.keysPerReq {
		ids := sample.next().ids
		rows, err := in.db.ReadBatch(ids)
		if err != nil {
			return fmt.Errorf("verify: %w", err)
		}
		check(ids, rows)
	}
	return nil
}
