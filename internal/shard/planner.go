package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"
)

// Source is a pull-based stream of upcoming embedding indices — the
// incremental form of the []uint64 access stream the one-shot Preprocess
// takes. Read fills dst with the next indices of the training order and
// returns how many it wrote; it returns io.EOF (possibly alongside n > 0)
// when the stream ends. Read must block until it can deliver at least one
// index, the stream ends, or ctx is cancelled; blocking sources (channels,
// sockets, dataset loaders) must honour ctx and return ctx.Err().
//
// The public package wraps this as laoram.IndexSource, with adapters for
// slices, synthetic traces and channels.
type Source interface {
	Read(ctx context.Context, dst []uint64) (n int, err error)
}

// PlannerConfig drives the incremental preprocessor.
type PlannerConfig struct {
	// S is the superblock size (§IV-B).
	S int
	// Window is the number of global accesses per planning window, the
	// unit of execution. 0 means one window spanning the entire stream —
	// the one-shot Preprocess shape, byte-identical to it by construction.
	// A positive Window must be >= S.
	Window int
	// Depth is the look-ahead in windows (>= 1): a window is released once
	// the Depth windows after it are binned (or the stream has ended), and
	// a block leaving its last bin of the window is remapped to its next
	// bin in those. Depth 2 double-buffers — the planner works on window k+1
	// while the trainer executes window k.
	Depth int
	// StartWindow offsets the absolute window index of the first planned
	// window. A recovery that rewinds the source to the boundary of window
	// B resumes planning with StartWindow = B, so every window keeps the
	// absolute index — and therefore the deterministic plan seed
	// planSeed(s, win, salt) — it had in the unfaulted run.
	StartWindow int
	// Warm is how many windows before StartWindow the source delivers
	// first (at most StartWindow). The planner bins them and releases none,
	// so a run resumed at StartWindow holds the windows the run it resumes
	// held there, and marks the same donors.
	Warm int
	// Salts, one per shard (nil is all 0), are mixed into every window's
	// plan seed. A training run passes the engine's PlanSalts as they read
	// when the run began, and passes the same salts again on a recovery
	// restart, so a resumed window draws the leaves it drew unfaulted
	// while a later run draws fresh ones.
	Salts []uint64
	// Place makes the first released window's Plan carry the pre-placement
	// table LoadForPlan loads from: each block's first bin in any window
	// held at that release.
	Place bool
}

func (c PlannerConfig) validate() error {
	if c.S < 1 {
		return fmt.Errorf("shard: planner S must be >= 1, got %d", c.S)
	}
	if c.Window < 0 {
		return fmt.Errorf("shard: planner Window must be >= 0, got %d", c.Window)
	}
	if c.Window > 0 && c.Window < c.S {
		return fmt.Errorf("shard: planner Window %d must be >= S %d", c.Window, c.S)
	}
	if c.Depth < 1 {
		return fmt.Errorf("shard: planner Depth must be >= 1, got %d", c.Depth)
	}
	if c.StartWindow < 0 {
		return fmt.Errorf("shard: planner StartWindow must be >= 0, got %d", c.StartWindow)
	}
	if c.Warm < 0 || c.Warm > c.StartWindow {
		return fmt.Errorf("shard: planner Warm must be in 0..StartWindow %d, got %d", c.StartWindow, c.Warm)
	}
	return nil
}

// PlannedWindow is one preprocessed look-ahead window: a sharded Plan over
// the window's slice of the stream, ready for a Session.
type PlannedWindow struct {
	// Index is the window's position in stream order (0-based).
	Index int
	// Accesses is how many stream indices the window covers.
	Accesses int
	// Plan is the per-shard superblock plan of the window.
	Plan *Plan
	// PlanTime is the wall time spent scanning and binning the window
	// (the paper's stage-1 cost; it overlaps stage-2 execution).
	PlanTime time.Duration
}

// Planner is the incremental §IV-B preprocessor: it scans a Source window
// by window and emits per-shard Plans on a bounded queue, so planning of
// window k+1 overlaps execution of window k (the paper's §VIII-A two-stage
// pipeline, sharded). Plan building only reads engine geometry — never
// client state — so it is safe to run concurrently with Session execution
// on the same Engine.
//
// The queue is the planner's own list of held windows, binned into one
// superblock.Horizon ring per shard: window k is released — its plan built
// from the rings, its next leaves reaching windows k+1..k+Depth, and
// offered on the unbuffered channel — once those are binned or the stream
// has ended. A released plan shares nothing with the rings and is never
// written again.
//
// Window w of shard s draws its bin paths from the deterministic seed
// planSeed(s, w, salt); window 0 at salt 0 uses exactly the one-shot
// Preprocess seeds, so a placing Planner with Window = 0 and no salts
// reproduces Engine.Preprocess byte-identically.
type Planner struct {
	e   *Engine
	src Source
	cfg PlannerConfig

	ch      chan PlannedWindow
	started bool
	err     error // written before ch closes; read after it closes

	// ready is how many binned windows wait behind the one on offer (all
	// held windows while none is): at most Depth.
	ready atomic.Int64
	// enqStalledNs accumulates the time the planning goroutine spent
	// blocked handing finished windows to the full queue — backpressure,
	// i.e. training (not planning) is the pipeline bottleneck. Atomic
	// because the consumer may read it (via Stats) while planning runs.
	enqStalledNs atomic.Int64
}

// PlannerStats are the planner-side pipeline counters.
type PlannerStats struct {
	// EnqueueStalled is how long the planner was blocked on the full
	// window queue: ≈ 0 when the trainer keeps up with planning, large
	// when planning runs far ahead and Depth is the limiter (the healthy
	// pipeline regime — backpressure on the cheap stage).
	EnqueueStalled time.Duration
}

// Stats returns a snapshot of the planner-side counters. Safe to call at
// any time; for totals, read it after the window channel has closed.
func (p *Planner) Stats() PlannerStats {
	return PlannerStats{EnqueueStalled: time.Duration(p.enqStalledNs.Load())}
}

// Ready returns how many binned windows wait behind the one on offer,
// those held for the horizon included (0..Depth). Safe to call at any time.
func (p *Planner) Ready() int { return int(p.ready.Load()) }

// NewPlanner validates cfg and prepares a Planner over src.
func (e *Engine) NewPlanner(src Source, cfg PlannerConfig) (*Planner, error) {
	if src == nil {
		return nil, fmt.Errorf("shard: planner Source is required")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.Salts != nil && len(cfg.Salts) != e.n {
		return nil, fmt.Errorf("shard: planner has %d salts for %d shards", len(cfg.Salts), e.n)
	}
	// Unbuffered: the held windows are the queue, so Depth bounds it alone.
	return &Planner{e: e, src: src, cfg: cfg, ch: make(chan PlannedWindow)}, nil
}

// Start launches the planning goroutine and returns the bounded window
// queue. The channel closes when the stream ends, the context is cancelled
// or planning fails; call Err afterwards to distinguish. Start may be
// called once.
func (p *Planner) Start(ctx context.Context) (<-chan PlannedWindow, error) {
	if p.started {
		return nil, fmt.Errorf("shard: planner already started")
	}
	p.started = true
	go p.run(ctx)
	return p.ch, nil
}

// Err reports why the window queue closed: nil at end of stream, ctx.Err()
// after cancellation, or the scan/source error. Valid only after the
// channel returned by Start has closed.
func (p *Planner) Err() error { return p.err }

// readChunk is the Source fill granularity when windows are unbounded.
const readChunk = 1 << 16

// run scans the source window by window, binning each into the horizon and
// releasing the oldest once Depth windows are binned behind it (or the stream
// ends). The window buffer is reused: binning copies ids into the rings.
func (p *Planner) run(ctx context.Context) {
	defer close(p.ch)
	var buf []uint64
	if p.cfg.Window > 0 {
		buf = make([]uint64, 0, p.cfg.Window)
	}
	h, err := p.e.newHorizon(p.cfg.S)
	if err != nil {
		p.err = err
		return
	}
	h.salts, h.place = p.cfg.Salts, p.cfg.Place
	for win := p.cfg.StartWindow - p.cfg.Warm; ; win++ {
		ids, eof, err := p.fillWindow(ctx, buf[:0])
		if err != nil {
			p.err = err
			return
		}
		if len(ids) > 0 {
			if err := h.bin(ids, win); err != nil {
				p.err = fmt.Errorf("shard: planner window %d: %w", win, err)
				return
			}
		}
		buf = ids
		for len(h.held) > p.cfg.Depth || (eof && len(h.held) > 0) {
			if err := p.release(ctx, h); err != nil {
				p.err = err
				return
			}
		}
		p.ready.Store(int64(len(h.held)))
		if eof {
			return
		}
	}
}

// release builds the oldest held window's plan from the horizon and hands
// it to the consumer; a warm window's is dropped. The plan is the prefetch
// oracle: tiered stores are hinted now, one window ahead of its execution,
// so the hints neither queue up Depth windows deep nor arrive after the
// lane.
func (p *Planner) release(ctx context.Context, h *horizon) error {
	w := h.release()
	if w.Index < p.cfg.StartWindow {
		return nil
	}
	start := time.Now()
	p.e.prefetchPlan(w.Plan)
	w.PlanTime += time.Since(start)
	p.ready.Store(int64(len(h.held)))
	enqStart := time.Now()
	select {
	case p.ch <- w:
	case <-ctx.Done():
		return ctx.Err()
	}
	p.enqStalledNs.Add(time.Since(enqStart).Nanoseconds())
	return nil
}

// fillWindow reads up to one window of indices into dst (growing it for
// unbounded windows), reporting whether the stream ended.
func (p *Planner) fillWindow(ctx context.Context, dst []uint64) (ids []uint64, eof bool, err error) {
	limit := p.cfg.Window
	for limit == 0 || len(dst) < limit {
		want := readChunk
		if limit > 0 {
			want = limit - len(dst)
		}
		if cap(dst) < len(dst)+want {
			grown := make([]uint64, len(dst), max(2*cap(dst), len(dst)+want))
			copy(grown, dst)
			dst = grown
		}
		fill := dst[len(dst) : len(dst)+want]
		n, err := p.src.Read(ctx, fill)
		dst = dst[:len(dst)+n]
		if err != nil {
			if errors.Is(err, io.EOF) {
				return dst, true, nil
			}
			return dst, false, fmt.Errorf("shard: planner source: %w", err)
		}
		if err := ctx.Err(); err != nil {
			return dst, false, err
		}
	}
	return dst, false, nil
}
