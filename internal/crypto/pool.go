package crypto

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the one crypto fan-out width: one per CPU
// (GOMAXPROCS), capped at 8 — the widest the sealed experiment has been
// recorded at. The client (laoram.Options.Encrypt) and the server
// (laoramserve -sealed) both build their pools at this width.
func DefaultWorkers() int { return min(runtime.GOMAXPROCS(0), 8) }

// Pool is a bounded worker pool for fanning embarrassingly parallel
// seal/open work across goroutines: the buckets of a path, a batched
// bucket union or a superblock fetch are independent AEAD records (Path
// ORAM and PrORAM treat per-bucket encryption as independent work), so the
// only coordination parallel crypto needs is nonce reservation — which
// Sealer.ReserveSeals provides deterministically.
//
// The pool owns Workers()-1 persistent goroutines that only ever help: the
// goroutine that calls Run works through its own chunks and hands one to a
// background worker only if that worker is idle at that moment. Several
// owners (shard stores) share one pool, and on a host with as many lanes
// as CPUs the background workers have no CPU of their own; a Run that
// queued chunks behind them would wait for work its own CPU could have
// done. So a Run is never slower than the serial loop by more than the
// hand-off, and a 1-worker pool is exactly that loop — no goroutines, no
// channel operations, no allocation. Tasks must never call Run themselves.
type Pool struct {
	workers int
	jobs    chan *job // unbuffered: a send succeeds only to a parked worker
	done    sync.WaitGroup
}

// job is one Run: the chunk layout, the next unclaimed chunk and the
// chunks still unfinished.
type job struct {
	fn             func(lo, hi int) error
	n, per, chunks int
	next           atomic.Int64
	pending        sync.WaitGroup

	mu       sync.Mutex
	err      error
	errChunk int
}

// NewPool starts a pool with the given fan-out width (clamped to >= 1).
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers}
	if workers > 1 {
		p.jobs = make(chan *job)
		p.done.Add(workers - 1)
		for i := 1; i < workers; i++ {
			go func() {
				defer p.done.Done()
				for j := range p.jobs {
					j.work()
				}
			}()
		}
	}
	return p
}

// Workers returns the fan-out width (>= 1).
func (p *Pool) Workers() int { return p.workers }

// Close stops the worker goroutines and returns once they have exited. Run
// must not be called after — or concurrently with — Close. A nil pool and
// a 1-worker pool close as no-ops.
func (p *Pool) Close() {
	if p == nil || p.jobs == nil {
		return
	}
	close(p.jobs)
	p.done.Wait()
	p.jobs = nil
}

// Run partitions [0, n) into at most Workers() contiguous chunks and calls
// fn(lo, hi) once per chunk. The caller claims chunks in index order from a
// shared counter until none are left; workers that were idle when Run
// began claim from the same counter. Run returns after every chunk has
// finished — so it waits only for chunks a helper has already started —
// with the error of the lowest failing chunk. Chunk bounds depend only on
// (n, Workers()), so with sequence numbers taken from the slot ordinal the
// output bytes are independent of which goroutine ran which chunk.
func (p *Pool) Run(n int, fn func(lo, hi int) error) error {
	if n <= 0 {
		return nil
	}
	per := (n + p.workers - 1) / p.workers
	chunks := (n + per - 1) / per
	if chunks == 1 {
		return fn(0, n)
	}
	j := &job{fn: fn, n: n, per: per, chunks: chunks}
	j.pending.Add(chunks)
offer:
	for c := 1; c < chunks; c++ {
		select {
		case p.jobs <- j:
		default:
			break offer // nobody idle: the rest is this goroutine's
		}
	}
	j.work()
	j.pending.Wait()
	return j.err
}

// work claims and runs chunks until the job has none left.
func (j *job) work() {
	for {
		c := int(j.next.Add(1)) - 1
		if c >= j.chunks {
			return
		}
		lo := c * j.per
		if err := j.fn(lo, min(lo+j.per, j.n)); err != nil {
			j.mu.Lock()
			if j.err == nil || c < j.errChunk {
				j.err, j.errChunk = err, c
			}
			j.mu.Unlock()
		}
		j.pending.Done()
	}
}
