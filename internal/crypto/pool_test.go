package crypto

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// TestDefaultWorkers pins the one width policy: one worker per GOMAXPROCS,
// never fewer than one, never more than eight.
func TestDefaultWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct{ procs, want int }{{1, 1}, {3, 3}, {8, 8}, {16, 8}} {
		runtime.GOMAXPROCS(c.procs)
		if got := DefaultWorkers(); got != c.want {
			t.Errorf("GOMAXPROCS %d: DefaultWorkers() = %d, want %d", c.procs, got, c.want)
		}
	}
}

// TestPoolCoversRange: every index in [0, n) is handled exactly once, for
// widths below, at and above n, in at most Workers() chunks.
func TestPoolCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 7, 8, 9, 100} {
			hits := make([]atomic.Int32, n)
			var chunks atomic.Int32
			err := p.Run(n, func(lo, hi int) error {
				chunks.Add(1)
				for i := lo; i < hi; i++ {
					hits[i].Add(1)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := int(chunks.Load()); got > workers {
				t.Errorf("workers=%d n=%d: %d chunks", workers, n, got)
			}
			for i := range hits {
				if got := hits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d handled %d times", workers, n, i, got)
				}
			}
		}
		p.Close()
	}
}

// TestPoolReturnsLowestChunkError: the error of the lowest-index failing
// chunk wins, matching the serial loop's first-error semantics, and every
// chunk still runs.
func TestPoolReturnsLowestChunkError(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	errA := errors.New("chunk 1 failed")
	errB := errors.New("chunk 3 failed")
	var ran atomic.Int32
	err := p.Run(8, func(lo, hi int) error {
		ran.Add(1)
		switch lo / 2 { // 8 indices over 4 workers: chunk c is [2c, 2c+2)
		case 1:
			return errA
		case 3:
			return errB
		}
		return nil
	})
	if err != errA {
		t.Fatalf("got %v, want lowest-chunk error %v", err, errA)
	}
	if ran.Load() != 4 {
		t.Fatalf("%d chunks ran, want 4", ran.Load())
	}
}

// occupyWorkers parks every background worker of p inside a chunk of a
// job of its own that blocks until release is closed; finished counts the
// chunks that have returned since. The blocking send on p.jobs is the
// handshake: it completes only when a worker has taken the job, and
// entered only when that worker is inside the chunk.
func occupyWorkers(p *Pool, release <-chan struct{}) (finished *atomic.Int32) {
	finished = new(atomic.Int32)
	entered := make(chan struct{})
	for i := 1; i < p.Workers(); i++ {
		j := &job{n: 1, per: 1, chunks: 1, fn: func(lo, hi int) error {
			entered <- struct{}{}
			<-release
			finished.Add(1)
			return nil
		}}
		j.pending.Add(1)
		p.jobs <- j
		<-entered
	}
	return finished
}

// TestPoolWorkConserving: with every background worker stuck inside
// another owner's chunk, Run completes on the calling goroutine — it
// neither queues chunks behind the busy workers nor waits for them. (A
// pool that hands chunks 1…n-1 to its workers unconditionally never
// returns here.)
func TestPoolWorkConserving(t *testing.T) {
	p := NewPool(3)
	release := make(chan struct{})
	occupyWorkers(p, release)

	const n = 12
	hits := make([]int, n)
	done := make(chan error, 1)
	go func() {
		// No other goroutine can run a chunk — the workers are all
		// inside occupyWorkers' chunks — so hits needs no synchronisation.
		done <- p.Run(n, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				hits[i]++
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		close(release)
		t.Fatal("Run is parked behind busy workers")
	}
	for i, h := range hits {
		if h != 1 {
			t.Errorf("index %d handled %d times", i, h)
		}
	}
	close(release)
	p.Close()
}

// TestPoolConcurrentOwners: several goroutines (the shard model) may Run
// on one shared pool concurrently; each Run must still cover its own range
// exactly once.
func TestPoolConcurrentOwners(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	const owners = 8
	const n = 64
	var wg sync.WaitGroup
	fail := make([]bool, owners)
	for o := 0; o < owners; o++ {
		wg.Add(1)
		go func(o int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				hits := make([]atomic.Int32, n)
				if err := p.Run(n, func(lo, hi int) error {
					for i := lo; i < hi; i++ {
						hits[i].Add(1)
					}
					return nil
				}); err != nil {
					fail[o] = true
					return
				}
				for i := range hits {
					if hits[i].Load() != 1 {
						fail[o] = true
					}
				}
			}
		}(o)
	}
	wg.Wait()
	for o, f := range fail {
		if f {
			t.Errorf("owner %d: range not covered exactly once", o)
		}
	}
}

// TestPoolCloseWaitsForWorkers: after concurrent Runs, Close returns only
// once every background goroutine is through — here each is still inside a
// chunk when Close is called, and must have finished it when Close returns.
func TestPoolCloseWaitsForWorkers(t *testing.T) {
	p := NewPool(5)
	var wg sync.WaitGroup
	for o := 0; o < 4; o++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 100; round++ {
				if err := p.Run(16, func(lo, hi int) error { return nil }); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()

	release := make(chan struct{})
	finished := occupyWorkers(p, release)
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while workers were still inside a chunk")
	default:
	}
	close(release)
	<-closed
	if got, want := int(finished.Load()), p.Workers()-1; got != want {
		t.Fatalf("Close returned with %d of %d workers through their chunk", got, want)
	}
	p.Close() // a closed pool closes as a no-op
}

// TestQuickPoolPartition: the chunk layout is a partition of [0, n) into
// contiguous, non-overlapping spans that depends only on (workers, n).
func TestQuickPoolPartition(t *testing.T) {
	f := func(workers, n uint8) bool {
		w := int(workers)%8 + 1
		m := int(n) % 200
		p := NewPool(w)
		defer p.Close()
		layout := func() (map[int]int, bool) {
			var mu sync.Mutex
			spans := map[int]int{} // lo → hi
			err := p.Run(m, func(lo, hi int) error {
				mu.Lock()
				spans[lo] = hi
				mu.Unlock()
				return nil
			})
			return spans, err == nil
		}
		spans, ok := layout()
		if !ok || len(spans) > w {
			return false
		}
		covered := 0
		for covered < m {
			hi, ok := spans[covered]
			if !ok || hi <= covered || hi > m {
				return false
			}
			covered = hi
		}
		again, ok := layout()
		if !ok || len(again) != len(spans) {
			return false
		}
		for lo, hi := range spans {
			if again[lo] != hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
