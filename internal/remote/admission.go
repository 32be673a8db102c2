package remote

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// admission.go is the server's overload-protection layer (protocol v3):
// per-connection token-bucket rate admission, a global in-flight budget,
// and the bookkeeping behind deadline-aware shedding. The design follows
// the bounded-queue-with-explicit-rejection doctrine: once the serving
// path has real latency behind it (a disk tier, a saturated worker pool),
// letting queues grow converts overload into unbounded tail latency for
// everyone; rejecting early with a typed busy frame keeps admitted work
// fast and pushes the waiting to the clients, who can back off, spread
// out, and retry with context.
//
// Control-plane operations (handshake, health, snapshot/restore,
// placement) always bypass admission — they are the traffic that resolves
// an overload or repairs a node, and shedding them would wedge recovery.

// Limits configures the server's admission control. The zero value
// disables every mechanism (the pre-v3 behaviour: admit everything,
// FIFO-dispatch across connections).
type Limits struct {
	// MaxInflight bounds the number of admitted-but-unfinished data
	// requests across all connections — the global concurrency budget.
	// Requests beyond it are shed with statusBusy and a retry-after hint
	// derived from the observed service time. 0 = unbounded.
	MaxInflight int

	// PerConnRate bounds one connection's sustained data-request rate, in
	// requests per second, via a token bucket. Requests finding the bucket
	// empty are shed with a retry-after hint equal to the time until the
	// next token. 0 = unlimited.
	PerConnRate float64

	// PerConnBurst is the token bucket's capacity — how many requests one
	// connection may issue back to back before the sustained rate applies.
	// 0 derives it from PerConnRate (one second's worth, at least 1).
	PerConnBurst int

	// Fair dispatches the worker pool across connections round robin
	// instead of the global FIFO: each connection keeps its own bounded
	// queue and the pool drains them in turns, one request per connection
	// per turn, so a connection with a deep backlog cannot starve the
	// others. Queue
	// overflow is shed with statusBusy instead of blocking the reader.
	Fair bool

	// MaxQueuePerConn bounds one connection's queued-but-undispatched
	// requests under Fair (0 derives a default from the worker count).
	// Without Fair the same bound applies to the single shared queue per
	// connection's share — i.e. it is ignored and the global queue keeps
	// the pre-v3 blocking backpressure.
	MaxQueuePerConn int
}

// enabled reports whether any admission mechanism is on.
func (l Limits) enabled() bool {
	return l.MaxInflight > 0 || l.PerConnRate > 0 || l.Fair
}

// validate rejects nonsensical limit combinations up front.
func (l Limits) validate(workers int) error {
	if l.MaxInflight < 0 {
		return fmt.Errorf("remote: Limits.MaxInflight must be >= 0")
	}
	if l.PerConnRate < 0 {
		return fmt.Errorf("remote: Limits.PerConnRate must be >= 0")
	}
	if l.PerConnBurst < 0 {
		return fmt.Errorf("remote: Limits.PerConnBurst must be >= 0")
	}
	if l.MaxQueuePerConn < 0 {
		return fmt.Errorf("remote: Limits.MaxQueuePerConn must be >= 0")
	}
	if l.PerConnBurst > 0 && l.PerConnRate == 0 {
		return fmt.Errorf("remote: Limits.PerConnBurst without PerConnRate meters nothing")
	}
	if l.MaxInflight > 0 && l.burst() > l.MaxInflight {
		return fmt.Errorf("remote: per-connection burst %d exceeds the global in-flight budget %d — such a burst could never be admitted", l.burst(), l.MaxInflight)
	}
	if l.enabled() && workers <= 0 {
		return fmt.Errorf("remote: admission control needs a positive worker pool, got %d", workers)
	}
	return nil
}

// burst resolves the effective token bucket capacity.
func (l Limits) burst() int {
	if l.PerConnRate == 0 {
		return 0
	}
	if l.PerConnBurst > 0 {
		return l.PerConnBurst
	}
	b := int(l.PerConnRate)
	if b < 1 {
		b = 1
	}
	return b
}

// maxQueue resolves the per-connection queue bound under Fair.
func (l Limits) maxQueue(workers int) int {
	if l.MaxQueuePerConn > 0 {
		return l.MaxQueuePerConn
	}
	q := 8 * workers
	if q < 64 {
		q = 64
	}
	return q
}

// tokenBucket is a lazily-refilled token bucket. One per connection; only
// that connection's reader goroutine takes tokens, but Stats readers may
// race, so a mutex keeps it honest.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	cap    float64
	tokens float64
	last   time.Time
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	return &tokenBucket{rate: rate, cap: float64(burst), tokens: float64(burst), last: time.Now()}
}

// take attempts to consume one token. On refusal it returns the wait
// until the next token becomes available — the retry-after hint.
func (tb *tokenBucket) take(now time.Time) (ok bool, retryAfter time.Duration) {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	if elapsed := now.Sub(tb.last); elapsed > 0 {
		tb.tokens += elapsed.Seconds() * tb.rate
		if tb.tokens > tb.cap {
			tb.tokens = tb.cap
		}
		tb.last = now
	}
	if tb.tokens >= 1 {
		tb.tokens--
		return true, 0
	}
	need := 1 - tb.tokens
	return false, time.Duration(need / tb.rate * float64(time.Second))
}

// OverloadStats counts the admission layer's decisions since the server
// started. Shed* are the typed busy rejections by cause; Goaways counts
// slow-consumer connection drops that managed to send their final frame.
type OverloadStats struct {
	// Admitted counts data requests that passed admission.
	Admitted uint64
	// ShedRate counts rejections by a connection's token bucket.
	ShedRate uint64
	// ShedInflight counts rejections by the global in-flight budget.
	ShedInflight uint64
	// ShedQueue counts rejections by a full per-connection queue (Fair).
	ShedQueue uint64
	// ShedDeadline counts requests whose deadline expired in queue and
	// were shed at dispatch instead of executed.
	ShedDeadline uint64
	// Goaways counts final busy frames sent to slow consumers before
	// their connection was dropped.
	Goaways uint64
}

// Shed sums every rejection cause.
func (s OverloadStats) Shed() uint64 {
	return s.ShedRate + s.ShedInflight + s.ShedQueue + s.ShedDeadline
}

// overloadCounters is the atomic backing of OverloadStats.
type overloadCounters struct {
	admitted     atomic.Uint64
	shedRate     atomic.Uint64
	shedInflight atomic.Uint64
	shedQueue    atomic.Uint64
	shedDeadline atomic.Uint64
	goaways      atomic.Uint64
}

func (c *overloadCounters) snapshot() OverloadStats {
	return OverloadStats{
		Admitted:     c.admitted.Load(),
		ShedRate:     c.shedRate.Load(),
		ShedInflight: c.shedInflight.Load(),
		ShedQueue:    c.shedQueue.Load(),
		ShedDeadline: c.shedDeadline.Load(),
		Goaways:      c.goaways.Load(),
	}
}

// serviceClock tracks an EWMA of per-request service time so in-flight
// rejections can hint a retry-after proportional to the actual backlog
// drain time instead of a blind constant.
type serviceClock struct {
	ewmaNs atomic.Int64
}

// observe folds one completed request's service time in (alpha = 1/8).
func (sc *serviceClock) observe(d time.Duration) {
	n := d.Nanoseconds()
	for {
		old := sc.ewmaNs.Load()
		var next int64
		if old == 0 {
			next = n
		} else {
			next = old + (n-old)/8
		}
		if sc.ewmaNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// hint estimates how long until `backlog` requests drain through `workers`
// at the observed service time, clamped to [1ms, busyHintCap].
func (sc *serviceClock) hint(backlog, workers int) time.Duration {
	ewma := sc.ewmaNs.Load()
	if ewma == 0 {
		ewma = int64(time.Millisecond)
	}
	if workers < 1 {
		workers = 1
	}
	d := time.Duration(ewma * int64(backlog) / int64(workers))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	if d > busyHintCap {
		d = busyHintCap
	}
	return d
}
