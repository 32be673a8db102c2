package remote

import (
	"sync"
	"time"
)

// fairqueue.go is the worker pool's dispatch queue. Two modes share one
// structure:
//
//   - FIFO (the pre-v3 behaviour): one bounded global queue; when it is
//     full, enqueue BLOCKS the connection's reader — backpressure through
//     TCP, exactly like the old `chan task` of capacity workers.
//
//   - Fair (Limits.Fair): one bounded queue per connection, drained round
//     robin: a turn of the ring dispatches one request from one connection
//     and moves on. A connection with a deep backlog (the hot tenant) only
//     ever has one request dispatched per turn, so its queue depth hurts its
//     own latency, not its neighbours', and capacity under contention
//     divides evenly among the connections with work queued. Queue overflow
//     is REJECTED (errQueueFull → statusBusy) instead of blocking the
//     reader: with admission control on, bounded queues with explicit
//     rejection beat silent queue growth.

// task is one parsed request awaiting a worker. The admission layer fills
// the parsed fields in the reader goroutine; bad short-circuits dispatch
// with an error response (a frame too mangled to execute but intact
// enough to answer).
type task struct {
	sc    *serverConn
	id    uint64
	op    byte
	shard uint32
	body  []byte
	bad   error
	// frame is the pooled request frame body aliases; process returns it to
	// the pool after the operation has executed.
	frame []byte
	// data marks an admission-metered operation: it holds one unit of the
	// global in-flight budget from admission until completion.
	data bool
	// expiry is the request's deadline (zero = none): a task still queued
	// past it is shed at dispatch, not executed.
	expiry time.Time
}

// errQueueFull is the sentinel a fair-mode enqueue returns when the
// connection's queue is at its bound; the caller sheds with statusBusy.
type queueFullError struct{}

func (queueFullError) Error() string { return "remote: connection queue full" }

var errQueueFull = queueFullError{}

// connQueue is one connection's pending tasks under fair dispatch.
type connQueue struct {
	sc     *serverConn
	q      []task
	head   int // q[head:] are pending; head bounds slice churn
	inRing bool
}

func (cq *connQueue) depth() int { return len(cq.q) - cq.head }

func (cq *connQueue) push(t task) { cq.q = append(cq.q, t) }

func (cq *connQueue) pop() task {
	t := cq.q[cq.head]
	cq.q[cq.head] = task{} // release references
	cq.head++
	if cq.head == len(cq.q) {
		cq.q = cq.q[:0]
		cq.head = 0
	}
	return t
}

// dispatcher is the shared dispatch queue; see the file comment for the
// two modes.
type dispatcher struct {
	mu       sync.Mutex
	nonEmpty *sync.Cond // workers wait here
	notFull  *sync.Cond // FIFO-mode readers wait here
	closed   bool

	fair       bool
	maxPerConn int // fair: per-connection queue bound

	// FIFO mode.
	global    []task
	gHead     int
	maxGlobal int

	// Fair mode: the round-robin ring of connections with pending tasks.
	ring []*connQueue
	next int
}

func newDispatcher(fair bool, maxGlobal, maxPerConn int) *dispatcher {
	d := &dispatcher{fair: fair, maxGlobal: maxGlobal, maxPerConn: maxPerConn}
	d.nonEmpty = sync.NewCond(&d.mu)
	d.notFull = sync.NewCond(&d.mu)
	return d
}

// enqueue hands one task to the pool. In FIFO mode it blocks while the
// global queue is full (returning false only when the dispatcher closed);
// in fair mode it returns errQueueFull immediately when the connection's
// queue is at its bound.
func (d *dispatcher) enqueue(t task) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.fair {
		if d.closed {
			return errDispatcherClosed
		}
		cq := t.sc.cq
		if cq.depth() >= d.maxPerConn {
			return errQueueFull
		}
		cq.push(t)
		if !cq.inRing {
			cq.inRing = true
			d.ring = append(d.ring, cq)
		}
		d.nonEmpty.Signal()
		return nil
	}
	for len(d.global)-d.gHead >= d.maxGlobal && !d.closed {
		d.notFull.Wait()
	}
	if d.closed {
		return errDispatcherClosed
	}
	d.global = append(d.global, t)
	d.nonEmpty.Signal()
	return nil
}

type dispatcherClosedError struct{}

func (dispatcherClosedError) Error() string { return "remote: server closed" }

var errDispatcherClosed = dispatcherClosedError{}

// dequeue blocks until a task is available (ok) or the dispatcher closes
// (!ok). Fair mode serves the ring in turns: one task from one connection,
// then the next connection, so every live connection is visited once per
// round regardless of backlog depth.
func (d *dispatcher) dequeue() (task, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for {
		if d.closed {
			return task{}, false
		}
		if d.fair {
			if len(d.ring) > 0 {
				if d.next >= len(d.ring) {
					d.next = 0
				}
				cq := d.ring[d.next]
				t := cq.pop()
				if cq.depth() == 0 {
					// Remove the drained queue from the ring; the element
					// order shift keeps round-robin order for the rest.
					cq.inRing = false
					d.ring = append(d.ring[:d.next], d.ring[d.next+1:]...)
				} else {
					d.next++
				}
				return t, true
			}
		} else if len(d.global) > d.gHead {
			t := d.global[d.gHead]
			d.global[d.gHead] = task{}
			d.gHead++
			if d.gHead == len(d.global) {
				d.global = d.global[:0]
				d.gHead = 0
			}
			d.notFull.Signal()
			return t, true
		}
		d.nonEmpty.Wait()
	}
}

// close releases every blocked enqueuer and worker.
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	d.nonEmpty.Broadcast()
	d.notFull.Broadcast()
	d.mu.Unlock()
}

// connDepth reports one connection's pending tasks (fair mode only).
func (d *dispatcher) connDepth(sc *serverConn) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if sc.cq == nil {
		return 0
	}
	return sc.cq.depth()
}

// backlog reports the total queued tasks across the dispatcher.
func (d *dispatcher) backlog() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.fair {
		return len(d.global) - d.gHead
	}
	n := 0
	for _, cq := range d.ring {
		n += cq.depth()
	}
	return n
}
