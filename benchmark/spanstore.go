package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/oram"
)

// Tracing is done from the benchmark's own files: root spans around the
// public calls of each phase, and one span per store call at the two
// oram.Store seams the benchmark can reach — under the client's
// CountingStore (what a lane waits for) and around the stores handed to the
// loopback servers (what a node spends below its dispatch). Spans stay in
// memory and are written when the run ends.

type spanName uint8

const (
	spanNew spanName = iota
	spanLoad
	spanWarmup
	spanTrain
	spanRequest
	spanClose
	spanReadPath
	spanWritePath
	spanReadBuckets
	spanWriteBuckets
	spanReadBucket
	spanWriteBucket
	spanReadSlot
	spanWriteSlot
)

var spanNames = [...]string{
	"laoram.new", "laoram.load", "laoram.warmup", "laoram.train", "laoram.request", "laoram.close",
	"read_path", "write_path", "read_buckets", "write_buckets", "read_bucket", "write_bucket", "read_slot", "write_slot",
}

func (n spanName) read() bool {
	return n == spanReadPath || n == spanReadBuckets || n == spanReadBucket || n == spanReadSlot
}

type seam uint8

const (
	seamRoot   seam = iota // a phase of the run, recorded by the driver loop
	seamClient             // under oram.CountingStore: one span per lane-side store call
	seamServer             // around a server's backing store
)

var seamNames = [...]string{"root", "client", "server"}

// span is one timed call. Times are nanoseconds since the tracer's epoch;
// parent is the id of the root span open when the call started, -1 if none.
// slots is what the call moved, rows how many of those slots held a block:
// stores skip the payload work (copy, seal, open) of dummies.
type span struct {
	start, end  int64
	parent      int32
	slots, rows int32
	name        spanName
}

// tracer owns the root spans and the phase the seams attribute their calls
// to. A nil *tracer is the untraced run: begin, end and now do nothing, so the
// driver loop marks its phases the same way in both.
type tracer struct {
	epoch time.Time
	phase atomic.Int32 // id of the open root span, -1 when none

	mu     sync.Mutex // roots: the first visitor call closes the load phase from a lane
	roots  []span
	stores []*spanCore
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.phase.Store(-1)
	return t
}

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// begin opens a root span and makes it the parent of the store calls that
// follow.
func (t *tracer) begin(name spanName) int32 {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.roots))
	t.roots = append(t.roots, span{start: t.now(), parent: -1, name: name})
	t.phase.Store(id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.roots[id].end = t.now()
	t.phase.CompareAndSwap(id, -1)
}

// spanCore is the oram.Store part of a SpanStore: it times the four
// mandatory calls and holds the spans of one store. A store is driven by one
// goroutine at a time (its lane, or a server worker under the shard lock), so
// the slice needs no lock.
type spanCore struct {
	inner oram.Store
	tr    *tracer
	seam  seam
	shard int // global shard index
	// spans grows by fixed blocks: a run records millions of calls, and
	// regrowing one slice would copy them all several times inside the
	// phase being measured.
	spans [][]span
	// prefetchHints counts PrefetchPaths calls; they arrive from the planner
	// goroutine and are forwarded untimed.
	prefetchHints atomic.Uint64
}

const spanBlock = 1 << 15

func (c *spanCore) rec(name spanName, start int64, slots, rows int) {
	last := len(c.spans) - 1
	if last < 0 || len(c.spans[last]) == spanBlock {
		c.spans = append(c.spans, make([]span, 0, spanBlock))
		last++
	}
	c.spans[last] = append(c.spans[last], span{start: start, end: c.tr.now(), parent: c.tr.phase.Load(), slots: int32(slots), rows: int32(rows), name: name})
}

// each calls f for every span of the store, in the order recorded.
func (c *spanCore) each(f func(span)) {
	for _, b := range c.spans {
		for _, s := range b {
			f(s)
		}
	}
}

func (c *spanCore) Geometry() *oram.Geometry { return c.inner.Geometry() }

func (c *spanCore) ReadBucket(level int, node uint64, dst []oram.Slot) error {
	t := c.tr.now()
	err := c.inner.ReadBucket(level, node, dst)
	c.rec(spanReadBucket, t, len(dst), rowCount(dst))
	return err
}

func (c *spanCore) WriteBucket(level int, node uint64, src []oram.Slot) error {
	t := c.tr.now()
	err := c.inner.WriteBucket(level, node, src)
	c.rec(spanWriteBucket, t, len(src), rowCount(src))
	return err
}

func (c *spanCore) ReadSlot(level int, node uint64, slot int, dst *oram.Slot) error {
	t := c.tr.now()
	err := c.inner.ReadSlot(level, node, slot, dst)
	c.rec(spanReadSlot, t, 1, oneRow(dst))
	return err
}

func (c *spanCore) WriteSlot(level int, node uint64, slot int, src oram.Slot) error {
	t := c.tr.now()
	err := c.inner.WriteSlot(level, node, slot, src)
	c.rec(spanWriteSlot, t, 1, oneRow(&src))
	return err
}

func oneRow(s *oram.Slot) int {
	if s.Dummy() {
		return 0
	}
	return 1
}

func rowCount(b []oram.Slot) int {
	n := 0
	for i := range b {
		if !b[i].Dummy() {
			n++
		}
	}
	return n
}

// counts returns the slots and the rows in a path's or a batch's buckets.
func counts(bufs [][]oram.Slot) (slots, rows int) {
	for _, b := range bufs {
		slots += len(b)
		rows += rowCount(b)
	}
	return slots, rows
}

// pathSpans and batchSpans time the optional bulk calls; the forwarders below
// them pass the untimed optional interfaces through.
type pathSpans struct {
	core *spanCore
	path oram.PathStore
}

func (p pathSpans) ReadPath(leaf oram.Leaf, dst [][]oram.Slot) error {
	t := p.core.tr.now()
	err := p.path.ReadPath(leaf, dst)
	slots, rows := counts(dst)
	p.core.rec(spanReadPath, t, slots, rows)
	return err
}

func (p pathSpans) WritePath(leaf oram.Leaf, src [][]oram.Slot) error {
	t := p.core.tr.now()
	err := p.path.WritePath(leaf, src)
	slots, rows := counts(src)
	p.core.rec(spanWritePath, t, slots, rows)
	return err
}

type batchSpans struct {
	core  *spanCore
	batch oram.BatchStore
}

func (b batchSpans) ReadBuckets(refs []oram.BucketRef, dst [][]oram.Slot) error {
	t := b.core.tr.now()
	err := b.batch.ReadBuckets(refs, dst)
	slots, rows := counts(dst)
	b.core.rec(spanReadBuckets, t, slots, rows)
	return err
}

func (b batchSpans) WriteBuckets(refs []oram.BucketRef, src [][]oram.Slot) error {
	t := b.core.tr.now()
	err := b.batch.WriteBuckets(refs, src)
	slots, rows := counts(src)
	b.core.rec(spanWriteBuckets, t, slots, rows)
	return err
}

// nativeFwd forwards the BatchNative probe (a named type: embedding the
// interface itself would shadow its one method with the field name).
type nativeFwd struct{ probe oram.BatchNative }

func (f nativeFwd) BatchNative() bool { return f.probe.BatchNative() }

type prefetchFwd struct {
	core *spanCore
	pf   oram.PathPrefetcher
}

func (f prefetchFwd) PrefetchPaths(leaves []oram.Leaf) {
	f.core.prefetchHints.Add(1)
	f.pf.PrefetchPaths(leaves)
}

// newSpanStore wraps inner so that every store call becomes a span. The
// engine picks its fast paths by asserting optional interfaces on the store
// it is given, so the wrapper must expose exactly those inner implements: one
// more and the engine takes a path the untraced program does not, one fewer
// and it falls back to per-bucket calls. The three stores the workloads use
// have three different sets; any other set is refused rather than guessed.
func newSpanStore(inner oram.Store, tr *tracer, sm seam, shard int) (oram.Store, *spanCore, error) {
	core := &spanCore{inner: inner, tr: tr, seam: sm, shard: shard}
	path, hasPath := inner.(oram.PathStore)
	batch, hasBatch := inner.(oram.BatchStore)
	native, hasNative := inner.(oram.BatchNative)
	snap, hasSnap := inner.(oram.Snapshotter)
	pf, hasPrefetch := inner.(oram.PathPrefetcher)
	tier, hasTier := inner.(oram.TieredStore)
	ps, bs := pathSpans{core, path}, batchSpans{core, batch}

	var st oram.Store
	switch {
	case !hasPath && !hasBatch && !hasNative && !hasSnap && !hasPrefetch && !hasTier:
		st = core
	case hasPath && hasBatch && !hasNative && hasSnap && !hasPrefetch && !hasTier: // remote.ShardStore
		st = struct {
			*spanCore
			pathSpans
			batchSpans
			oram.Snapshotter
		}{core, ps, bs, snap}
	case hasPath && hasBatch && hasNative && hasSnap && !hasPrefetch && !hasTier: // oram.PayloadStore
		st = struct {
			*spanCore
			pathSpans
			batchSpans
			nativeFwd
			oram.Snapshotter
		}{core, ps, bs, nativeFwd{native}, snap}
	case hasPath && hasBatch && hasNative && hasSnap && hasPrefetch && hasTier: // diskstore.Store
		st = struct {
			*spanCore
			pathSpans
			batchSpans
			nativeFwd
			oram.Snapshotter
			prefetchFwd
			oram.TieredStore
		}{core, ps, bs, nativeFwd{native}, snap, prefetchFwd{core, pf}, tier}
	default:
		return nil, nil, fmt.Errorf("spanstore: %T implements an optional-interface set the wrapper has no case for (path=%t batch=%t native=%t snapshot=%t prefetch=%t tier=%t); add one",
			inner, hasPath, hasBatch, hasNative, hasSnap, hasPrefetch, hasTier)
	}
	tr.stores = append(tr.stores, core)
	return st, core, nil
}

// seamTotals sums the spans of one seam that fall within a phase.
type seamTotals struct {
	calls                   int
	slotsRead, slotsWritten int64
	rowsRead, rowsWritten   int64
	busy                    time.Duration
}

// within calls f for every span of seam sm inside [from, to] on the tracer's
// clock.
func (t *tracer) within(sm seam, from, to int64, f func(span)) {
	for _, c := range t.stores {
		if c.seam != sm {
			continue
		}
		c.each(func(s span) {
			if s.start >= from && s.end <= to {
				f(s)
			}
		})
	}
}

func (t *tracer) totals(sm seam, from, to int64) seamTotals {
	var out seamTotals
	t.within(sm, from, to, func(s span) {
		out.calls++
		if s.name.read() {
			out.slotsRead += int64(s.slots)
			out.rowsRead += int64(s.rows)
		} else {
			out.slotsWritten += int64(s.slots)
			out.rowsWritten += int64(s.rows)
		}
		out.busy += time.Duration(s.end - s.start)
	})
	return out
}

// callMs returns the sorted durations of a seam's calls inside a phase.
func (t *tracer) callMs(sm seam, from, to int64) []float64 {
	var ms []float64
	t.within(sm, from, to, func(s span) { ms = append(ms, float64(s.end-s.start)/1e6) })
	sort.Float64s(ms)
	return ms
}

func (t *tracer) spanCount() int {
	n := len(t.roots)
	for _, c := range t.stores {
		for _, b := range c.spans {
			n += len(b)
		}
	}
	return n
}

// spanRecord is the written form of a span.
type spanRecord struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Seam   string `json:"seam"`
	Shard  int    `json:"shard"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Slots  int32  `json:"slots,omitempty"`
	Rows   int32  `json:"rows,omitempty"`
}

// writeSpans writes every span as one JSON line: roots first (ids are their
// positions), then each store's calls. A client-seam call's parent is the
// root open when it started. A server-seam call's parent is the client-seam
// call on the same shard that contains it in time: a lane has one call in
// flight, so containment identifies the frame that caused it.
func (t *tracer) writeSpans(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	id := 0
	for _, s := range t.roots {
		if err := enc.Encode(spanRecord{ID: id, Name: spanNames[s.name], Seam: seamNames[seamRoot], Shard: -1, Parent: -1, Start: s.start, End: s.end}); err != nil {
			return err
		}
		id++
	}
	type placed struct {
		start, end int64
		id         int
	}
	clientByShard := map[int][]placed{}
	for pass, sm := range []seam{seamClient, seamServer} {
		for _, c := range t.stores {
			if c.seam != sm {
				continue
			}
			var werr error
			c.each(func(s span) {
				parent := int(s.parent)
				if pass == 0 {
					clientByShard[c.shard] = append(clientByShard[c.shard], placed{s.start, s.end, id})
				} else {
					calls := clientByShard[c.shard]
					// Client spans of a shard are in start order; the
					// candidate is the last one starting at or before s.
					i := sort.Search(len(calls), func(i int) bool { return calls[i].start > s.start }) - 1
					parent = -1
					if i >= 0 && calls[i].end >= s.end {
						parent = calls[i].id
					}
				}
				if err := enc.Encode(spanRecord{ID: id, Name: spanNames[s.name], Seam: seamNames[sm], Shard: c.shard, Parent: parent, Start: s.start, End: s.end, Slots: s.slots, Rows: s.rows}); err != nil && werr == nil {
					werr = err
				}
				id++
			})
			if werr != nil {
				return werr
			}
		}
	}
	return bw.Flush()
}
