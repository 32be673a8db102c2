package remote

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/oram"
)

// Client is the client side of the v2 protocol: one TCP connection with
// request-ID multiplexing, safe for concurrent use by many goroutines.
// Calls from different goroutines pipeline on the wire — each caller blocks
// only on its own response, so N concurrent ORAM lanes (per-shard workers,
// multiple trainers) overlap their round trips instead of serialising.
//
// Store(i) returns the oram.Store view onto shard i of the server.
//
// # Failure handling
//
// When Config.Reconnect is set, a broken connection does not fail the
// client: in-flight calls are parked, a background loop redials with
// bounded exponential backoff, and on success the parked request frames
// are replayed — safe because every operation is an idempotent read or
// overwrite of named tree addresses. The reconnect handshake compares the
// server's boot ID: if it changed, the node restarted and its in-memory
// tree is gone, so the client latches state loss — every pending and
// future call fails with ErrNodeDown{StateLost: true} until a Restore
// (opRestore) re-establishes the node's trees from a checkpoint and clears
// the latch. Without the latch a restart that lands in an idle gap (no
// call on the wire) would be adopted silently and training would proceed
// against an empty tree until the engine notices missing blocks — far
// from the failure and far too late to roll back cleanly. Queued Restore
// calls that never reached the old connection are the one exception: they
// replay onto the restarted node, because they are exactly the recovery
// traffic that makes it whole. When the retry budget is exhausted,
// everything pending fails with ErrNodeDown, but the client stays usable:
// the next call triggers a fresh reconnect attempt, which is what lets a
// recovery loop restart the node from a checkpoint and simply keep
// calling.
type Client struct {
	addr string
	cfg  Config
	ctx  context.Context // governs the initial dial and every redial

	geom   *oram.Geometry
	shards int
	// placed is the store count at dial: the stores ShardBase/ShardStride
	// map. One grown later by AddStore names no engine shard of its own.
	placed int

	// wmu serialises frame writes; a frame is written atomically but many
	// may be in flight awaiting responses.
	wmu sync.Mutex

	// mu guards the multiplexing and connection state below.
	mu           sync.Mutex
	conn         net.Conn
	gen          uint64 // connection generation; bumped by every adopt
	bootID       uint64 // server boot ID from the latest handshake
	pending      map[uint64]*pendingCall
	nextID       uint64
	connErr      error // non-nil while the connection is down
	reconnecting bool
	closed       bool
	stateLost    bool // latched by a boot-ID change; cleared by a Restore

	// held is each wire shard's accepted, unsent write-back (see heldWrite):
	// state of the (connection, shard) placement, not of a ShardStore view.
	held map[uint32]*heldWrite

	// stop is closed exactly once, by Close: it releases the context
	// watcher and any sleeping reconnect loop.
	stop chan struct{}

	// goaway remembers the server's final busy frame on a connection it is
	// about to drop (slow consumer). While set, connection-death failures
	// map to *ErrOverloaded instead of *ErrNodeDown — the node is alive, it
	// shed us. Cleared when a fresh connection is adopted. Guarded by mu.
	goaway *goawaySignal

	// rng drives the reconnect backoff jitter. Only the reconnect loop
	// touches it, and at most one loop runs at a time (the reconnecting
	// flag), so it needs no lock. Seeded deterministically per client so
	// tests reproduce, but differently across clients of one address so
	// they do not redial a restarted node in lockstep.
	rng *rand.Rand

	// brng drives the busy-retry jitter. Unlike rng it is shared by every
	// concurrent caller sleeping out a shed, so it takes its own lock.
	bmu  sync.Mutex
	brng *rand.Rand
}

// goawaySignal is the decoded final busy frame of a dropped connection.
type goawaySignal struct {
	retryAfter time.Duration
	reason     string
}

// Config tunes a client's placement identity and failure handling.
type Config struct {
	// Reconnect enables transparent redial + idempotent request replay
	// when the connection breaks. Off by default: a lone loopback client
	// keeps the old fail-fast behaviour.
	Reconnect bool

	// RetryElapsed bounds the total time one outage may spend redialling
	// before pending calls fail with ErrNodeDown. Zero means 5s.
	RetryElapsed time.Duration

	// ShardBase and ShardStride map this node's local shard indices to the
	// engine's global shards (global = ShardBase + local*ShardStride), so
	// an ErrNodeDown names the shard the trainer knows. They cover the
	// stores the node had at dial; one grown later by AddStore maps to
	// -1. A single-node deployment leaves them zero (stride defaults to 1).
	ShardBase   int
	ShardStride int

	// RequestDeadline attaches a relative execution budget to every data
	// operation (an opDeadline envelope, protocol v3): a request still
	// queued server-side past its budget is shed instead of executed. A
	// deadline on the dial context tightens it per call to the remaining
	// context time. Zero sends no deadline (unless the context has one).
	RequestDeadline time.Duration

	// ShedRetries bounds how many times one call is retried after the
	// server sheds it with a busy frame, before the call fails with
	// *ErrOverloaded. Retries back off exponentially with jitter, never
	// sleeping less than the server's retry-after hint. Zero means 12;
	// negative disables retries (fail on the first shed).
	ShedRetries int
}

// pendingCall is one in-flight request. The full request frame is retained
// so a reconnect can replay it; sentGen records which connection
// generation it was last written to (0 = never written, so the server
// cannot have seen it — such calls survive even a state-losing restart).
type pendingCall struct {
	ch      chan rpcResult
	req     []byte
	shard   uint32
	op      byte
	sentGen uint64
	// replayed is set (under Client.mu) once a reconnect has taken req for
	// replay: from then on a second goroutine may be writing the frame, so
	// its buffer is left to the collector instead of returning to the pool.
	replayed bool
}

type rpcResult struct {
	body []byte
	err  error

	// busy marks a statusBusy shed: the server refused the request under
	// admission control. retryAfter carries its backoff hint; err holds the
	// reason. The retry loop in call consumes these — callers above it only
	// ever see a terminal *ErrOverloaded.
	busy       bool
	retryAfter time.Duration
}

// Dial connects to a Server and performs the geometry handshake.
func Dial(addr string) (*Client, error) {
	return DialContext(context.Background(), addr)
}

// DialContext is Dial with the context governing both the dial and the
// connection's lifetime: when ctx is cancelled the connection closes,
// which fails every in-flight and future call with a connection error —
// the lever that makes a client stalled on a dead or slow server
// cancellable. A client whose context never fires behaves exactly like
// Dial; Close releases the watcher either way.
func DialContext(ctx context.Context, addr string) (*Client, error) {
	return DialConfig(ctx, addr, Config{})
}

// DialConfig is DialContext with explicit placement and failure-handling
// configuration; see Config.
func DialConfig(ctx context.Context, addr string, cfg Config) (*Client, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if cfg.ShardStride <= 0 {
		cfg.ShardStride = 1
	}
	if cfg.RetryElapsed <= 0 {
		cfg.RetryElapsed = 5 * time.Second
	}
	switch {
	case cfg.ShedRetries == 0:
		cfg.ShedRetries = 12
	case cfg.ShedRetries < 0:
		cfg.ShedRetries = 0
	}
	conn, shards, gw, bootID, err := dialHandshake(ctx, addr)
	if err != nil {
		return nil, err
	}
	g, err := gw.build()
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("remote: bad server geometry: %w", err)
	}
	c := &Client{
		addr:    addr,
		cfg:     cfg,
		ctx:     ctx,
		geom:    g,
		shards:  shards,
		placed:  shards,
		conn:    conn,
		gen:     1,
		bootID:  bootID,
		pending: make(map[uint64]*pendingCall),
		held:    make(map[uint32]*heldWrite),
		stop:    make(chan struct{}),
		rng:     rand.New(rand.NewSource(jitterSeed(addr))),
		brng:    rand.New(rand.NewSource(jitterSeed(addr))),
	}
	go c.readLoop(conn, 1)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				c.Abort()
			case <-c.stop:
			}
		}()
	}
	return c, nil
}

// dialHandshake dials addr and performs a raw opHello exchange on the new
// connection, before any read loop owns it — the shared entry point of the
// initial dial and every reconnect.
func dialHandshake(ctx context.Context, addr string) (net.Conn, int, geometryWire, uint64, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, 0, geometryWire{}, 0, fmt.Errorf("remote: dial %s: %w", addr, err)
	}
	fail := func(err error) (net.Conn, int, geometryWire, uint64, error) {
		conn.Close()
		return nil, 0, geometryWire{}, 0, err
	}
	if err := writeFrame(conn, appendReqHeader(nil, 0, opHello, 0)); err != nil {
		return fail(fmt.Errorf("remote: hello send: %w", err))
	}
	frame, err := readFrame(conn)
	if err != nil {
		return fail(fmt.Errorf("remote: hello recv: %w", err))
	}
	_, status, body, err := parseRespHeader(frame)
	if err != nil {
		return fail(err)
	}
	if status != statusOK {
		return fail(fmt.Errorf("remote: server: %s", string(body)))
	}
	shards, rest, err := parseU32(body)
	if err != nil {
		return fail(fmt.Errorf("remote: bad hello response: %w", err))
	}
	gw, err := parseGeometryWire(rest)
	if err != nil {
		return fail(err)
	}
	if shards == 0 {
		return fail(fmt.Errorf("remote: server reports zero shards"))
	}
	if len(rest) < geometryWireLen+8 {
		return fail(fmt.Errorf("remote: bad hello response: no boot id"))
	}
	return conn, int(shards), gw, binary.BigEndian.Uint64(rest[geometryWireLen:]), nil
}

// closeGrace bounds Close's wait for the acks of the write-backs it flushes:
// Close is also the lever that cancels a lane stalled on a hung node.
var closeGrace = 2 * time.Second

// Close sends every held write-back (best effort: no later call is left for a
// failure to surface on) and shuts the connection; in-flight calls fail with
// *ErrNodeDown.
func (c *Client) Close() error {
	watchdog := time.AfterFunc(closeGrace, func() { c.Abort() })
	defer watchdog.Stop()
	for shard := range c.Shards() {
		_ = c.setHeld(uint32(shard), nil, false)
	}
	return c.Abort()
}

// Abort is Close without the flush: what a cancelled context gets. Held
// write-backs are dropped, and in-flight calls fail at once.
func (c *Client) Abort() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.stop)
	conn := c.conn
	c.failAllLocked(fmt.Errorf("remote: client closed"))
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// BootID returns the serving node's boot identifier from the latest
// handshake.
func (c *Client) BootID() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bootID
}

// Addr returns the node's dial address.
func (c *Client) Addr() string { return c.addr }

// Geometry returns the tree shape all shard stores of the server share
// (enforced server-side).
func (c *Client) Geometry() *oram.Geometry { return c.geom }

// Shards returns the number of shard stores the server exposes (as of the
// handshake, plus any stores this client added via AddStore).
func (c *Client) Shards() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shards
}

// Store returns the oram.Store view onto one shard of the server. The view
// implements PathStore and BatchStore, so ORAM clients above it move whole
// paths (and batched bucket unions) in single frames.
func (c *Client) Store(shard int) (*ShardStore, error) {
	if shard < 0 || shard >= c.Shards() {
		return nil, fmt.Errorf("remote: shard %d out of range (server has %d)", shard, c.Shards())
	}
	return &ShardStore{c: c, shard: uint32(shard)}, nil
}

// Health performs one opHealth heartbeat: whether the node is draining
// (Server.Drain — clients should migrate their shards off) and how many
// stores it currently serves. In Reconnect mode a down node parks the call
// until RetryElapsed runs out, so an error here means the node has been
// unreachable past the retry budget — exactly the health monitor's
// re-placement trigger.
func (c *Client) Health() (draining bool, shards int, err error) {
	resp, err := c.call(opHealth, 0, nil)
	if err != nil {
		return false, 0, err
	}
	if len(resp) < 5 {
		return false, 0, fmt.Errorf("remote: short health response (%d bytes)", len(resp))
	}
	n, _, err := parseU32(resp[1:])
	if err != nil {
		return false, 0, err
	}
	return resp[0] == 1, int(n), nil
}

// AddStore asks the node to grow its placement by one store (opAddStore;
// the server needs a store factory) and returns the view onto it — the
// landing zone for a migrated or re-placed shard.
func (c *Client) AddStore() (*ShardStore, error) {
	resp, err := c.call(opAddStore, 0, nil)
	if err != nil {
		return nil, err
	}
	idx, _, err := parseU32(resp)
	if err != nil {
		return nil, fmt.Errorf("remote: bad add-store response: %w", err)
	}
	c.mu.Lock()
	if int(idx) >= c.shards {
		c.shards = int(idx) + 1
	}
	c.mu.Unlock()
	return &ShardStore{c: c, shard: idx}, nil
}

// readLoop routes response frames to their waiting callers by request ID.
// It owns exactly one connection generation and reports its death via
// lost(gen, ...), which ignores stale generations.
func (c *Client) readLoop(conn net.Conn, gen uint64) {
	for {
		frame, err := readFrame(conn)
		if err != nil {
			c.lost(gen, fmt.Errorf("remote: recv: %w", err))
			return
		}
		id, status, body, err := parseRespHeader(frame)
		if err != nil {
			conn.Close()
			c.lost(gen, err)
			return
		}
		var res rpcResult
		switch status {
		case statusOK:
			res.body = body
		case statusBusy:
			retryAfter, reason := parseBusy(body)
			if id == goawayID {
				// The server's last word before dropping us as a slow
				// consumer. Latch it so the imminent connection death maps
				// to *ErrOverloaded, not a bare transport fault.
				c.mu.Lock()
				c.goaway = &goawaySignal{retryAfter: retryAfter, reason: reason}
				c.mu.Unlock()
				continue
			}
			res.busy = true
			res.retryAfter = retryAfter
			res.err = fmt.Errorf("remote: server busy: %s", reason)
			putFrame(frame) // reason is a copy
		default:
			res.err = fmt.Errorf("remote: server: %s", string(body))
			putFrame(frame)
		}
		c.mu.Lock()
		pc := c.pending[id]
		delete(c.pending, id)
		if pc != nil && pc.op == opRestore && status == statusOK {
			// The node's trees were re-established from a checkpoint:
			// the state-loss latch (if any) no longer applies.
			c.stateLost = false
		}
		c.mu.Unlock()
		if pc != nil {
			pc.ch <- res
		}
	}
}

// globalShard maps a node-local wire shard to the engine's global index,
// or -1 for a store grown by AddStore (a migrated or re-placed shard's
// landing zone), which the dial-time placement does not cover.
func (c *Client) globalShard(local uint32) int {
	if int(local) >= c.placed {
		return -1
	}
	return c.cfg.ShardBase + int(local)*c.cfg.ShardStride
}

// nodeDown wraps a transport error for one call.
func (c *Client) nodeDown(local uint32, stateLost bool, cause error) *ErrNodeDown {
	return &ErrNodeDown{Addr: c.addr, Shard: c.globalShard(local), StateLost: stateLost, Err: cause}
}

// downErrLocked classifies one call's dead-connection failure: a
// connection the server ended with a goaway maps to *ErrOverloaded — the
// node is alive and intact, it shed us, so the caller should back off and
// retry rather than run node-death recovery — anything else to
// *ErrNodeDown. Callers hold c.mu.
func (c *Client) downErrLocked(shard uint32, cause error) error {
	if g := c.goaway; g != nil {
		return &ErrOverloaded{
			Addr:       c.addr,
			Shard:      c.globalShard(shard),
			RetryAfter: g.retryAfter,
			Err:        fmt.Errorf("server sent goaway: %s", g.reason),
		}
	}
	return c.nodeDown(shard, false, cause)
}

// failAllLocked releases every pending caller with *ErrNodeDown (or
// *ErrOverloaded after a goaway; see downErrLocked). The state-losing
// variant lives in adopt, which spares never-sent Restore frames. Callers
// hold c.mu.
func (c *Client) failAllLocked(cause error) {
	for id, pc := range c.pending {
		delete(c.pending, id)
		pc.ch <- rpcResult{err: c.downErrLocked(pc.shard, cause)}
	}
}

// lost declares connection generation gen dead. Exactly one caller wins
// (later and stale calls no-op); the winner either fails everything
// (fail-fast mode) or parks the pending calls and starts the reconnect
// loop.
func (c *Client) lost(gen uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed || gen != c.gen || c.connErr != nil {
		return
	}
	c.connErr = err
	c.conn.Close()
	if !c.cfg.Reconnect {
		c.failAllLocked(err)
		return
	}
	if !c.reconnecting {
		c.reconnecting = true
		go c.reconnectLoop()
	}
}

// reconnectLoop redials with jittered exponential backoff (10ms doubling,
// capped at 500ms; each sleep drawn uniformly from [backoff/2, backoff])
// until the handshake succeeds, the retry budget elapses, or the client
// closes. On success the new connection is adopted and pending frames
// replayed; on failure pending calls get ErrNodeDown but the client stays
// usable — the next call starts a fresh loop (lazy redial).
func (c *Client) reconnectLoop() {
	deadline := time.Now().Add(c.cfg.RetryElapsed)
	backoff := 10 * time.Millisecond
	for {
		c.mu.Lock()
		if c.closed {
			c.reconnecting = false
			c.mu.Unlock()
			return
		}
		cause := c.connErr
		wantShards := c.shards
		c.mu.Unlock()

		conn, shards, gw, bootID, err := dialHandshake(c.ctx, c.addr)
		if err == nil {
			// A node that grew under AddStore may legitimately come back
			// with at least as many stores as we knew about; fewer (or a
			// different geometry) is a different deployment, not a restart
			// of this one.
			if shards < wantShards || gw != geometryToWire(c.geom) {
				conn.Close()
				c.giveUp(fmt.Errorf("remote: node %s changed shape across restart (shards %d, was %d)",
					c.addr, shards, wantShards))
				return
			}
			c.adopt(conn, bootID)
			return
		}
		if c.ctx.Err() != nil || time.Now().After(deadline) {
			c.giveUp(cause)
			return
		}
		select {
		case <-time.After(jitteredBackoff(c.rng, backoff)):
		case <-c.stop:
			c.giveUp(cause)
			return
		case <-c.ctx.Done():
			// A cancelled dial context must release parked calls now, not
			// after sleeping out the backoff. (The context watcher Closes the
			// client too, but only when one was started — DialConfig skips it
			// for contexts that can never fire, and the races are harmless
			// because giveUp is idempotent under c.mu.)
			c.giveUp(cause)
			return
		}
		if backoff *= 2; backoff > 500*time.Millisecond {
			backoff = 500 * time.Millisecond
		}
	}
}

// jitterSeq makes every client's jitter stream distinct even for the same
// address — the whole point is that many clients of one restarted node do
// not redial in lockstep.
var jitterSeq atomic.Uint64

// jitterSeed derives a deterministic-but-distinct jitter seed: the address
// hash keeps a single-client test reproducible run to run, the sequence
// counter decorrelates clients dialling the same node within a process.
func jitterSeed(addr string) int64 {
	h := fnv.New64a()
	h.Write([]byte(addr))
	return int64(h.Sum64() ^ jitterSeq.Add(1)*0x9E3779B97F4A7C15)
}

// jitteredBackoff draws a sleep uniformly from [d/2, d]: the exponential
// envelope is preserved (never sleeps longer than the deterministic
// schedule did) while breaking redial synchrony across clients.
func jitteredBackoff(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	half := d / 2
	return half + time.Duration(rng.Int63n(int64(half)+1))
}

// giveUp ends a reconnect attempt: every parked call fails, but connErr
// stays set so a future call can try again.
func (c *Client) giveUp(cause error) {
	c.mu.Lock()
	c.failAllLocked(cause)
	c.reconnecting = false
	c.mu.Unlock()
}

// adopt installs a freshly handshaken connection, applies the boot-ID
// state-loss rule to parked calls, and replays the survivors' frames.
func (c *Client) adopt(conn net.Conn, bootID uint64) {
	c.mu.Lock()
	if c.closed {
		c.reconnecting = false
		c.mu.Unlock()
		conn.Close()
		return
	}
	c.gen++
	gen := c.gen
	c.conn = conn
	c.connErr = nil
	c.reconnecting = false
	c.goaway = nil // a fresh connection starts with a clean slate
	if bootID != c.bootID {
		// The node restarted: its tree is gone. Latch state loss — every
		// pending and future call fails until a Restore rebuilds the trees
		// from a checkpoint. Only never-sent Restore frames survive to
		// replay: they are the recovery traffic itself.
		c.stateLost = true
		cause := fmt.Errorf("boot id %#x, was %#x", bootID, c.bootID)
		for id, pc := range c.pending {
			if pc.op == opRestore && pc.sentGen == 0 {
				continue
			}
			delete(c.pending, id)
			pc.ch <- rpcResult{err: c.nodeDown(pc.shard, true, cause)}
		}
	}
	c.bootID = bootID
	resend := make([]*pendingCall, 0, len(c.pending))
	for _, pc := range c.pending {
		pc.sentGen = gen
		pc.replayed = true
		resend = append(resend, pc)
	}
	c.mu.Unlock()
	go c.readLoop(conn, gen)
	c.wmu.Lock()
	for _, pc := range resend {
		if err := writeFrame(conn, pc.req); err != nil {
			c.wmu.Unlock()
			c.lost(gen, fmt.Errorf("remote: send: %w", err))
			return
		}
	}
	c.wmu.Unlock()
}

// call performs one request/response exchange, absorbing admission-control
// sheds: a statusBusy response is retried here — inside the lane, invisible
// to the ORAM client above — with jittered exponential backoff that never
// undercuts the server's retry-after hint. Only when the retry budget
// (Config.ShedRetries) runs out does the caller see *ErrOverloaded. An
// overloaded node is not a failed node: nothing executed, nothing was
// lost, so no rollback or recovery is ever triggered by a shed.
//
// A snapshot or restore of a shard's tree goes behind the shard's held
// write-back: sent first, or dropped by the restore that replaces the tree it
// was computed against. (Data frames are built in place and sent through
// callFrame; see readUnion and WriteBuckets.)
func (c *Client) call(op byte, shard uint32, body []byte) ([]byte, error) {
	if op == opSnapshot || op == opRestore {
		if err := c.setHeld(shard, nil, op == opRestore); err != nil {
			return nil, err
		}
	}
	return c.callFrame(op, shard, append(newFrame(len(body)), body...))
}

// hdrRoom is the space a request frame is built with ahead of its body: the
// request header, stamped in place per attempt, and an optional deadline
// envelope.
const hdrRoom = reqHeaderLen + deadlineHdrLen

// newFrame returns a pooled request frame with room for bodyCap bytes of body.
func newFrame(bodyCap int) []byte { return getFrame(hdrRoom + bodyCap)[:hdrRoom] }

// callFrame performs the exchange for a built frame (newFrame plus body) and
// recycles it. A shed request is re-sent from the same bytes. The returned
// body aliases a pooled frame the caller may putFrame once parsed.
func (c *Client) callFrame(op byte, shard uint32, frame []byte) ([]byte, error) {
	backoff := time.Millisecond
	for sheds := 0; ; {
		res, replayed := c.callOnce(op, shard, frame)
		if !res.busy {
			if !replayed {
				putFrame(frame)
			}
			return res.body, res.err
		}
		if replayed { // a reconnect may still be writing this copy
			frame = append(getFrame(len(frame)), frame...)
		}
		sheds++
		if sheds > c.cfg.ShedRetries {
			return nil, &ErrOverloaded{
				Addr:       c.addr,
				Shard:      c.globalShard(shard),
				RetryAfter: res.retryAfter,
				Sheds:      sheds,
				Err:        res.err,
			}
		}
		wait := backoff
		if res.retryAfter > wait {
			wait = res.retryAfter
		}
		c.bmu.Lock()
		wait = jitteredBackoff(c.brng, wait)
		c.bmu.Unlock()
		select {
		case <-time.After(wait):
		case <-c.stop:
			return nil, fmt.Errorf("remote: client closed")
		}
		if backoff *= 2; backoff > 250*time.Millisecond {
			backoff = 250 * time.Millisecond
		}
	}
}

// requestBudget resolves the relative deadline to attach to one data
// request: the configured RequestDeadline, tightened by the dial context's
// remaining time when it has a deadline. ok = false sends no envelope.
func (c *Client) requestBudget() (budget time.Duration, ok bool) {
	d := c.cfg.RequestDeadline
	if dl, hasDL := c.ctx.Deadline(); hasDL {
		if rem := time.Until(dl); d == 0 || rem < d {
			d = rem
		}
	}
	if d == 0 {
		return 0, false
	}
	if d < time.Millisecond {
		// An already-expired context still sends a (minimal) budget; the
		// server sheds it cheaply and the context watcher ends the client.
		d = time.Millisecond
	}
	return d, true
}

// callOnce performs one request/response exchange. Many calls may be in
// flight concurrently; each blocks only on its own response channel. While
// the connection is down in reconnect mode the call parks: the reconnect
// loop will send its frame once a connection is adopted, or fail it when
// the retry budget runs out. replayed: a reconnect took the frame and may
// still be writing it, so the caller must neither change nor recycle it.
func (c *Client) callOnce(op byte, shard uint32, frame []byte) (res rpcResult, replayed bool) {
	// The frame was built before the lock is taken (a bucket union is ~100 KB
	// of copying that concurrent lanes need not wait for); only its header is
	// stamped here, its request ID under the lock with the admission checks.
	off := deadlineHdrLen
	if budget, deadline := c.requestBudget(); deadline && isDataOp(op) {
		off = 0
		appendDeadlineHeader(appendReqHeader(frame[:0], 0, opDeadline, shard), budget, op)
	} else {
		appendReqHeader(frame[:off], 0, op, shard)
	}
	req := frame[off:]
	pc := &pendingCall{ch: make(chan rpcResult, 1), req: req, shard: shard, op: op}

	c.mu.Lock()
	var refuse error
	switch {
	case c.closed:
		refuse = fmt.Errorf("remote: client closed")
	case c.stateLost && op != opRestore:
		// The node restarted since the last checkpoint was applied; only a
		// Restore may pass until its trees are re-established. Snapshots
		// are blocked too — checkpointing a rolled-back tree would commit
		// garbage as a recovery point.
		refuse = c.nodeDown(shard, true, fmt.Errorf("node restarted; state not re-established"))
	case c.connErr != nil && !c.cfg.Reconnect:
		refuse = c.downErrLocked(shard, c.connErr)
	}
	if refuse != nil {
		c.mu.Unlock()
		return rpcResult{err: refuse}, false
	}
	c.nextID++
	id := c.nextID
	binary.BigEndian.PutUint64(req, id)
	c.pending[id] = pc
	healthy := c.connErr == nil
	gen := c.gen
	conn := c.conn
	if !healthy && !c.reconnecting {
		// Lazy redial: a previous outage exhausted its budget; this call
		// starts a fresh reconnect attempt and parks on it.
		c.reconnecting = true
		go c.reconnectLoop()
	}
	c.mu.Unlock()

	if healthy {
		c.wmu.Lock()
		err := writeFrame(conn, req)
		c.wmu.Unlock()
		if err != nil {
			c.lost(gen, fmt.Errorf("remote: send: %w", err))
		} else {
			c.mu.Lock()
			if cur, ok := c.pending[id]; ok && cur == pc && pc.sentGen == 0 {
				pc.sentGen = gen
			}
			c.mu.Unlock()
		}
	}
	res = <-pc.ch
	// Every send on pc.ch happens under, or after a critical section of,
	// c.mu that follows any adopt marking the call replayed, so this read
	// is ordered after the mark.
	return res, pc.replayed
}

// heldWrite is one shard's held write-back — stash by another name: a union
// WriteBuckets checked as the server would and serialised once, which leaves at
// the head of the shard's next ReadBuckets frame (kind 2) or, ahead of any
// other operation, as an ordinary kind-1 frame. mu is held across the round
// trip that sends the frame, so nothing on the shard overtakes it.
type heldWrite struct {
	mu    sync.Mutex
	frame []byte // newFrame + a whole kind-1 opBatch body; nil = nothing held
}

// lockHeld returns shard's hold, locked.
func (c *Client) lockHeld(shard uint32) *heldWrite {
	c.mu.Lock()
	h := c.held[shard]
	if h == nil {
		h = new(heldWrite)
		c.held[shard] = h
	}
	c.mu.Unlock()
	h.mu.Lock()
	return h
}

// setHeld makes next (nil: nothing) shard's held write-back, once the one held
// before is sent and acked as an ordinary frame — or, with drop, discarded. A
// write-back that fails is gone, as when WriteBuckets itself failed; the error
// surfaces, named as the write-back's, on the operation that sent it.
func (c *Client) setHeld(shard uint32, next []byte, drop bool) error {
	h := c.lockHeld(shard)
	defer h.mu.Unlock()
	old := h.frame
	if h.frame = next; old == nil || drop {
		putFrame(old)
		return nil
	}
	resp, err := c.callFrame(opBatch, shard, old)
	if err == nil && len(resp) != 0 {
		err = fmt.Errorf("%d trailing bytes after batch write response", len(resp))
	}
	putFrame(resp)
	if err != nil {
		putFrame(next)
		h.frame = nil
		err = fmt.Errorf("remote: held write-back: %w", err)
	}
	return err
}

// readUnion fetches refs on shard in one round trip: a held write-back heads
// a kind-2 frame and the read rides behind it.
func (c *Client) readUnion(shard uint32, refs []oram.BucketRef) ([]byte, error) {
	h := c.lockHeld(shard)
	frame := h.frame
	if h.frame = nil; frame == nil {
		h.mu.Unlock()
		return c.callFrame(opBatch, shard, appendUnion(append(newFrame(batchHeaderLen+len(refs)*bucketRefLen), batchRead), refs))
	}
	defer h.mu.Unlock()
	frame[hdrRoom] = batchCarry
	resp, err := c.callFrame(opBatch, shard, appendUnion(frame, refs))
	if err != nil {
		err = fmt.Errorf("remote: read carrying the held write-back: %w", err)
	}
	return resp, err
}

// ShardStore is the oram.Store view onto one shard of a sharded server,
// sharing the underlying multiplexed connection. Safe for concurrent use;
// typically each per-shard ORAM lane owns one ShardStore and their
// requests pipeline on the shared connection.
//
// The (connection, wire shard) pair is the view's placement, and it is
// dynamic: MigrateTo moves the shard's tree to another node live, and
// Repoint swaps the placement after an out-of-band restore. Every
// operation holds the placement read lock for its whole round trip, so a
// migration's write lock is a clean drain point — no op can land on the
// old store after its tree has been snapshotted away. Holding the lock
// across the swap (not just the field reads) is what makes the final
// state byte-identical: the lock is the lane pause.
type ShardStore struct {
	mu    sync.RWMutex
	c     *Client
	shard uint32
}

var (
	_ oram.Store       = (*ShardStore)(nil)
	_ oram.PathStore   = (*ShardStore)(nil)
	_ oram.BatchStore  = (*ShardStore)(nil)
	_ oram.Snapshotter = (*ShardStore)(nil)
)

// Geometry implements oram.Store. Placement changes preserve it: Repoint
// and MigrateTo only accept targets with identical geometry.
func (s *ShardStore) Geometry() *oram.Geometry {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.c.geom
}

// Shard returns the wire shard index this view currently addresses on its
// serving node.
func (s *ShardStore) Shard() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int(s.shard)
}

// Client returns the node connection this view currently points at — the
// placement-table read a health monitor or recovery loop needs to decide
// which shards a dead node was serving.
func (s *ShardStore) Client() *Client {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.c
}

// Flush sends the shard's held write-back, if any, as a frame of its own.
func (s *ShardStore) Flush() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.c.setHeld(s.shard, nil, false)
}

// pcall performs one snapshot or restore through the view's current
// placement, holding the placement read lock for the whole round trip (see
// the type comment: the lock is what drains the lane during a migration).
func (s *ShardStore) pcall(op byte, body []byte) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.c.call(op, s.shard, body)
}

// Repoint swaps this view's placement to the target view's (node, shard)
// without moving any data — the re-placement primitive for a shard whose
// old node is gone: point the view at a fresh store on a survivor, then
// restore the shard's checkpoint through it (the old placement is sent its
// held write-back first). Fails if the target's geometry differs.
func (s *ShardStore) Repoint(target *ShardStore) error {
	if target == nil {
		return fmt.Errorf("remote: Repoint needs a target view")
	}
	target.mu.RLock()
	tc, tshard := target.c, target.shard
	target.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if geometryToWire(tc.geom) != geometryToWire(s.c.geom) {
		return fmt.Errorf("remote: Repoint target geometry %s differs from %s", tc.geom, s.c.geom)
	}
	// A held write-back the old node no longer takes is lost with the node.
	_ = s.c.setHeld(s.shard, nil, false)
	s.c, s.shard = tc, tshard
	return nil
}

// MigrateTo moves this shard's tree to the target view's (node, shard)
// live: under the placement write lock — which drains the shard's lane —
// it snapshots the tree at the current node (opSnapshot, behind the shard's
// held write-back), restores it into the target store (opRestore), and swaps
// the placement. The returned duration is the migration blackout. On any
// error the placement is untouched and the old node keeps serving — a
// failed migration never leaves a half-migrated shard. No source rewind,
// no rollback: the client's stash and position map never notice the move.
func (s *ShardStore) MigrateTo(target *ShardStore) (blackout time.Duration, err error) {
	if target == nil {
		return 0, fmt.Errorf("remote: MigrateTo needs a target view")
	}
	target.mu.RLock()
	tc, tshard := target.c, target.shard
	target.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if tc == s.c && tshard == s.shard {
		return 0, nil
	}
	if geometryToWire(tc.geom) != geometryToWire(s.c.geom) {
		return 0, fmt.Errorf("remote: MigrateTo target geometry %s differs from %s", tc.geom, s.c.geom)
	}
	start := time.Now()
	snap, err := s.c.call(opSnapshot, s.shard, nil)
	if err != nil {
		return 0, fmt.Errorf("remote: migrate snapshot: %w", err)
	}
	if len(snap) > maxFrame-reqHeaderLen {
		return 0, fmt.Errorf("remote: shard %d snapshot of %d bytes exceeds frame limit", s.shard, len(snap))
	}
	if _, err := tc.call(opRestore, tshard, snap); err != nil {
		return 0, fmt.Errorf("remote: migrate restore: %w", err)
	}
	s.c, s.shard = tc, tshard
	return time.Since(start), nil
}

// parseBuckets fills dst bucket by bucket from resp, requiring an exact fit.
// Payloads are copied out of resp (see parseSlot), so resp is free once this
// returns.
func parseBuckets(resp []byte, dst ...[]Slot) error {
	var err error
	for _, bucket := range dst {
		for i := range bucket {
			if resp, err = parseSlot(resp, &bucket[i]); err != nil {
				return err
			}
		}
	}
	if len(resp) != 0 {
		return fmt.Errorf("remote: %d trailing bytes after slots", len(resp))
	}
	return nil
}

// appendSlots serialises a bucket's slots.
func appendSlots(buf []byte, src []Slot) []byte {
	for i := range src {
		buf = appendSlot(buf, &src[i])
	}
	return buf
}

// The per-granularity methods below have no frame of their own (opBatch is the
// only data frame): a bucket is a one-ref union and a path its Levels() refs,
// root first. Reads carry the shard's held write-back; writes are held, as
// WriteBuckets' are.

// ReadBucket implements oram.Store.
func (s *ShardStore) ReadBucket(level int, node uint64, dst []Slot) error {
	return s.ReadBuckets([]oram.BucketRef{{Level: level, Node: node}}, [][]Slot{dst})
}

// WriteBucket implements oram.Store.
func (s *ShardStore) WriteBucket(level int, node uint64, src []Slot) error {
	return s.WriteBuckets([]oram.BucketRef{{Level: level, Node: node}}, [][]Slot{src})
}

// ReadSlot implements oram.Store: a one-ref union, so it carries the held
// write-back.
func (s *ShardStore) ReadSlot(level int, node uint64, slot int, dst *Slot) error {
	return oram.ReadSlotVia(s, level, node, slot, dst)
}

// WriteSlot implements oram.Store: the bucket read carries the held write-back
// and the rewritten bucket is held in its place.
func (s *ShardStore) WriteSlot(level int, node uint64, slot int, src Slot) error {
	return oram.WriteSlotVia(s, level, node, slot, src)
}

// ReadPath implements oram.PathStore: the whole root→leaf path in one
// frame.
func (s *ShardStore) ReadPath(leaf Leaf, dst [][]Slot) error {
	refs, err := s.pathRefs(leaf)
	if err != nil {
		return err
	}
	return s.ReadBuckets(refs, dst)
}

// WritePath implements oram.PathStore.
func (s *ShardStore) WritePath(leaf Leaf, src [][]Slot) error {
	refs, err := s.pathRefs(leaf)
	if err != nil {
		return err
	}
	return s.WriteBuckets(refs, src)
}

// pathRefs lists the buckets on the path to leaf, root first.
func (s *ShardStore) pathRefs(leaf Leaf) ([]oram.BucketRef, error) {
	g := s.Geometry()
	if !g.ValidLeaf(leaf) {
		return nil, fmt.Errorf("remote: leaf %d out of range", leaf)
	}
	refs := make([]oram.BucketRef, g.Levels())
	for lvl := range refs {
		refs[lvl] = oram.BucketRef{Level: lvl, Node: g.NodeAt(leaf, lvl)}
	}
	return refs, nil
}

// Save implements oram.Snapshotter over the wire (opSnapshot): the server
// serialises this shard's store under its shard lock and ships the bytes
// back in one frame. Making ShardStore a Snapshotter is what lets the
// public checkpoint envelope treat local and remote shards uniformly — the
// engine's CountingStore delegates Save/Load to whatever it wraps, so
// ORAM.SaveState fans one Save per shard out to its serving node and every
// node's snapshot commits in the same epoch-stamped set as the client
// state. Snapshots are bounded by the protocol frame limit; a tree too
// large to serialise in one frame fails with the server's clean error.
func (s *ShardStore) Save(w io.Writer) error {
	resp, err := s.pcall(opSnapshot, nil)
	if err != nil {
		return err
	}
	_, err = w.Write(resp)
	return err
}

// Load implements oram.Snapshotter over the wire (opRestore): the snapshot
// bytes travel to the server, which loads them into the shard's store under
// its lock. The restore is addressed by this view's shard index, so a
// checkpoint recorded under one placement can be re-partitioned onto
// another simply by Loading each shard's bytes through the new placement's
// views.
func (s *ShardStore) Load(r io.Reader) error {
	body, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if len(body) > maxFrame-reqHeaderLen {
		return fmt.Errorf("remote: shard %d snapshot of %d bytes exceeds frame limit", s.Shard(), len(body))
	}
	_, err = s.pcall(opRestore, body)
	return err
}

// batchFrameBudget bounds the estimated request/response bytes of one
// opBatch frame; larger batches are split across several frames so a
// legitimately huge bucket union can never produce a frame the peer must
// refuse. A var so tests can force the chunking path cheaply.
var batchFrameBudget = maxFrame / 2

// checkUnion makes the server's pre-lock checks on a bucket union against the
// client's own geometry — refs in range, buffers their buckets' size, written
// rows empty or one block long — so the call itself refuses a bad union.
func checkUnion(g *oram.Geometry, refs []oram.BucketRef, bufs [][]Slot, write bool) error {
	if len(refs) != len(bufs) {
		return fmt.Errorf("remote: bucket union of %d refs, %d buffers", len(refs), len(bufs))
	}
	for i, r := range refs {
		if !validRef(g, r) || len(bufs[i]) != g.BucketSize(r.Level) {
			return fmt.Errorf("remote: union bucket %d: (%d,%d) out of range, or not %d slots", i, r.Level, r.Node, len(bufs[i]))
		}
		for k := 0; write && k < len(bufs[i]); k++ {
			if badPayload(&bufs[i][k], g.BlockSize()) {
				return fmt.Errorf("remote: union bucket %d slot %d: payload len %d != block size %d", i, k, len(bufs[i][k].Payload), g.BlockSize())
			}
		}
	}
	return nil
}

// chunkRefs yields maximal ranges of (checked) refs whose estimated frame size
// stays within batchFrameBudget (always at least one ref per chunk), with that
// estimate: an upper bound on the larger of the chunk's two frames.
func chunkRefs(g *oram.Geometry, refs []oram.BucketRef, visit func(lo, hi, cost int) error) error {
	lo, cost := 0, 0
	for i, r := range refs {
		c := bucketRefLen + slotsWireLen(g.BucketSize(r.Level), g.BlockSize())
		if i > lo && (cost+c > batchFrameBudget || i-lo >= maxBatchOps) {
			if err := visit(lo, i, cost); err != nil {
				return err
			}
			lo, cost = i, 0
		}
		cost += c
	}
	if lo < len(refs) {
		return visit(lo, len(refs), cost)
	}
	return nil
}

// ReadBuckets implements oram.BatchStore: the deduplicated bucket union of
// a batched fetch in one opBatch frame (or a handful, when the union
// exceeds the frame budget) — the frame that also carries the shard's held
// write-back, so a lane's chunk is one round trip. Slot payloads land in the
// capacity dst arrives armed with (see parseSlot).
func (s *ShardStore) ReadBuckets(refs []oram.BucketRef, dst [][]Slot) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := checkUnion(s.c.geom, refs, dst, false); err != nil {
		return err
	}
	return chunkRefs(s.c.geom, refs, func(lo, hi, _ int) error {
		resp, err := s.c.readUnion(s.shard, refs[lo:hi])
		if err != nil {
			return err
		}
		err = parseBuckets(resp, dst[lo:hi]...)
		putFrame(resp)
		return err
	})
}

// WriteBuckets implements oram.BatchStore. The union is checked whole, every
// slot serialised exactly once, into the frame that will leave, and that frame
// held (see heldWrite): nil means accepted, and applied before any later
// operation on the shard executes. Of a union that needs several frames all
// but the last are sent here; each is written whole or not at all.
func (s *ShardStore) WriteBuckets(refs []oram.BucketRef, src [][]Slot) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if err := checkUnion(s.c.geom, refs, src, true); err != nil {
		return err
	}
	return chunkRefs(s.c.geom, refs, func(lo, hi, cost int) error {
		frame := appendUnion(append(newFrame(batchHeaderLen+cost), batchWrite), refs[lo:hi])
		for _, b := range src[lo:hi] {
			frame = appendSlots(frame, b)
		}
		return s.c.setHeld(s.shard, frame, false)
	})
}

// Slot aliases oram.Slot for the Store method signatures.
type Slot = oram.Slot

// Leaf aliases oram.Leaf for the PathStore method signatures.
type Leaf = oram.Leaf
