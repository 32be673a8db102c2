package remote

import (
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/oram"
)

// Server exposes one or more shard Stores over TCP: the paper's
// server_storage component, scaled to the serving path. It is intentionally
// "dumb" — it answers bucket-union requests at the addresses the client
// names and never learns which logical block is meant; all obliviousness
// lives client-side.
//
// Concurrency model: every connection gets a reader and a writer goroutine;
// parsed requests are dispatched to a bounded worker pool shared across
// connections, and each worker serialises storage access per shard (one
// mutex per shard store), so requests for different shards execute in
// parallel while a single shard's tree stays consistent. Responses carry
// the request ID and may return out of order; clients multiplex by ID.
type Server struct {
	// smu guards the store table. It was fixed at construction until the
	// elastic-placement work; now AddStore may grow it while connections
	// serve, so every lookup takes the read side. locks holds pointers —
	// appending to a []sync.Mutex would reallocate the array out from
	// under a held lock.
	smu     sync.RWMutex
	stores  []oram.Face // each shard's store, its path/batch face resolved once
	locks   []*sync.Mutex
	factory func() (oram.Store, error) // builds one more store for opAddStore; nil = fixed placement

	geom    *oram.Geometry
	workers int
	bootID  uint64 // random per-Server identity, sent in the hello response

	logf func(format string, args ...any)

	ln     net.Listener
	lnOnce sync.Once // Drain and Close race to close the listener
	lnErr  error
	disp   *dispatcher

	// limits is the admission-control configuration (zero = admit
	// everything, FIFO dispatch — the pre-v3 behaviour). Set before Listen.
	limits   Limits
	inflight atomic.Int64 // admitted data requests not yet completed
	oc       overloadCounters
	svc      serviceClock

	draining atomic.Bool

	wg     sync.WaitGroup
	closed chan struct{}

	connMu sync.Mutex
	conns  map[*serverConn]struct{}
}

// serverConn is the per-connection state shared by the reader, the writer
// and any workers holding responses for it.
type serverConn struct {
	conn net.Conn
	out  chan []byte   // response frame payloads awaiting the writer
	done chan struct{} // closed when the connection is torn down
	once sync.Once

	// goaway is a 1-slot priority channel to the write loop: the final
	// typed busy frame a slow consumer receives before its connection is
	// dropped. The write loop checks it before every response so the
	// goaway outranks whatever is queued.
	goaway chan []byte

	// bucket meters this connection's data-request rate (nil = unlimited).
	bucket *tokenBucket
	// cq is this connection's queue under fair dispatch (nil otherwise).
	cq *connQueue
}

func (sc *serverConn) close() {
	sc.once.Do(func() {
		close(sc.done)
		sc.conn.Close()
	})
}

// NewServer wraps a single store (a 1-shard server); logf may be nil
// (silent).
func NewServer(store oram.Store, logf func(string, ...any)) *Server {
	srv, err := NewSharded([]oram.Store{store}, 0, logf)
	if err != nil {
		// A single non-nil store cannot fail validation.
		panic(err)
	}
	return srv
}

// NewSharded wraps one backing store per shard. All stores must share one
// tree geometry (clients learn it once in the handshake). workers bounds
// the dispatch pool; <= 0 picks a default sized to the host.
func NewSharded(stores []oram.Store, workers int, logf func(string, ...any)) (*Server, error) {
	if len(stores) == 0 {
		return nil, fmt.Errorf("remote: NewSharded needs at least one store")
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var geom *oram.Geometry
	faces := make([]oram.Face, len(stores))
	for i, st := range stores {
		if st == nil {
			return nil, fmt.Errorf("remote: shard %d store is nil", i)
		}
		faces[i] = oram.Resolve(st)
		g := st.Geometry()
		if i == 0 {
			geom = g
			continue
		}
		if geometryToWire(g) != geometryToWire(geom) {
			return nil, fmt.Errorf("remote: shard %d geometry %s differs from shard 0 (%s)", i, g, geom)
		}
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if workers < 2 {
			workers = 2
		}
	}
	locks := make([]*sync.Mutex, len(stores))
	for i := range locks {
		locks[i] = new(sync.Mutex)
	}
	return &Server{
		stores:  faces,
		locks:   locks,
		geom:    geom,
		workers: workers,
		bootID:  newBootID(),
		logf:    logf,
		closed:  make(chan struct{}),
		conns:   make(map[*serverConn]struct{}),
	}, nil
}

// newBootID draws a random process identity.
func newBootID() uint64 {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("remote: boot id entropy: %v", err))
	}
	return binary.BigEndian.Uint64(b[:])
}

// Shards returns the number of shard stores served.
func (s *Server) Shards() int {
	s.smu.RLock()
	defer s.smu.RUnlock()
	return len(s.stores)
}

// BootID returns this server instance's identity, as sent to clients.
func (s *Server) BootID() uint64 { return s.bootID }

// shardStore resolves one shard's store and lock under the table's read
// lock. The lock is a stable pointer, so the caller may use both after the
// read lock is released even while AddStore grows the table.
func (s *Server) shardStore(shard uint32) (oram.Face, *sync.Mutex, error) {
	s.smu.RLock()
	defer s.smu.RUnlock()
	if shard >= uint32(len(s.stores)) {
		return oram.Face{}, nil, fmt.Errorf("shard %d out of range (server has %d)", shard, len(s.stores))
	}
	return s.stores[shard], s.locks[shard], nil
}

// SetStoreFactory arms opAddStore: f builds one more shard store (same
// geometry as the rest) each time a client asks for somewhere to land a
// migrated or re-placed shard. A nil factory (the default) keeps the
// placement fixed and opAddStore rejected.
func (s *Server) SetStoreFactory(f func() (oram.Store, error)) {
	s.smu.Lock()
	s.factory = f
	s.smu.Unlock()
}

// AddStore builds one more shard store through the factory, validates its
// geometry and appends it to the table, returning its index. It is the
// in-process half of opAddStore.
func (s *Server) AddStore() (int, error) {
	s.smu.Lock()
	defer s.smu.Unlock()
	if s.factory == nil {
		return 0, fmt.Errorf("remote: server has no store factory; cannot grow placement")
	}
	st, err := s.factory()
	if err != nil {
		return 0, fmt.Errorf("remote: store factory: %w", err)
	}
	if st == nil {
		return 0, fmt.Errorf("remote: store factory returned nil store")
	}
	if geometryToWire(st.Geometry()) != geometryToWire(s.geom) {
		return 0, fmt.Errorf("remote: store factory geometry %s differs from serving geometry %s", st.Geometry(), s.geom)
	}
	s.stores = append(s.stores, oram.Resolve(st))
	s.locks = append(s.locks, new(sync.Mutex))
	return len(s.stores) - 1, nil
}

// SetLimits configures admission control (see Limits); call before Listen.
// The zero Limits — the default — keeps the pre-v3 behaviour: every request
// admitted, one FIFO dispatch queue shared by all connections.
func (s *Server) SetLimits(l Limits) error {
	if err := l.validate(s.workers); err != nil {
		return err
	}
	s.limits = l
	return nil
}

// Limits returns the active admission configuration.
func (s *Server) Limits() Limits { return s.limits }

// OverloadStats returns the admission layer's decision counts since the
// server started.
func (s *Server) OverloadStats() OverloadStats { return s.oc.snapshot() }

// Drain begins a graceful shutdown: the listener closes so no new
// connections arrive, opHealth starts reporting draining so clients
// migrate their shards off proactively, but existing connections keep
// serving (migration itself needs the live opSnapshot path). Close
// finishes the job once the clients have moved.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.closeListener()
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// ActiveConns counts the currently live client connections — a draining
// process waits for this to reach zero before its final checkpoint.
func (s *Server) ActiveConns() int {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	return len(s.conns)
}

func (s *Server) closeListener() {
	s.lnOnce.Do(func() {
		if s.ln != nil {
			s.lnErr = s.ln.Close()
		}
	})
}

// SnapshotShard serialises one shard's store under its lock — a consistent
// point-in-time checkpoint even while the server keeps serving other
// shards. The store (or what it wraps) must implement oram.Snapshotter.
func (s *Server) SnapshotShard(shard int, w io.Writer) error {
	if shard < 0 {
		return fmt.Errorf("remote: shard %d out of range", shard)
	}
	store, lock, err := s.shardStore(uint32(shard))
	if err != nil {
		return fmt.Errorf("remote: %w", err)
	}
	snap, ok := store.Store.(oram.Snapshotter)
	if !ok {
		return fmt.Errorf("remote: shard %d store %T does not support snapshots", shard, store.Store)
	}
	lock.Lock()
	defer lock.Unlock()
	return snap.Save(w)
}

// RestoreShard loads one shard's store from a checkpoint under its lock.
// The coordinated-rollback recovery path uses this to rewind surviving
// nodes in place to the same checkpoint a restarted node came back from.
func (s *Server) RestoreShard(shard int, r io.Reader) error {
	if shard < 0 {
		return fmt.Errorf("remote: shard %d out of range", shard)
	}
	store, lock, err := s.shardStore(uint32(shard))
	if err != nil {
		return fmt.Errorf("remote: %w", err)
	}
	snap, ok := store.Store.(oram.Snapshotter)
	if !ok {
		return fmt.Errorf("remote: shard %d store %T does not support snapshots", shard, store.Store)
	}
	lock.Lock()
	defer lock.Unlock()
	return snap.Load(r)
}

// Listen starts accepting on addr ("host:port"; ":0" picks a free port) and
// returns the bound address. Serving happens on background goroutines.
func (s *Server) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("remote: listen: %w", err)
	}
	s.ln = ln
	// The FIFO bound matches the old `chan task` capacity; the fair bound
	// is per connection.
	s.disp = newDispatcher(s.limits.Fair, s.workers, s.limits.maxQueue(s.workers))
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return ln.Addr().String(), nil
}

// Close stops accepting, tears down live connections and waits for the
// reader/writer/worker goroutines to finish.
func (s *Server) Close() error {
	close(s.closed)
	s.closeListener()
	if s.disp != nil {
		s.disp.close()
	}
	err := s.lnErr
	s.connMu.Lock()
	for sc := range s.conns {
		sc.close()
	}
	s.connMu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
			default:
				if !s.draining.Load() {
					s.logf("remote: accept: %v", err)
				}
			}
			return
		}
		sc := &serverConn{
			conn:   conn,
			out:    make(chan []byte, 128),
			done:   make(chan struct{}),
			goaway: make(chan []byte, 1),
		}
		if s.limits.Fair {
			sc.cq = &connQueue{sc: sc}
		}
		if s.limits.PerConnRate > 0 {
			sc.bucket = newTokenBucket(s.limits.PerConnRate, s.limits.burst())
		}
		s.connMu.Lock()
		s.conns[sc] = struct{}{}
		s.connMu.Unlock()
		s.wg.Add(2)
		go s.readLoop(sc)
		go s.writeLoop(sc)
	}
}

// readLoop pulls frames off the socket, parses and admits them, and hands
// admitted tasks to the worker pool. Frame order on the wire does not
// constrain response order. Admission runs here — in the connection's own
// goroutine — so one tenant's rejected flood costs no worker time at all.
func (s *Server) readLoop(sc *serverConn) {
	defer s.wg.Done()
	defer func() {
		sc.close()
		s.connMu.Lock()
		delete(s.conns, sc)
		s.connMu.Unlock()
	}()
	for {
		frame, err := readFrame(sc.conn)
		if err != nil {
			if !errors.Is(err, io.EOF) && !isClosedConn(err) {
				s.logf("remote: conn %v: %v", sc.conn.RemoteAddr(), err)
			}
			return
		}
		// t.body (and, for writes, the slots the handler views in it) aliases
		// the pooled frame; process hands it back once the store is done.
		t := task{sc: sc, frame: frame}
		t.id, t.op, t.shard, t.body, t.bad = parseReqHeader(frame)
		if t.bad != nil {
			t.id = 0 // answered with ID 0; see handle
		} else if t.op == opDeadline {
			var budget time.Duration
			budget, t.op, t.body, t.bad = parseDeadline(t.body)
			if t.bad == nil {
				// The budget is relative to receipt — no clock sync with
				// the client is assumed.
				t.expiry = time.Now().Add(budget)
			}
		}
		if t.bad == nil && s.limits.enabled() && isDataOp(t.op) {
			if sc.bucket != nil {
				if ok, wait := sc.bucket.take(time.Now()); !ok {
					s.oc.shedRate.Add(1)
					s.respond(sc, busyResponse(t.id, wait, "per-connection rate limit"))
					continue
				}
			}
			if max := int64(s.limits.MaxInflight); max > 0 {
				if s.inflight.Add(1) > max {
					s.inflight.Add(-1)
					s.oc.shedInflight.Add(1)
					hint := s.svc.hint(int(s.inflight.Load())+s.disp.backlog(), s.workers)
					s.respond(sc, busyResponse(t.id, hint, "concurrency budget exhausted"))
					continue
				}
				t.data = true
			}
			s.oc.admitted.Add(1)
		}
		if err := s.disp.enqueue(t); err != nil {
			if t.data {
				s.inflight.Add(-1)
			}
			if errors.Is(err, errQueueFull) {
				s.oc.shedQueue.Add(1)
				hint := s.svc.hint(s.disp.connDepth(sc), 1)
				s.respond(sc, busyResponse(t.id, hint, "connection queue full"))
				continue
			}
			return // dispatcher closed: server shutting down
		}
	}
}

// writeLoop serialises response frames onto the socket. The goaway slot is
// checked before every frame: a dying connection's last frame must be the
// typed overload signal, not whichever response happened to be queued.
func (s *Server) writeLoop(sc *serverConn) {
	defer s.wg.Done()
	for {
		select {
		case g := <-sc.goaway:
			s.writeGoaway(sc, g)
			return
		default:
		}
		select {
		case g := <-sc.goaway:
			s.writeGoaway(sc, g)
			return
		case resp := <-sc.out:
			err := writeFrame(sc.conn, resp)
			putFrame(resp) // the queue held the only reference
			if err != nil {
				sc.close()
				return
			}
		case <-sc.done:
			return
		}
	}
}

// writeGoaway sends the final busy frame under a short deadline (the
// consumer already proved slow) and tears the connection down.
func (s *Server) writeGoaway(sc *serverConn, g []byte) {
	sc.conn.SetWriteDeadline(time.Now().Add(goawayGrace))
	if writeFrame(sc.conn, g) == nil {
		s.oc.goaways.Add(1)
	}
	sc.close()
}

// slowConnTimeout bounds how long a worker will wait to enqueue a response
// on one connection's outbound queue. A client that pipelines requests but
// stops draining responses would otherwise wedge every pool worker on its
// full queue and starve all other connections; after the timeout the
// stalled connection gets a goaway and is torn down, and the pool moves on.
// Variables, not constants, so tests can compress the timeline.
var (
	slowConnTimeout = 10 * time.Second
	goawayGrace     = 2 * time.Second
)

func (s *Server) worker() {
	defer s.wg.Done()
	var ws workScratch
	for {
		t, ok := s.disp.dequeue()
		if !ok {
			return
		}
		s.process(&ws, t)
	}
}

// process executes one admitted task and queues its response.
func (s *Server) process(ws *workScratch, t task) {
	defer putFrame(t.frame)
	if t.data {
		defer s.inflight.Add(-1)
	}
	if t.bad != nil {
		s.respond(t.sc, errResponse(t.id, t.bad))
		return
	}
	if !t.expiry.IsZero() && time.Now().After(t.expiry) {
		// The deadline expired while the request sat in queue: executing it
		// would waste a worker on an answer the client has given up on.
		s.oc.shedDeadline.Add(1)
		hint := s.svc.hint(int(s.inflight.Load())+s.disp.backlog(), s.workers)
		s.respond(t.sc, busyResponse(t.id, hint, "deadline expired in queue"))
		return
	}
	start := time.Now()
	resp, err := s.dispatch(ws, appendRespHeader(getFrame(respHeaderLen), t.id, statusOK), t.op, t.shard, t.body)
	if isDataOp(t.op) {
		s.svc.observe(time.Since(start))
	}
	if err != nil {
		s.respond(t.sc, errResponse(t.id, err))
		return
	}
	s.respond(t.sc, resp)
}

// respond enqueues one response frame for sc, waiting up to slowConnTimeout
// before declaring the consumer dead. On a stall the connection gets a
// final goaway busy frame (best effort — its socket is by definition
// jammed) and is torn down, so the pool never wedges on one slow client.
func (s *Server) respond(sc *serverConn, resp []byte) {
	select {
	case sc.out <- resp:
		return
	case <-sc.done:
		return
	case <-s.closed:
		return
	default:
	}
	// Slow path: the connection's queue is full. Wait a bounded time, then
	// declare the consumer dead.
	timer := time.NewTimer(slowConnTimeout)
	defer timer.Stop()
	select {
	case sc.out <- resp:
	case <-sc.done:
	case <-s.closed:
	case <-timer.C:
		s.logf("remote: conn %v: response queue stalled for %v, sending goaway and dropping connection",
			sc.conn.RemoteAddr(), slowConnTimeout)
		s.goawayConn(sc, "slow consumer: response queue stalled")
	}
}

// goawayConn arranges a final typed busy frame for a connection about to be
// dropped as a slow consumer, so its client can classify the drop as
// overload instead of a transport fault. The write loop owns the socket;
// the frame travels through the 1-slot priority channel, and a write
// deadline set here breaks any frame write already wedged on the jammed
// socket so the write loop gets to the goaway at all.
func (s *Server) goawayConn(sc *serverConn, reason string) {
	backlog := int(s.inflight.Load()) + s.disp.backlog()
	frame := busyResponse(goawayID, s.svc.hint(backlog, s.workers), reason)
	select {
	case sc.goaway <- frame:
		sc.conn.SetWriteDeadline(time.Now().Add(goawayGrace))
	default:
		// A goaway is already pending; the connection is on its way out.
	}
}

// handle turns one request frame into one response frame payload. A frame
// too mangled to carry a request ID is answered with ID 0 so the connection
// survives garbage (the sender of a malformed frame can never match it
// anyway).
func (s *Server) handle(frame []byte) []byte {
	id, op, shard, body, err := parseReqHeader(frame)
	if err != nil {
		return errResponse(0, err)
	}
	resp, err := s.dispatch(new(workScratch), appendRespHeader(nil, id, statusOK), op, shard, body)
	if err != nil {
		return errResponse(id, err)
	}
	return resp
}

// workScratch is the reusable request state of one executing goroutine (a
// pool worker): the bucket refs and slot buffers handed to the store, and the
// payload arena read results land in. One request executes at a time per
// worker, so nothing here is shared; in steady state a bucket-union request
// allocates only what the store itself allocates.
type workScratch struct {
	refs  []oram.BucketRef
	bufs  [][]oram.Slot // bufs[i] is a window of slots
	slots []oram.Slot
	arena []byte       // one block-size stripe per slot, armed for reads
	wb    *workScratch // the write-back half of a kind-2 opBatch frame
}

// union parses one ref list of an opBatch body into ws.refs, points bufs[i]
// at BucketSize(refs[i].Level) zeroed slots of the one reused slot array and
// returns what follows the refs.
func (ws *workScratch) union(g *oram.Geometry, body []byte) (rest []byte, err error) {
	if ws.refs, rest, err = parseUnion(g, body, ws.refs); err != nil {
		return nil, err
	}
	total := 0
	for _, r := range ws.refs {
		total += g.BucketSize(r.Level)
	}
	ws.slots = slices.Grow(ws.slots[:0], total)[:total]
	clear(ws.slots)
	ws.bufs = slices.Grow(ws.bufs[:0], len(ws.refs))[:len(ws.refs)]
	off := 0
	for i, r := range ws.refs {
		z := g.BucketSize(r.Level)
		ws.bufs[i] = ws.slots[off : off+z : off+z]
		off += z
	}
	return rest, nil
}

// arm backs every slot union laid out with its own stripe of the scratch
// arena, so a store that reads into the capacity it is handed (the
// ReadBucket contract) allocates nothing. (union cleared every slot when it
// sized them for the frame's refs, so nothing a slot held before — after a
// write, views into a request frame since recycled, which must never be
// decoded into — survives to be read into.)
func (ws *workScratch) arm(blockSize int) {
	if blockSize <= 0 {
		return
	}
	if need := len(ws.slots) * blockSize; cap(ws.arena) < need {
		ws.arena = make([]byte, need)
	}
	for k := range ws.slots {
		ws.slots[k].Payload = ws.arena[k*blockSize : (k+1)*blockSize : (k+1)*blockSize]
	}
}

// viewSlots fills dst with views of the slots serialised at the head of buf
// (see viewSlot) and returns what follows them. A real slot's payload must be
// empty (the zero row) or exactly blockSize bytes: the check a store would
// otherwise make slot by slot, made here before the shard lock is taken so a
// bad frame writes nothing.
func viewSlots(buf []byte, dst []oram.Slot, blockSize int) (rest []byte, err error) {
	for i := range dst {
		if buf, err = viewSlot(buf, &dst[i]); err != nil {
			return nil, err
		}
		if badPayload(&dst[i], blockSize) {
			return nil, fmt.Errorf("remote: slot %d payload len %d != block size %d", i, len(dst[i].Payload), blockSize)
		}
	}
	return buf, nil
}

// badPayload reports a slot no store would take: a row of the wrong length.
func badPayload(s *oram.Slot, blockSize int) bool {
	return len(s.Payload) != 0 && len(s.Payload) != blockSize && !s.Dummy()
}

// endOfFrame refuses a request with bytes after its last slot or ref.
func endOfFrame(rest []byte, err error) error {
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("remote: %d trailing bytes after the request's last field", len(rest))
	}
	return err
}

// appendRead serialises what a read left in the laid-out slots onto dst.
func (ws *workScratch) appendRead(dst []byte, blockSize int) []byte {
	return appendSlots(slices.Grow(dst, slotsWireLen(len(ws.slots), blockSize)), ws.slots)
}

// dispatch executes one operation against its shard store and appends the
// response body to dst — a frame that already holds its response header —
// returning the extended frame: a response is serialised once, into the
// buffer that leaves. On error the returned frame is nil and whatever was
// appended to dst is meaningless. ws is the executing goroutine's scratch.
//
// The one data handler, opBatch, parses and validates the whole request into
// ws, takes the shard lock once for its calls on the store's Face, and
// serialises. Reads land in the worker's armed arena; written slots are views
// into the request frame, which the store copies into its own storage.
func (s *Server) dispatch(ws *workScratch, dst []byte, op byte, shard uint32, body []byte) ([]byte, error) {
	g := s.geom
	// opHello/opHealth/opAddStore are whole-server operations: they are
	// answered before the shard range check (their shard field is ignored).
	switch op {
	case opHello:
		dst = appendU32(dst, uint32(s.Shards()))
		dst = geometryToWire(g).append(dst)
		return binary.BigEndian.AppendUint64(dst, s.bootID), nil
	case opHealth:
		var draining byte
		if s.draining.Load() {
			draining = 1
		}
		return appendU32(append(dst, draining), uint32(s.Shards())), nil
	case opAddStore:
		idx, err := s.AddStore()
		if err != nil {
			return nil, err
		}
		return appendU32(dst, uint32(idx)), nil
	}
	store, lock, err := s.shardStore(shard)
	if err != nil {
		return nil, err
	}
	switch op {
	case opBatch:
		// One bucket union written, one read, or both in that order (kind 2:
		// a lane's write-back riding its next fetch). The whole frame — both
		// ref lists, every slot, the response bound — is checked before the
		// one hold of the shard lock. A sealed server store fans a union's
		// crypto across its worker pool instead of opening bucket by bucket
		// under the lock; a store that does not batch natively is looped.
		if len(body) == 0 || body[0] > batchCarry {
			return nil, fmt.Errorf("remote: unknown batch kind %d", body[:min(1, len(body))])
		}
		kind, rest, wr := body[0], body[1:], ws
		if kind == batchCarry {
			if ws.wb == nil {
				ws.wb = new(workScratch)
			}
			wr = ws.wb
		}
		if kind != batchRead {
			if rest, err = wr.union(g, rest); err == nil {
				rest, err = viewSlots(rest, wr.slots, g.BlockSize())
			}
		}
		if kind != batchWrite && err == nil {
			if rest, err = ws.union(g, rest); err == nil {
				// A response that could not be framed fails this one request,
				// not the connection when it hits writeFrame (well-behaved
				// clients chunk below batchFrameBudget; see client.go).
				if n := slotsWireLen(len(ws.slots), g.BlockSize()); n > maxFrame-respHeaderLen {
					err = fmt.Errorf("response of up to %d bytes exceeds frame limit; split the batch", n)
				} else {
					ws.arm(g.BlockSize())
				}
			}
		}
		if err = endOfFrame(rest, err); err != nil {
			return nil, err
		}
		lock.Lock()
		if kind != batchRead {
			err = store.WriteBuckets(wr.refs, wr.bufs)
		}
		if kind != batchWrite && err == nil {
			err = store.ReadBuckets(ws.refs, ws.bufs)
		}
		lock.Unlock()
		if err != nil || kind == batchWrite {
			return dst, err
		}
		return ws.appendRead(dst, g.BlockSize()), nil
	case opSnapshot:
		// Checkpoint-coordinator RPC: serialise this shard's store under
		// its lock, exactly as the in-process SnapshotShard does, so the
		// client can commit one snapshot per shard together with its own
		// SaveState as one epoch-stamped set. The snapshot must fit one
		// response frame; anything larger is refused here with a clean
		// error rather than a torn write.
		snap, ok := store.Store.(oram.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("shard %d store %T does not support snapshots", shard, store.Store)
		}
		buf := bytes.NewBuffer(dst) // the snapshot lands behind the header
		lock.Lock()
		err := snap.Save(buf)
		lock.Unlock()
		if err != nil {
			return nil, err
		}
		if n := buf.Len() - len(dst); n > maxFrame-respHeaderLen {
			return nil, fmt.Errorf("shard %d snapshot of %d bytes exceeds frame limit", shard, n)
		}
		return buf.Bytes(), nil
	case opRestore:
		snap, ok := store.Store.(oram.Snapshotter)
		if !ok {
			return nil, fmt.Errorf("shard %d store %T does not support snapshots", shard, store.Store)
		}
		lock.Lock()
		err := snap.Load(bytes.NewReader(body))
		lock.Unlock()
		return dst, err
	default:
		return nil, fmt.Errorf("unknown opcode %d", op)
	}
}

// isClosedConn reports the "use of closed network connection" error that
// tearing down a connection from our own side produces.
func isClosedConn(err error) bool {
	return errors.Is(err, net.ErrClosed)
}
