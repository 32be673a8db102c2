// Package remote implements the paper's deployment split (§III, Fig. 5):
// server_storage as a network service holding the ORAM tree(s), and a
// client-side Store adapter the trainer uses. The TCP link is the red line
// of Fig. 5 — the insecure channel on which the adversary observes exactly
// the bucket addresses the ORAM protocol was designed to make oblivious.
// Block contents should be sealed by the client (internal/crypto) before
// they reach this layer.
//
// Wire format (protocol v6): 4-byte big-endian length-prefixed frames.
// Every request carries a client-chosen request ID so many requests can be
// in flight on one connection and responses may return out of order; the
// client multiplexes by ID. Layouts (all integers big-endian):
//
//	request  frame: id u64 · opcode u8 · shard u32 · body
//	response frame: id u64 · status u8 · body (error text when status=1)
//
// Opcode bodies:
//
//	opHello       → resp: shards u32 · geometry (17 B) · bootID u64
//	              (bootID: a random per-process identifier; a client that
//	              reconnects and sees a different bootID knows the server
//	              restarted and lost its in-memory tree.)
//	2–7           unassigned (protocol v5's bucket, slot and path reads and
//	              writes; a v6 server answers them "unknown opcode")
//	opBatch       req: kind u8 (0) · union                 → resp: the union's slots
//	                   kind u8 (1) · union · slots         → resp: empty
//	                   kind u8 (2) · union · slots · union → resp: the 2nd union's slots
//	              union = count u32 · count×(level u32 · node u64), slots = its
//	              buckets' slots in ref order
//	              (the one data frame: a bucket union — the deduplicated
//	              buckets of a joint fetch or write-back, a path's buckets root
//	              first, or a single bucket — read, written, or (kind 2,
//	              protocol v5: a lane's write-back riding its next fetch) one
//	              written and then one read under one hold of the shard lock,
//	              all under the frame's one status. Every ref and slot is
//	              validated before the lock is taken, so a bad ref, a short
//	              slot list or a trailing byte fails the whole frame with
//	              nothing written; a failed write reads nothing. A v4 peer
//	              answers kind 2 "unknown batch kind", a v3 peer any batch with
//	              a clean parse error.)
//	opSnapshot    req: empty            → resp: shard store snapshot bytes
//	opRestore     req: snapshot bytes   → resp: empty
//	              (opSnapshot/opRestore are the checkpoint-coordinator RPC:
//	              the client fans one Snapshot per shard out with its own
//	              SaveState so the whole epoch commits as one set. Each
//	              snapshot is taken/applied under the shard's store lock and
//	              must fit one frame — maxFrame bounds the serialisable tree.
//	              The same pair is the live-migration transport: the client
//	              snapshots a shard at one node and restores it at another,
//	              repointing its placement in between.)
//	opHealth      req: empty → resp: draining u8 · shards u32
//	              (the heartbeat behind health-based re-placement: draining
//	              is 1 once the server stopped accepting new connections
//	              (Server.Drain, laoramserve on SIGTERM) so clients migrate
//	              off proactively; shards is the current store count, which
//	              grows under opAddStore. The shard field of the request is
//	              ignored.)
//	opAddStore    req: empty → resp: index u32
//	              (elastic placement: the server builds one more shard store
//	              through its configured store factory — same geometry as
//	              the rest — and returns its index, giving a migration or
//	              re-placement somewhere to land a shard. Rejected when the
//	              server has no factory.)
//	opDeadline    req: budgetMillis u32 · inner op u8 · inner body
//	              (protocol v3: a deadline-carrying envelope around one data
//	              operation. budgetMillis is RELATIVE — how long the client
//	              is willing to wait from the moment the server reads the
//	              frame — so no clock synchronisation is assumed. A server
//	              with admission control sheds the request with statusBusy
//	              instead of executing it once the budget has elapsed in
//	              queue; servers predating v3 reject the unknown opcode,
//	              which clients treat as fatal, so deadlines are opt-in.
//	              Only the data opcode (opBatch) may be wrapped.)
//
// opBatch and opcodes 9–13 kept their v5 numbers, so a v6 client, which sends
// no other opcode, is served by a v5 server too.
//
// Overload (protocol v3): a server under admission control may answer any
// data request with statusBusy instead of executing it. The busy body is
// retryAfterMillis u32 — the server's hint for how long the client should
// back off before retrying — optionally followed by human-readable text.
// A busy response is a clean, typed rejection: the request did NOT execute
// and retrying it later is always safe (every data op is an idempotent
// read or overwrite of named tree addresses). A busy frame with request ID
// 0 is a GOAWAY: the server is about to drop this connection (today: the
// consumer stopped draining responses past slowConnTimeout) and no pending
// request on it will be answered; clients surface ErrOverloaded rather
// than a generic I/O error. ID 0 is never allocated to a real call, so
// goaways can never be mistaken for a response.
//
// Slots are serialised as (id u64, leaf u64, payloadLen u32, payload). A
// write frame must end with its last slot; a real slot's payload is empty
// (the zero row) or exactly the block size. The batch opcode is what makes
// the serving path fast: a whole root→leaf path (or the deduplicated bucket
// union of a training batch) moves in one frame instead of one frame per
// bucket.
package remote

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"time"

	"repro/internal/oram"
)

// Opcodes. 2–7 are unassigned since v6: the bucket, slot and path operations
// that opBatch (one bucket union since v4, a write-back with the next fetch
// since v5) replaced. 9–10 are the checkpoint RPC; 11–12 are the
// elastic-placement additions (health heartbeat, dynamic store growth); 13 is
// the v3 deadline envelope.
const (
	opHello    = 1
	opBatch    = 8
	opSnapshot = 9
	opRestore  = 10
	opHealth   = 11
	opAddStore = 12
	opDeadline = 13
)

// Response status codes. statusBusy (protocol v3) means the request was
// SHED by admission control without executing; its body carries a
// retry-after hint (see parseBusy).
const (
	statusOK   = 0
	statusErr  = 1
	statusBusy = 2
)

// goawayID is the request ID of a server-initiated busy frame announcing
// the connection is about to be dropped. Client-allocated IDs start at 1,
// and malformed-frame error responses (also ID 0) are status-Err, so a
// (goawayID, statusBusy) frame is unambiguous.
const goawayID = 0

// isDataOp reports whether op is the shard data operation (the only opcode
// admission control meters, deadlines may wrap, and a busy shed may answer).
// Everything else is control plane: handshake, health, checkpoint/recovery
// and placement traffic must not be shed — it is exactly the traffic that
// resolves an overload or repairs a node.
func isDataOp(op byte) bool {
	return op == opBatch
}

// maxFrame bounds a frame to something generous but finite: a batched
// bucket union of 4 KB blocks with headroom.
const maxFrame = 32 << 20

// maxBatchOps bounds the buckets of one opBatch frame, so a malformed count
// field cannot make the server loop unboundedly.
const maxBatchOps = 1 << 14

// reqHeaderLen is id u64 + opcode u8 + shard u32.
const reqHeaderLen = 13

// respHeaderLen is id u64 + status u8.
const respHeaderLen = 9

func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("remote: frame too large (%d bytes)", len(payload))
	}
	// writev via net.Buffers: header and payload leave in one syscall (and
	// one TCP segment under TCP_NODELAY, Go's default) without copying the
	// payload into a prefixed buffer. On non-socket writers this degrades
	// to sequential writes, which only tests exercise.
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	bufs := net.Buffers{hdr[:], payload}
	_, err := bufs.WriteTo(w)
	return err
}

// readFrame reads one frame into a buffer from the frame pool. A consumer
// that is done with the frame (and with everything parsed out of it that
// still aliases it) may hand it back with putFrame; one that is not simply
// keeps it.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("remote: frame of %d bytes exceeds limit", n)
	}
	buf := getFrame(int(n))[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// framePool recycles frame buffers between requests on both sides of the
// wire: a bucket-union frame is ~100 KB, and allocating (and zeroing) one
// per direction per call was a fifth of the joint-lookup profile. Buffers
// are handed over by putFrame only at points where nothing aliases them any
// more; every other frame is left to the collector, so forgetting a putFrame
// costs an allocation, never correctness.
var framePool sync.Pool // of *[]byte

// maxPooledFrame keeps the rare huge frame (a snapshot, a maximal batch
// chunk) from being pinned by the pool.
const maxPooledFrame = 4 << 20

// getFrame returns an empty buffer with room for n bytes.
func getFrame(n int) []byte {
	if p, _ := framePool.Get().(*[]byte); p != nil && cap(*p) >= n {
		return (*p)[:0]
	}
	return make([]byte, 0, n)
}

// putFrame recycles b's backing array. b may be any slice of a frame (a
// response body, say); the caller must hold no other live reference into it.
func putFrame(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledFrame {
		return
	}
	b = b[:0]
	framePool.Put(&b)
}

// appendReqHeader starts a request frame payload.
func appendReqHeader(buf []byte, id uint64, op byte, shard uint32) []byte {
	var tmp [reqHeaderLen]byte
	binary.BigEndian.PutUint64(tmp[0:], id)
	tmp[8] = op
	binary.BigEndian.PutUint32(tmp[9:], shard)
	return append(buf, tmp[:]...)
}

// parseReqHeader splits a request frame into header fields and body.
func parseReqHeader(frame []byte) (id uint64, op byte, shard uint32, body []byte, err error) {
	if len(frame) < reqHeaderLen {
		return 0, 0, 0, nil, fmt.Errorf("remote: truncated request header (%d bytes)", len(frame))
	}
	id = binary.BigEndian.Uint64(frame[0:])
	op = frame[8]
	shard = binary.BigEndian.Uint32(frame[9:])
	return id, op, shard, frame[reqHeaderLen:], nil
}

// appendRespHeader starts a response frame payload.
func appendRespHeader(buf []byte, id uint64, status byte) []byte {
	var tmp [respHeaderLen]byte
	binary.BigEndian.PutUint64(tmp[0:], id)
	tmp[8] = status
	return append(buf, tmp[:]...)
}

// errResponse builds a whole error-response frame payload.
func errResponse(id uint64, err error) []byte {
	msg := err.Error()
	out := make([]byte, 0, respHeaderLen+len(msg))
	out = appendRespHeader(out, id, statusErr)
	return append(out, msg...)
}

// busyResponse builds a statusBusy response frame payload: the typed
// rejection of admission control. retryAfter is the server's backoff hint
// (clamped into [0, busyHintCap]); reason is optional human-readable
// context (it travels after the hint).
func busyResponse(id uint64, retryAfter time.Duration, reason string) []byte {
	if retryAfter < 0 {
		retryAfter = 0
	}
	if retryAfter > busyHintCap {
		retryAfter = busyHintCap
	}
	out := make([]byte, 0, respHeaderLen+4+len(reason))
	out = appendRespHeader(out, id, statusBusy)
	out = appendU32(out, uint32(retryAfter/time.Millisecond))
	return append(out, reason...)
}

// busyHintCap bounds the retry-after hint a server may send (and a client
// will honour): an overloaded server wants traffic spread out, not parked
// for minutes on a stale estimate.
const busyHintCap = 5 * time.Second

// parseBusy extracts the retry-after hint from a statusBusy body. A short
// body (from some future frugal server) degrades to a zero hint rather
// than an error — the client then applies its own backoff schedule.
func parseBusy(body []byte) (retryAfter time.Duration, reason string) {
	if len(body) < 4 {
		return 0, ""
	}
	ms := binary.BigEndian.Uint32(body)
	d := time.Duration(ms) * time.Millisecond
	if d > busyHintCap {
		d = busyHintCap
	}
	return d, string(body[4:])
}

// deadlineHdrLen is the envelope prefix: budget u32 (ms) + inner opcode.
const deadlineHdrLen = 5

// appendDeadlineHeader starts the body of an opDeadline request — the v3
// deadline envelope around one data operation, whose own body follows in
// place. budget is relative to the server's receipt of the frame.
func appendDeadlineHeader(buf []byte, budget time.Duration, op byte) []byte {
	ms := uint64(budget / time.Millisecond)
	if budget > 0 && ms == 0 {
		ms = 1 // a sub-millisecond budget must not round down to "none"
	}
	if ms > uint64(^uint32(0)) {
		ms = uint64(^uint32(0))
	}
	buf = appendU32(buf, uint32(ms))
	return append(buf, op)
}

// parseDeadline unwraps an opDeadline body into the inner operation and
// its relative budget.
func parseDeadline(body []byte) (budget time.Duration, op byte, inner []byte, err error) {
	if len(body) < 5 {
		return 0, 0, nil, fmt.Errorf("remote: truncated deadline envelope (%d bytes)", len(body))
	}
	ms := binary.BigEndian.Uint32(body)
	op = body[4]
	if op == opDeadline {
		return 0, 0, nil, fmt.Errorf("remote: nested deadline envelope")
	}
	if !isDataOp(op) {
		return 0, 0, nil, fmt.Errorf("remote: opcode %d cannot carry a deadline", op)
	}
	return time.Duration(ms) * time.Millisecond, op, body[5:], nil
}

// parseRespHeader splits a response frame into id, status and body.
func parseRespHeader(frame []byte) (id uint64, status byte, body []byte, err error) {
	if len(frame) < respHeaderLen {
		return 0, 0, nil, fmt.Errorf("remote: truncated response header (%d bytes)", len(frame))
	}
	return binary.BigEndian.Uint64(frame[0:]), frame[8], frame[respHeaderLen:], nil
}

// appendSlot serialises one slot, its header written in place.
func appendSlot(buf []byte, s *oram.Slot) []byte {
	n := len(buf)
	buf = slices.Grow(buf, slotHeaderLen+len(s.Payload))[:n+slotHeaderLen+len(s.Payload)]
	binary.BigEndian.PutUint64(buf[n:], uint64(s.ID))
	binary.BigEndian.PutUint64(buf[n+8:], uint64(s.Leaf))
	binary.BigEndian.PutUint32(buf[n+16:], uint32(len(s.Payload)))
	copy(buf[n+slotHeaderLen:], s.Payload)
	return buf
}

// slotHeaderLen is id u64 + leaf u64 + payloadLen u32.
const slotHeaderLen = 20

// slotsWireLen is the serialised size of n slots that all carry a
// blockSize payload: the capacity to reserve before appending up to n slots
// of a tree (dummies are shorter).
func slotsWireLen(n, blockSize int) int { return n * (slotHeaderLen + blockSize) }

// parseSlot deserialises one slot, returning the remaining buffer. The
// payload is copied out of the frame: into the capacity of s's existing
// Payload slice when that is large enough (the oram.Store.ReadBucket
// contract — clients arm recycled arenas there), into a fresh slice
// otherwise. The destination therefore must never be armed with memory
// something else still reads (a live stash slab: DESIGN.md invariant #8).
func parseSlot(buf []byte, s *oram.Slot) ([]byte, error) {
	payload, rest, err := parseSlotHeader(buf, s)
	if err != nil {
		return nil, err
	}
	switch n := len(payload); {
	case n == 0:
		s.Payload = nil
	case cap(s.Payload) >= n:
		s.Payload = s.Payload[:n]
		copy(s.Payload, payload)
	default:
		s.Payload = append([]byte(nil), payload...)
	}
	return rest, nil
}

// viewSlot is parseSlot without the copy: s.Payload aliases the frame. The
// server's write handlers use it — a store copies (or seals) what WriteBucket
// hands it before returning, so the frame is the only buffer a written
// payload ever needs — and they must not let the view outlive the frame.
func viewSlot(buf []byte, s *oram.Slot) ([]byte, error) {
	payload, rest, err := parseSlotHeader(buf, s)
	if err != nil {
		return nil, err
	}
	s.Payload = nil
	if n := len(payload); n > 0 {
		s.Payload = payload[:n:n]
	}
	return rest, nil
}

// parseSlotHeader decodes a slot's id and leaf and splits off its payload
// bytes (still inside buf).
func parseSlotHeader(buf []byte, s *oram.Slot) (payload, rest []byte, err error) {
	if len(buf) < slotHeaderLen {
		return nil, nil, fmt.Errorf("remote: truncated slot header")
	}
	s.ID = oram.BlockID(binary.BigEndian.Uint64(buf[0:]))
	s.Leaf = oram.Leaf(binary.BigEndian.Uint64(buf[8:]))
	n := binary.BigEndian.Uint32(buf[16:])
	buf = buf[slotHeaderLen:]
	if uint64(len(buf)) < uint64(n) {
		return nil, nil, fmt.Errorf("remote: truncated slot payload (%d < %d)", len(buf), n)
	}
	return buf[:n], buf[n:], nil
}

// bucketRefLen is level u32 + node u64.
const bucketRefLen = 12

// appendBucketRef serialises a (level, node) bucket address.
func appendBucketRef(buf []byte, level int, node uint64) []byte {
	n := len(buf)
	buf = slices.Grow(buf, bucketRefLen)[:n+bucketRefLen]
	binary.BigEndian.PutUint32(buf[n:], uint32(level))
	binary.BigEndian.PutUint64(buf[n+4:], node)
	return buf
}

func parseBucketRef(buf []byte) (level int, node uint64, rest []byte, err error) {
	if len(buf) < bucketRefLen {
		return 0, 0, nil, fmt.Errorf("remote: truncated bucket address")
	}
	level = int(int32(binary.BigEndian.Uint32(buf[0:])))
	node = binary.BigEndian.Uint64(buf[4:])
	return level, node, buf[bucketRefLen:], nil
}

// opBatch kinds: what the frame does with the buckets it names.
const (
	batchRead  = 0
	batchWrite = 1
	batchCarry = 2 // a held write-back, then the read that carried it
)

// batchHeaderLen is kind u8 + count u32.
const batchHeaderLen = 5

// appendUnion serialises one ref list of an opBatch body, which starts with
// the kind: its count, then the refs. A written union's slots follow it.
func appendUnion(buf []byte, refs []oram.BucketRef) []byte {
	buf = appendU32(buf, uint32(len(refs)))
	for _, r := range refs {
		buf = appendBucketRef(buf, r.Level, r.Node)
	}
	return buf
}

// validRef reports whether r names a bucket of g's tree.
func validRef(g *oram.Geometry, r oram.BucketRef) bool {
	return r.Level >= 0 && r.Level < g.Levels() && r.Node < 1<<uint(r.Level)
}

// parseUnion decodes one ref list into refs (reused), checking the count
// bound and every ref against g, and returns what follows the refs.
func parseUnion(g *oram.Geometry, body []byte, refs []oram.BucketRef) (_ []oram.BucketRef, rest []byte, err error) {
	count, rest, err := parseU32(body)
	if err != nil {
		return nil, nil, fmt.Errorf("remote: truncated batch header")
	}
	if count > maxBatchOps {
		return nil, nil, fmt.Errorf("remote: batch of %d buckets exceeds limit %d", count, maxBatchOps)
	}
	if uint64(len(rest)) < uint64(count)*bucketRefLen {
		return nil, nil, fmt.Errorf("remote: batch names %d buckets, carries %d", count, len(rest)/bucketRefLen)
	}
	refs = refs[:0]
	for i := 0; i < int(count); i++ {
		var r oram.BucketRef
		r.Level, r.Node, rest, _ = parseBucketRef(rest)
		if !validRef(g, r) {
			return nil, nil, fmt.Errorf("remote: batch bucket %d: (%d,%d) out of range", i, r.Level, r.Node)
		}
		refs = append(refs, r)
	}
	return refs, rest, nil
}

// appendU32 / parseU32 are the count fields of the batch, busy and Hello
// frames.
func appendU32(buf []byte, v uint32) []byte {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], v)
	return append(buf, tmp[:]...)
}

func parseU32(buf []byte) (v uint32, rest []byte, err error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("remote: truncated count field")
	}
	return binary.BigEndian.Uint32(buf), buf[4:], nil
}

// geometryWire carries the fields needed to reconstruct the Geometry on the
// client during the Hello handshake.
type geometryWire struct {
	LeafBits  int32
	LeafZ     int32
	RootZ     int32
	Profile   uint8
	BlockSize int32
}

func geometryToWire(g *oram.Geometry) geometryWire {
	return geometryWire{
		LeafBits:  int32(g.LeafBits()),
		LeafZ:     int32(g.BucketSize(g.LeafBits())),
		RootZ:     int32(g.BucketSize(0)),
		Profile:   uint8(g.Profile()),
		BlockSize: int32(g.BlockSize()),
	}
}

func (gw geometryWire) build() (*oram.Geometry, error) {
	return oram.NewGeometry(oram.GeometryConfig{
		LeafBits:  int(gw.LeafBits),
		LeafZ:     int(gw.LeafZ),
		RootZ:     int(gw.RootZ),
		Profile:   oram.Profile(gw.Profile),
		BlockSize: int(gw.BlockSize),
	})
}

// geometryWireLen is the serialised size of geometryWire.
const geometryWireLen = 17

func (gw geometryWire) append(buf []byte) []byte {
	var tmp [geometryWireLen]byte
	binary.BigEndian.PutUint32(tmp[0:], uint32(gw.LeafBits))
	binary.BigEndian.PutUint32(tmp[4:], uint32(gw.LeafZ))
	binary.BigEndian.PutUint32(tmp[8:], uint32(gw.RootZ))
	tmp[12] = gw.Profile
	binary.BigEndian.PutUint32(tmp[13:], uint32(gw.BlockSize))
	return append(buf, tmp[:]...)
}

func parseGeometryWire(buf []byte) (geometryWire, error) {
	if len(buf) < 17 {
		return geometryWire{}, fmt.Errorf("remote: truncated geometry")
	}
	return geometryWire{
		LeafBits:  int32(binary.BigEndian.Uint32(buf[0:])),
		LeafZ:     int32(binary.BigEndian.Uint32(buf[4:])),
		RootZ:     int32(binary.BigEndian.Uint32(buf[8:])),
		Profile:   buf[12],
		BlockSize: int32(binary.BigEndian.Uint32(buf[13:])),
	}, nil
}
