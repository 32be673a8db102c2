package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/oram"
)

// overload_test.go covers the protocol-v3 overload machinery end to end:
// the busy/deadline frame formats, Limits validation, the token bucket,
// both dispatcher modes, the client's in-lane shed retries and goaway
// handling, deadline-aware shedding, the fairness property the DRR
// dispatcher exists to provide (DESIGN.md "Overload model"), and that none
// of it changes a byte a client reads (invariant #15).

func TestBusyFrameRoundTrip(t *testing.T) {
	frame := busyResponse(7, 250*time.Millisecond, "queue full")
	id, status, body, err := parseRespHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	if id != 7 || status != statusBusy {
		t.Fatalf("id=%d status=%d", id, status)
	}
	retry, reason := parseBusy(body)
	if retry != 250*time.Millisecond || reason != "queue full" {
		t.Errorf("parseBusy = %v, %q", retry, reason)
	}

	// The hint is clamped at build time...
	_, _, body, _ = parseRespHeader(busyResponse(1, -5*time.Millisecond, ""))
	if retry, _ := parseBusy(body); retry != 0 {
		t.Errorf("negative hint parsed as %v, want 0", retry)
	}
	_, _, body, _ = parseRespHeader(busyResponse(1, time.Minute, ""))
	if retry, _ := parseBusy(body); retry != busyHintCap {
		t.Errorf("huge hint parsed as %v, want cap %v", retry, busyHintCap)
	}
	// ...and again at parse time, so a rogue server cannot park a client.
	wire := appendU32(nil, uint32(10*time.Minute/time.Millisecond))
	if retry, _ := parseBusy(wire); retry != busyHintCap {
		t.Errorf("on-wire hint parsed as %v, want cap %v", retry, busyHintCap)
	}
	// A short body degrades to a zero hint, not an error.
	if retry, reason := parseBusy([]byte{1, 2}); retry != 0 || reason != "" {
		t.Errorf("short body = %v, %q", retry, reason)
	}
}

func TestDeadlineEnvelopeRoundTrip(t *testing.T) {
	inner := []byte{1, 2, 3, 4}
	body := appendDeadline(nil, 1500*time.Millisecond, opBatch, inner)
	budget, op, got, err := parseDeadline(body)
	if err != nil {
		t.Fatal(err)
	}
	if budget != 1500*time.Millisecond || op != opBatch || !bytes.Equal(got, inner) {
		t.Errorf("parseDeadline = %v, %d, %v", budget, op, got)
	}

	// A sub-millisecond budget must not round down to "no deadline".
	body = appendDeadline(nil, 100*time.Microsecond, opBatch, nil)
	if budget, _, _, err := parseDeadline(body); err != nil || budget != time.Millisecond {
		t.Errorf("sub-ms budget = %v, %v", budget, err)
	}

	// Nested envelopes and every opcode but opBatch (protocol v5's retired
	// data opcodes 2–7 included) are rejected.
	if _, _, _, err := parseDeadline(appendDeadline(nil, time.Second, opDeadline, nil)); err == nil {
		t.Error("nested deadline envelope accepted")
	}
	for _, op := range []byte{opHello, 2, 3, 4, 5, 6, 7, opSnapshot, opRestore, opHealth, opAddStore} {
		if _, _, _, err := parseDeadline(appendDeadline(nil, time.Second, op, nil)); err == nil {
			t.Errorf("opcode %d accepted a deadline", op)
		}
	}
	if _, _, _, err := parseDeadline([]byte{1, 2, 3}); err == nil {
		t.Error("truncated envelope accepted")
	}
}

func TestLimitsValidate(t *testing.T) {
	cases := []struct {
		name    string
		l       Limits
		workers int
		wantErr bool
	}{
		{"zero value", Limits{}, 4, false},
		{"zero value no workers", Limits{}, 0, false}, // nothing enabled, nothing to dispatch fairly
		{"inflight only", Limits{MaxInflight: 8}, 4, false},
		{"rate only", Limits{PerConnRate: 100}, 4, false},
		{"fair only", Limits{Fair: true}, 4, false},
		{"everything", Limits{MaxInflight: 64, PerConnRate: 100, PerConnBurst: 10, Fair: true, MaxQueuePerConn: 8}, 4, false},
		{"negative inflight", Limits{MaxInflight: -1}, 4, true},
		{"negative rate", Limits{PerConnRate: -1}, 4, true},
		{"negative burst", Limits{PerConnBurst: -1}, 4, true},
		{"negative queue", Limits{MaxQueuePerConn: -1}, 4, true},
		{"burst without rate", Limits{PerConnBurst: 5}, 4, true},
		{"burst exceeds budget", Limits{MaxInflight: 4, PerConnRate: 100, PerConnBurst: 8}, 4, true},
		{"derived burst exceeds budget", Limits{MaxInflight: 10, PerConnRate: 500}, 4, true},
		{"burst fits budget exactly", Limits{MaxInflight: 8, PerConnRate: 100, PerConnBurst: 8}, 4, false},
		{"enabled without workers", Limits{Fair: true}, 0, true},
	}
	for _, tc := range cases {
		if err := tc.l.validate(tc.workers); (err != nil) != tc.wantErr {
			t.Errorf("%s: validate = %v, wantErr %v", tc.name, err, tc.wantErr)
		}
	}
}

func TestLimitsDerivedValues(t *testing.T) {
	if b := (Limits{PerConnRate: 2.5}).burst(); b != 2 {
		t.Errorf("burst(rate 2.5) = %d, want 2", b)
	}
	if b := (Limits{PerConnRate: 0.5}).burst(); b != 1 {
		t.Errorf("burst(rate 0.5) = %d, want 1", b)
	}
	if b := (Limits{PerConnRate: 100, PerConnBurst: 7}).burst(); b != 7 {
		t.Errorf("explicit burst = %d, want 7", b)
	}
	if q := (Limits{}).maxQueue(4); q != 64 {
		t.Errorf("maxQueue(4 workers) = %d, want floor 64", q)
	}
	if q := (Limits{}).maxQueue(16); q != 128 {
		t.Errorf("maxQueue(16 workers) = %d, want 128", q)
	}
	if q := (Limits{MaxQueuePerConn: 5}).maxQueue(16); q != 5 {
		t.Errorf("explicit maxQueue = %d, want 5", q)
	}
}

func TestTokenBucket(t *testing.T) {
	tb := newTokenBucket(10, 2) // 10 tokens/s, burst 2
	base := tb.last

	for i := 0; i < 2; i++ {
		if ok, _ := tb.take(base); !ok {
			t.Fatalf("burst take %d refused", i)
		}
	}
	ok, retry := tb.take(base)
	if ok {
		t.Fatal("take beyond burst admitted")
	}
	if retry != 100*time.Millisecond {
		t.Errorf("retry hint = %v, want 100ms (one token at 10/s)", retry)
	}
	// Half a token refilled: still refused, hint shrinks accordingly.
	if ok, retry := tb.take(base.Add(50 * time.Millisecond)); ok || retry != 50*time.Millisecond {
		t.Errorf("take at +50ms = %v, %v", ok, retry)
	}
	// A full token refilled: admitted.
	if ok, _ := tb.take(base.Add(160 * time.Millisecond)); !ok {
		t.Error("take after refill refused")
	}
	// Idle time refills to the cap, never past it.
	tb2 := newTokenBucket(10, 2)
	late := tb2.last.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := tb2.take(late); !ok {
			t.Fatalf("post-idle take %d refused", i)
		}
	}
	if ok, _ := tb2.take(late); ok {
		t.Error("idle refill exceeded the cap")
	}
}

func TestDispatcherFIFO(t *testing.T) {
	d := newDispatcher(false, 2, 0)
	sc := &serverConn{}
	for id := uint64(1); id <= 2; id++ {
		if err := d.enqueue(task{sc: sc, id: id}); err != nil {
			t.Fatal(err)
		}
	}
	// The third enqueue blocks on the full queue (the old channel
	// backpressure) until a worker drains one slot.
	unblocked := make(chan error, 1)
	go func() { unblocked <- d.enqueue(task{sc: sc, id: 3}) }()
	select {
	case err := <-unblocked:
		t.Fatalf("enqueue into a full FIFO queue returned %v instead of blocking", err)
	case <-time.After(20 * time.Millisecond):
	}
	for want := uint64(1); want <= 3; want++ {
		tk, ok := d.dequeue()
		if !ok || tk.id != want {
			t.Fatalf("dequeue = %d, %v; want %d", tk.id, ok, want)
		}
	}
	if err := <-unblocked; err != nil {
		t.Fatalf("unblocked enqueue failed: %v", err)
	}
	d.close()
	if _, ok := d.dequeue(); ok {
		t.Error("dequeue succeeded on a closed dispatcher")
	}
	if err := d.enqueue(task{sc: sc}); err == nil {
		t.Error("enqueue succeeded on a closed dispatcher")
	}
}

func TestDispatcherFairDRR(t *testing.T) {
	d := newDispatcher(true, 0, 2)
	scA := &serverConn{}
	scA.cq = &connQueue{sc: scA}
	scB := &serverConn{}
	scB.cq = &connQueue{sc: scB}

	for id := uint64(1); id <= 2; id++ {
		if err := d.enqueue(task{sc: scA, id: id}); err != nil {
			t.Fatal(err)
		}
	}
	// The per-connection bound rejects instead of blocking the reader.
	if err := d.enqueue(task{sc: scA, id: 3}); err != errQueueFull {
		t.Fatalf("overflow enqueue = %v, want errQueueFull", err)
	}
	if err := d.enqueue(task{sc: scB, id: 10}); err != nil {
		t.Fatal(err)
	}

	// The ring serves connections in turns: B's single request is not
	// stuck behind A's backlog.
	var order []uint64
	for i := 0; i < 3; i++ {
		tk, ok := d.dequeue()
		if !ok {
			t.Fatal("dispatcher closed early")
		}
		order = append(order, tk.id)
	}
	if order[0] != 1 || order[1] != 10 || order[2] != 2 {
		t.Errorf("DRR order = %v, want [1 10 2]", order)
	}
	if d.backlog() != 0 {
		t.Errorf("backlog = %d after drain", d.backlog())
	}

	// A drained queue leaves and re-enters the ring cleanly.
	if err := d.enqueue(task{sc: scA, id: 4}); err != nil {
		t.Fatal(err)
	}
	if tk, ok := d.dequeue(); !ok || tk.id != 4 {
		t.Fatalf("re-entry dequeue = %v, %v", tk.id, ok)
	}
	d.close()
	if err := d.enqueue(task{sc: scA, id: 5}); err != errDispatcherClosed {
		t.Errorf("enqueue after close = %v", err)
	}
}

// startScriptedServer runs a protocol peer that answers the handshake like
// a real single-shard server and hands every other request to handle,
// which writes whatever frames the scenario calls for (busy sheds, canned
// slots, a goaway). Returning false closes the connection — the scripted
// stand-in for a server dropping a client. Deadline envelopes are
// unwrapped before handle sees the request, with the budget passed along.
func startScriptedServer(t *testing.T, g *oram.Geometry, handle func(conn net.Conn, id uint64, op byte, budget time.Duration, body []byte) bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				for {
					frame, err := readFrame(conn)
					if err != nil {
						return
					}
					id, op, _, body, err := parseReqHeader(frame)
					if err != nil {
						return
					}
					if op == opHello {
						resp := appendRespHeader(nil, id, statusOK)
						resp = appendU32(resp, 1)
						resp = geometryToWire(g).append(resp)
						var boot [8]byte
						binary.BigEndian.PutUint64(boot[:], 0xF00D)
						resp = append(resp, boot[:]...)
						if writeFrame(conn, resp) != nil {
							return
						}
						continue
					}
					var budget time.Duration
					if op == opDeadline {
						budget, op, body, err = parseDeadline(body)
						if err != nil {
							return
						}
					}
					if !handle(conn, id, op, budget, body) {
						return
					}
				}
			}(conn)
		}
	}()
	return ln.Addr().String()
}

// scriptedRootResponse answers a read of the root bucket of the scripted
// tests' tree (LeafZ 3): slot 0 holds block 7.
func scriptedRootResponse(id uint64) []byte {
	resp := appendRespHeader(nil, id, statusOK)
	resp = appendSlot(resp, &oram.Slot{ID: 7, Leaf: 3, Payload: bytes.Repeat([]byte{0xAB}, 8)})
	dummy := oram.DummySlot()
	return appendSlot(appendSlot(resp, &dummy), &dummy)
}

func TestClientRetriesShedsInLane(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 3, LeafZ: 3, BlockSize: 8})
	var sheds atomic.Int64
	sheds.Store(3)
	var served atomic.Int64
	addr := startScriptedServer(t, g, func(conn net.Conn, id uint64, op byte, _ time.Duration, _ []byte) bool {
		if sheds.Add(-1) >= 0 {
			return writeFrame(conn, busyResponse(id, 2*time.Millisecond, "scripted shed")) == nil
		}
		served.Add(1)
		return writeFrame(conn, scriptedRootResponse(id)) == nil
	})
	cl, err := DialConfig(context.Background(), addr, Config{ShedRetries: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var s oram.Slot
	if err := shard0(t, cl).ReadSlot(0, 0, 0, &s); err != nil {
		t.Fatalf("call with retry budget left failed: %v", err)
	}
	if s.ID != 7 || !bytes.Equal(s.Payload, bytes.Repeat([]byte{0xAB}, 8)) {
		t.Errorf("served slot = %+v", s)
	}
	if served.Load() != 1 {
		t.Errorf("server executed %d times, want 1", served.Load())
	}
}

func TestClientShedBudgetExhausted(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 3, LeafZ: 3, BlockSize: 8})
	addr := startScriptedServer(t, g, func(conn net.Conn, id uint64, op byte, _ time.Duration, _ []byte) bool {
		return writeFrame(conn, busyResponse(id, 3*time.Millisecond, "always busy")) == nil
	})

	for _, tc := range []struct {
		name      string
		retries   int
		wantSheds int
	}{
		{"budget of two", 2, 3},
		{"retries disabled", -1, 1}, // negative: fail on the first shed
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl, err := DialConfig(context.Background(), addr, Config{ShedRetries: tc.retries})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			var s oram.Slot
			err = shard0(t, cl).ReadSlot(0, 0, 0, &s)
			ov, ok := AsOverloaded(err)
			if !ok {
				t.Fatalf("error = %v, want *ErrOverloaded", err)
			}
			if ov.Sheds != tc.wantSheds {
				t.Errorf("Sheds = %d, want %d", ov.Sheds, tc.wantSheds)
			}
			if ov.RetryAfter != 3*time.Millisecond {
				t.Errorf("RetryAfter = %v, want the server's hint", ov.RetryAfter)
			}
			if _, isDown := AsNodeDown(err); isDown {
				t.Error("an overloaded node was misclassified as down")
			}
		})
	}
}

func TestClientSendsDeadlineEnvelope(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 3, LeafZ: 3, BlockSize: 8})
	var dataBudget, healthBudget atomic.Int64
	addr := startScriptedServer(t, g, func(conn net.Conn, id uint64, op byte, budget time.Duration, _ []byte) bool {
		switch op {
		case opBatch:
			dataBudget.Store(int64(budget))
			return writeFrame(conn, scriptedRootResponse(id)) == nil
		case opHealth:
			healthBudget.Store(int64(budget))
			resp := appendRespHeader(nil, id, statusOK)
			resp = append(resp, 0)
			resp = appendU32(resp, 1)
			return writeFrame(conn, resp) == nil
		}
		return writeFrame(conn, errResponse(id, errQueueFull)) == nil
	})
	cl, err := DialConfig(context.Background(), addr, Config{RequestDeadline: 700 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var s oram.Slot
	if err := shard0(t, cl).ReadSlot(0, 0, 0, &s); err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(dataBudget.Load()); got != 700*time.Millisecond {
		t.Errorf("data op carried budget %v, want 700ms", got)
	}
	// Control-plane traffic must never be wrapped: it is exempt from
	// admission and a deadline would invite a shed of recovery traffic.
	if _, _, err := cl.Health(); err != nil {
		t.Fatal(err)
	}
	if got := time.Duration(healthBudget.Load()); got != 0 {
		t.Errorf("health op carried budget %v, want none", got)
	}
}

// TestClientGoawayMapsToOverloaded is the slow-consumer regression test:
// a server that drops a client used to surface as a generic I/O error,
// indistinguishable from a dead node — triggering rollback/recovery at a
// node that is alive and intact. The final busy frame (goaway) must map
// the connection's death to *ErrOverloaded instead.
func TestClientGoawayMapsToOverloaded(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 3, LeafZ: 3, BlockSize: 8})
	addr := startScriptedServer(t, g, func(conn net.Conn, id uint64, op byte, _ time.Duration, _ []byte) bool {
		writeFrame(conn, busyResponse(goawayID, 40*time.Millisecond, "slow consumer: response queue stalled"))
		return false // drop the connection right behind the goaway
	})
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var s oram.Slot
	err = shard0(t, cl).ReadSlot(0, 0, 0, &s)
	ov, ok := AsOverloaded(err)
	if !ok {
		t.Fatalf("error after goaway = %v (%T), want *ErrOverloaded", err, err)
	}
	if ov.RetryAfter != 40*time.Millisecond {
		t.Errorf("RetryAfter = %v, want the goaway hint", ov.RetryAfter)
	}
	if !strings.Contains(err.Error(), "goaway") {
		t.Errorf("error does not name the goaway: %v", err)
	}
	if _, isDown := AsNodeDown(err); isDown {
		t.Error("goaway misclassified as node death")
	}
}

// TestServerGoawaySlowConsumer drives a real server against a raw client
// that drains its responses far slower than the server produces them: the
// response queue must stall past slowConnTimeout, the server must send
// one final goaway busy frame (counted in OverloadStats.Goaways) and drop
// the connection — instead of the pre-v3 behaviour of blocking a worker
// on the wedged connection forever.
func TestServerGoawaySlowConsumer(t *testing.T) {
	// Compress the stall detector only; the goaway grace keeps its
	// production value, because the wedged in-flight frame must still
	// finish draining at the consumer's slow rate before the final frame
	// can be written.
	oldTimeout := slowConnTimeout
	slowConnTimeout = 80 * time.Millisecond
	defer func() { slowConnTimeout = oldTimeout }()

	// Large path responses (~100 KB) make the drain rate the bottleneck:
	// one frame takes longer to trickle out than slowConnTimeout, so no
	// out-queue slot frees in time and the stall is unambiguous.
	g := oram.MustGeometry(oram.GeometryConfig{
		LeafBits: 5, LeafZ: 4, RootZ: 8, Profile: oram.ProfileLinear, BlockSize: 4096,
	})
	ps, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewSharded([]oram.Store{ps}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Fair mode with a queue deep enough for the whole flood keeps the
	// server's reader from ever blocking, so every request is read off the
	// socket before the goaway drop. (With unread bytes in the receive
	// buffer, the close would turn into a TCP reset that discards the
	// buffered responses — including the goaway frame itself.)
	if err := srv.SetLimits(Limits{Fair: true, MaxQueuePerConn: 512}); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Seed the target path with full-size payloads: a fresh tree answers
	// with empty dummy slots, whose ~700-byte frames the kernel would
	// buffer entirely without ever stalling the response queue.
	seed, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	src := make([][]oram.Slot, g.Levels())
	id := oram.BlockID(1)
	for lvl := range src {
		src[lvl] = make([]oram.Slot, g.BucketSize(lvl))
		for i := range src[lvl] {
			src[lvl][i] = oram.Slot{ID: id, Leaf: 0, Payload: bytes.Repeat([]byte{0x5A}, g.BlockSize())}
			id++
		}
	}
	if err := shard0(t, seed).WritePath(0, src); err != nil {
		t.Fatal(err)
	}
	seed.Close() // sends the held path
	path := make([]oram.BucketRef, g.Levels())
	for lvl := range path {
		path[lvl] = oram.BucketRef{Level: lvl, Node: g.NodeAt(0, lvl)}
	}

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, appendReqHeader(nil, 1, opHello, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := readFrame(conn); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		req := appendUnion(append(appendReqHeader(nil, uint64(i+2), opBatch, 0), batchRead), path)
		if err := writeFrame(conn, req); err != nil {
			break // the server may already have dropped us mid-flood
		}
	}

	// Drain slowly — a slow consumer, not a dead one: the in-flight
	// response write must keep completing so the write loop reaches the
	// goaway. Once the goaway is sent, drain flat out to find its frame.
	var stream bytes.Buffer
	buf := make([]byte, 4096)
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if srv.OverloadStats().Goaways == 0 {
			time.Sleep(5 * time.Millisecond)
		}
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		n, err := conn.Read(buf)
		stream.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if got := srv.OverloadStats().Goaways; got != 1 {
		t.Fatalf("Goaways = %d, want 1", got)
	}

	r := bytes.NewReader(stream.Bytes())
	sawGoaway := false
	for {
		frame, err := readFrame(r)
		if err != nil {
			break
		}
		id, status, body, err := parseRespHeader(frame)
		if err != nil {
			t.Fatalf("torn frame in response stream: %v", err)
		}
		if id == goawayID && status == statusBusy {
			sawGoaway = true
			if _, reason := parseBusy(body); !strings.Contains(reason, "slow consumer") {
				t.Errorf("goaway reason = %q", reason)
			}
		}
	}
	if !sawGoaway {
		t.Fatalf("no goaway frame in %d drained bytes", stream.Len())
	}
}

// sleepStore wraps a Store with a fixed per-operation service time, giving
// overload tests a server whose capacity is bounded and predictable. It is
// deliberately only an oram.Store (no BatchStore), so unions fall back to
// per-bucket reads, each paying the delay.
type sleepStore struct {
	oram.Store
	delay time.Duration
}

func (s *sleepStore) ReadBucket(level int, node uint64, dst []oram.Slot) error {
	time.Sleep(s.delay)
	return s.Store.ReadBucket(level, node, dst)
}

func (s *sleepStore) WriteBucket(level int, node uint64, src []oram.Slot) error {
	time.Sleep(s.delay)
	return s.Store.WriteBucket(level, node, src)
}

func (s *sleepStore) ReadSlot(level int, node uint64, slot int, dst *oram.Slot) error {
	time.Sleep(s.delay)
	return s.Store.ReadSlot(level, node, slot, dst)
}

func (s *sleepStore) WriteSlot(level int, node uint64, slot int, src oram.Slot) error {
	time.Sleep(s.delay)
	return s.Store.WriteSlot(level, node, slot, src)
}

// TestDeadlineShedInQueue parks a request behind a long-running one on a
// single-worker server: its budget expires while queued, so the server
// must shed it at dispatch (ShedDeadline) instead of executing work the
// client has given up on.
func TestDeadlineShedInQueue(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 4, LeafZ: 3, BlockSize: 0})
	slow := &sleepStore{Store: oram.NewMetaStore(g), delay: 250 * time.Millisecond}
	srv, err := NewSharded([]oram.Store{slow}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl, err := DialConfig(context.Background(), addr, Config{
		RequestDeadline: 50 * time.Millisecond,
		ShedRetries:     -1, // surface the first shed, no in-lane retry
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	level := g.LeafBits()
	dst := make([]oram.Slot, g.BucketSize(level))
	first := make(chan error, 1)
	st := shard0(t, cl)
	go func() { first <- st.ReadBucket(level, 0, dst) }()
	time.Sleep(30 * time.Millisecond) // let the first request occupy the lone worker

	dst2 := make([]oram.Slot, g.BucketSize(level))
	err = st.ReadBucket(level, 1, dst2)
	ov, ok := AsOverloaded(err)
	if !ok {
		t.Fatalf("queued-past-deadline call returned %v, want *ErrOverloaded", err)
	}
	if !strings.Contains(ov.Error(), "deadline expired") {
		t.Errorf("shed reason missing: %v", ov)
	}
	if err := <-first; err != nil {
		t.Errorf("the executing request was not shed, yet failed: %v", err)
	}
	if got := srv.OverloadStats().ShedDeadline; got != 1 {
		t.Errorf("ShedDeadline = %d, want 1", got)
	}
}

// TestFairShareUnderAggressor is the fairness property test: four
// well-behaved connections share a saturated server with one aggressor
// running tenfold their concurrency. Under DRR each connection is one
// ring slot, so every well-behaved client must still get close to its
// 1/5 fair share of completions — the aggressor's backlog hurts only the
// aggressor. (Under the FIFO dispatcher the aggressor would own the queue
// in proportion to its arrival rate.) The same four clients first run
// alone on the same server, and their p99 latency with the aggressor
// present must stay within 3x of that baseline's, judged above a 25 ms
// floor so a few ms of scheduler flutter cannot fail the band.
func TestFairShareUnderAggressor(t *testing.T) {
	const (
		nstores     = 8 // spread load so the worker pool, not one shard lock, is the contended resource
		workers     = 2
		wellBehaved = 4
		senders     = 8 // per well-behaved connection; the aggressor runs tenfold
		window      = 800 * time.Millisecond
		p99Floor    = 25 * time.Millisecond
	)
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 3, LeafZ: 3, BlockSize: 0})
	stores := make([]oram.Store, nstores)
	for i := range stores {
		stores[i] = &sleepStore{Store: oram.NewMetaStore(g), delay: time.Millisecond}
	}
	srv, err := NewSharded(stores, workers, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetLimits(Limits{Fair: true, MaxQueuePerConn: 8}); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// phase runs the well-behaved clients and, if asked, the aggressor for
	// one window. It returns every client's completions and the
	// well-behaved clients' request latencies, sorted.
	phase := func(aggressor bool) ([]int64, []time.Duration) {
		conns := wellBehaved
		if aggressor {
			conns++
		}
		counts := make([]atomic.Int64, conns)
		lats := make([][]time.Duration, wellBehaved*senders) // one per well-behaved sender
		var wg sync.WaitGroup
		stop := make(chan struct{})
		clients := make([]*Client, 0, conns)
		runClient := func(idx, n int) {
			t.Helper()
			cl, err := DialConfig(context.Background(), addr, Config{ShedRetries: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			clients = append(clients, cl)
			views := make([]*ShardStore, nstores)
			for s := range views {
				if views[s], err = cl.Store(s); err != nil {
					t.Fatal(err)
				}
			}
			for k := 0; k < n; k++ {
				var lat *[]time.Duration
				if idx < wellBehaved {
					lat = &lats[idx*senders+k]
				}
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(seed))
					var slot oram.Slot
					for {
						select {
						case <-stop:
							return
						default:
						}
						t0 := time.Now()
						if err := views[rng.Intn(nstores)].ReadSlot(0, 0, 0, &slot); err == nil {
							counts[idx].Add(1)
							if lat != nil {
								*lat = append(*lat, time.Since(t0))
							}
						}
					}
				}(int64(idx*100 + k))
			}
		}
		for i := 0; i < wellBehaved; i++ {
			runClient(i, senders)
		}
		if aggressor {
			runClient(wellBehaved, 10*senders)
		}
		time.Sleep(window)
		close(stop)
		wg.Wait()
		for _, cl := range clients {
			cl.Close()
		}
		out := make([]int64, conns)
		for i := range counts {
			out[i] = counts[i].Load()
		}
		var all []time.Duration
		for _, l := range lats {
			all = append(all, l...)
		}
		sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
		return out, all
	}
	p99 := func(sorted []time.Duration) time.Duration {
		if len(sorted) == 0 {
			t.Fatal("no well-behaved request completed")
		}
		return sorted[(len(sorted)-1)*99/100]
	}

	_, baseLats := phase(false)
	counts, lats := phase(true)

	var total, wellTotal int64
	for i, n := range counts {
		total += n
		if i < wellBehaved {
			wellTotal += n
		}
	}
	if total == 0 {
		t.Fatal("no request completed")
	}
	fairShare := float64(total) / float64(wellBehaved+1)
	wellMean := float64(wellTotal) / wellBehaved
	for i := 0; i < wellBehaved; i++ {
		got := float64(counts[i])
		if got < 0.8*fairShare {
			t.Errorf("well-behaved client %d completed %.0f, below 80%% of fair share %.0f (aggressor %d)",
				i, got, fairShare, counts[wellBehaved])
		}
		if got < 0.8*wellMean || got > 1.2*wellMean {
			t.Errorf("well-behaved client %d completed %.0f, outside ±20%% of peer mean %.0f", i, got, wellMean)
		}
	}
	if srv.OverloadStats().ShedQueue == 0 {
		t.Error("the aggressor never overflowed its queue; the drill was not an overload")
	}
	baseP99, aggrP99 := p99(baseLats), p99(lats)
	if bound := 3 * max(baseP99, p99Floor); aggrP99 > bound {
		t.Errorf("well-behaved p99 %v with the aggressor, above 3x the baseline's %v (bound %v)", aggrP99, baseP99, bound)
	}
	t.Logf("completions: well-behaved %v, aggressor %d, fair share %.0f; well-behaved p99 %v alone, %v with the aggressor; stats %+v",
		counts[:wellBehaved], counts[wellBehaved], fairShare, baseP99, aggrP99, srv.OverloadStats())
}

// TestRateLimitSheds exercises the per-connection token bucket through the
// full stack: a metered client sees busy frames once its burst is spent,
// while a second connection is untouched — the bucket is per connection,
// not global.
func TestRateLimitSheds(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 4, LeafZ: 3, BlockSize: 0})
	srv, err := NewSharded([]oram.Store{oram.NewMetaStore(g)}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetLimits(Limits{PerConnRate: 5, PerConnBurst: 3}); err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	metered, err := DialConfig(context.Background(), addr, Config{ShedRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer metered.Close()

	level := g.LeafBits()
	dst := make([]oram.Slot, g.BucketSize(level))
	var shed *ErrOverloaded
	for i := 0; i < 10 && shed == nil; i++ {
		if err := shard0(t, metered).ReadBucket(level, 0, dst); err != nil {
			ov, ok := AsOverloaded(err)
			if !ok {
				t.Fatalf("rate-limited call returned %v, want *ErrOverloaded", err)
			}
			shed = ov
		}
	}
	if shed == nil {
		t.Fatal("burst of 10 was never rate-limited at 5 req/s, burst 3")
	}
	if shed.RetryAfter <= 0 {
		t.Errorf("rate shed carried no retry-after hint: %+v", shed)
	}
	if got := srv.OverloadStats().ShedRate; got == 0 {
		t.Error("ShedRate counter never moved")
	}

	// A fresh connection has its own bucket and is admitted immediately.
	other, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if err := shard0(t, other).ReadBucket(level, 0, dst); err != nil {
		t.Errorf("second connection was shed by the first's bucket: %v", err)
	}

	// Control-plane traffic on the exhausted connection is never metered.
	if _, _, err := metered.Health(); err != nil {
		t.Errorf("health check shed by admission control: %v", err)
	}
}

// TestAdmissionIsByteTransparent is invariant #15 end to end: shedding
// changes when a request runs, never what it does. An oram.Client writes
// and then reads a seeded sequence through shards {1, 4} of one five-store
// node, once with admission off and once under a per-connection rate limit
// that sheds the closed-loop client (each shed retried in the lane), and
// every read must come back byte-identical. At 50 req/s with a burst of 1
// a request is shed unless the client spent 20 ms since its last one, which
// even a -race build never does across the whole sequence.
func TestAdmissionIsByteTransparent(t *testing.T) {
	const (
		perShard  = 1 << 9
		blockSize = 64
		opsPer    = 32
		seed      = 42
	)
	shards := []int{1, 4}
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: oram.LeafBitsFor(perShard), LeafZ: 4, BlockSize: blockSize})
	run := func(limits Limits, cfg Config) (map[int][][]byte, uint64) {
		t.Helper()
		stores := make([]oram.Store, 5)
		for i := range stores {
			ps, err := oram.NewPayloadStore(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			stores[i] = ps
		}
		srv, err := NewSharded(stores, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.SetLimits(limits); err != nil {
			t.Fatal(err)
		}
		addr, err := srv.Listen("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		cl, err := DialConfig(context.Background(), addr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		reads := make(map[int][][]byte, len(shards))
		for _, shard := range shards {
			st, err := cl.Store(shard)
			if err != nil {
				t.Fatal(err)
			}
			client, err := oram.NewClient(oram.ClientConfig{
				Store: st, Rand: rand.New(rand.NewSource(seed + int64(shard))),
				Evict: oram.PaperEvict, StashHits: true, Blocks: perShard,
			})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed + 100 + int64(shard)))
			pay := make([]byte, blockSize)
			ids := make([]oram.BlockID, opsPer)
			for k := range ids {
				ids[k] = oram.BlockID(rng.Int63n(perShard))
				binary.LittleEndian.PutUint64(pay, uint64(ids[k])^rng.Uint64())
				if err := client.Write(ids[k], pay); err != nil {
					t.Fatalf("shard %d write %d: %v", shard, k, err)
				}
			}
			for k, id := range ids {
				got, err := client.Read(id)
				if err != nil {
					t.Fatalf("shard %d read %d: %v", shard, k, err)
				}
				reads[shard] = append(reads[shard], append([]byte(nil), got...))
			}
		}
		return reads, srv.OverloadStats().Shed()
	}

	want, sheds := run(Limits{}, Config{})
	if sheds != 0 {
		t.Fatalf("the unlimited run shed %d requests", sheds)
	}
	got, sheds := run(
		Limits{PerConnRate: 50, PerConnBurst: 1, Fair: true},
		Config{ShedRetries: 64, RequestDeadline: 2 * time.Second},
	)
	if sheds == 0 {
		t.Fatal("the limited run shed nothing; byte transparency was not exercised")
	}
	for _, shard := range shards {
		for k := range want[shard] {
			if !bytes.Equal(got[shard][k], want[shard][k]) {
				t.Errorf("shard %d read %d differs under admission control", shard, k)
			}
		}
	}
	t.Logf("limited run: %d sheds", sheds)
}
