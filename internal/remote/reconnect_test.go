// Black-box tests (package remote_test) for the failure-handling layer:
// typed ErrNodeDown surfacing, reconnect + replay behaviour, and goroutine
// hygiene of the redial path. They drive faults through internal/chaos,
// which imports remote — hence the external test package.
package remote_test

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/oram"
	"repro/internal/remote"
)

// shard0 is the store view onto shard 0 of c's node.
func shard0(t testing.TB, c *remote.Client) *remote.ShardStore {
	t.Helper()
	st, err := c.Store(0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func startNode(t *testing.T, shards int) *chaos.Node {
	t.Helper()
	n := chaos.NewNode(func() ([]oram.Store, error) {
		g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 4, LeafZ: 4, BlockSize: 0})
		stores := make([]oram.Store, shards)
		for i := range stores {
			stores[i] = oram.NewMetaStore(g)
		}
		return stores, nil
	}, 2, nil)
	if _, err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Kill() })
	return n
}

// TestErrNodeDownTyped: the satellite-1 regression — a node death surfaces
// as *ErrNodeDown carrying the node address and the *global* shard index
// under the configured placement, distinguishable from fatal server errors
// with errors.As.
func TestErrNodeDownTyped(t *testing.T) {
	n := startNode(t, 2)
	// Placement as laoram would configure node 1 of a 3-node cluster:
	// local shard i is global shard 1 + i*3.
	c, err := remote.DialConfig(context.Background(), n.Addr(), remote.Config{
		ShardBase: 1, ShardStride: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A fatal server error is NOT ErrNodeDown: the connection is fine, the
	// request was rejected.
	st, err := c.Store(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ReadBucket(99, 0, make([]oram.Slot, 4)); err == nil {
		t.Fatal("out-of-range level accepted")
	} else if _, ok := remote.AsNodeDown(err); ok {
		t.Fatalf("server rejection mis-typed as node death: %v", err)
	}

	// Kill the node mid-call: every caller gets a typed ErrNodeDown.
	n.Kill()
	err = st.ReadBucket(1, 0, make([]oram.Slot, 4))
	nd, ok := remote.AsNodeDown(err)
	if !ok {
		t.Fatalf("node death surfaced as %T: %v", err, err)
	}
	if nd.Addr != n.Addr() {
		t.Errorf("ErrNodeDown.Addr = %q, want %q", nd.Addr, n.Addr())
	}
	if nd.Shard != 1+1*3 {
		t.Errorf("ErrNodeDown.Shard = %d, want global 4 (local 1 under base 1 stride 3)", nd.Shard)
	}
	if nd.StateLost {
		t.Error("fail-fast death should not claim state loss")
	}
	var asND *remote.ErrNodeDown
	if !errors.As(err, &asND) {
		t.Error("errors.As failed on ErrNodeDown")
	}
}

// TestReconnectReplay: with Reconnect on, a proxy-killed connection is
// transparent — the parked call replays on the fresh connection and the
// caller never sees an error (boot ID unchanged, so replay is safe).
func TestReconnectReplay(t *testing.T) {
	n := startNode(t, 1)
	p, err := chaos.NewProxy(n.Addr(), 5)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := remote.DialConfig(context.Background(), p.Addr(), remote.Config{
		Reconnect: true, RetryElapsed: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := shard0(t, c).WriteSlot(2, 1, 1, oram.Slot{ID: 42, Leaf: 9}); err != nil {
		t.Fatal(err)
	}
	var got oram.Slot
	if err := shard0(t, c).ReadSlot(2, 1, 1, &got); err != nil { // sends the held write
		t.Fatal(err)
	}
	p.KillConns()
	if err := shard0(t, c).ReadSlot(2, 1, 1, &got); err != nil {
		t.Fatalf("read across connection kill: %v", err)
	}
	if got.ID != 42 || got.Leaf != 9 {
		t.Errorf("replayed read got %+v", got)
	}
}

// TestReconnectBudgetExhausted: when the node stays down past
// RetryElapsed, parked calls fail with ErrNodeDown — and the client stays
// usable: once the node returns, the next call lazily redials.
func TestReconnectBudgetExhausted(t *testing.T) {
	n := startNode(t, 1)
	c, err := remote.DialConfig(context.Background(), n.Addr(), remote.Config{
		Reconnect: true, RetryElapsed: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := shard0(t, c).WriteSlot(1, 1, 0, oram.Slot{ID: 7, Leaf: 2}); err != nil {
		t.Fatal(err)
	}
	s, err := c.Store(0)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}
	n.Kill()
	n.WaitDown()
	var got oram.Slot
	err = shard0(t, c).ReadSlot(1, 1, 0, &got)
	if _, ok := remote.AsNodeDown(err); !ok {
		t.Fatalf("exhausted retry budget surfaced as %T: %v", err, err)
	}
	if _, err := n.Restart(); err != nil {
		t.Fatal(err)
	}
	// Lazy redial: the next call starts a fresh reconnect, which adopts the
	// restarted node and latches state loss (new boot ID, empty tree).
	deadline := time.Now().Add(5 * time.Second)
	for {
		err = shard0(t, c).ReadSlot(1, 1, 0, &got)
		if nd, ok := remote.AsNodeDown(err); ok && nd.StateLost {
			break
		}
		if err == nil {
			t.Fatal("read succeeded against the restarted node before any restore")
		}
		if time.Now().After(deadline) {
			t.Fatalf("client never redialled after node restart: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Restoring the checkpoint makes the same client fully usable again.
	if err := s.Load(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("restore after state loss: %v", err)
	}
	if err := shard0(t, c).ReadSlot(1, 1, 0, &got); err != nil {
		t.Fatalf("read after restore: %v", err)
	}
	if got.ID != 7 || got.Leaf != 2 {
		t.Errorf("restored read got %+v, want ID 7 Leaf 2", got)
	}
}

// TestReconnectGoroutineLeaks: the satellite-4 leak check extended to the
// redial path. Three teardown orders — proxy kill then close, context
// cancel mid-outage, close mid-backoff — must all drain every
// reader/writer/dial goroutine.
func TestReconnectGoroutineLeaks(t *testing.T) {
	base := runtime.NumGoroutine()

	t.Run("kill-then-close", func(t *testing.T) {
		n := startNode(t, 1)
		p, err := chaos.NewProxy(n.Addr(), 6)
		if err != nil {
			t.Fatal(err)
		}
		c, err := remote.DialConfig(context.Background(), p.Addr(), remote.Config{
			Reconnect: true, RetryElapsed: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		p.KillConns()
		var got oram.Slot
		if err := shard0(t, c).ReadSlot(1, 0, 0, &got); err != nil {
			t.Fatalf("read across kill: %v", err)
		}
		c.Close()
		p.Close()
		n.Kill()
	})

	t.Run("cancel-mid-outage", func(t *testing.T) {
		n := startNode(t, 1)
		ctx, cancel := context.WithCancel(context.Background())
		c, err := remote.DialConfig(ctx, n.Addr(), remote.Config{
			Reconnect: true, RetryElapsed: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Kill()
		n.WaitDown()
		// Park a call on the reconnect loop, then cancel the context out
		// from under it: the call must fail and every goroutine drain.
		done := make(chan error, 1)
		st := shard0(t, c)
		go func() {
			var got oram.Slot
			done <- st.ReadSlot(1, 0, 0, &got)
		}()
		time.Sleep(50 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if err == nil {
				t.Error("parked call succeeded against a dead node")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("parked call never released after context cancel")
		}
		c.Close()
	})

	t.Run("close-mid-backoff", func(t *testing.T) {
		n := startNode(t, 1)
		c, err := remote.DialConfig(context.Background(), n.Addr(), remote.Config{
			Reconnect: true, RetryElapsed: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		n.Kill()
		n.WaitDown()
		done := make(chan error, 1)
		st := shard0(t, c)
		go func() {
			var got oram.Slot
			done <- st.ReadSlot(1, 0, 0, &got)
		}()
		time.Sleep(50 * time.Millisecond)
		c.Close()
		select {
		case err := <-done:
			if err == nil {
				t.Error("parked call succeeded after Close")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("parked call never released after Close")
		}
	})

	waitGoroutines(t, base)
}

// TestReconnectCancelMidBackoff: the regression for the missing ctx.Done
// case in the reconnect loop's backoff select. With a 30s retry budget the
// loop spends nearly all its time sleeping between redials; a context
// cancelled during that sleep must release the parked call promptly — via
// the loop's own ctx.Done case or the context watcher's Close, whichever
// the scheduler runs first — never by sleeping out the backoff first, and
// every goroutine must drain.
func TestReconnectCancelMidBackoff(t *testing.T) {
	base := runtime.NumGoroutine()
	n := startNode(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, err := remote.DialConfig(ctx, n.Addr(), remote.Config{
		Reconnect: true, RetryElapsed: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Kill()
	n.WaitDown()
	done := make(chan error, 1)
	st := shard0(t, c)
	go func() {
		var got oram.Slot
		done <- st.ReadSlot(1, 0, 0, &got)
	}()
	// Give the loop time to burn through the short initial backoffs and park
	// in a longer sleep, then cancel mid-sleep.
	time.Sleep(150 * time.Millisecond)
	start := time.Now()
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Error("parked call succeeded against a dead node")
		}
		if waited := time.Since(start); waited > 3*time.Second {
			t.Errorf("parked call released %v after cancel — slept out the backoff", waited)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("parked call never released after cancel mid-backoff")
	}
	c.Close()
	waitGoroutines(t, base)
}

// TestCancelDoesNotResurrect: once a run's cancellation has severed the
// connection (the context watcher Closes the client), later calls must fail
// fast as closed — the lazy-redial path must NOT bring the connection back
// just because the node is healthy and Reconnect is on. A resurrected
// connection would leak a read loop and let a "cancelled" trainer keep
// issuing I/O.
func TestCancelDoesNotResurrect(t *testing.T) {
	base := runtime.NumGoroutine()
	n := startNode(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	c, err := remote.DialConfig(ctx, n.Addr(), remote.Config{
		Reconnect: true, RetryElapsed: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	var got oram.Slot
	if err := shard0(t, c).ReadSlot(1, 0, 0, &got); err != nil {
		t.Fatal(err)
	}

	// Cancel with the node alive and wait for the watcher to close the
	// client (the first failing call proves it).
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err = shard0(t, c).ReadSlot(1, 0, 0, &got); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("calls kept succeeding after context cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The node is still serving, so any resurrect bug has every chance to
	// fire: hammer the client past the retry budget and the backoff cap.
	until := time.Now().Add(250 * time.Millisecond)
	for time.Now().Before(until) {
		if err := shard0(t, c).ReadSlot(1, 0, 0, &got); err == nil {
			t.Fatal("cancelled client resurrected its connection")
		}
		time.Sleep(10 * time.Millisecond)
	}
	// No reconnect loop, watcher or read loop may survive — Close already
	// ran via the watcher; this one must be a no-op. (The node goes down
	// too: its worker pool is not the subject of the count.)
	c.Close()
	n.Kill()
	waitGoroutines(t, base)
}

// waitGoroutines polls until the goroutine count returns to base (mirrors
// the PR 4 trainer leak helper).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d > %d\n%s", n, base,
				buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBootIDStateLoss: a restart with state loss is detected and latched —
// the call that was on the wire fails with StateLost=true rather than
// silently replaying into an empty tree, every later call keeps failing
// the same way (even ones issued in an idle gap, with nothing on the
// wire), and a Restore from a checkpoint is what clears the latch and
// brings the pre-crash data back.
func TestBootIDStateLoss(t *testing.T) {
	n := startNode(t, 1)
	c, err := remote.DialConfig(context.Background(), n.Addr(), remote.Config{
		Reconnect: true, RetryElapsed: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := shard0(t, c).WriteSlot(2, 2, 0, oram.Slot{ID: 3, Leaf: 1}); err != nil {
		t.Fatal(err)
	}
	boot1 := c.BootID()
	if boot1 == 0 {
		t.Fatal("server sent no boot ID")
	}
	s, err := c.Store(0)
	if err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := s.Save(&snap); err != nil {
		t.Fatal(err)
	}

	// Park a call mid-outage by racing it with the kill; then restart.
	n.Kill()
	done := make(chan error, 1)
	st := shard0(t, c)
	go func() {
		var got oram.Slot
		done <- st.ReadSlot(2, 2, 0, &got)
	}()
	n.WaitDown()
	if _, err := n.Restart(); err != nil {
		t.Fatal(err)
	}
	err = <-done
	if err != nil {
		// The call was sent before the crash was noticed: it must carry
		// the state-loss marker.
		nd, ok := remote.AsNodeDown(err)
		if !ok {
			t.Fatalf("restart surfaced as %T: %v", err, err)
		}
		if !nd.StateLost {
			t.Errorf("restart not flagged as state loss: %v", err)
		}
	}
	// The latch: once the restart is adopted, every non-Restore call fails
	// with StateLost — no read may slip through onto the empty tree.
	var got oram.Slot
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := shard0(t, c).ReadSlot(2, 2, 0, &got)
		if err == nil {
			t.Fatal("read succeeded against the restarted node before any restore")
		}
		if nd, ok := remote.AsNodeDown(err); ok && nd.StateLost {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("state loss never latched; last error: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if c.BootID() == boot1 {
		t.Error("boot ID unchanged across restart")
	}
	// A Restore re-establishes the tree and clears the latch; the data is
	// the checkpoint's, not the empty restart's.
	if err := s.Load(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatalf("restore after state loss: %v", err)
	}
	if err := shard0(t, c).ReadSlot(2, 2, 0, &got); err != nil {
		t.Fatalf("read after restore: %v", err)
	}
	if got.ID != 3 || got.Leaf != 1 {
		t.Errorf("restored read got %+v, want ID 3 Leaf 1", got)
	}
}
