package chaos

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

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

func metaStores(t *testing.T, shards int) func() ([]oram.Store, error) {
	t.Helper()
	return func() ([]oram.Store, error) {
		g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 4, LeafZ: 4, BlockSize: 0})
		stores := make([]oram.Store, shards)
		for i := range stores {
			stores[i] = oram.NewMetaStore(g)
		}
		return stores, nil
	}
}

func startNode(t *testing.T, shards int) *Node {
	t.Helper()
	n := NewNode(metaStores(t, shards), 2, nil)
	if _, err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Kill() })
	return n
}

// TestProxyPassthrough: a faultless proxy is invisible — reads and writes
// through it behave exactly like a direct connection.
func TestProxyPassthrough(t *testing.T) {
	n := startNode(t, 1)
	p, err := NewProxy(n.Addr(), 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := remote.Dial(p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	want := oram.Slot{ID: 9, Leaf: 3}
	if err := shard0(t, c).WriteSlot(2, 1, 0, want); err != nil {
		t.Fatal(err)
	}
	var got oram.Slot
	if err := shard0(t, c).ReadSlot(2, 1, 0, &got); err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.Leaf != want.Leaf {
		t.Errorf("through proxy: got %+v want %+v", got, want)
	}
}

// TestProxyLatency: latency/jitter perturbs timing only — results are
// unchanged (the "slow network" fault must never corrupt).
func TestProxyLatency(t *testing.T) {
	n := startNode(t, 1)
	p, err := NewProxy(n.Addr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetLatency(2*time.Millisecond, 3*time.Millisecond)
	c, err := remote.Dial(p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := 0; i < 10; i++ {
		if err := shard0(t, c).WriteSlot(3, 2, 1, oram.Slot{ID: uint64ID(i), Leaf: 5}); err != nil {
			t.Fatal(err)
		}
		var got oram.Slot
		if err := shard0(t, c).ReadSlot(3, 2, 1, &got); err != nil {
			t.Fatal(err)
		}
		if got.ID != uint64ID(i) {
			t.Fatalf("round %d: slot %+v", i, got)
		}
	}
}

func uint64ID(i int) oram.BlockID { return oram.BlockID(i + 1) }

// TestProxyKillConnsReplay: the connection-kill fault mid-traffic. A
// reconnecting client replays the parked request and the caller never sees
// an error — the server survived, so the boot ID matches and replay is
// safe.
func TestProxyKillConnsReplay(t *testing.T) {
	n := startNode(t, 1)
	p, err := NewProxy(n.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := remote.DialConfig(t.Context(), p.Addr(), remote.Config{Reconnect: true, RetryElapsed: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := shard0(t, c).WriteSlot(1, 0, 0, oram.Slot{ID: 77, Leaf: 1}); err != nil {
		t.Fatal(err)
	}
	var got oram.Slot
	if err := shard0(t, c).ReadSlot(1, 0, 0, &got); err != nil { // sends the held write
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		p.KillConns()
		if err := shard0(t, c).ReadSlot(1, 0, 0, &got); err != nil {
			t.Fatalf("round %d: read after kill: %v", round, err)
		}
		if got.ID != 77 {
			t.Fatalf("round %d: slot %+v", round, got)
		}
	}
	if c.BootID() != n.Server().BootID() {
		t.Error("boot ID changed across proxy kills of a surviving server")
	}
}

// TestProxyTruncate: the partial-write fault tears a frame on its way to
// the server; the connection dies, and a reconnecting client recovers by
// replaying on a fresh connection.
func TestProxyTruncate(t *testing.T) {
	n := startNode(t, 1)
	p, err := NewProxy(n.Addr(), 3)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	c, err := remote.DialConfig(t.Context(), p.Addr(), remote.Config{Reconnect: true, RetryElapsed: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := shard0(t, c).WriteSlot(2, 0, 0, oram.Slot{ID: 5, Leaf: 2}); err != nil {
		t.Fatal(err)
	}
	var got oram.Slot
	if err := shard0(t, c).ReadSlot(2, 0, 0, &got); err != nil { // sends the held write
		t.Fatal(err)
	}
	p.TruncateNext(3) // cut mid-length-prefix
	if err := shard0(t, c).ReadSlot(2, 0, 0, &got); err != nil {
		t.Fatalf("read across torn frame: %v", err)
	}
	if got.ID != 5 || got.Leaf != 2 {
		t.Errorf("slot after torn frame: %+v", got)
	}
}

// TestProxyDrop: while partitioned, a fail-fast client's calls error; after
// healing, a new dial works.
func TestProxyDrop(t *testing.T) {
	n := startNode(t, 1)
	p, err := NewProxy(n.Addr(), 4)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	p.SetDrop(true)
	if _, err := remote.Dial(p.Addr()); err == nil {
		t.Fatal("dial through dropped proxy succeeded")
	}
	p.SetDrop(false)
	c, err := remote.Dial(p.Addr())
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	c.Close()
}

// TestNodeKillRestart: the full crash/restore cycle. Kill drops the trees;
// Restart brings the node back empty on the same address; RestoreAll
// reloads the checkpoint; a reconnecting client sees a boot-ID change
// (state-loss detection) and then serves restored data.
func TestNodeKillRestart(t *testing.T) {
	n := startNode(t, 2)
	addr := n.Addr()
	c, err := remote.DialConfig(t.Context(), addr, remote.Config{Reconnect: true, RetryElapsed: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	boot1 := c.BootID()
	st1, err := c.Store(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := st1.WriteSlot(3, 4, 2, oram.Slot{ID: 11, Leaf: 6}); err != nil {
		t.Fatal(err)
	}
	var got oram.Slot
	if err := st1.ReadSlot(3, 4, 2, &got); err != nil { // sends the held write
		t.Fatal(err)
	}
	ck, err := n.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(ck) != 2 {
		t.Fatalf("snapshot covers %d shards", len(ck))
	}

	if err := n.Kill(); err != nil {
		t.Fatal(err)
	}
	n.WaitDown()
	if n.Running() {
		t.Fatal("node still running after Kill")
	}
	if bound, err := n.Restart(); err != nil {
		t.Fatal(err)
	} else if bound != addr {
		t.Fatalf("restarted on %s, want pinned %s", bound, addr)
	}
	if err := n.RestoreAll(ck); err != nil {
		t.Fatal(err)
	}

	// The restart latches state loss in the client: reads keep failing
	// with StateLost even though the supervisor restored the server's
	// stores, because the client can only trust a restore it sent itself
	// (anything else could be an empty restart adopted in an idle gap).
	deadline := time.Now().Add(5 * time.Second)
	for {
		err = st1.ReadSlot(3, 4, 2, &got)
		if nd, ok := remote.AsNodeDown(err); ok && nd.StateLost {
			break
		}
		if err == nil {
			t.Fatal("read succeeded before the client saw a restore")
		}
		if time.Now().After(deadline) {
			t.Fatalf("state loss never latched: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Pushing the checkpoint through the client (opRestore) clears the
	// latch; the restored bytes serve.
	for i, snap := range ck {
		s, err := c.Store(i)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Load(bytes.NewReader(snap)); err != nil {
			t.Fatalf("client-side restore of shard %d: %v", i, err)
		}
	}
	if err := st1.ReadSlot(3, 4, 2, &got); err != nil {
		t.Fatalf("read after restore: %v", err)
	}
	if got.ID != 11 || got.Leaf != 6 {
		t.Errorf("restored slot %+v", got)
	}
	if c.BootID() == boot1 {
		t.Error("boot ID unchanged across a real restart")
	}
	// Restore on a dead node refuses.
	n.Kill()
	n.WaitDown()
	if err := n.RestoreAll(ck); err == nil {
		t.Error("RestoreAll on dead node accepted")
	}
}

// TestSnapshotDeterministicAcrossNodes: two nodes built identically produce
// identical snapshots after identical traffic — the property the failover
// identity test leans on when comparing decrypted trees.
func TestSnapshotDeterministicAcrossNodes(t *testing.T) {
	a, b := startNode(t, 1), startNode(t, 1)
	for _, n := range []*Node{a, b} {
		c, err := remote.Dial(n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		if err := shard0(t, c).WriteSlot(4, 9, 3, oram.Slot{ID: 2, Leaf: 8}); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	sa, err := a.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	sb, err := b.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sa[0], sb[0]) {
		t.Error("identical traffic produced different snapshots")
	}
}

// TestRestartRaceTyped: a manual Restart racing a supervisor's restart of
// the same node resolves deterministically — exactly one restart wins per
// down period, and every loser gets the typed ErrAlreadyRunning (matchable
// with errors.Is), never a bind error or a second server on the address.
func TestRestartRaceTyped(t *testing.T) {
	n := startNode(t, 1)
	addr := n.Addr()

	// The direct form first: Start/Restart on a running node is typed.
	if _, err := n.Start(); !errors.Is(err, ErrAlreadyRunning) {
		t.Fatalf("Start on a running node: %v, want ErrAlreadyRunning", err)
	}
	if _, err := n.Restart(); !errors.Is(err, ErrAlreadyRunning) {
		t.Fatalf("Restart on a running node: %v, want ErrAlreadyRunning", err)
	}

	// Now the race: an aggressive supervisor and a manual restarter hammer
	// the node through repeated kill cycles.
	stop := n.Supervise(0, time.Millisecond)
	defer stop()
	for cycle := 0; cycle < 20; cycle++ {
		n.Kill()
		var wg sync.WaitGroup
		errs := make([]error, 4)
		for i := range errs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				_, errs[i] = n.Restart()
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil && !errors.Is(err, ErrAlreadyRunning) {
				t.Fatalf("cycle %d: racer %d got %v, want nil or ErrAlreadyRunning", cycle, i, err)
			}
		}
		// Whoever won, the node must be up on its pinned address.
		deadline := time.Now().Add(2 * time.Second)
		for !n.Running() {
			if time.Now().After(deadline) {
				t.Fatalf("cycle %d: node never came back", cycle)
			}
			time.Sleep(time.Millisecond)
		}
		if got := n.Addr(); got != addr {
			t.Fatalf("cycle %d: node on %s, want pinned %s", cycle, got, addr)
		}
	}
}

// TestSuperviseStopsAfterLostRestartRace: a manual Restart that wins between
// the supervisor's liveness check and its wait for the address to free must
// not leave the supervisor dialling a live node forever — the wait ends when
// the node is running again, so stop() returns promptly.
func TestSuperviseStopsAfterLostRestartRace(t *testing.T) {
	n := startNode(t, 1)
	n.Kill()
	n.WaitDown()
	raced := make(chan struct{})
	var once sync.Once
	n.foundDown = func() {
		once.Do(func() {
			if _, err := n.Restart(); err != nil {
				t.Errorf("manual restart: %v", err)
			}
			close(raced)
		})
	}
	stop := n.Supervise(0, time.Millisecond)
	select {
	case <-raced:
	case <-time.After(5 * time.Second):
		t.Fatal("supervisor never found the node down")
	}
	stopped := make(chan struct{})
	go func() {
		stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(time.Second):
		t.Fatal("stop() still blocked a second after the node came back: the supervisor is stuck waiting for a live node to go down")
	}
	if !n.Running() {
		t.Error("node not running after the manual restart")
	}
}

// TestClusterPlacement: NewCluster lays the serving tier out under the
// public placement (node j holds every shard i with i % Nodes == j), gives
// each fresh node one placeholder store, and Close takes all of it down.
func TestClusterPlacement(t *testing.T) {
	cl, err := NewCluster(ClusterConfig{Entries: 1 << 8, Shards: 5, BlockSize: 8, Nodes: 2, Fresh: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if got := len(cl.Addrs()); got != 2 {
		t.Fatalf("%d serving addresses, want 2", got)
	}
	for j, want := range []int{3, 2} {
		if got := cl.Node(j).Server().Shards(); got != want {
			t.Errorf("serving node %d holds %d stores, want %d", j, got, want)
		}
	}
	snaps, err := cl.SnapshotAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 5 {
		t.Errorf("SnapshotAll returned %d trees, want one per shard (5)", len(snaps))
	}
	all := append(cl.Addrs(), cl.FreshAddrs()...)
	if len(all) != 4 {
		t.Fatalf("%d addresses, want 4", len(all))
	}
	cl.Close()
	for _, addr := range all {
		if !refusesDial(addr) {
			t.Errorf("node %s still accepts after Close", addr)
		}
	}
}

// TestClusterBootFailureKillsStarted: when node 1 of 3 fails to boot, the
// cluster boot must not leave node 0 listening with no handle to kill it.
func TestClusterBootFailureKillsStarted(t *testing.T) {
	boom := errors.New("no stores today")
	nodes := []*Node{
		NewNode(metaStores(t, 1), 0, nil),
		NewNode(func() ([]oram.Store, error) { return nil, boom }, 0, nil),
		NewNode(metaStores(t, 1), 0, nil),
	}
	if err := startAll(nodes); !errors.Is(err, boom) {
		t.Fatalf("startAll = %v, want the node 1 build error", err)
	}
	if nodes[0].Addr() == "" {
		t.Fatal("node 0 never started: the test exercised nothing")
	}
	if nodes[0].Running() || !refusesDial(nodes[0].Addr()) {
		t.Errorf("node 0 (%s) still serves after the failed boot", nodes[0].Addr())
	}
	if nodes[2].Addr() != "" {
		t.Error("node 2 was started after node 1 failed")
	}
}

// refusesDial reports whether addr stops accepting within a second (the OS
// may keep accepting briefly after a listener closes).
func refusesDial(addr string) bool {
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return true
		}
		conn.Close()
		time.Sleep(5 * time.Millisecond)
	}
	return false
}
