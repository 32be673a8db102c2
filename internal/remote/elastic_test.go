// Black-box tests (package remote_test) for the elastic-serving layer:
// the opHealth heartbeat and graceful drain, opAddStore placement growth,
// and live migration over a flaky network — which must either complete
// cleanly or abort cleanly, never leaving a half-migrated shard. The flaky
// scenarios drive faults through internal/chaos, which imports remote —
// hence the external test package.
package remote_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/oram"
	"repro/internal/remote"
)

// elasticGeometry is shared by every node in these tests (migration and
// placement growth both require geometry equality).
func elasticGeometry() *oram.Geometry {
	return oram.MustGeometry(oram.GeometryConfig{LeafBits: 4, LeafZ: 3, BlockSize: 16})
}

// startElasticNode boots a node with `shards` payload stores and the store
// factory armed — the laoramserve shape: it can grow placements for
// migrated-in shards.
func startElasticNode(t *testing.T, shards int) *chaos.Node {
	t.Helper()
	g := elasticGeometry()
	factory := func() (oram.Store, error) { return oram.NewPayloadStore(g, nil) }
	n := chaos.NewNode(func() ([]oram.Store, error) {
		stores := make([]oram.Store, shards)
		for i := range stores {
			ps, err := factory()
			if err != nil {
				return nil, err
			}
			stores[i] = ps
		}
		return stores, nil
	}, 2, nil)
	n.SetStoreFactory(factory)
	if _, err := n.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Kill() })
	return n
}

// TestHealthHeartbeatAndDrain: opHealth reports the store count and the
// draining flag; Server.Drain refuses new connections while existing ones
// keep serving (migration needs the live snapshot path).
func TestHealthHeartbeatAndDrain(t *testing.T) {
	n := startElasticNode(t, 2)
	c, err := remote.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	draining, shards, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if draining {
		t.Error("fresh node reports draining")
	}
	if shards != 2 {
		t.Errorf("heartbeat reports %d stores, want 2", shards)
	}

	n.Server().Drain()
	draining, _, err = c.Health()
	if err != nil {
		t.Fatalf("heartbeat on the existing connection must survive a drain: %v", err)
	}
	if !draining {
		t.Error("drained node does not announce draining")
	}
	// The listener is closed: a new client cannot connect...
	if c2, err := remote.Dial(n.Addr()); err == nil {
		c2.Close()
		t.Error("dial succeeded against a draining node")
	}
	// ...but the existing connection still serves stores.
	st, err := c.Store(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.ReadBucket(0, 0, make([]oram.Slot, elasticGeometry().BucketSize(0))); err != nil {
		t.Errorf("read on a draining node failed: %v", err)
	}
	if got := n.Server().ActiveConns(); got != 1 {
		t.Errorf("ActiveConns = %d with one live client, want 1", got)
	}
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for n.Server().ActiveConns() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("ActiveConns stuck at %d after the last client left", n.Server().ActiveConns())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAddStoreGrowsPlacement: opAddStore appends a factory-built store and
// returns its index; the new store serves reads and writes like any other.
// Without a factory the request is rejected as a server error, not a node
// death.
func TestAddStoreGrowsPlacement(t *testing.T) {
	n := startElasticNode(t, 1)
	c, err := remote.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.Shards(); got != 1 {
		t.Fatalf("handshake shards = %d, want 1", got)
	}
	view, err := c.AddStore()
	if err != nil {
		t.Fatal(err)
	}
	if view.Shard() != 1 {
		t.Errorf("grown store landed at index %d, want 1", view.Shard())
	}
	if got := c.Shards(); got != 2 {
		t.Errorf("client shard count = %d after AddStore, want 2", got)
	}
	if got := n.Server().Shards(); got != 2 {
		t.Errorf("server shard count = %d after AddStore, want 2", got)
	}
	pay := bytes.Repeat([]byte{0xAB}, 16)
	if err := view.WriteBucket(1, 0, []oram.Slot{{ID: 7, Leaf: 3, Payload: pay}, oram.DummySlot(), oram.DummySlot()}); err != nil {
		t.Fatal(err)
	}
	dst := make([]oram.Slot, 3)
	if err := view.ReadBucket(1, 0, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0].ID != 7 || !bytes.Equal(dst[0].Payload, pay) {
		t.Errorf("grown store round trip = %+v", dst[0])
	}

	// A node without a factory rejects growth but stays up.
	bare := chaos.NewNode(func() ([]oram.Store, error) {
		ps, err := oram.NewPayloadStore(elasticGeometry(), nil)
		return []oram.Store{ps}, err
	}, 2, nil)
	if _, err := bare.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bare.Kill() })
	bc, err := remote.Dial(bare.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	if _, err := bc.AddStore(); err == nil {
		t.Error("AddStore accepted without a store factory")
	} else if _, ok := remote.AsNodeDown(err); ok {
		t.Errorf("factory rejection mis-typed as node death: %v", err)
	}
	if _, _, err := bc.Health(); err != nil {
		t.Errorf("node down after a rejected AddStore: %v", err)
	}
}

// TestFlakyMigrationAtomic: a migration whose restore is cut mid-frame by
// the chaos proxy aborts cleanly — the placement still points at the old
// node and every byte still serves from it — and a retry over a slow,
// jittery (but whole) network completes cleanly, after which the shard
// serves from the new node. There is no observable half-migrated state at
// any point.
func TestFlakyMigrationAtomic(t *testing.T) {
	source := startElasticNode(t, 1)
	target := startElasticNode(t, 1)

	sc, err := remote.Dial(source.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	ss, err := sc.Store(0)
	if err != nil {
		t.Fatal(err)
	}

	// Seed the shard with recognisable content.
	g := elasticGeometry()
	writeProbe := func(lvl int, node uint64, id uint64) {
		t.Helper()
		slots := make([]oram.Slot, g.BucketSize(lvl))
		for i := range slots {
			slots[i] = oram.DummySlot()
		}
		slots[0] = oram.Slot{ID: oram.BlockID(id), Leaf: oram.Leaf(id % 16), Payload: bytes.Repeat([]byte{byte(id)}, 16)}
		if err := ss.WriteBucket(lvl, node, slots); err != nil {
			t.Fatal(err)
		}
	}
	readProbe := func(lvl int, node uint64, id uint64) {
		t.Helper()
		dst := make([]oram.Slot, g.BucketSize(lvl))
		if err := ss.ReadBucket(lvl, node, dst); err != nil {
			t.Fatal(err)
		}
		if dst[0].ID != oram.BlockID(id) || !bytes.Equal(dst[0].Payload, bytes.Repeat([]byte{byte(id)}, 16)) {
			t.Fatalf("probe bucket (%d,%d) = %+v, want ID %d", lvl, node, dst[0], id)
		}
	}
	writeProbe(0, 0, 100)
	writeProbe(2, 3, 101)
	writeProbe(4, 11, 102)

	proxy, err := chaos.NewProxy(target.Addr(), 7)
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()

	// Attempt 1: the opRestore frame is torn mid-write; the fail-fast
	// client surfaces a node death and the migration aborts with the old
	// placement intact.
	flaky, err := remote.Dial(proxy.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer flaky.Close()
	view, err := flaky.AddStore()
	if err != nil {
		t.Fatal(err)
	}
	proxy.TruncateNext(5)
	if _, err := ss.MigrateTo(view); err == nil {
		t.Fatal("migration through a torn frame reported success")
	}
	if got := ss.Client().Addr(); got != source.Addr() {
		t.Fatalf("failed migration moved the placement to %s", got)
	}
	readProbe(0, 0, 100)
	readProbe(2, 3, 101)
	readProbe(4, 11, 102)

	// Attempt 2: slow and jittery but intact network, reconnecting client —
	// the migration completes cleanly and the placement repoints.
	proxy.SetLatency(200*time.Microsecond, 500*time.Microsecond)
	tc, err := remote.DialConfig(context.Background(), proxy.Addr(), remote.Config{
		Reconnect: true, RetryElapsed: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	view2, err := tc.AddStore()
	if err != nil {
		t.Fatal(err)
	}
	blackout, err := ss.MigrateTo(view2)
	if err != nil {
		t.Fatal(err)
	}
	if blackout <= 0 {
		t.Error("successful migration reports zero blackout")
	}
	if got := ss.Client().Addr(); got != proxy.Addr() {
		t.Fatalf("placement points at %s after migration, want the target via %s", got, proxy.Addr())
	}
	readProbe(0, 0, 100)
	readProbe(2, 3, 101)
	readProbe(4, 11, 102)

	// The moved shard rides the reconnect machinery like any other: sever
	// every proxied connection and read again.
	proxy.KillConns()
	readProbe(2, 3, 101)

	// Writes now land on the target, not the source.
	writeProbe(1, 1, 103)
	readProbe(1, 1, 103)
	direct, err := remote.Dial(target.Addr())
	if err == nil {
		defer direct.Close()
		dv, err := direct.Store(view2.Shard())
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]oram.Slot, g.BucketSize(1))
		if err := dv.ReadBucket(1, 1, dst); err != nil {
			t.Fatal(err)
		}
		if dst[0].ID != 103 {
			t.Errorf("target node bucket (1,1) = %+v, want ID 103", dst[0])
		}
	} else {
		t.Fatalf("direct dial to target: %v", err)
	}
}

// TestMigrateToSelfNoOp: migrating a shard onto its current placement does
// nothing and reports zero blackout.
func TestMigrateToSelfNoOp(t *testing.T) {
	n := startElasticNode(t, 1)
	c, err := remote.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ss, err := c.Store(0)
	if err != nil {
		t.Fatal(err)
	}
	self, err := c.Store(0)
	if err != nil {
		t.Fatal(err)
	}
	blackout, err := ss.MigrateTo(self)
	if err != nil {
		t.Fatal(err)
	}
	if blackout != 0 {
		t.Errorf("self-migration blackout = %v, want 0", blackout)
	}
}

// TestRestoreRebuildsLiveBounds: a restored shard reads back every block its
// snapshot holds, one in a bucket's last slot included. A node's in-memory
// store stops each read at the bucket's live bound, which no snapshot carries,
// so a restore must rebuild it: through opRestore into a fresh node store, and
// through MigrateTo, every bucket is read back as one opBatch union.
func TestRestoreRebuildsLiveBounds(t *testing.T) {
	g := elasticGeometry()
	view := func(n *chaos.Node) *remote.ShardStore {
		c, err := remote.Dial(n.Addr())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		st, err := c.Store(0)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	src := view(startElasticNode(t, 1))

	// Every bucket holds one block, in its last slot, behind dummies.
	var refs []oram.BucketRef
	var want [][]oram.Slot
	for lvl := 0; lvl < g.Levels(); lvl++ {
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			b := make([]oram.Slot, g.BucketSize(lvl))
			for k := range b {
				b[k] = oram.DummySlot()
			}
			id := len(refs)
			b[len(b)-1] = oram.Slot{ID: oram.BlockID(id), Leaf: oram.Leaf(node << uint(g.LeafBits()-lvl)), Payload: bytes.Repeat([]byte{byte(id + 1)}, g.BlockSize())}
			refs, want = append(refs, oram.BucketRef{Level: lvl, Node: node}), append(want, b)
		}
	}
	if err := src.WriteBuckets(refs, want); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := src.Save(&snap); err != nil { // sends the held write first
		t.Fatal(err)
	}
	check := func(how string, st *remote.ShardStore) {
		t.Helper()
		got := make([][]oram.Slot, len(refs))
		for i := range got {
			got[i] = make([]oram.Slot, len(want[i]))
		}
		if err := st.ReadBuckets(refs, got); err != nil {
			t.Fatalf("%s: %v", how, err)
		}
		for i := range want {
			for k, w := range want[i] {
				if s := got[i][k]; s.ID != w.ID || s.Leaf != w.Leaf || !bytes.Equal(s.Payload, w.Payload) {
					t.Fatalf("%s: bucket %+v slot %d reads {%d %d %x}, want {%d %d %x}", how, refs[i], k, s.ID, s.Leaf, s.Payload, w.ID, w.Leaf, w.Payload)
				}
			}
		}
	}
	check("source", src)

	restored := view(startElasticNode(t, 1))
	if err := restored.Load(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	check("opRestore", restored)

	target := startElasticNode(t, 1)
	if _, err := src.MigrateTo(view(target)); err != nil {
		t.Fatal(err)
	}
	if got := src.Client().Addr(); got != target.Addr() {
		t.Fatalf("migrated view serves from %s, want %s", got, target.Addr())
	}
	check("MigrateTo", src)
}

// TestMigrateGeometryMismatch: a target with a different geometry is
// rejected before any data moves.
func TestMigrateGeometryMismatch(t *testing.T) {
	n := startElasticNode(t, 1)
	other := chaos.NewNode(func() ([]oram.Store, error) {
		g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 5, LeafZ: 4, BlockSize: 16})
		ps, err := oram.NewPayloadStore(g, nil)
		return []oram.Store{ps}, err
	}, 2, nil)
	if _, err := other.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { other.Kill() })

	c, err := remote.Dial(n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	oc, err := remote.Dial(other.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer oc.Close()
	ss, err := c.Store(0)
	if err != nil {
		t.Fatal(err)
	}
	ov, err := oc.Store(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.MigrateTo(ov); err == nil {
		t.Error("migration onto a mismatched geometry accepted")
	}
	if err := ss.Repoint(ov); err == nil {
		t.Error("repoint onto a mismatched geometry accepted")
	}
	if got := ss.Client().Addr(); got != n.Addr() {
		t.Errorf("rejected migration moved the placement to %s", got)
	}
}

// TestDrainedNodeEvacuation: the laoramserve drain story end to end at the
// protocol level — a draining node keeps serving its connected client long
// enough for that client to migrate the shard off, and the evacuated shard
// is immediately usable on the target.
func TestDrainedNodeEvacuation(t *testing.T) {
	old := startElasticNode(t, 1)
	neu := startElasticNode(t, 1)

	c, err := remote.Dial(old.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ss, err := c.Store(0)
	if err != nil {
		t.Fatal(err)
	}
	pay := bytes.Repeat([]byte{0x5A}, 16)
	if err := ss.WriteBucket(2, 1, []oram.Slot{{ID: 11, Leaf: 2, Payload: pay}, oram.DummySlot(), oram.DummySlot()}); err != nil {
		t.Fatal(err)
	}

	old.Server().Drain()
	draining, _, err := c.Health()
	if err != nil || !draining {
		t.Fatalf("drain not announced (draining=%v, err=%v)", draining, err)
	}
	tc, err := remote.Dial(neu.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	view, err := tc.AddStore()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ss.MigrateTo(view); err != nil {
		t.Fatalf("evacuating a draining node: %v", err)
	}
	dst := make([]oram.Slot, elasticGeometry().BucketSize(2))
	if err := ss.ReadBucket(2, 1, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0].ID != 11 || !bytes.Equal(dst[0].Payload, pay) {
		t.Errorf("evacuated bucket = %+v", dst[0])
	}
}

// TestErrNodeDownGrownStore: ShardBase/ShardStride map only the stores a
// node had at dial. A store grown by AddStore (a migrated or re-placed
// shard's landing zone) names no engine shard, so its ErrNodeDown carries
// Shard -1 instead of an index past the engine's shards, while a dial-time
// store still maps through the placement.
func TestErrNodeDownGrownStore(t *testing.T) {
	// Node 1 of a 4-shard engine over 2 nodes: local i is global 1 + 2i.
	n := startElasticNode(t, 2)
	c, err := remote.DialConfig(context.Background(), n.Addr(), remote.Config{
		ShardBase: 1, ShardStride: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	placed, err := c.Store(1)
	if err != nil {
		t.Fatal(err)
	}
	grown, err := c.AddStore()
	if err != nil {
		t.Fatal(err)
	}
	n.Kill()
	dst := make([]oram.Slot, elasticGeometry().BucketSize(0))
	for _, tc := range []struct {
		st   *remote.ShardStore
		want int
	}{{grown, -1}, {placed, 3}} {
		err := tc.st.ReadBucket(0, 0, dst)
		nd, ok := remote.AsNodeDown(err)
		if !ok {
			t.Fatalf("local store %d: node death surfaced as %T: %v", tc.st.Shard(), err, err)
		}
		if nd.Shard != tc.want {
			t.Errorf("local store %d: ErrNodeDown.Shard = %d (%v), want %d", tc.st.Shard(), nd.Shard, nd, tc.want)
		}
	}
}
