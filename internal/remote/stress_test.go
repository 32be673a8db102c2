package remote

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/oram"
)

// TestClientSharedAcrossGoroutines is the regression test for the old
// client's thread-unsafety (one shared conn + shared write buffer with no
// lock: interleaved frames and a data race under concurrent use). Many
// goroutines share one Client, each owning a disjoint set of slots, and
// every read must come back with exactly the bytes that goroutine wrote —
// run under -race in CI.
func TestClientSharedAcrossGoroutines(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 5, LeafZ: 4, BlockSize: 16})
	_, addr := startServer(t, g, false)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	st := shard0(t, cl)

	const workers = 8
	const opsPer = 200
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			// Each worker owns leaf-level bucket `w` (level 5 has 32
			// nodes), so concurrent writers never collide.
			lvl := g.LeafBits()
			node := uint64(w)
			ref := make(map[int][]byte)
			for i := 0; i < opsPer; i++ {
				slot := rng.Intn(g.BucketSize(lvl))
				if ref[slot] == nil || rng.Intn(2) == 0 {
					pay := make([]byte, 16)
					binary.LittleEndian.PutUint64(pay, rng.Uint64())
					pay[15] = byte(w)
					if err := st.WriteSlot(lvl, node, slot, oram.Slot{
						ID: oram.BlockID(w*1000 + slot), Leaf: oram.Leaf(node), Payload: pay,
					}); err != nil {
						errs <- fmt.Errorf("worker %d: %w", w, err)
						return
					}
					ref[slot] = pay
				} else {
					var s oram.Slot
					if err := st.ReadSlot(lvl, node, slot, &s); err != nil {
						errs <- fmt.Errorf("worker %d: %w", w, err)
						return
					}
					if !bytes.Equal(s.Payload, ref[slot]) {
						errs <- fmt.Errorf("worker %d slot %d: read someone else's bytes (% x)", w, slot, s.Payload[:4])
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestShardedServerMatchesReference drives full PathORAM clients — many
// concurrent ORAM lanes over one multiplexed connection, one lane per shard
// store — and checks read-your-writes against a plain map reference
// (invariant #2, across the network boundary).
func TestShardedServerMatchesReference(t *testing.T) {
	const shards = 4
	const blocksPer = 64
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 6, LeafZ: 4, BlockSize: 16})
	stores := make([]oram.Store, shards)
	for i := range stores {
		ps, err := oram.NewPayloadStore(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = ps
	}
	srv, err := NewSharded(stores, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if cl.Shards() != shards {
		t.Fatalf("client sees %d shards, server has %d", cl.Shards(), shards)
	}

	var wg sync.WaitGroup
	errs := make(chan error, shards)
	for sh := 0; sh < shards; sh++ {
		wg.Add(1)
		go func(sh int) {
			defer wg.Done()
			st, err := cl.Store(sh)
			if err != nil {
				errs <- err
				return
			}
			client, err := oram.NewClient(oram.ClientConfig{
				Store: st, Rand: rand.New(rand.NewSource(int64(100 + sh))),
				Evict: oram.PaperEvict, StashHits: true, Blocks: blocksPer,
			})
			if err != nil {
				errs <- err
				return
			}
			ref := make(map[oram.BlockID][]byte)
			rng := rand.New(rand.NewSource(int64(200 + sh)))
			for i := 0; i < 150; i++ {
				id := oram.BlockID(rng.Intn(blocksPer))
				if rng.Intn(2) == 0 || ref[id] == nil {
					v := make([]byte, 16)
					binary.LittleEndian.PutUint64(v, rng.Uint64())
					v[15] = byte(sh)
					if err := client.Write(id, v); err != nil {
						errs <- fmt.Errorf("shard %d op %d: %w", sh, i, err)
						return
					}
					ref[id] = v
				} else {
					got, err := client.Read(id)
					if err != nil {
						errs <- fmt.Errorf("shard %d op %d: %w", sh, i, err)
						return
					}
					if !bytes.Equal(got, ref[id]) {
						errs <- fmt.Errorf("shard %d block %d: mismatch vs reference", sh, id)
						return
					}
				}
			}
			errs <- nil
		}(sh)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestManyClientsOneServer: several independent connections, each running
// a full ORAM client against its own shard, all concurrent — the serving
// scenario.
func TestManyClientsOneServer(t *testing.T) {
	const clients = 6
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 5, LeafZ: 4, BlockSize: 8})
	stores := make([]oram.Store, clients)
	for i := range stores {
		ps, err := oram.NewPayloadStore(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = ps
	}
	srv, err := NewSharded(stores, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })

	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			st, err := cl.Store(ci)
			if err != nil {
				errs <- err
				return
			}
			client, err := oram.NewClient(oram.ClientConfig{
				Store: st, Rand: rand.New(rand.NewSource(int64(ci))),
				Evict: oram.PaperEvict, StashHits: true, Blocks: 32,
			})
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 40; i++ {
				id := oram.BlockID(i % 32)
				v := bytes.Repeat([]byte{byte(ci)}, 8)
				if err := client.Write(id, v); err != nil {
					errs <- fmt.Errorf("client %d: %w", ci, err)
					return
				}
				got, err := client.Read(id)
				if err != nil {
					errs <- fmt.Errorf("client %d: %w", ci, err)
					return
				}
				if !bytes.Equal(got, v) {
					errs <- fmt.Errorf("client %d block %d: cross-client corruption", ci, id)
					return
				}
			}
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPathOpsRoundTrip pins ShardStore's path methods end to end (a path
// travels as the union of its buckets, root first): a path written through
// the store comes back bucket-for-bucket identical, and matches per-bucket
// reads of the same nodes.
func TestPathOpsRoundTrip(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 4, LeafZ: 3, RootZ: 6, Profile: oram.ProfileLinear, BlockSize: 16})
	_, addr := startServer(t, g, false)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	leaf := oram.Leaf(11)
	src := make([][]oram.Slot, g.Levels())
	rng := rand.New(rand.NewSource(77))
	for lvl := range src {
		src[lvl] = make([]oram.Slot, g.BucketSize(lvl))
		for i := range src[lvl] {
			pay := make([]byte, 16)
			rng.Read(pay)
			src[lvl][i] = oram.Slot{ID: oram.BlockID(rng.Intn(1000)), Leaf: oram.Leaf(rng.Intn(16)), Payload: pay}
		}
	}
	if err := shard0(t, cl).WritePath(leaf, src); err != nil {
		t.Fatal(err)
	}
	dst := make([][]oram.Slot, g.Levels())
	for lvl := range dst {
		dst[lvl] = make([]oram.Slot, g.BucketSize(lvl))
	}
	if err := shard0(t, cl).ReadPath(leaf, dst); err != nil {
		t.Fatal(err)
	}
	for lvl := range src {
		for i := range src[lvl] {
			if dst[lvl][i].ID != src[lvl][i].ID || dst[lvl][i].Leaf != src[lvl][i].Leaf ||
				!bytes.Equal(dst[lvl][i].Payload, src[lvl][i].Payload) {
				t.Fatalf("level %d slot %d: path round trip mismatch", lvl, i)
			}
		}
		// Cross-check against a per-bucket read of the same node.
		buf := make([]oram.Slot, g.BucketSize(lvl))
		if err := shard0(t, cl).ReadBucket(lvl, g.NodeAt(leaf, lvl), buf); err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			if buf[i].ID != src[lvl][i].ID {
				t.Fatalf("level %d slot %d: bucket read disagrees with path write", lvl, i)
			}
		}
	}
	// Shape validation: wrong buffer shapes must be rejected client-side.
	if err := shard0(t, cl).ReadPath(leaf, dst[:2]); err == nil {
		t.Error("short path buffer accepted")
	}
	if err := shard0(t, cl).ReadPath(oram.Leaf(1<<40), dst); err == nil {
		t.Error("out-of-range leaf accepted")
	}
}

// TestBatchOpsRoundTrip pins opBatch: a scattered set of buckets written in
// one frame reads back identically in one frame, and per-sub errors
// surface.
func TestBatchOpsRoundTrip(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 4, LeafZ: 3, BlockSize: 8})
	_, addr := startServer(t, g, false)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	refs := []oram.BucketRef{{Level: 0, Node: 0}, {Level: 2, Node: 3}, {Level: 4, Node: 9}, {Level: 2, Node: 1}}
	src := make([][]oram.Slot, len(refs))
	rng := rand.New(rand.NewSource(88))
	for i, r := range refs {
		src[i] = make([]oram.Slot, g.BucketSize(r.Level))
		for j := range src[i] {
			pay := make([]byte, 8)
			rng.Read(pay)
			src[i][j] = oram.Slot{ID: oram.BlockID(100*i + j), Leaf: oram.Leaf(r.Node), Payload: pay}
		}
	}
	if err := shard0(t, cl).WriteBuckets(refs, src); err != nil {
		t.Fatal(err)
	}
	dst := make([][]oram.Slot, len(refs))
	for i, r := range refs {
		dst[i] = make([]oram.Slot, g.BucketSize(r.Level))
	}
	if err := shard0(t, cl).ReadBuckets(refs, dst); err != nil {
		t.Fatal(err)
	}
	for i := range refs {
		for j := range src[i] {
			if dst[i][j].ID != src[i][j].ID || !bytes.Equal(dst[i][j].Payload, src[i][j].Payload) {
				t.Fatalf("ref %d slot %d: batch round trip mismatch", i, j)
			}
		}
	}
	// A bad ref inside the batch must surface as an error without killing
	// the connection.
	bad := []oram.BucketRef{{Level: 99, Node: 0}}
	if err := shard0(t, cl).ReadBuckets(bad, [][]oram.Slot{make([]oram.Slot, 3)}); err == nil {
		t.Error("bad level inside batch accepted")
	}
	if err := shard0(t, cl).ReadBuckets(refs, dst); err != nil {
		t.Errorf("connection broken after batch error: %v", err)
	}
}

// TestBatchChunking forces the frame-budget chunking path: a union larger
// than the (temporarily tiny) budget must transparently split across
// several opBatch frames and still round-trip exactly.
func TestBatchChunking(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 5, LeafZ: 4, BlockSize: 32})
	_, addr := startServer(t, g, false)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	old := batchFrameBudget
	batchFrameBudget = 600 // a couple of buckets per frame
	defer func() { batchFrameBudget = old }()

	rng := rand.New(rand.NewSource(99))
	var refs []oram.BucketRef
	for lvl := 0; lvl < g.Levels(); lvl++ {
		for n := 0; n < 1<<uint(lvl) && len(refs) < 40; n += 1 + rng.Intn(3) {
			refs = append(refs, oram.BucketRef{Level: lvl, Node: uint64(n)})
		}
	}
	src := make([][]oram.Slot, len(refs))
	for i, r := range refs {
		src[i] = make([]oram.Slot, g.BucketSize(r.Level))
		for j := range src[i] {
			pay := make([]byte, 32)
			rng.Read(pay)
			src[i][j] = oram.Slot{ID: oram.BlockID(1000*i + j), Leaf: oram.Leaf(r.Node), Payload: pay}
		}
	}
	if err := shard0(t, cl).WriteBuckets(refs, src); err != nil {
		t.Fatal(err)
	}
	dst := make([][]oram.Slot, len(refs))
	for i, r := range refs {
		dst[i] = make([]oram.Slot, g.BucketSize(r.Level))
	}
	if err := shard0(t, cl).ReadBuckets(refs, dst); err != nil {
		t.Fatal(err)
	}
	for i := range refs {
		for j := range src[i] {
			if dst[i][j].ID != src[i][j].ID || !bytes.Equal(dst[i][j].Payload, src[i][j].Payload) {
				t.Fatalf("ref %d slot %d: chunked batch round trip mismatch", i, j)
			}
		}
	}
}
