package remote_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	laoram "repro"
	"repro/internal/chaos"
	"repro/internal/oram"
	"repro/internal/remote"
	"repro/internal/shard"
)

// TestOneFramePerChunk is the count gate of protocol v5: the data frames the
// server's readLoop sees for 64 alternating 32-key ReadBatch/WriteBatch
// requests on 1 node × 2 shards are one per lane-chunk — each lane's fetch
// carries the write-back of its previous chunk — plus one closing flush per
// lane at Close. It was two per lane-chunk. Exact, and the same on every run.
func TestOneFramePerChunk(t *testing.T) {
	const entries, shards, keys, requests = 4096, 2, 32, 64
	cluster, err := chaos.NewCluster(chaos.ClusterConfig{Entries: entries, Shards: shards, BlockSize: 32, Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	// Admission control on, never binding: its admitted count is the number
	// of data frames readLoop saw. Limits apply from a node's next start.
	node := cluster.Node(0)
	node.SetLimits(remote.Limits{MaxInflight: 1 << 20})
	if err := node.Kill(); err != nil {
		t.Fatal(err)
	}
	if _, err := node.Restart(); err != nil {
		t.Fatal(err)
	}
	frames := func() uint64 { return node.Server().OverloadStats().Admitted }

	o, err := laoram.New(laoram.Options{Entries: entries, BlockSize: 32, Shards: shards, Seed: 7, RemoteAddrs: cluster.Addrs()})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if err := o.Load(entries, func(id uint64) []byte { return bytes.Repeat([]byte{byte(id)}, 32) }); err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewSource(23))
	before, laneChunks := frames(), uint64(0)
	for r := 0; r < requests; r++ {
		seen := map[uint64]bool{}
		lanes := map[int]bool{}
		ids := make([]uint64, 0, keys)
		for len(ids) < keys {
			if id := uint64(rng.Int63n(entries)); !seen[id] {
				seen[id] = true
				ids = append(ids, id)
				lanes[shard.ShardOf(id, shards)] = true
			}
		}
		laneChunks += uint64(len(lanes))
		if r%2 == 0 {
			if _, err := o.ReadBatch(ids); err != nil {
				t.Fatal(err)
			}
			continue
		}
		rows := make([][]byte, len(ids))
		for i := range rows {
			rows[i] = bytes.Repeat([]byte{byte(r)}, 32)
		}
		if err := o.WriteBatch(ids, rows); err != nil {
			t.Fatal(err)
		}
	}
	if laneChunks != requests*shards {
		t.Fatalf("seed 23 no longer touches both lanes on every request (%d lane-chunks); pick another", laneChunks)
	}
	if got := frames() - before; got != laneChunks {
		t.Errorf("%d requests sent %d data frames, want one per lane-chunk = %d (protocol v4 sent %d)", requests, got, laneChunks, 2*laneChunks)
	}
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	if got := frames() - before; got != laneChunks+shards {
		t.Errorf("after Close the server has seen %d data frames, want %d lane-chunks + one closing flush per lane", got, laneChunks)
	}
}

// TestHeldWriteReplayAfterTornFrame: the chaos proxy cuts the write-then-read
// frame mid-way and kills the connection; the reconnecting client replays the
// same frame, and the node ends byte-identical to one that was never cut —
// write-then-read of the same slots is idempotent.
func TestHeldWriteReplayAfterTornFrame(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 4, LeafZ: 4, BlockSize: 16})
	refs := []oram.BucketRef{{Level: 0, Node: 0}, {Level: 1, Node: 1}, {Level: 2, Node: 2}, {Level: 3, Node: 5}, {Level: 4, Node: 11}}
	union := func(round int) [][]oram.Slot {
		src := make([][]oram.Slot, len(refs))
		for i := range src {
			src[i] = make([]oram.Slot, 4)
			for k := range src[i] {
				src[i][k] = oram.Slot{ID: oram.BlockID(100*round + 4*i + k), Leaf: 11, Payload: bytes.Repeat([]byte{byte(round + i)}, 16)}
			}
		}
		return src
	}
	run := func(cut bool) []byte {
		n := chaos.NewNode(func() ([]oram.Store, error) {
			ps, err := oram.NewPayloadStore(g, nil)
			return []oram.Store{ps}, err
		}, 2, nil)
		if _, err := n.Start(); err != nil {
			t.Fatal(err)
		}
		defer n.Kill()
		p, err := chaos.NewProxy(n.Addr(), 5)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		c, err := remote.DialConfig(t.Context(), p.Addr(), remote.Config{Reconnect: true, RetryElapsed: 5 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		st := shard0(t, c)
		for round := 1; round <= 3; round++ {
			src := union(round)
			if err := st.WriteBuckets(refs, src); err != nil {
				t.Fatal(err)
			}
			if cut && round == 2 {
				p.TruncateNext(200) // past both headers and the write refs, inside the slots
			}
			dst := make([][]oram.Slot, len(refs))
			for i := range dst {
				dst[i] = make([]oram.Slot, 4)
			}
			if err := st.ReadBuckets(refs, dst); err != nil {
				t.Fatalf("round %d (cut %t): %v", round, cut, err)
			}
			for i := range src {
				for k, want := range src[i] {
					if got := dst[i][k]; got.ID != want.ID || !bytes.Equal(got.Payload, want.Payload) {
						t.Fatalf("round %d (cut %t): bucket %d slot %d reads %+v, was written %+v", round, cut, i, k, got, want)
					}
				}
			}
		}
		if err := st.WriteBuckets(refs, union(4)); err != nil { // left to Save's flush
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := st.Save(&snap); err != nil {
			t.Fatal(err)
		}
		return snap.Bytes()
	}
	if !bytes.Equal(run(true), run(false)) {
		t.Fatal("the node that saw a torn write-then-read frame and its replay differs from the uninterrupted one")
	}
}
