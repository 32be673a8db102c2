package remote

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/crypto"
	"repro/internal/oram"
	"repro/internal/superblock"
	"repro/internal/trace"
)

// shard0 is the store view onto shard 0 of cl's node: what a single-shard
// test reads and writes through.
func shard0(t testing.TB, cl *Client) *ShardStore {
	t.Helper()
	st, err := cl.Store(0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func startServer(t *testing.T, g *oram.Geometry, sealed bool) (*Server, string) {
	t.Helper()
	var inner oram.Store
	if g.BlockSize() > 0 {
		var sealer oram.Sealer
		if sealed {
			s, err := crypto.NewRandomSealer()
			if err != nil {
				t.Fatal(err)
			}
			sealer = s
		}
		ps, err := oram.NewPayloadStore(g, sealer)
		if err != nil {
			t.Fatal(err)
		}
		inner = ps
	} else {
		inner = oram.NewMetaStore(g)
	}
	srv := NewServer(oram.NewCountingStore(inner, nil), nil)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, addr
}

func TestHandshakeGeometry(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{
		LeafBits: 6, LeafZ: 4, RootZ: 8, Profile: oram.ProfileLinear, BlockSize: 32,
	})
	_, addr := startServer(t, g, false)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	got := cl.Geometry()
	if got.LeafBits() != 6 || got.BlockSize() != 32 || got.Profile() != oram.ProfileLinear {
		t.Errorf("geometry mismatch: %v", got)
	}
	for lvl := 0; lvl < got.Levels(); lvl++ {
		if got.BucketSize(lvl) != g.BucketSize(lvl) {
			t.Errorf("level %d bucket %d != %d", lvl, got.BucketSize(lvl), g.BucketSize(lvl))
		}
	}
}

func TestRemoteBucketRoundTrip(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 4, LeafZ: 3, BlockSize: 16})
	_, addr := startServer(t, g, false)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	pay := bytes.Repeat([]byte{0xCD}, 16)
	src := []oram.Slot{
		{ID: 3, Leaf: 7, Payload: pay},
		oram.DummySlot(),
		{ID: 9, Leaf: 1, Payload: bytes.Repeat([]byte{0x11}, 16)},
	}
	if err := shard0(t, cl).WriteBucket(2, 1, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]oram.Slot, 3)
	if err := shard0(t, cl).ReadBucket(2, 1, dst); err != nil {
		t.Fatal(err)
	}
	if dst[0].ID != 3 || !bytes.Equal(dst[0].Payload, pay) {
		t.Errorf("slot 0 = %+v", dst[0])
	}
	if !dst[1].Dummy() {
		t.Errorf("slot 1 = %+v", dst[1])
	}
	// Single-slot ops.
	if err := shard0(t, cl).WriteSlot(4, 9, 2, oram.Slot{ID: 42, Leaf: 5, Payload: pay}); err != nil {
		t.Fatal(err)
	}
	var s oram.Slot
	if err := shard0(t, cl).ReadSlot(4, 9, 2, &s); err != nil {
		t.Fatal(err)
	}
	if s.ID != 42 || s.Leaf != 5 || !bytes.Equal(s.Payload, pay) {
		t.Errorf("ReadSlot = %+v", s)
	}
}

func TestRemoteServerErrors(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 4, LeafZ: 3, BlockSize: 0})
	_, addr := startServer(t, g, false)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	dst := make([]oram.Slot, 3)
	if err := shard0(t, cl).ReadBucket(99, 0, dst); err == nil {
		t.Error("bad level accepted")
	}
	if err := shard0(t, cl).ReadBucket(2, 1<<40, dst); err == nil {
		t.Error("bad node accepted")
	}
	var s oram.Slot
	if err := shard0(t, cl).ReadSlot(0, 0, 99, &s); err == nil {
		t.Error("bad slot accepted")
	}
	// The connection must survive server-side errors.
	if err := shard0(t, cl).ReadBucket(0, 0, dst); err != nil {
		t.Errorf("connection broken after error: %v", err)
	}
}

// TestFullPathORAMOverTCP runs a complete PathORAM client against the
// remote store: read-your-writes through the network.
func TestFullPathORAMOverTCP(t *testing.T) {
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 6, LeafZ: 4, BlockSize: 16})
	_, addr := startServer(t, g, false)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	client, err := oram.NewClient(oram.ClientConfig{
		Store: shard0(t, cl), Rand: rand.New(rand.NewSource(3)),
		Evict: oram.PaperEvict, StashHits: true, Blocks: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[oram.BlockID][]byte)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		id := oram.BlockID(rng.Intn(64))
		if rng.Intn(2) == 0 || ref[id] == nil {
			v := make([]byte, 16)
			binary.LittleEndian.PutUint64(v, rng.Uint64())
			if err := client.Write(id, v); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			ref[id] = v
		} else {
			got, err := client.Read(id)
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			if !bytes.Equal(got, ref[id]) {
				t.Fatalf("op %d: block %d mismatch", i, id)
			}
		}
	}
}

// TestLAORAMOverTCPWithSealing is the full paper deployment: LAORAM client,
// sealed blocks, remote server storage. The server never sees plaintext;
// the client trains through the network.
func TestLAORAMOverTCPWithSealing(t *testing.T) {
	const blocks = 128
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 7, LeafZ: 4, BlockSize: 16})
	_, addr := startServer(t, g, true)
	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	base, err := oram.NewClient(oram.ClientConfig{
		Store: shard0(t, cl), Rand: rand.New(rand.NewSource(5)),
		Evict: oram.PaperEvict, StashHits: true, Blocks: blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	stream := trace.PermutationEpochs(trace.NewRNG(6), blocks, 2*blocks)
	plan, err := superblock.NewPlan(stream, superblock.PlanConfig{
		S: 4, Leaves: g.Leaves(), Rand: rand.New(rand.NewSource(7)),
	})
	if err != nil {
		t.Fatal(err)
	}
	la, err := core.New(core.Config{Base: base, Plan: plan})
	if err != nil {
		t.Fatal(err)
	}
	if err := la.LoadPrePlaced(blocks, func(id oram.BlockID) []byte {
		b := make([]byte, 16)
		binary.LittleEndian.PutUint64(b, uint64(id))
		return b
	}); err != nil {
		t.Fatal(err)
	}
	seen := 0
	err = la.Run(context.Background(), 1, func(id oram.BlockID, payload []byte) []byte {
		if binary.LittleEndian.Uint64(payload) != uint64(id) {
			t.Fatalf("block %d corrupt over network", id)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(stream) {
		t.Errorf("visited %d rows, want %d", seen, len(stream))
	}
}

// TestSealedPooledServerOverTCP: a sealed server store with a multi-worker
// crypto pool serves the same protocol — path frames and batch
// runs fan their per-bucket crypto across the pool under the shard lock —
// and every payload round-trips. (Byte-identity of pooled vs serial
// sealing is pinned at the store layer; this covers the serving path's
// integration.)
func TestSealedPooledServerOverTCP(t *testing.T) {
	const blocks = 128
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 7, LeafZ: 4, BlockSize: 16})
	sealer, err := crypto.NewRandomSealer()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := oram.NewPayloadStore(g, sealer)
	if err != nil {
		t.Fatal(err)
	}
	pool := crypto.NewPool(4)
	t.Cleanup(pool.Close)
	if err := ps.SetCryptoPool(pool); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(oram.NewCountingStore(ps, nil), nil)
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
	client, err := oram.NewClient(oram.ClientConfig{
		Store: shard0(t, cl), Rand: rand.New(rand.NewSource(15)),
		Evict: oram.PaperEvict, StashHits: true, Blocks: blocks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Load(blocks, nil, func(id oram.BlockID) []byte {
		b := make([]byte, 16)
		binary.LittleEndian.PutUint64(b, uint64(id))
		return b
	}); err != nil {
		t.Fatal(err)
	}
	// Single accesses (path frames) and multi-path unions (batch frames,
	// one BatchStore call per opBatch frame on the server).
	for i := 0; i < 64; i++ {
		id := oram.BlockID(i % blocks)
		got, err := client.Read(id)
		if err != nil {
			t.Fatalf("read %d: %v", id, err)
		}
		if binary.LittleEndian.Uint64(got) != uint64(id) {
			t.Fatalf("block %d corrupt over pooled sealed server", id)
		}
	}
	leaves := []oram.Leaf{1, 5, 9, 33}
	if err := client.ReadPaths(leaves); err != nil {
		t.Fatal(err)
	}
	if err := client.WriteBackPaths(leaves); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < blocks; i += 17 {
		got, err := client.Read(oram.BlockID(i))
		if err != nil {
			t.Fatal(err)
		}
		if binary.LittleEndian.Uint64(got) != uint64(i) {
			t.Fatalf("block %d corrupt after multi-path round trip", i)
		}
	}
}

func TestSlotCodecTruncation(t *testing.T) {
	var s oram.Slot
	if _, err := parseSlot([]byte{1, 2, 3}, &s); err == nil {
		t.Error("truncated header accepted")
	}
	buf := appendSlot(nil, &oram.Slot{ID: 1, Leaf: 2, Payload: []byte{9, 9}})
	if _, err := parseSlot(buf[:len(buf)-1], &s); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := parseGeometryWire([]byte{1}); err == nil {
		t.Error("truncated geometry accepted")
	}
	if _, _, _, err := parseRespHeader(nil); err == nil {
		t.Error("empty response accepted")
	}
	if _, _, _, err := parseRespHeader([]byte{1, 2, 3}); err == nil {
		t.Error("truncated response header accepted")
	}
	if _, status, body, err := parseRespHeader(errResponse(7, fmt.Errorf("boom"))); err != nil ||
		status != statusErr || string(body) != "boom" {
		t.Error("error response did not round-trip")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

// TestJointAccessOverTCP: the joint multi-key access (oram.Client.AccessBatch)
// over a real connection — its bucket unions travel as opBatch frames through
// the in-place codec — is checked against a plain map at several chunk
// sizes, with duplicate ids, stash-resident ids and first writes in the mix
// (invariant #2).
func TestJointAccessOverTCP(t *testing.T) {
	for _, chunk := range []int{3, 16, 64} {
		g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 6, LeafZ: 4, BlockSize: 16})
		_, addr := startServer(t, g, false)
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		client, err := oram.NewClient(oram.ClientConfig{
			Store: shard0(t, cl), Rand: rand.New(rand.NewSource(3)),
			Evict: oram.PaperEvict, StashHits: true, Blocks: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		ref := make(map[oram.BlockID][]byte)
		var known []oram.BlockID
		rng := rand.New(rand.NewSource(int64(chunk)))
		for round := 0; round < 120; round++ {
			k := 1 + rng.Intn(chunk)
			ids, rows := make([]oram.BlockID, k), make([][]byte, k)
			if len(known) == 0 || rng.Intn(2) == 0 {
				for i := range ids {
					ids[i] = oram.BlockID(rng.Intn(64))
					rows[i] = make([]byte, 16)
					binary.LittleEndian.PutUint64(rows[i], rng.Uint64())
				}
				if err := client.AccessBatch(oram.OpWrite, ids, rows, nil); err != nil {
					t.Fatalf("chunk %d round %d: %v", chunk, round, err)
				}
				for i, id := range ids {
					if ref[id] == nil {
						known = append(known, id)
					}
					ref[id] = rows[i]
				}
				continue
			}
			for i := range ids {
				ids[i] = known[rng.Intn(len(known))]
			}
			if err := client.AccessBatch(oram.OpRead, ids, nil, rows); err != nil {
				t.Fatalf("chunk %d round %d: %v", chunk, round, err)
			}
			for i, id := range ids {
				if !bytes.Equal(rows[i], ref[id]) {
					t.Fatalf("chunk %d round %d: block %d = %x, want %x", chunk, round, id, rows[i], ref[id])
				}
			}
		}
	}
}
