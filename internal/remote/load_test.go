package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/oram"
)

// refusingStore fails the refuse-th WriteBuckets call it is handed (0: none).
// writes is read by the test while the server's workers count.
type refusingStore struct {
	*oram.PayloadStore
	writes atomic.Int64
	refuse int64
}

func (r *refusingStore) WriteBuckets(refs []oram.BucketRef, src [][]oram.Slot) error {
	if r.writes.Add(1) == r.refuse {
		return errors.New("store refused the union")
	}
	return r.PayloadStore.WriteBuckets(refs, src)
}

// TestLoadFramesNotRows: oram.Client.Load over a remote shard sends the table
// as whole-bucket unions. With the frame budget lowered so a shard's table
// needs several frames, the data frames the server admits during the Load are
// at most ⌈wire bytes / budget⌉ + 1 per shard — it was one per row — and the
// last one is still held when Load returns: the first read carries it, and
// every row reads back. A frame the server's store refuses during the Load is
// Load's error; a refused held frame is the error of the operation that
// carries it, named as the held write-back's.
func TestLoadFramesNotRows(t *testing.T) {
	const rows, shards, blockSize, batch = 4096, 2, 32, 64
	g := oram.MustGeometry(oram.GeometryConfig{LeafBits: 11, LeafZ: 4, BlockSize: blockSize})
	old := batchFrameBudget
	batchFrameBudget = 32 << 10
	defer func() { batchFrameBudget = old }()

	row := func(s int, id oram.BlockID) []byte {
		b := bytes.Repeat([]byte{byte(s + 1)}, blockSize)
		binary.LittleEndian.PutUint64(b, uint64(id))
		return b
	}
	// serve boots a two-shard server whose shard 0 refuses its refuse-th
	// union, and one counted PathORAM client per shard.
	serve := func(refuse int64) (*Server, []*refusingStore, []*oram.CountingStore, []*oram.Client) {
		stores := make([]*refusingStore, shards)
		served := make([]oram.Store, shards)
		for s := range stores {
			ps, err := oram.NewPayloadStore(g, nil)
			if err != nil {
				t.Fatal(err)
			}
			stores[s] = &refusingStore{PayloadStore: ps}
			served[s] = stores[s]
		}
		stores[0].refuse = refuse
		srv, err := NewSharded(served, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		// Admission control on, never binding: its admitted count is the
		// number of data frames the server's readLoop saw.
		if err := srv.SetLimits(Limits{MaxInflight: 1 << 20}); err != nil {
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
		t.Cleanup(func() { cl.Close() })
		counted := make([]*oram.CountingStore, shards)
		clients := make([]*oram.Client, shards)
		for s := range clients {
			st, err := cl.Store(s)
			if err != nil {
				t.Fatal(err)
			}
			counted[s] = oram.NewCountingStore(st, nil)
			clients[s], err = oram.NewClient(oram.ClientConfig{
				Store: counted[s], Rand: rand.New(rand.NewSource(int64(40 + s))),
				Evict: oram.PaperEvict, StashHits: true, Blocks: rows / shards,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return srv, stores, counted, clients
	}
	load := func(clients []*oram.Client) error {
		for s, c := range clients {
			if err := c.Load(rows/shards, nil, func(id oram.BlockID) []byte { return row(s, id) }); err != nil {
				return err
			}
		}
		return nil
	}
	readBatch := func(c *oram.Client, first oram.BlockID) ([][]byte, error) {
		ids := make([]oram.BlockID, batch)
		for i := range ids {
			ids[i] = first + oram.BlockID(i)
		}
		out := make([][]byte, batch)
		return out, c.AccessBatch(oram.OpRead, ids, nil, out)
	}

	srv, stores, counted, clients := serve(0)
	before := srv.OverloadStats().Admitted
	if err := load(clients); err != nil {
		t.Fatal(err)
	}
	frames := srv.OverloadStats().Admitted - before
	var bound uint64
	for s, cs := range counted {
		c := cs.Counters()
		wire := int(c.BucketWrites)*bucketRefLen + slotsWireLen(int(c.SlotWrites), blockSize)
		bound += uint64((wire+batchFrameBudget-1)/batchFrameBudget) + 1
		if sent := stores[s].writes.Load(); sent < 2 {
			t.Fatalf("shard %d: %d wire bytes left in %d frames during Load; the budget no longer forces several", s, wire, sent)
		}
	}
	if frames > bound || frames >= rows/100 {
		t.Errorf("Load of %d rows sent %d data frames, want at most %d (and fewer than rows/100)", rows, frames, bound)
	}
	loadFrames := stores[0].writes.Load() + 1 // those sent, and the one still held
	for s, c := range clients {
		for first := oram.BlockID(0); first < rows/shards; first += batch {
			out, err := readBatch(c, first)
			if err != nil {
				t.Fatal(err)
			}
			for i, got := range out {
				if want := row(s, first+oram.BlockID(i)); !bytes.Equal(got, want) {
					t.Fatalf("shard %d block %d reads %x after Load, want %x", s, first+oram.BlockID(i), got, want)
				}
			}
		}
	}

	// A frame refused while the Load is still sending is the Load's error.
	_, _, _, clients = serve(1)
	if err := load(clients); err == nil || !strings.Contains(err.Error(), "oram: Load") || !strings.Contains(err.Error(), "store refused the union") {
		t.Errorf("Load over a store that refuses its first union: %v", err)
	}
	// The held last frame is refused when the next operation carries it.
	_, _, _, clients = serve(loadFrames)
	if err := load(clients); err != nil {
		t.Fatalf("Load whose held frame will be refused: %v", err)
	}
	if _, err := readBatch(clients[0], 0); err == nil || !strings.Contains(err.Error(), "held write-back") {
		t.Errorf("read carrying a refused held load frame: %v", err)
	}
	if _, err := readBatch(clients[1], 0); err != nil {
		t.Errorf("shard 1 after shard 0's refusal: %v", err)
	}
}
