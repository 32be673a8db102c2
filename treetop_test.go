package laoram

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
	"sync"
	"testing"

	"repro/internal/oram"
	"repro/internal/remote"
	"repro/internal/shard"
)

// treetopWorkload takes db through everything that moves buckets: a pre-placed
// load and a Train run, a joint ReadBatch/WriteBatch, and single reads and
// writes. It is deterministic under db's seed. Train steps one bin at a time:
// the golden pins checkpoint bytes, and the spy needs a background eviction,
// which on this workload only one-bin steps trigger.
func treetopWorkload(t *testing.T, db *ORAM, entries uint64, blockSize int) {
	t.Helper()
	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: 6000, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	row := func(id uint64) []byte {
		p := make([]byte, blockSize)
		binary.LittleEndian.PutUint64(p, id*0x9E3779B97F4A7C15)
		return p
	}
	if _, err := db.Train(context.Background(), TrainOptions{
		// The horizon of two windows the golden was recorded under.
		Source: FromSlice(stream), Superblock: 4, Window: 1024, Horizon: 2048, BatchBins: 1, PrePlace: true, Payload: row,
		Visit: func(id uint64, p []byte) []byte {
			p[8]++
			return p
		},
	}); err != nil {
		t.Fatal(err)
	}
	ids := stream[:96]
	rows, err := db.ReadBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		rows[i][9] ^= byte(i)
	}
	if err := db.WriteBatch(ids, rows); err != nil {
		t.Fatal(err)
	}
	for i, id := range stream[96:160] {
		if i%2 == 0 {
			if err := db.Write(id, row(id+1)); err != nil {
				t.Fatal(err)
			}
		} else if _, err := db.Read(id); err != nil {
			t.Fatal(err)
		}
	}
}

// treetopGolden is the SHA-256 of TestTreetopSaveStateGolden's checkpoint:
// keeping the top in trusted memory must not change a byte of what a
// checkpoint holds. It was recorded before the treetop existed as
// 8e3de637…fb08, re-recorded as 64690076…2243 when the planner's look-ahead
// began reaching across windows (the workload's Train spans six: with the
// cross-window fill disabled the engine still writes that digest), and
// re-recorded again when PrePlace began loading every block of the held
// horizon, not window 0's alone, on its first bin's leaf (c8d3da9c…6634),
// and again when cold members began lending their leaves to their bins: the
// workload's horizon of two windows leaves bins with cold members, and
// each position-map entry now carries its lendable bit (with the bits
// masked out the checkpoint reads def32988…9dfb).
const treetopGolden = "ada346bb7d981bed527ed60b56574361236cf046862bc7dde97f7e5f38287922"

// TestTreetopSaveStateGolden: an unsealed two-shard fat-tree instance saves
// exactly the checkpoint bytes it saved when every level lived in the store,
// and an instance restored from them — the top lifted back out of the
// snapshot — saves them again.
func TestTreetopSaveStateGolden(t *testing.T) {
	const entries, blockSize = 2048, 32
	opts := Options{Entries: entries, BlockSize: blockSize, FatTree: true, Shards: 2, Seed: 27}
	db, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	treetopWorkload(t, db, entries, blockSize)
	var ck bytes.Buffer
	if err := db.SaveState(&ck); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(ck.Bytes()); hex.EncodeToString(sum[:]) != treetopGolden {
		t.Fatalf("SaveState digest %x, want %s", sum, treetopGolden)
	}

	again, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	if err := again.LoadState(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := db.SaveState(&want); err != nil {
		t.Fatal(err)
	}
	if err := again.SaveState(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("a restored instance saves a different checkpoint than the one it was restored from")
	}
}

// refSpy is a server-side shard store that records the buckets of every call
// the node executes against it.
type refSpy struct {
	*oram.PayloadStore
	mu    sync.Mutex
	calls []spyCall
}

type spyCall struct {
	op   string
	refs []oram.BucketRef
}

func (s *refSpy) record(op string, refs ...oram.BucketRef) {
	s.mu.Lock()
	s.calls = append(s.calls, spyCall{op, slices.Clone(refs)})
	s.mu.Unlock()
}

// take returns the calls recorded since the last take.
func (s *refSpy) take() []spyCall {
	s.mu.Lock()
	defer s.mu.Unlock()
	calls := s.calls
	s.calls = nil
	return calls
}

func (s *refSpy) pathRefs(leaf oram.Leaf) []oram.BucketRef {
	g := s.Geometry()
	refs := make([]oram.BucketRef, g.Levels())
	for lvl := range refs {
		refs[lvl] = oram.BucketRef{Level: lvl, Node: g.NodeAt(leaf, lvl)}
	}
	return refs
}

func (s *refSpy) ReadBucket(level int, node uint64, dst []oram.Slot) error {
	s.record("ReadBucket", oram.BucketRef{Level: level, Node: node})
	return s.PayloadStore.ReadBucket(level, node, dst)
}

func (s *refSpy) WriteBucket(level int, node uint64, src []oram.Slot) error {
	s.record("WriteBucket", oram.BucketRef{Level: level, Node: node})
	return s.PayloadStore.WriteBucket(level, node, src)
}

func (s *refSpy) ReadSlot(level int, node uint64, slot int, dst *oram.Slot) error {
	s.record("ReadSlot", oram.BucketRef{Level: level, Node: node})
	return s.PayloadStore.ReadSlot(level, node, slot, dst)
}

func (s *refSpy) WriteSlot(level int, node uint64, slot int, src oram.Slot) error {
	s.record("WriteSlot", oram.BucketRef{Level: level, Node: node})
	return s.PayloadStore.WriteSlot(level, node, slot, src)
}

func (s *refSpy) ReadPath(leaf oram.Leaf, dst [][]oram.Slot) error {
	s.record("ReadPath", s.pathRefs(leaf)...)
	return s.PayloadStore.ReadPath(leaf, dst)
}

func (s *refSpy) WritePath(leaf oram.Leaf, src [][]oram.Slot) error {
	s.record("WritePath", s.pathRefs(leaf)...)
	return s.PayloadStore.WritePath(leaf, src)
}

func (s *refSpy) ReadBuckets(refs []oram.BucketRef, dst [][]oram.Slot) error {
	s.record("ReadBuckets", refs...)
	return s.PayloadStore.ReadBuckets(refs, dst)
}

func (s *refSpy) WriteBuckets(refs []oram.BucketRef, src [][]oram.Slot) error {
	s.record("WriteBuckets", refs...)
	return s.PayloadStore.WriteBuckets(refs, src)
}

// spyNode serves shards default-geometry shard stores of an entries-row table
// from a loopback node, each behind a refSpy; the node closes with the test.
func spyNode(t *testing.T, entries uint64, blockSize, shards int) (string, []*refSpy, *oram.Geometry) {
	t.Helper()
	g, err := oram.NewGeometry(oram.GeometryConfig{
		LeafBits: oram.LeafBitsFor(shard.PerShardEntries(entries, shards)), LeafZ: 4, RootZ: 8,
		Profile: oram.ProfileLinear, BlockSize: blockSize,
	})
	if err != nil {
		t.Fatal(err)
	}
	spies := make([]*refSpy, shards)
	stores := make([]oram.Store, shards)
	for i := range spies {
		ps, err := oram.NewPayloadStore(g, nil)
		if err != nil {
			t.Fatal(err)
		}
		spies[i] = &refSpy{PayloadStore: ps}
		stores[i] = spies[i]
	}
	srv, err := remote.NewSharded(stores, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return addr, spies, g
}

// TestTreetopKeepsTopOffTheServer asserts the treetop where the adversary
// sits: on a serving node's shard stores. Through a pre-placed load, Train
// with background eviction, joint and single lookups and a checkpoint restore,
// no bucket above level t reaches a node — except the checkpoint's sink
// (SaveState: one write of every top bucket, in heap order) and lift
// (LoadState: one read of the same set).
func TestTreetopKeepsTopOffTheServer(t *testing.T) {
	const entries, blockSize, shards = 2048, 32, 2
	addr, spies, g := spyNode(t, entries, blockSize, shards)
	db, err := New(Options{Entries: entries, Shards: shards, RemoteAddrs: []string{addr}, Seed: 27, EvictHigh: 8, EvictLow: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	top := oram.TreetopLevels(g)
	var topSet []oram.BucketRef
	for lvl := 0; lvl < top; lvl++ {
		for node := uint64(0); node < 1<<uint(lvl); node++ {
			topSet = append(topSet, oram.BucketRef{Level: lvl, Node: node})
		}
	}
	// check requires that no call reached a top bucket, except — when
	// checkpoint names one — exactly one call of that kind per shard whose
	// buckets are the whole top set.
	check := func(phase, checkpoint string) {
		t.Helper()
		for s, spy := range spies {
			calls, moved, fixed := spy.take(), 0, 0
			for _, c := range calls {
				moved += len(c.refs)
				if c.op == checkpoint && slices.Equal(c.refs, topSet) {
					fixed++
					continue
				}
				for _, r := range c.refs {
					if r.Level < top {
						t.Fatalf("%s: shard %d: %s reached bucket (%d,%d) above level %d", phase, s, c.op, r.Level, r.Node, top)
					}
				}
			}
			if checkpoint != "" && fixed != 1 {
				t.Errorf("%s: shard %d saw %d %s calls over the whole top, want 1", phase, s, fixed, checkpoint)
			}
			if moved == 0 {
				t.Errorf("%s: shard %d saw no buckets at all", phase, s)
			}
		}
	}

	treetopWorkload(t, db, entries, blockSize)
	if db.Stats().DummyReads == 0 {
		t.Fatal("the workload ran no background eviction")
	}
	ids := make([]uint64, 64)
	for i := range ids {
		ids[i] = uint64(i * 31)
	}
	want, err := db.ReadBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	check("load, train, lookups and eviction", "")

	var ck bytes.Buffer
	if err := db.SaveState(&ck); err != nil {
		t.Fatal(err)
	}
	check("SaveState", "WriteBuckets")
	if err := db.LoadState(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatal(err)
	}
	check("LoadState", "ReadBuckets")
	got, err := db.ReadBatch(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ids {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("block %d reads %x after the restore, %x before", ids[i], got[i], want[i])
		}
	}
	check("lookups after the restore", "")
}

// TestTreetopRowsCallerOwned is invariant #8 on an assembled instance whose
// treetop carries rows (Encrypt): the rows a visit returns and the rows a
// ReadBatch hands out are the caller's, so mutating them after the call
// changes nothing stored, although the client moves rows into the treetop
// by handle.
func TestTreetopRowsCallerOwned(t *testing.T) {
	const entries, blockSize = 512, 32
	db, err := New(Options{Entries: entries, BlockSize: blockSize, Encrypt: true, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	stream, err := GenerateTrace(TraceConfig{Kind: TraceKaggle, N: entries, Count: 4000, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	row := func(id uint64) []byte {
		p := make([]byte, blockSize)
		binary.LittleEndian.PutUint64(p, id*0x9E3779B97F4A7C15)
		return p
	}
	var (
		mu       sync.Mutex
		visits   = map[uint64]int{}
		returned [][]byte
	)
	if _, err := db.Train(context.Background(), TrainOptions{
		Source: FromSlice(stream), Superblock: 4, PrePlace: true, Payload: row,
		Visit: func(id uint64, p []byte) []byte {
			out := slices.Clone(p)
			out[8]++
			mu.Lock()
			visits[id]++
			returned = append(returned, out)
			mu.Unlock()
			return out
		},
	}); err != nil {
		t.Fatal(err)
	}
	for _, p := range returned {
		clear(p)
	}
	ids := make([]uint64, entries)
	for i := range ids {
		ids[i] = uint64(i)
	}
	want := func(id uint64) []byte {
		p := row(id)
		p[8] += byte(visits[id])
		return p
	}
	for round := range 2 {
		rows, err := db.ReadBatch(ids)
		if err != nil {
			t.Fatal(err)
		}
		for id, got := range rows {
			if !bytes.Equal(got, want(uint64(id))) {
				t.Fatalf("read %d: row %d reads %x, want %x", round, id, got, want(uint64(id)))
			}
			clear(got)
		}
	}
}
