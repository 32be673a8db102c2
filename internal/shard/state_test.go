package shard

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/oram"
	"repro/internal/trace"
)

// countedEngine is payloadEngine with the client RNGs routed through
// CountedSources, the checkpointable form the public laoram stack builds.
func countedEngine(t testing.TB, n int, entries uint64, blockSize int, seed int64) *Engine {
	t.Helper()
	e, err := New(Config{
		Shards:  n,
		Entries: entries,
		Seed:    seed,
		Build: func(s int, per uint64, sd int64) (Sub, error) {
			g, err := oram.NewGeometry(oram.GeometryConfig{
				LeafBits: oram.LeafBitsFor(per), LeafZ: 4, BlockSize: blockSize,
			})
			if err != nil {
				return Sub{}, err
			}
			ps, err := oram.NewPayloadStore(g, nil)
			if err != nil {
				return Sub{}, err
			}
			cs := oram.NewCountingStore(ps, nil)
			rng, src := trace.NewCountedRNG(sd)
			client, err := oram.NewClient(oram.ClientConfig{
				Store: cs, Rand: rng, Evict: oram.PaperEvict,
				StashHits: true, Blocks: per,
			})
			if err != nil {
				return Sub{}, err
			}
			return Sub{Client: client, Store: cs, Src: src}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEngineStateRoundTrip: checkpoint an engine mid-run, keep running it
// to record the reference continuation, then restore a second engine from
// the checkpoint (client state here, tree bytes via store snapshots) and
// check the continuation is byte-identical — reads, stats and a second
// checkpoint of the final state.
func TestEngineStateRoundTrip(t *testing.T) {
	const (
		shards  = 4
		entries = 512
		block   = 16
		seed    = 42
	)
	e := countedEngine(t, shards, entries, block, seed)
	if err := e.Load(entries, func(id uint64) []byte { return payloadFor(id, block) }); err != nil {
		t.Fatal(err)
	}
	ids := trace.NewRNG(7)
	for i := 0; i < 300; i++ {
		if _, err := e.Read(uint64(ids.Int63n(entries))); err != nil {
			t.Fatal(err)
		}
	}

	// Checkpoint: client state + every shard's tree.
	var clientCk bytes.Buffer
	if err := e.SaveState(&clientCk); err != nil {
		t.Fatal(err)
	}
	trees := make([]bytes.Buffer, shards)
	for s := 0; s < shards; s++ {
		if err := e.Sub(s).Store.Save(&trees[s]); err != nil {
			t.Fatal(err)
		}
	}

	// Reference continuation on the original engine.
	contIDs := make([]uint64, 200)
	for i := range contIDs {
		contIDs[i] = uint64(ids.Int63n(entries))
	}
	want := make([][]byte, len(contIDs))
	for i, id := range contIDs {
		p, err := e.Read(id)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = bytes.Clone(p)
	}
	var wantFinal bytes.Buffer
	if err := e.SaveState(&wantFinal); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh engine, restore trees + client state, re-run.
	e2 := countedEngine(t, shards, entries, block, seed)
	for s := 0; s < shards; s++ {
		if err := e2.Sub(s).Store.Load(bytes.NewReader(trees[s].Bytes())); err != nil {
			t.Fatal(err)
		}
	}
	if err := e2.LoadState(bytes.NewReader(clientCk.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i, id := range contIDs {
		p, err := e2.Read(id)
		if err != nil {
			t.Fatalf("restored read %d: %v", id, err)
		}
		if !bytes.Equal(p, want[i]) {
			t.Fatalf("continuation read %d of block %d diverged", i, id)
		}
	}
	var gotFinal bytes.Buffer
	if err := e2.SaveState(&gotFinal); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantFinal.Bytes(), gotFinal.Bytes()) {
		t.Error("final checkpoint of restored engine differs from original run")
	}
	for s := 0; s < shards; s++ {
		a, b := e.Sub(s).Client.Stats(), e2.Sub(s).Client.Stats()
		a.BlocksMoved, b.BlocksMoved = 0, 0 // telemetry a checkpoint does not carry
		if a != b {
			t.Errorf("shard %d stats diverged: %+v vs %+v", s, a, b)
		}
		if e.Sub(s).Client.Stash().Peak() != e2.Sub(s).Client.Stash().Peak() {
			t.Errorf("shard %d stash peak diverged", s)
		}
	}
}

// TestEngineStateErrors: envelope validation — wrong geometry-defining
// parameters, uncheckpointable engines, garbage input.
func TestEngineStateErrors(t *testing.T) {
	e := countedEngine(t, 2, 64, 8, 1)
	if err := e.Load(64, func(id uint64) []byte { return make([]byte, 8) }); err != nil {
		t.Fatal(err)
	}
	var ck bytes.Buffer
	if err := e.SaveState(&ck); err != nil {
		t.Fatal(err)
	}
	if err := e.LoadState(strings.NewReader("not a checkpoint, definitely")); err == nil {
		t.Error("garbage accepted")
	}
	for _, other := range []*Engine{
		countedEngine(t, 4, 64, 8, 1),  // shard count mismatch
		countedEngine(t, 2, 128, 8, 1), // entries mismatch
		countedEngine(t, 2, 64, 8, 9),  // seed mismatch
	} {
		if err := other.LoadState(bytes.NewReader(ck.Bytes())); err == nil {
			t.Errorf("mismatched engine (%d shards, %d entries, seed %d) accepted checkpoint",
				other.Shards(), other.Entries(), other.seed)
		}
	}
	// An engine built without counted sources refuses both directions.
	plain := payloadEngine(t, 2, 64, 8, 1)
	if err := plain.SaveState(&bytes.Buffer{}); err == nil {
		t.Error("SaveState without counted RNG accepted")
	}
	if err := plain.LoadState(bytes.NewReader(ck.Bytes())); err == nil {
		t.Error("LoadState without counted RNG accepted")
	}
}
