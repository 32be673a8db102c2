package batch

import (
	"context"
	"io"
	"testing"

	"repro/internal/oram"
	"repro/internal/shard"
	"repro/internal/trace"
)

func streamEngine(t *testing.T, shards int, entries uint64, seed int64) *shard.Engine {
	t.Helper()
	e, err := shard.New(shard.Config{
		Shards:  shards,
		Entries: entries,
		Seed:    seed,
		Build: func(s int, per uint64, sd int64) (shard.Sub, error) {
			g, err := oram.NewGeometry(oram.GeometryConfig{
				LeafBits: oram.LeafBitsFor(per), LeafZ: 4,
			})
			if err != nil {
				return shard.Sub{}, err
			}
			cs := oram.NewCountingStore(oram.NewMetaStore(g), nil)
			client, err := oram.NewClient(oram.ClientConfig{
				Store: cs, Rand: trace.NewRNG(sd), Evict: oram.PaperEvict,
				StashHits: true, Blocks: per,
			})
			if err != nil {
				return shard.Sub{}, err
			}
			return shard.Sub{Client: client, Store: cs}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

type sliceSrc struct{ rest []uint64 }

func (s *sliceSrc) Read(ctx context.Context, dst []uint64) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if len(s.rest) == 0 {
		return 0, io.EOF
	}
	n := copy(dst, s.rest)
	s.rest = s.rest[n:]
	return n, nil
}

// TestStreamSequentialMatchesPipelined: both schedules must execute
// identical plans and produce identical counters — the invariant the
// pipeline experiment's speedup measurement rests on.
func TestStreamSequentialMatchesPipelined(t *testing.T) {
	const entries = 512
	stream := trace.PermutationEpochs(trace.NewRNG(4), entries, 3000)
	run := func(sequential bool) (TrainStats, shard.Stats) {
		e := streamEngine(t, 2, entries, 31)
		st, err := Train(context.Background(), e, &sliceSrc{rest: stream}, TrainConfig{
			S: 4, Window: 512, Depth: 2, PrePlace: true, Sequential: sequential,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st, e.Stats()
	}
	seq, seqEng := run(true)
	pipe, pipeEng := run(false)
	if seq.Windows != pipe.Windows || seq.Accesses != pipe.Accesses || seq.Bins != pipe.Bins ||
		seq.ColdPathReads != pipe.ColdPathReads ||
		seq.LookaheadRemaps != pipe.LookaheadRemaps || seq.UniformRemaps != pipe.UniformRemaps {
		t.Errorf("schedules diverge:\nseq  %+v\npipe %+v", seq, pipe)
	}
	if seqEng.Access != pipeEng.Access {
		t.Errorf("engine counters diverge:\nseq  %+v\npipe %+v", seqEng.Access, pipeEng.Access)
	}
}

// TestStreamDeterministic: two identically-seeded runs are identical even
// though planning and execution overlap across goroutines.
func TestStreamDeterministic(t *testing.T) {
	const entries = 512
	stream := trace.PermutationEpochs(trace.NewRNG(9), entries, 2000)
	run := func() shard.Stats {
		e := streamEngine(t, 4, entries, 77)
		if _, err := Train(context.Background(), e, &sliceSrc{rest: stream}, TrainConfig{
			S: 4, Window: 256, Depth: 3, BatchBins: 2, PrePlace: true,
		}); err != nil {
			t.Fatal(err)
		}
		return e.Stats()
	}
	a, b := run(), run()
	if a.Access != b.Access {
		t.Errorf("runs diverge: %+v vs %+v", a.Access, b.Access)
	}
}

// TestStreamValidation pins the config errors.
func TestStreamValidation(t *testing.T) {
	e := streamEngine(t, 1, 64, 1)
	ctx := context.Background()
	if _, err := Train(ctx, nil, &sliceSrc{}, TrainConfig{}); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := Train(ctx, e, nil, TrainConfig{}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := Train(ctx, e, &sliceSrc{}, TrainConfig{Window: -1}); err == nil {
		t.Error("negative window accepted")
	}
	if _, err := Train(ctx, e, &sliceSrc{}, TrainConfig{S: 8, Window: 4}); err == nil {
		t.Error("window < S accepted")
	}
	if _, err := Train(ctx, e, &sliceSrc{}, TrainConfig{BatchBins: -1}); err == nil {
		t.Error("negative BatchBins accepted")
	}
	if _, err := Train(ctx, e, &sliceSrc{}, TrainConfig{Payload: func(uint64) []byte { return nil }}); err == nil {
		t.Error("Payload without PrePlace accepted")
	}
	// Empty streams are a successful no-op, matching one-shot Preprocess.
	if st, err := Train(ctx, e, &sliceSrc{}, TrainConfig{}); err != nil || st.Windows != 0 {
		t.Errorf("empty stream: got %+v, %v; want 0-window success", st, err)
	}
}

// TestWindowBoundariesCauseColdReads: shrinking the look-ahead window below
// the reuse distance reintroduces cold path reads (the abl-window effect);
// a full-stream window eliminates them after pre-placement.
func TestWindowBoundariesCauseColdReads(t *testing.T) {
	const entries = 512
	stream := trace.PermutationEpochs(trace.NewRNG(3), entries, 2048)
	run := func(window int) (cold, pathReads uint64) {
		e := streamEngine(t, 1, entries, 8)
		st, err := Train(context.Background(), e, &sliceSrc{rest: stream}, TrainConfig{
			S: 4, Window: window, Depth: 2, PrePlace: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Accesses != uint64(len(stream)) {
			t.Fatalf("window %d trained %d of %d accesses", window, st.Accesses, len(stream))
		}
		return st.ColdPathReads, e.Stats().Access.PathReads
	}
	fullCold, fullReads := run(0)
	tinyCold, tinyReads := run(64)
	if fullCold != 0 {
		t.Errorf("full-stream window after pre-placement made %d cold path reads, want 0", fullCold)
	}
	if tinyCold == 0 || tinyReads <= fullReads {
		t.Errorf("tiny window: %d cold / %d path reads should exceed the full window's %d / %d",
			tinyCold, tinyReads, fullCold, fullReads)
	}
}
