package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"time"

	"repro/internal/oram"
	"repro/internal/superblock"
	"repro/internal/trace"
)

// testSource streams a slice in fixed-size bites, so planner windows cross
// Read boundaries.
type testSource struct {
	rest []uint64
	bite int
}

func (s *testSource) Read(ctx context.Context, dst []uint64) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if len(s.rest) == 0 {
		return 0, io.EOF
	}
	n := len(dst)
	if n > s.bite {
		n = s.bite
	}
	n = copy(dst[:n], s.rest)
	s.rest = s.rest[n:]
	if len(s.rest) == 0 {
		return n, io.EOF
	}
	return n, nil
}

func plannerEngine(t *testing.T, entries uint64, shards int, seed int64) *Engine {
	t.Helper()
	return payloadEngine(t, shards, entries, 16, seed)
}

// TestPlannerFullWindowMatchesPreprocess: a Planner with Window = 0 must
// emit exactly one window whose plan is identical (bins, members, leaves)
// to the one-shot Engine.Preprocess — the seed contract behind the
// streaming-vs-oneshot byte-identity pin.
func TestPlannerFullWindowMatchesPreprocess(t *testing.T) {
	const entries = 1 << 9
	for _, shards := range []int{1, 3} {
		e := plannerEngine(t, entries, shards, 99)
		stream := trace.PermutationEpochs(trace.NewRNG(5), entries, 2000)
		want, err := e.Preprocess(stream, 4)
		if err != nil {
			t.Fatal(err)
		}
		p, err := e.NewPlanner(&testSource{rest: stream, bite: 333}, PlannerConfig{S: 4, Window: 0, Depth: 1})
		if err != nil {
			t.Fatal(err)
		}
		ch, err := p.Start(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var wins []PlannedWindow
		for w := range ch {
			wins = append(wins, w)
		}
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
		if len(wins) != 1 {
			t.Fatalf("shards=%d: got %d windows, want 1", shards, len(wins))
		}
		got := wins[0].Plan
		for s := 0; s < shards; s++ {
			gp, wp := got.plans[s], want.plans[s]
			if gp.Len() != wp.Len() || gp.UniqueBlocks() != wp.UniqueBlocks() {
				t.Fatalf("shard %d: plan shape diverges: %d/%d bins, %d/%d blocks",
					s, gp.Len(), wp.Len(), gp.UniqueBlocks(), wp.UniqueBlocks())
			}
			for i := 0; i < gp.Len(); i++ {
				gb, wb := gp.Bin(i), wp.Bin(i)
				if gb.Leaf != wb.Leaf || len(gb.Blocks) != len(wb.Blocks) {
					t.Fatalf("shard %d bin %d diverges", s, i)
				}
				for j := range gb.Blocks {
					if gb.Blocks[j] != wb.Blocks[j] {
						t.Fatalf("shard %d bin %d member %d diverges", s, i, j)
					}
				}
			}
		}
	}
}

// TestPlannerWindowing checks window boundaries and access accounting when
// the source delivers in bites that do not divide the window size.
func TestPlannerWindowing(t *testing.T) {
	const entries = 256
	e := plannerEngine(t, entries, 2, 7)
	stream := trace.PermutationEpochs(trace.NewRNG(6), entries, 1000)
	p, err := e.NewPlanner(&testSource{rest: stream, bite: 97}, PlannerConfig{S: 4, Window: 300, Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := p.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var total, windows int
	for w := range ch {
		if w.Index != windows {
			t.Errorf("window %d has index %d", windows, w.Index)
		}
		if w.Accesses > 300 {
			t.Errorf("window %d spans %d accesses, cap 300", w.Index, w.Accesses)
		}
		total += w.Accesses
		windows++
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if total != len(stream) {
		t.Errorf("windows cover %d accesses, stream has %d", total, len(stream))
	}
	if want := (len(stream) + 299) / 300; windows != want {
		t.Errorf("got %d windows, want %d", windows, want)
	}
}

// TestPlannerCancelWithFullQueue cancels while the planner is blocked
// sending on a full queue: the channel must close promptly with
// Err() == context.Canceled.
func TestPlannerCancelWithFullQueue(t *testing.T) {
	const entries = 256
	e := plannerEngine(t, entries, 1, 3)
	stream := trace.PermutationEpochs(trace.NewRNG(8), entries, 4096)
	p, err := e.NewPlanner(&testSource{rest: stream, bite: 1 << 20}, PlannerConfig{S: 4, Window: 64, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch, err := p.Start(ctx)
	if err != nil {
		t.Fatal(err)
	}
	<-ch // let it fill the queue and block on the next send
	time.Sleep(10 * time.Millisecond)
	cancel()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-ch:
			if !ok {
				if err := p.Err(); !errors.Is(err, context.Canceled) {
					t.Fatalf("Err() = %v, want context.Canceled", err)
				}
				return
			}
		case <-deadline:
			t.Fatal("planner did not drain after cancel")
		}
	}
}

// nextLeafTables reads every shard's next-leaf table of p the way a lane
// does, through a fresh cursor.
func nextLeafTables(p *Plan) [][]superblock.Next {
	out := make([][]superblock.Next, p.Shards())
	for s := range out {
		for cur := superblock.NewCursor(p.plans[s]); !cur.Done(); {
			_, next, _ := cur.Advance()
			out[s] = append(out[s], next...)
		}
	}
	return out
}

// TestPlannerReleasedPlansFinal executes every window as soon as the planner
// releases it while the planner plans and releases the next ones (CI runs it
// under -race, which flags any write to a table a lane is reading). When the
// stream is done, every released table still reads as it did at release, and
// the release filled entries an unreleased plan of the same window leaves
// NoLeaf.
func TestPlannerReleasedPlansFinal(t *testing.T) {
	const entries, window, depth = 1 << 10, 512, 2
	stream, err := trace.Generate(trace.Config{Kind: trace.KindKaggle, N: entries, Count: 6 * window, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	e := plannerEngine(t, entries, 2, 17)
	p, err := e.NewPlanner(&testSource{rest: stream, bite: 200}, PlannerConfig{S: 4, Window: window, Depth: depth, Place: true})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := p.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var (
		wins    []PlannedWindow
		atStart [][][]superblock.Next
	)
	for w := range ch {
		if len(wins) == 0 {
			if err := e.LoadForPlan(w.Plan, nil); err != nil {
				t.Fatal(err)
			}
		}
		wins = append(wins, w)
		atStart = append(atStart, nextLeafTables(w.Plan))
		sess, err := e.NewSession(w.Plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := sess.Run(nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if len(wins) != 6 {
		t.Fatalf("got %d windows, want 6", len(wins))
	}
	filled := 0
	for k, w := range wins {
		if !reflect.DeepEqual(nextLeafTables(w.Plan), atStart[k]) {
			t.Fatalf("window %d's next-leaf table changed after its release", k)
		}
		lo := k * window
		// The window binned alone: its plan with nothing held behind it.
		h, err := e.newHorizon(4)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.bin(stream[lo:lo+w.Accesses], w.Index); err != nil {
			t.Fatal(err)
		}
		unreleased := h.release().Plan
		for s, table := range nextLeafTables(unreleased) {
			for i, next := range table {
				// The window binned alone marks other donors: compare leaves.
				switch leaf, got := next.Leaf(), atStart[k][s][i].Leaf(); {
				case leaf != oram.NoLeaf && got != leaf:
					t.Fatalf("window %d shard %d entry %d: release rewrote an in-window next leaf", k, s, i)
				case leaf == oram.NoLeaf && got != oram.NoLeaf:
					filled++
				}
			}
		}
	}
	if filled == 0 {
		t.Error("no entry was filled from a later window")
	}
}

// TestPlannerRejectsBadInput pins id validation and source errors.
func TestPlannerRejectsBadInput(t *testing.T) {
	const entries = 64
	e := plannerEngine(t, entries, 1, 2)
	p, err := e.NewPlanner(&testSource{rest: []uint64{1, 2, 9999}, bite: 8}, PlannerConfig{S: 2, Window: 0, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := p.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for range ch {
	}
	if err := p.Err(); err == nil {
		t.Error("out-of-range id accepted")
	}

	srcErr := fmt.Errorf("dataloader exploded")
	p2, err := e.NewPlanner(&errSource{err: srcErr}, PlannerConfig{S: 2, Window: 0, Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ch2, err := p2.Start(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for range ch2 {
	}
	if err := p2.Err(); !errors.Is(err, srcErr) {
		t.Errorf("Err() = %v, want wrapped %v", err, srcErr)
	}

	if _, err := e.NewPlanner(nil, PlannerConfig{S: 2, Depth: 1}); err == nil {
		t.Error("nil source accepted")
	}
	if _, err := e.NewPlanner(&errSource{}, PlannerConfig{S: 0, Depth: 1}); err == nil {
		t.Error("S=0 accepted")
	}
	if _, err := e.NewPlanner(&errSource{}, PlannerConfig{S: 4, Window: 2, Depth: 1}); err == nil {
		t.Error("Window < S accepted")
	}
	if _, err := e.NewPlanner(&errSource{}, PlannerConfig{S: 4, Depth: 0}); err == nil {
		t.Error("Depth=0 accepted")
	}
}

type errSource struct{ err error }

func (s *errSource) Read(ctx context.Context, dst []uint64) (int, error) {
	if s.err != nil {
		return 0, s.err
	}
	return 0, io.EOF
}
