// Checkpoint: survive a trainer restart mid-run.
//
// Embedding-table training runs for days; the ORAM client's trusted state
// (position map + stash) must be checkpointed alongside the model, or every
// block in the tree becomes unreachable after a crash. This example trains
// until the run is preempted (a cluster scheduler's cancellation, modelled
// by a context cancelled mid-epoch — the executor stops cleanly at the
// next superblock-bin boundary), checkpoints client and server state,
// simulates the crash, restores into fresh objects, finishes the epoch,
// and verifies the data. Unlike the other examples it drives the engine
// below the public API (internal/core, internal/oram, internal/superblock).
//
//	go run ./examples/checkpoint
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/core"
	"repro/internal/oram"
	"repro/internal/superblock"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const blocks = 1 << 12
	const blockSize = 64
	const accesses = 4096
	const S = 4

	// --- Phase 1: fresh trainer ---
	g := oram.MustGeometry(oram.GeometryConfig{
		LeafBits:  oram.LeafBitsFor(blocks),
		LeafZ:     4,
		BlockSize: blockSize,
	})
	store, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		return err
	}
	client, err := oram.NewClient(oram.ClientConfig{
		Store: store, Rand: trace.NewRNG(1),
		Evict: oram.PaperEvict, StashHits: true, Blocks: blocks,
	})
	if err != nil {
		return err
	}
	stream := trace.PermutationEpochs(trace.NewRNG(2), blocks, accesses)
	plan, err := superblock.NewPlan(stream, superblock.PlanConfig{
		S: S, Leaves: g.Leaves(), Rand: trace.NewRNG(3),
	})
	if err != nil {
		return err
	}
	la, err := core.New(core.Config{Base: client, Plan: plan})
	if err != nil {
		return err
	}
	if err := la.LoadPrePlaced(blocks, func(id oram.BlockID) []byte {
		b := make([]byte, blockSize)
		b[0] = byte(id) // identity marker
		return b
	}); err != nil {
		return err
	}

	// Train until preempted: bump a counter in every visited row, and
	// cancel the context halfway through the plan — the run stops at the
	// next bin boundary with ctx.Err(), leaving client state consistent
	// and checkpointable.
	ctx, preempt := context.WithCancel(context.Background())
	half := plan.Len() / 2
	touch := func(id oram.BlockID, payload []byte) []byte {
		out := make([]byte, len(payload))
		copy(out, payload)
		out[1]++ // visit counter
		return out
	}
	err = la.Run(ctx, 1, func(id oram.BlockID, payload []byte) []byte {
		if int(la.Stats().Bins) >= half-1 {
			preempt() // SIGTERM arrives mid-epoch
		}
		return touch(id, payload)
	})
	if !errors.Is(err, context.Canceled) {
		return fmt.Errorf("expected preemption, got %v", err)
	}
	executed := int(la.Stats().Bins)
	fmt.Fprintf(w, "phase 1: preempted after %d of %d bins (clean bin boundary)\n", executed, plan.Len())

	// --- Checkpoint ---
	var clientSnap, storeSnap bytes.Buffer
	if err := client.SaveState(&clientSnap); err != nil {
		return err
	}
	if err := store.Save(&storeSnap); err != nil {
		return err
	}
	fmt.Fprintf(w, "checkpoint: client state %.1f KB, server tree %.1f MB\n",
		float64(clientSnap.Len())/1024, float64(storeSnap.Len())/(1<<20))

	// --- Simulated crash: everything in memory is gone ---
	client, store, la = nil, nil, nil //nolint:ineffassign

	// --- Phase 2: restore and resume ---
	store2, err := oram.NewPayloadStore(g, nil)
	if err != nil {
		return err
	}
	if err := store2.Load(bytes.NewReader(storeSnap.Bytes())); err != nil {
		return err
	}
	client2, err := oram.NewClient(oram.ClientConfig{
		Store: store2, Rand: trace.NewRNG(99), // fresh RNG is fine
		Evict: oram.PaperEvict, StashHits: true, Blocks: blocks,
	})
	if err != nil {
		return err
	}
	if err := client2.LoadState(bytes.NewReader(clientSnap.Bytes())); err != nil {
		return err
	}
	// Resume with a fresh plan over the REMAINING stream. Blocks were
	// last remapped toward the old plan's future bins, so the new plan's
	// first access of each block fetches it from its current (restored)
	// position — a one-epoch warm-up of cold reads, after which look-
	// ahead placement is converged again.
	remaining := stream[executed*S:]
	plan2, err := superblock.NewPlan(remaining, superblock.PlanConfig{
		S: S, Leaves: g.Leaves(), Rand: trace.NewRNG(4),
	})
	if err != nil {
		return err
	}
	la2, err := core.New(core.Config{Base: client2, Plan: plan2})
	if err != nil {
		return err
	}
	if err := la2.Run(context.Background(), 1, touch); err != nil {
		return err
	}
	fmt.Fprintf(w, "phase 2: trained remaining %d bins after restore (%d cold reads — re-warming look-ahead)\n",
		plan2.Len(), la2.Stats().ColdPathReads)

	// --- Verify: every stream access contributed exactly one visit ---
	want := map[oram.BlockID]byte{}
	for _, a := range stream {
		want[oram.BlockID(a)]++
	}
	checked, mismatches := 0, 0
	for id, visits := range want {
		payload, err := client2.Read(id)
		if err != nil {
			return err
		}
		if payload[0] != byte(id) || payload[1] != visits {
			mismatches++
		}
		checked++
	}
	if mismatches > 0 {
		return fmt.Errorf("%d/%d rows lost updates across the restart", mismatches, checked)
	}
	fmt.Fprintf(w, "verified %d rows: no updates lost across the crash ✓\n", checked)
	return nil
}
