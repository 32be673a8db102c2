// XLM-R: oblivious NLP embedding training on an XNLI-like token stream.
//
// The paper's second model (§VII-B): XLM-R's token embedding table —
// 262,144 rows of 4 KB. Token IDs are Zipf-distributed, so the same hot
// rows recur constantly; knowing which embedding row a sample touches
// reveals which words a user typed. This example compares PathORAM-style
// per-access cost against streaming look-ahead Train on the same
// stream and prints the speedup, the paper's Fig. 7f measurement.
//
// Because Zipf reuse distances are short, the look-ahead horizon can be a
// bounded window (a quarter of the stream here) without losing the
// superblock win — so Train preprocesses window k+1 while window k
// trains, the §VIII-A pipeline, and never needs the whole token stream in
// memory at once.
//
//	go run ./examples/xlmr
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	laoram "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	// Scaled vocabulary (same 4 KB rows); rows=0 gives the paper's full
	// 262,144-row table.
	table := laoram.XLMRTable(1 << 14)
	const tokens = 16384
	const superblock = 8

	fmt.Fprintf(w, "XLM-R embedding table: %d rows × %d B\n", table.Rows, table.RowBytes())

	stream, err := laoram.GenerateTrace(laoram.TraceConfig{
		Kind: laoram.TraceXNLI, N: table.Rows, Count: tokens, Seed: 21,
	})
	if err != nil {
		return err
	}

	// Baseline: plain PathORAM accesses, one per token. Metadata-only
	// stores keep this quick while measuring the identical traffic a
	// payload store would produce.
	base, err := laoram.New(laoram.Options{
		Entries: table.Rows, BlockSize: table.RowBytes(),
		MetadataOnly: true, Seed: 5,
	})
	if err != nil {
		return err
	}
	defer base.Close()
	if err := base.Load(table.Rows, nil); err != nil {
		return err
	}
	base.ResetStats()
	for _, tok := range stream {
		if _, err := base.Read(tok); err != nil {
			return err
		}
	}
	bst := base.Stats()
	fmt.Fprintf(w, "\nPathORAM baseline: %d accesses, %d path reads, sim time %.3f s\n",
		bst.Accesses, bst.PathReads, bst.SimTimeSeconds)

	// LAORAM: fat tree + superblocks of 8 (the paper's best XNLI config),
	// trained through the streaming pipeline in four look-ahead windows.
	fast, err := laoram.New(laoram.Options{
		Entries: table.Rows, BlockSize: table.RowBytes(),
		MetadataOnly: true, FatTree: true, Seed: 6,
	})
	if err != nil {
		return err
	}
	defer fast.Close()
	ts, err := fast.Train(context.Background(), laoram.TrainOptions{
		Source:     laoram.FromSlice(stream),
		Superblock: superblock,
		Window:     tokens / 4,
		Depth:      2,
		PrePlace:   true,
	})
	if err != nil {
		return err
	}
	fst := fast.Stats()
	fmt.Fprintf(w, "LAORAM Fat/S%d:     %d accesses, %d path reads, %d dummy reads, sim time %.3f s\n",
		superblock, fst.Accesses, fst.PathReads, fst.DummyReads, fst.SimTimeSeconds)

	if fst.SimTimeSeconds > 0 {
		fmt.Fprintf(w, "\nspeedup: %.2fx (paper reports ~5.4x for XLM-R/XNLI at full scale)\n",
			bst.SimTimeSeconds/fst.SimTimeSeconds)
	}
	ss := ts.Session
	fmt.Fprintf(w, "%d windows: lookahead remaps %d, uniform remaps %d, cold path reads %d; planning stalled training %v\n",
		ts.Windows, ss.LookaheadRemaps, ss.UniformRemaps, ss.ColdPathReads, ts.TrainerStalled.Round(time.Millisecond))

	// The Zipf head means many bin members are already in the stash
	// (hot rows), pushing accesses-per-path-read above S.
	fmt.Fprintf(w, "accesses per path read: %.2f (S=%d; stash hits on hot tokens push it higher)\n",
		float64(fst.Accesses)/float64(fst.PathReads), superblock)
	return nil
}
