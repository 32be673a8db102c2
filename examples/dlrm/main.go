// DLRM: oblivious embedding-table training on a Kaggle-like trace.
//
// This is the paper's headline scenario (§VII-B): a DLRM recommendation
// model whose categorical features index a large embedding table. Even with
// encrypted rows, the *addresses* of the rows a user's sample touches leak
// their behaviour — so the table lives in LAORAM. The sample pipeline
// produces the upcoming training order incrementally (modelled here by a
// dataloader goroutine feeding a channel); Train scans it
// into look-ahead windows, planning window k+1 while window k trains — the
// paper's §VIII-A two-stage pipeline — and each training step fetches one
// superblock bin with one path read.
//
//	go run ./examples/dlrm
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	laoram "repro"
)

func main() {
	// A scaled-down DLRM table: same 128-byte rows as the paper's
	// largest Kaggle table, fewer of them so the example runs in
	// seconds. Set rows = 0 for the full 10,131,227-row table
	// (metadata-only mode recommended at that scale).
	table := laoram.DLRMTable(1 << 16)
	const samplesPerEpoch = 8192
	const epochs = 2
	const superblock = 4
	lr := float32(0.05)

	fmt.Printf("DLRM embedding table: %d rows × %d B (insecure size %.1f MB)\n",
		table.Rows, table.RowBytes(), float64(table.Rows*uint64(table.RowBytes()))/(1<<20))

	// The Kaggle-like trace: mostly uniform random indices with a thin
	// hot band of repeated ones (the paper's Fig. 2 shape).
	stream, err := laoram.GenerateTrace(laoram.TraceConfig{
		Kind: laoram.TraceKaggle, N: table.Rows, Count: samplesPerEpoch * epochs, Seed: 11,
	})
	if err != nil {
		log.Fatal(err)
	}

	db, err := laoram.New(laoram.Options{
		Entries:   table.Rows,
		BlockSize: table.RowBytes(),
		FatTree:   true, // §V: wider roots absorb superblock pressure
		Encrypt:   true,
		Seed:      3,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	fmt.Printf("server tree: %s (%.1f MB)\n", db.Describe(), float64(db.ServerBytes())/(1<<20))

	// The dataloader: a goroutine feeding sample indices epoch by epoch,
	// the way a real input pipeline hands batches to the trainer.
	// Train consumes it through an IndexSource.
	feed := make(chan uint64, 1024)
	go func() {
		defer close(feed)
		for _, id := range stream {
			feed <- id
		}
	}()

	// Stream the epochs through Train. The look-ahead window is
	// left at 0 (the full stream) because the Kaggle trace's reuse
	// distance is a whole epoch: any smaller horizon would let rows fall
	// out of the plan between epochs and splinter superblock fetches
	// into cold path reads (the abl-window ablation measures exactly
	// that decay — use TrainOptions.Window for workloads whose locality
	// is shorter, as examples/xlmr does). Each visit applies one SGD
	// step to the row while it is resident in trusted memory. The
	// "gradient" here is a deterministic stand-in — the ORAM doesn't
	// care what the numbers mean, only that the row is read, modified
	// and written back obliviously.
	start := time.Now()
	step := uint64(0)
	updates := 0
	ts, err := db.Train(context.Background(), laoram.TrainOptions{
		Source:     laoram.FromChannel(feed),
		Superblock: superblock,
		PrePlace:   true,
		Payload:    laoram.InitRowBytes(table),
		Visit: func(id uint64, payload []byte) []byte {
			row, err := laoram.DecodeRow(payload)
			if err != nil {
				log.Fatal(err)
			}
			for i := range row {
				g := (row[i] + 0.01) * float32(1+int(step+id)%3)
				row[i] -= lr * g
			}
			step++
			updates++
			return laoram.EncodeRow(row)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	wall := time.Since(start)
	fmt.Printf("preprocessor: %d accesses from the feed → %d bins of %d, scanned in %v\n",
		ts.Accesses, ts.Session.Bins, superblock, ts.PlanTime.Round(time.Millisecond))

	st := db.Stats()
	fmt.Printf("\ntrained %d row-updates in %v wall (%.1f µs/update)\n",
		updates, wall.Round(time.Millisecond), float64(wall.Microseconds())/float64(updates))
	fmt.Printf("oblivious traffic: %d path reads, %d path writes, %d dummy reads (%.2f MB)\n",
		st.PathReads, st.PathWrites, st.DummyReads, float64(st.BytesMoved)/(1<<20))
	fmt.Printf("accesses per path read: %.2f (PathORAM would be 1.0; S=%d ideal is %d.0)\n",
		float64(st.Accesses)/float64(st.PathReads), superblock, superblock)
	fmt.Printf("simulated DDR4 time: %.3f s — vs %.3f s for PathORAM at 1 path/access\n",
		st.SimTimeSeconds, st.SimTimeSeconds*float64(st.Accesses)/float64(st.PathReads))

	// Spot-check: rows really were updated and decrypt correctly.
	row, err := db.Read(stream[0])
	if err != nil {
		log.Fatal(err)
	}
	vec, err := laoram.DecodeRow(row)
	if err != nil {
		log.Fatal(err)
	}
	init := laoram.InitRow(table, stream[0])
	if vec[0] == init[0] {
		log.Fatal("row was never updated?")
	}
	fmt.Printf("row %d element 0: %.5f → %.5f ✓\n", stream[0], init[0], vec[0])
}
