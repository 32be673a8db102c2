// Quickstart: an oblivious block store in a few lines.
//
// This example stores encrypted 128-byte rows in a PathORAM tree, performs
// some ad-hoc oblivious reads/writes, then trains through the streaming
// look-ahead Train (the LAORAM fast path) and compares traffic.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	laoram "repro"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const entries = 1 << 14 // 16,384 rows
	const blockSize = 128

	db, err := laoram.New(laoram.Options{
		Entries:   entries,
		BlockSize: blockSize,
		Encrypt:   true, // AES-GCM sealing: the server stores ciphertext only
		Seed:      1,
	})
	if err != nil {
		return err
	}
	defer db.Close()
	fmt.Fprintf(w, "server tree: %s (%.1f MB server storage for %.1f MB of data)\n",
		db.Describe(),
		float64(db.ServerBytes())/(1<<20),
		float64(entries*blockSize)/(1<<20))

	// Bulk-load every row with its initial content.
	if err := db.Load(entries, func(id uint64) []byte {
		row := make([]byte, blockSize)
		copy(row, fmt.Sprintf("row-%d", id))
		return row
	}); err != nil {
		return err
	}
	db.ResetStats()

	// Ad-hoc oblivious accesses: each is a full PathORAM path read+write,
	// so the server learns nothing about which row we touched.
	if err := db.Write(42, []byte(pad("hello oblivious world", blockSize))); err != nil {
		return err
	}
	got, err := db.Read(42)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "read back row 42: %q\n", trim(got))
	st := db.Stats()
	fmt.Fprintf(w, "2 accesses cost %d path reads + %d path writes (%0.1f KB moved)\n\n",
		st.PathReads, st.PathWrites, float64(st.BytesMoved)/1024)

	// Look-ahead mode: a training loop knows its upcoming accesses, so
	// Train ingests them through an IndexSource and scans them
	// into superblocks of 4 sharing a path. The window is left at 0 —
	// the look-ahead horizon spans the whole stream, which is what a
	// one-off uniform stream needs for the full superblock win (set
	// TrainOptions.Window to plan bounded windows ahead of execution on
	// workloads with shorter reuse distances; examples/xlmr pipelines
	// that way). A fresh instance pre-placed for the plan shows
	// steady-state LAORAM.
	source, err := laoram.FromTrace(laoram.TraceConfig{
		Kind: laoram.TraceUniform, N: entries, Count: 4096, Seed: 7,
	})
	if err != nil {
		return err
	}
	fast, err := laoram.New(laoram.Options{
		Entries: entries, BlockSize: blockSize, Encrypt: true, Seed: 2,
	})
	if err != nil {
		return err
	}
	defer fast.Close()
	touched := 0
	ts, err := fast.Train(context.Background(), laoram.TrainOptions{
		Source:     source,
		Superblock: 4,
		PrePlace:   true, // converged steady state
		Visit: func(id uint64, payload []byte) []byte {
			touched++
			return nil
		},
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trained %d accesses in %d look-ahead window(s): %d superblock bins\n",
		ts.Accesses, ts.Windows, ts.Session.Bins)
	fst := fast.Stats()
	fmt.Fprintf(w, "LAORAM session: %d accesses served by %d path reads (%.2fx fewer than one-per-access)\n",
		fst.Accesses, fst.PathReads, float64(fst.Accesses)/float64(fst.PathReads))
	ss := ts.Session
	fmt.Fprintf(w, "bins=%d coldReads=%d lookaheadRemaps=%d uniformRemaps=%d (visited %d rows)\n",
		ss.Bins, ss.ColdPathReads, ss.LookaheadRemaps, ss.UniformRemaps, touched)
	return nil
}

func pad(s string, n int) string {
	b := make([]byte, n)
	copy(b, s)
	return string(b)
}

func trim(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}
