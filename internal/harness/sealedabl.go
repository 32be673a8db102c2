package harness

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	laoram "repro"
	"repro/internal/trace"
)

// sealedabl.go measures the sealed hot path's crypto fan-out. LAORAM's
// batched superblock fetches (§IV-A) and multipath write-backs hand the
// store large independent bucket unions, so the experiment sweeps
// Options.CryptoWorkers ∈ {1, 2, 4, 8} over identical batched training
// sessions on 4 KB rows (XLM-R's, the benchmark's train-sealed shape) and
// reports the sealed-batch throughput curve. With one-pass AES-GCM sealing
// a 4 KB slot costs under a microsecond each way and crypto is about 40%
// of a serial sealed session, so the curve's ceiling is near 1.4x however
// many cores there are; at 128 B rows (≈ 80 ns per slot) the sweep would
// time the pool's hand-off, not crypto. What the experiment asserts is
// that every width behaves identically (nonces come from a per-slot
// reservation, not from scheduling — see DESIGN.md invariant 10); the
// wall-clock column is a record, and a width the host has no CPUs for is
// not recorded at all.

// sealedWorkerSweep is the measured fan-out widths.
var sealedWorkerSweep = []int{1, 2, 4, 8}

// SealedRow is one crypto fan-out width of the sealed sweep.
type SealedRow struct {
	// Workers is Options.CryptoWorkers for this configuration.
	Workers int
	// Accesses is the logical accesses of the measured session.
	Accesses int
	// Skipped marks a width above runtime.NumCPU(): the session ran once
	// for the identity check and its wall-clock is not recorded.
	Skipped bool
	// Wall is the host wall-clock of the batched session (best of two).
	Wall time.Duration
	// Throughput is Accesses per wall-clock second.
	Throughput float64
	// Speedup is Throughput over the Workers=1 row.
	Speedup float64
}

// SealedResult is the sealed experiment outcome.
type SealedResult struct {
	Entries   uint64
	BlockSize int
	S         int
	BatchBins int
	// CPUs is runtime.NumCPU(): wider rows are Skipped.
	CPUs int
	Rows []SealedRow
}

// sealedExpKey pins the sealing key so every configuration seals under the
// same key (the nonce field still differs per instance; determinism claims
// are about plaintext state and access behaviour, pinned by
// TestCryptoWorkersEquivalence).
func sealedExpKey() []byte {
	key := make([]byte, 32)
	for i := range key {
		key[i] = byte(i*5 + 1)
	}
	return key
}

// sealedBlockSize is the row size of the sweep: an XLM-R embedding.
const sealedBlockSize = 4096

// sealedMaxEntries caps the table at the train-sealed shape: a sealed
// 4 KB-row tree of 2^14 entries is about 600 MB, and the arena has to fit
// in memory at every scale.
const sealedMaxEntries = 1 << 14

// sealedOutcome is what a width must reproduce exactly.
type sealedOutcome struct {
	sess  laoram.SessionStats
	stats laoram.Stats
}

// runSealed measures one fan-out width: an encrypted single-shard
// instance trains the stream as one pre-placed §IV-B window, executed in
// batched server round trips (the §IV-A per-training-batch fetch) under a
// read-modify-write visitor; the returned duration is the execution time
// alone (load and planning excluded).
func runSealed(entries uint64, seed int64, stream []uint64, workers, s, batchBins int) (time.Duration, sealedOutcome, error) {
	var out sealedOutcome
	db, err := laoram.New(laoram.Options{
		Entries:       entries,
		BlockSize:     sealedBlockSize,
		Encrypt:       true,
		Key:           sealedExpKey(),
		FatTree:       true,
		Seed:          seed,
		CryptoWorkers: workers,
	})
	if err != nil {
		return 0, out, err
	}
	defer db.Close()
	ts, err := db.Train(context.Background(), laoram.TrainOptions{
		Source:     laoram.FromSlice(stream),
		Superblock: s,
		BatchBins:  batchBins,
		PrePlace:   true,
		Payload: func(id uint64) []byte {
			row := make([]byte, sealedBlockSize)
			row[0] = byte(id)
			return row
		},
		Visit: func(id uint64, row []byte) []byte {
			row[0]++ // minimal training update; the whole fetched path reseals on write-back
			return row
		},
	})
	if err != nil {
		return 0, out, err
	}
	out.sess, out.stats = ts.Session, db.Stats()
	return ts.TrainTime, out, nil
}

// SealedExp sweeps the crypto fan-out width over identical sealed batched
// sessions. Wall-clock on a shared host is noisy, so each width takes the
// best of two runs (the same noise-floor estimator the pipeline
// experiment uses); a width above the host's CPU count runs once, for the
// identity check only. A cross-width mismatch of session or engine
// counters is an error — the configurations are identical by construction.
func SealedExp(sc Scale, seed int64) (*SealedResult, error) {
	const s = 8
	const batchBins = 16
	entries := min(sc.EntriesSmall, sealedMaxEntries)
	stream, err := workloadStream(trace.KindGaussian, entries, 2*sc.Accesses, seed+57)
	if err != nil {
		return nil, err
	}
	res := &SealedResult{
		Entries:   entries,
		BlockSize: sealedBlockSize,
		S:         s,
		BatchBins: batchBins,
		CPUs:      runtime.NumCPU(),
	}
	var baseOut sealedOutcome
	var base float64
	for _, w := range sealedWorkerSweep {
		row := SealedRow{Workers: w, Accesses: len(stream), Skipped: w > res.CPUs}
		runs := 2
		if row.Skipped {
			runs = 1
		}
		var out sealedOutcome
		for i := 0; i < runs; i++ {
			wl, o, err := runSealed(entries, seed, stream, w, s, batchBins)
			if err != nil {
				return nil, fmt.Errorf("sealed workers=%d: %w", w, err)
			}
			if i == 0 || wl < row.Wall {
				row.Wall = wl
			}
			out = o
		}
		if w == sealedWorkerSweep[0] {
			baseOut = out
		} else if out != baseOut {
			return nil, fmt.Errorf("sealed workers=%d diverged from serial run: %+v vs %+v", w, out, baseOut)
		}
		if row.Skipped {
			row.Wall = 0
		} else if row.Wall > 0 {
			row.Throughput = float64(len(stream)) / row.Wall.Seconds()
		}
		if w == sealedWorkerSweep[0] {
			base = row.Throughput
		}
		if base > 0 {
			row.Speedup = row.Throughput / base
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Row returns the row for the given worker count, or nil.
func (r *SealedResult) Row(workers int) *SealedRow {
	for i := range r.Rows {
		if r.Rows[i].Workers == workers {
			return &r.Rows[i]
		}
	}
	return nil
}

// Render formats the sealed sweep.
func (r *SealedResult) Render() string {
	t := Table{
		Title: fmt.Sprintf("Sealed — crypto fan-out over batched sealed sessions (N=%d, %d B blocks, S=%d, batch=%d bins, host cpus=%d)",
			r.Entries, r.BlockSize, r.S, r.BatchBins, r.CPUs),
		Headers: []string{"crypto workers", "accesses", "wall", "acc/s", "speedup"},
	}
	for _, row := range r.Rows {
		if row.Skipped {
			t.AddRow(fmt.Sprintf("%d", row.Workers), fmt.Sprintf("%d", row.Accesses), "skipped", "skipped", "skipped")
			continue
		}
		t.AddRow(fmt.Sprintf("%d", row.Workers),
			fmt.Sprintf("%d", row.Accesses),
			row.Wall.Round(time.Millisecond).String(),
			f2(row.Throughput),
			f2(row.Speedup)+"x")
	}
	t.AddNote("workers=1 is the serial baseline; all widths behave identically (per-slot nonce reservation)")
	t.AddNote("a width above the host's cpus is run for the identity check only; with crypto about two fifths of a serial session the curve's ceiling is ≈ 1.4x")
	return t.Render()
}

// CSV exports the sweep.
func (r *SealedResult) CSV() string {
	var sb strings.Builder
	sb.WriteString("workers,accesses,wall_ns,throughput,speedup\n")
	for _, row := range r.Rows {
		if row.Skipped {
			sb.WriteString(fmt.Sprintf("%d,%d,skipped,skipped,skipped\n", row.Workers, row.Accesses))
			continue
		}
		sb.WriteString(fmt.Sprintf("%d,%d,%d,%.2f,%.3f\n",
			row.Workers, row.Accesses, row.Wall.Nanoseconds(), row.Throughput, row.Speedup))
	}
	return sb.String()
}
