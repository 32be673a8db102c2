package harness

import (
	"testing"
	"time"

	"repro/internal/oram"
	"repro/internal/trace"
)

// TestSimTimeGolden pins the simulated DDR4 time of the seven Fig. 7
// variants on both standard streams, in nanoseconds, and the Fat/S4 over
// PathORAM speedup under each of abl-model's three memory models. The
// figure digests round times and speedups when they render, so a drift of
// a few nanoseconds in how time is derived from traffic shows only here.
func TestSimTimeGolden(t *testing.T) {
	want := map[trace.Kind]map[string]time.Duration{
		trace.KindPermutation: {
			"PathORAM": 52266824, "Normal/S2": 31592496, "Normal/S4": 19391960, "Normal/S8": 29823412,
			"Fat/S2": 32745640, "Fat/S4": 21241540, "Fat/S8": 20168100,
		},
		trace.KindKaggle: {
			"PathORAM": 50961864, "Normal/S2": 29096752, "Normal/S4": 16276536, "Normal/S8": 11727808,
			"Fat/S2": 31095050, "Fat/S4": 18931550, "Fat/S8": 10571000,
		},
	}
	const entries, accesses, seed = 4096, 16384, 42
	for _, kind := range []trace.Kind{trace.KindPermutation, trace.KindKaggle} {
		stream, err := workloadStream(kind, entries, accesses, seed)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range StandardVariants() {
			rr, err := Run(RunSpec{
				Entries: entries, BlockSize: 128, Variant: v, Stream: stream,
				Evict: oram.PaperEvict, Seed: seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			if got := rr.SimTime; got != want[kind][v.Name] {
				t.Errorf("%v %s: SimTime = %d ns, want %d", kind, v.Name, got.Nanoseconds(), want[kind][v.Name].Nanoseconds())
			}
		}
	}

	res, err := ModelSweep(Scale{EntriesSmall: entries, Accesses: accesses}, seed)
	if err != nil {
		t.Fatal(err)
	}
	wantSpeedup := []float64{2.4625457556873185, 2.5023446942989525, 3.6572004674347074}
	for i, s := range res.Speedup {
		if s != wantSpeedup[i] {
			t.Errorf("%s: Fat/S4 speedup = %.17g, want %.17g", res.Models[i], s, wantSpeedup[i])
		}
	}
}
