package main

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestTailPercentNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		samples int
		want    float64
	}{{0, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercent(tc.samples); got != tc.want {
			t.Errorf("tailPercent(%d) = %v, want %v", tc.samples, got, tc.want)
		}
	}
}

func TestSummariseSteps(t *testing.T) {
	ms := make([]float64, 200)
	for i := range ms {
		ms[i] = float64(200 - i) // unsorted on purpose: 200, 199, ... 1
	}
	got := summariseSteps(ms)
	want := stepStats{samples: 200, p50: 100, p95: 190, tail: 190, tailPct: 95}
	if got != want {
		t.Errorf("summariseSteps = %+v, want %+v", got, want)
	}
	if empty := summariseSteps(nil); empty.p50 != 0 || empty.samples != 0 || empty.tailPct != 50 {
		t.Errorf("empty sample = %+v", empty)
	}
}

// The spread must be the one the acceptance check takes with Python's
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v .. %v, want 0.75 .. 2.25", q1, q3)
	}
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
}

// Two lanes stamp chunks concurrently: every chunk is stamped once, by
// whichever lane completed it, and phases do not leak into each other.
func TestStamperUnderTwoLanes(t *testing.T) {
	const chunk, perLane = 8, 4000
	s := newStamper(chunk, 4*perLane)
	for phase := 0; phase < 2; phase++ {
		s.begin()
		var wg sync.WaitGroup
		for lane := 0; lane < shards; lane++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perLane; i++ {
					s.visit()
				}
			}()
		}
		wg.Wait()
		ms := s.chunkMs()
		if want := shards * perLane / chunk; len(ms) != want {
			t.Fatalf("phase %d: %d chunks, want %d", phase, len(ms), want)
		}
		var total float64
		for _, d := range ms {
			total += d
		}
		if elapsed := float64(time.Since(s.start)) / 1e6; total <= 0 || total > elapsed {
			t.Errorf("phase %d: chunks sum to %v ms of %v ms elapsed", phase, total, elapsed)
		}
	}
	if got := s.calls.Load(); got != 2*shards*perLane {
		t.Errorf("%d calls counted, want %d", got, 2*shards*perLane)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		w, err := w.scaled("smoke")
		if err != nil {
			t.Fatal(err)
		}
		if !w.train() {
			a, b, c := newRequestGen(w, 5), newRequestGen(w, 5), newRequestGen(w, 6)
			differs := false
			for i := 0; i < 50; i++ {
				ra, rb, rc := a.next(), b.next(), c.next()
				if ra.write != rb.write || !slices.Equal(ra.ids, rb.ids) {
					t.Fatalf("%s: request %d differs between two generators of one seed", w.name, i)
				}
				differs = differs || !slices.Equal(ra.ids, rc.ids)
				if len(ra.ids) != w.keysPerReq {
					t.Fatalf("%s: request of %d keys", w.name, len(ra.ids))
				}
			}
			if !differs {
				t.Errorf("%s: seeds 5 and 6 give the same requests", w.name)
			}
			continue
		}
		a, err := w.trainStream(5, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := w.trainStream(5, time.Second)
		c, _ := w.trainStream(6, time.Second)
		if !slices.Equal(a, b) {
			t.Errorf("%s: seed 5 gives two different streams", w.name)
		}
		if slices.Equal(a, c) {
			t.Errorf("%s: seeds 5 and 6 give the same stream", w.name)
		}
		if len(a)%w.window != 0 || len(a) < (w.countWindows+1)*w.window {
			t.Errorf("%s: stream of %d indices is not whole windows past the count phase", w.name, len(a))
		}
	}
}

func TestVisitModelBinsPerShardAndWindow(t *testing.T) {
	// Window 1, shard 0 (even ids): 0 2 0 4 6 | 0 — the second 0 is inside
	// the open bin and skipped; 6 closes the bin, so the last 0 opens a new
	// one. Shard 1: 1 1 3. Window 2 starts fresh bins: 0 again.
	stream := []uint64{0, 2, 1, 0, 4, 1, 6, 0, 3 /* window 2 */, 0, 0, 5}
	visits := make([]uint32, 8)
	total := visitModel(stream, 9, visits)
	want := []uint32{3, 1, 1, 1, 1, 1, 1, 0}
	if total != 9 || !slices.Equal(visits, want) {
		t.Errorf("visitModel = %d %v, want 9 %v", total, visits, want)
	}
}

func TestRowStampRoundTrip(t *testing.T) {
	row := make([]byte, 64)
	fillRow(row, 300, 9)
	if !checkRow(row, 300, 9) {
		t.Error("row does not check against its own stamp")
	}
	if checkRow(row, 300, 8) || checkRow(row, 301, 9) {
		t.Error("row checks against another visit count or id")
	}
	row[40] ^= 1
	if checkRow(row, 300, 9) {
		t.Error("a flipped filler bit went unnoticed")
	}
}
