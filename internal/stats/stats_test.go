package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(4)
	if h.Bins() != 4 || h.Total() != 0 {
		t.Fatal("fresh histogram wrong")
	}
	h.Add(0)
	h.Add(0)
	h.Add(3)
	if h.Count(0) != 2 || h.Count(3) != 1 || h.Total() != 3 {
		t.Errorf("counts wrong: %v", h.Counts())
	}
	if h.Max() != 2 {
		t.Errorf("Max = %d", h.Max())
	}
}

func TestChiSquareUniformAcceptsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewHistogram(64)
	for i := 0; i < 64000; i++ {
		h.Add(uint64(rng.Intn(64)))
	}
	stat, df, p, err := ChiSquareUniform(h)
	if err != nil {
		t.Fatal(err)
	}
	if df != 63 {
		t.Errorf("df = %d, want 63", df)
	}
	if p < 0.001 {
		t.Errorf("uniform sample rejected: chi2=%.1f p=%g", stat, p)
	}
}

func TestChiSquareUniformRejectsSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	h := NewHistogram(64)
	for i := 0; i < 64000; i++ {
		// Heavy skew toward low bins.
		h.Add(uint64(rng.Intn(8)))
	}
	_, _, p, err := ChiSquareUniform(h)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 {
		t.Errorf("skewed sample accepted: p=%g", p)
	}
}

func TestChiSquareUniformPoolsSmallBins(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := NewHistogram(1024)
	for i := 0; i < 2048; i++ { // expectation 2 per bin → pooling needed
		h.Add(uint64(rng.Intn(1024)))
	}
	_, df, p, err := ChiSquareUniform(h)
	if err != nil {
		t.Fatal(err)
	}
	if df >= 1023 {
		t.Errorf("pooling did not reduce df: %d", df)
	}
	if p < 0.001 {
		t.Errorf("uniform sample rejected after pooling: p=%g", p)
	}
}

func TestChiSquareUniformErrors(t *testing.T) {
	if _, _, _, err := ChiSquareUniform(NewHistogram(4)); err == nil {
		t.Error("empty histogram accepted")
	}
	h := NewHistogram(1)
	h.Add(0)
	if _, _, _, err := ChiSquareUniform(h); err == nil {
		t.Error("single-bin histogram accepted")
	}
}

func TestChiSquareTwoSampleSame(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, b := NewHistogram(32), NewHistogram(32)
	for i := 0; i < 20000; i++ {
		a.Add(uint64(rng.Intn(32)))
		b.Add(uint64(rng.Intn(32)))
	}
	_, _, p, err := ChiSquareTwoSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.001 {
		t.Errorf("identical distributions distinguished: p=%g", p)
	}
}

func TestChiSquareTwoSampleDifferent(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b := NewHistogram(32), NewHistogram(32)
	for i := 0; i < 20000; i++ {
		a.Add(uint64(rng.Intn(32)))
		b.Add(uint64(rng.Intn(16))) // b concentrated in lower half
	}
	_, _, p, err := ChiSquareTwoSample(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p > 1e-6 {
		t.Errorf("different distributions not distinguished: p=%g", p)
	}
}

func TestChiSquareTwoSampleErrors(t *testing.T) {
	a, b := NewHistogram(4), NewHistogram(8)
	if _, _, _, err := ChiSquareTwoSample(a, b); err == nil {
		t.Error("bin mismatch accepted")
	}
	c, d := NewHistogram(4), NewHistogram(4)
	if _, _, _, err := ChiSquareTwoSample(c, d); err == nil {
		t.Error("empty histograms accepted")
	}
}

func TestChiSquareSurvivalKnownValues(t *testing.T) {
	// Known chi-square critical values: P(X >= x) for df, x.
	cases := []struct {
		stat float64
		df   int
		p    float64
		tol  float64
	}{
		{3.841, 1, 0.05, 0.02}, // Wilson–Hilferty is weakest at df=1
		{5.991, 2, 0.05, 0.01},
		{18.307, 10, 0.05, 0.005},
		{29.588, 10, 0.001, 0.001},
		{124.342, 100, 0.05, 0.005},
	}
	for _, c := range cases {
		got := ChiSquareSurvival(c.stat, c.df)
		if math.Abs(got-c.p) > c.tol {
			t.Errorf("ChiSquareSurvival(%.3f, %d) = %.4f, want %.4f±%.3f", c.stat, c.df, got, c.p, c.tol)
		}
	}
	if ChiSquareSurvival(0, 5) != 1 || ChiSquareSurvival(-1, 5) != 1 {
		t.Error("non-positive stat should give p=1")
	}
	if ChiSquareSurvival(5, 0) != 1 {
		t.Error("df=0 should give p=1")
	}
}

func TestNormalSurvival(t *testing.T) {
	cases := []struct{ z, p, tol float64 }{
		{0, 0.5, 1e-9},
		{1.6449, 0.05, 1e-4},
		{2.3263, 0.01, 1e-4},
		{-1.6449, 0.95, 1e-4},
	}
	for _, c := range cases {
		if got := NormalSurvival(c.z); math.Abs(got-c.p) > c.tol {
			t.Errorf("NormalSurvival(%v) = %v, want %v", c.z, got, c.p)
		}
	}
}
