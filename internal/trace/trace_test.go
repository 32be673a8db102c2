package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/stats"
)

func TestPermutationIsPermutation(t *testing.T) {
	rng := NewRNG(1)
	const n = 1000
	p := Permutation(rng, n)
	if len(p) != n {
		t.Fatalf("len = %d", len(p))
	}
	seen := make([]bool, n)
	for _, v := range p {
		if v >= n {
			t.Fatalf("out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate %d", v)
		}
		seen[v] = true
	}
	// Determinism under the same seed; difference under another.
	p2 := Permutation(NewRNG(1), n)
	same := true
	for i := range p {
		if p[i] != p2[i] {
			same = false
			break
		}
	}
	if !same {
		t.Error("same seed gave different permutations")
	}
	p3 := Permutation(NewRNG(2), n)
	diff := false
	for i := range p {
		if p[i] != p3[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("different seeds gave identical permutations")
	}
}

func TestPermutationEpochs(t *testing.T) {
	rng := NewRNG(3)
	const n = 100
	s := PermutationEpochs(rng, n, 250)
	if len(s) != 250 {
		t.Fatalf("len = %d", len(s))
	}
	// First epoch (first n accesses) has no repeats.
	if f := RepeatFraction(s[:n]); f != 0 {
		t.Errorf("repeats within one epoch: %f", f)
	}
	// Each full epoch covers everything once.
	if u := UniqueCount(s[n : 2*n]); u != n {
		t.Errorf("second epoch unique = %d", u)
	}
}

func TestGaussianConcentration(t *testing.T) {
	rng := NewRNG(4)
	const n = 1 << 16
	s := Gaussian(rng, n, 20000, 1.0/8)
	inOneSigma := 0
	for _, v := range s {
		if v >= n {
			t.Fatalf("out of range: %d", v)
		}
		mean, sigma := float64(n)/2, float64(n)/8
		if float64(v) > mean-sigma && float64(v) < mean+sigma {
			inOneSigma++
		}
	}
	frac := float64(inOneSigma) / float64(len(s))
	if frac < 0.62 || frac > 0.74 { // ≈ 68% within ±1σ
		t.Errorf("±1σ mass = %.3f, want ≈ 0.68", frac)
	}
}

// TestKaggleLikeShape verifies the Fig. 2 characteristics: a thin hot band
// at low indices receiving a disproportionate share of accesses, with the
// rest close to uniform.
func TestKaggleLikeShape(t *testing.T) {
	rng := NewRNG(5)
	const n = 1 << 20
	const count = 50000
	s := KaggleLike(rng, n, count, 0.005, 0.2)
	var hotN uint64 = n * 5 / 1000
	hot := 0
	for _, v := range s {
		if v >= n {
			t.Fatalf("out of range: %d", v)
		}
		if v < hotN {
			hot++
		}
	}
	hotShare := float64(hot) / count
	// Hot band should get ≈ hotRate + hotFrac·(1-hotRate) ≈ 0.204.
	if hotShare < 0.15 || hotShare > 0.27 {
		t.Errorf("hot-band share = %.3f, want ≈ 0.20", hotShare)
	}
	// The repeat fraction must be substantial (the dark band) but the
	// stream must still be dominated by distinct random indices.
	rf := RepeatFraction(s)
	if rf < 0.1 || rf > 0.5 {
		t.Errorf("repeat fraction = %.3f, want within (0.1, 0.5)", rf)
	}
	// The cold region should be uniform: chi-square over accesses outside
	// the first 1/64th of the table (which contains the hot band and is
	// therefore partially excluded by the v >= hotN filter).
	h := stats.NewHistogram(63)
	for _, v := range s {
		if bin := v * 64 / n; bin >= 1 {
			h.Add(bin - 1)
		}
	}
	if _, _, p, err := stats.ChiSquareUniform(h); err != nil || p < 0.001 {
		t.Errorf("cold region not uniform: p=%v err=%v", p, err)
	}
}

func TestXNLILikeZipf(t *testing.T) {
	rng := NewRNG(6)
	const n = 1 << 18 // 262,144, the paper's XNLI vocabulary
	s := XNLILike(rng, n, 50000, 1.1)
	for _, v := range s {
		if v >= n {
			t.Fatalf("out of range: %d", v)
		}
	}
	// Zipf: top-100 ranks should dominate.
	top := 0
	for _, v := range s {
		if v < 100 {
			top++
		}
	}
	if share := float64(top) / float64(len(s)); share < 0.5 {
		t.Errorf("top-100 share = %.3f, want > 0.5 for Zipf(1.1)", share)
	}
	if rf := RepeatFraction(s); rf < 0.5 {
		t.Errorf("repeat fraction = %.3f, expected high for NLP tokens", rf)
	}
}

func TestUniformAndSequential(t *testing.T) {
	s := Uniform(NewRNG(7), 100, 1000)
	if len(s) != 1000 {
		t.Fatal("uniform length")
	}
	h := stats.NewHistogram(10)
	for _, v := range s {
		if v >= 100 {
			t.Fatalf("out of range: %d", v)
		}
		h.Add(v / 10)
	}
	if _, _, p, err := stats.ChiSquareUniform(h); err != nil || p < 0.001 {
		t.Errorf("uniform trace rejected: p=%v err=%v", p, err)
	}
	q := Sequential(10, 25)
	for i, v := range q {
		if v != uint64(i%10) {
			t.Fatalf("sequential[%d] = %d", i, v)
		}
	}
}

func TestGenerateDispatchAndErrors(t *testing.T) {
	for _, k := range Kinds() {
		s, err := Generate(Config{Kind: k, N: 256, Count: 100, Seed: 9})
		if err != nil {
			t.Errorf("%s: %v", k, err)
			continue
		}
		if len(s) != 100 {
			t.Errorf("%s: len = %d", k, len(s))
		}
	}
	if _, err := Generate(Config{Kind: "bogus", N: 10, Count: 1}); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := Generate(Config{Kind: KindUniform, N: 0, Count: 1}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Generate(Config{Kind: KindUniform, N: 10, Count: -1}); err == nil {
		t.Error("negative count accepted")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(Config{Kind: KindKaggle, N: 1 << 16, Count: 5000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Config{Kind: KindKaggle, N: 1 << 16, Count: 5000, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d", i)
		}
	}
}

func TestUniqueCountAndRepeatFraction(t *testing.T) {
	s := []uint64{1, 2, 1, 3, 2, 1}
	if UniqueCount(s) != 3 {
		t.Errorf("UniqueCount = %d", UniqueCount(s))
	}
	if rf := RepeatFraction(s); rf != 0.5 {
		t.Errorf("RepeatFraction = %f", rf)
	}
	if RepeatFraction(nil) != 0 {
		t.Error("empty repeat fraction")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []uint64{5, 10, 15, 0}); err != nil {
		t.Fatal(err)
	}
	if want := "access,index\n0,5\n1,10\n2,15\n3,0\n"; buf.String() != want {
		t.Errorf("csv = %q, want %q", buf.String(), want)
	}
}

func TestASCIIScatter(t *testing.T) {
	s := KaggleLike(NewRNG(8), 1<<16, 5000, 0.005, 0.3)
	art := ASCIIScatter(s, 1<<16, 40, 10)
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 10 {
		t.Fatalf("height = %d", len(lines))
	}
	for _, l := range lines {
		if len(l) != 40 {
			t.Fatalf("width = %d", len(l))
		}
	}
	// The bottom row (hot band) must be the densest.
	density := func(l string) int {
		d := 0
		for _, c := range l {
			if c != ' ' {
				d++
			}
		}
		return d
	}
	bottom := density(lines[len(lines)-1])
	for i := 0; i < len(lines)-1; i++ {
		if density(lines[i]) > bottom {
			t.Errorf("row %d denser than hot band", i)
		}
	}
	if ASCIIScatter(nil, 10, 5, 5) != "" {
		t.Error("empty stream should render empty")
	}
}
