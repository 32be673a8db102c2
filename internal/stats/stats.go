// Package stats provides the statistical machinery for the paper's security
// analysis (§VI) and workload characterisation: histograms and chi-square
// goodness-of-fit and two-sample tests. The §VI claim under test is that
// path accesses are uniform over leaves and that two different request
// streams generate indistinguishable access patterns.
package stats

import (
	"fmt"
	"math"
)

// Histogram counts occurrences over a fixed number of integer-keyed bins.
type Histogram struct {
	counts []uint64
	total  uint64
}

// NewHistogram creates a histogram with n bins.
func NewHistogram(n int) *Histogram {
	return &Histogram{counts: make([]uint64, n)}
}

// Add increments bin i.
func (h *Histogram) Add(i uint64) {
	h.counts[i]++
	h.total++
}

// Bins returns the number of bins.
func (h *Histogram) Bins() int { return len(h.counts) }

// Count returns the count of bin i.
func (h *Histogram) Count(i int) uint64 { return h.counts[i] }

// Total returns the total number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Counts returns the underlying counts slice (not a copy).
func (h *Histogram) Counts() []uint64 { return h.counts }

// Max returns the largest bin count.
func (h *Histogram) Max() uint64 {
	var m uint64
	for _, c := range h.counts {
		if c > m {
			m = c
		}
	}
	return m
}

// ChiSquareUniform computes the chi-square statistic of the histogram
// against the uniform distribution over its bins, returning the statistic,
// the degrees of freedom and the p-value (probability of a statistic at
// least this large under uniformity). Bins are pooled to keep expected
// counts >= 5, the usual validity rule.
func ChiSquareUniform(h *Histogram) (stat float64, df int, p float64, err error) {
	if h.total == 0 {
		return 0, 0, 1, fmt.Errorf("stats: empty histogram")
	}
	k := len(h.counts)
	if k < 2 {
		return 0, 0, 1, fmt.Errorf("stats: need >= 2 bins, have %d", k)
	}
	expected := float64(h.total) / float64(k)
	if expected < 5 {
		// Pool adjacent bins until expectation is adequate.
		factor := int(math.Ceil(5 / expected))
		if factor < 1 {
			factor = 1
		}
		pooled := poolBins(h.counts, factor)
		if len(pooled) < 2 {
			return 0, 0, 1, fmt.Errorf("stats: too few observations (%d) for %d bins", h.total, k)
		}
		return chiSquareAgainstUniform(pooled, h.total)
	}
	return chiSquareAgainstUniform(h.counts, h.total)
}

func poolBins(counts []uint64, factor int) []uint64 {
	out := make([]uint64, 0, (len(counts)+factor-1)/factor)
	for i := 0; i < len(counts); i += factor {
		var s uint64
		for j := i; j < i+factor && j < len(counts); j++ {
			s += counts[j]
		}
		out = append(out, s)
	}
	// Drop a ragged final bin so all expectations are equal.
	if len(counts)%factor != 0 && len(out) > 2 {
		out = out[:len(out)-1]
	}
	return out
}

func chiSquareAgainstUniform(counts []uint64, total uint64) (float64, int, float64, error) {
	k := len(counts)
	var obsTotal uint64
	for _, c := range counts {
		obsTotal += c
	}
	expected := float64(obsTotal) / float64(k)
	var stat float64
	for _, c := range counts {
		d := float64(c) - expected
		stat += d * d / expected
	}
	df := k - 1
	return stat, df, ChiSquareSurvival(stat, df), nil
}

// ChiSquareTwoSample tests whether two histograms over the same bins are
// drawn from the same distribution (the §VI indistinguishability check for
// two access streams). Bins where both are zero are skipped; bins are
// pooled for small expectations.
func ChiSquareTwoSample(a, b *Histogram) (stat float64, df int, p float64, err error) {
	if a.Bins() != b.Bins() {
		return 0, 0, 1, fmt.Errorf("stats: bin mismatch %d vs %d", a.Bins(), b.Bins())
	}
	if a.total == 0 || b.total == 0 {
		return 0, 0, 1, fmt.Errorf("stats: empty histogram")
	}
	// Pool to keep per-bin totals reasonable.
	k := a.Bins()
	perBin := float64(a.total+b.total) / float64(k)
	factor := 1
	if perBin < 10 {
		factor = int(math.Ceil(10 / perBin))
	}
	ca := poolBins(a.counts, factor)
	cb := poolBins(b.counts, factor)
	if len(cb) < len(ca) {
		ca = ca[:len(cb)]
	} else if len(ca) < len(cb) {
		cb = cb[:len(ca)]
	}
	na, nb := 0.0, 0.0
	for i := range ca {
		na += float64(ca[i])
		nb += float64(cb[i])
	}
	if na == 0 || nb == 0 {
		return 0, 0, 1, fmt.Errorf("stats: empty pooled histogram")
	}
	kk := 0
	for i := range ca {
		tot := float64(ca[i]) + float64(cb[i])
		if tot == 0 {
			continue
		}
		kk++
		ea := tot * na / (na + nb)
		eb := tot * nb / (na + nb)
		da := float64(ca[i]) - ea
		db := float64(cb[i]) - eb
		stat += da*da/ea + db*db/eb
	}
	if kk < 2 {
		return 0, 0, 1, fmt.Errorf("stats: too few non-empty bins")
	}
	df = kk - 1
	return stat, df, ChiSquareSurvival(stat, df), nil
}

// ChiSquareSurvival returns P(X >= stat) for X ~ chi-square with df degrees
// of freedom, via the Wilson–Hilferty normal approximation (accurate to a
// few 1e-3 for df >= 3, ample for pass/fail hypothesis checks at the
// α = 0.001 the tests use).
func ChiSquareSurvival(stat float64, df int) float64 {
	if df <= 0 {
		return 1
	}
	if stat <= 0 {
		return 1
	}
	d := float64(df)
	z := (math.Cbrt(stat/d) - (1 - 2/(9*d))) / math.Sqrt(2/(9*d))
	return NormalSurvival(z)
}

// NormalSurvival returns P(Z >= z) for the standard normal.
func NormalSurvival(z float64) float64 {
	return 0.5 * math.Erfc(z/math.Sqrt2)
}
