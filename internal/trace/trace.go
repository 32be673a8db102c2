// Package trace generates the four embedding-table access workloads of the
// paper's evaluation (§VII-B) plus generic helpers:
//
//   - Permutation: every address in 0..N-1 exactly once per epoch, in random
//     order — the paper's worst case for stash pressure (no duplicates, as
//     proven worst-case in the PathORAM paper).
//   - Gaussian: addresses sampled from a (wrapped, clamped) Gaussian.
//   - KaggleLike: the DLRM/Criteo-Kaggle shape of Fig. 2 — "most accesses
//     are random, and only a narrow black band at the bottom of the figure
//     illustrates that a few indices are accessed repeatedly".
//   - XNLILike: XLM-R token streams over a 262,144-entry vocabulary; token
//     frequencies are Zipf-distributed as in natural language.
//
// The raw Criteo and XNLI datasets cannot be redistributed here; these
// generators reproduce their published access-pattern characteristics (see
// DESIGN.md "Substitutions"). All generators are deterministic given a seed.
package trace

import (
	"fmt"
	"math/rand"
)

// NewRNG returns the deterministic random source all experiments share.
func NewRNG(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Kind names a workload generator.
type Kind string

// Workload kinds, matching the paper's dataset names.
const (
	KindPermutation Kind = "permutation"
	KindGaussian    Kind = "gaussian"
	KindKaggle      Kind = "kaggle"
	KindXNLI        Kind = "xnli"
	KindUniform     Kind = "uniform"
	KindSequential  Kind = "sequential"
)

// Kinds lists the supported workloads.
func Kinds() []Kind {
	return []Kind{KindPermutation, KindGaussian, KindKaggle, KindXNLI, KindUniform, KindSequential}
}

// Config describes a workload to generate.
type Config struct {
	// Kind selects the generator.
	Kind Kind
	// N is the table size (addresses are in [0, N)).
	N uint64
	// Count is the number of accesses to generate.
	Count int
	// Seed drives the deterministic generator.
	Seed int64

	// SigmaFrac is the Gaussian σ as a fraction of N (default 1/8).
	SigmaFrac float64

	// HotFrac is the fraction of the table forming the Kaggle-like hot
	// band (default 0.005 — the thin band of Fig. 2).
	HotFrac float64
	// HotRate is the probability an access lands in the hot band
	// (default 0.2; the band is thin but dark in Fig. 2).
	HotRate float64

	// ZipfS is the Zipf exponent for XNLI-like token streams
	// (default 1.1, a standard natural-language fit).
	ZipfS float64
}

func (c Config) withDefaults() Config {
	if c.SigmaFrac == 0 {
		c.SigmaFrac = 1.0 / 8
	}
	if c.HotFrac == 0 {
		c.HotFrac = 0.005
	}
	if c.HotRate == 0 {
		c.HotRate = 0.2
	}
	if c.ZipfS == 0 {
		c.ZipfS = 1.1
	}
	return c
}

// Generate produces the access stream for cfg.
func Generate(cfg Config) ([]uint64, error) {
	cfg = cfg.withDefaults()
	if cfg.N == 0 {
		return nil, fmt.Errorf("trace: N must be > 0")
	}
	if cfg.Count < 0 {
		return nil, fmt.Errorf("trace: Count must be >= 0")
	}
	rng := NewRNG(cfg.Seed)
	switch cfg.Kind {
	case KindPermutation:
		return PermutationEpochs(rng, cfg.N, cfg.Count), nil
	case KindGaussian:
		return Gaussian(rng, cfg.N, cfg.Count, cfg.SigmaFrac), nil
	case KindKaggle:
		return KaggleLike(rng, cfg.N, cfg.Count, cfg.HotFrac, cfg.HotRate), nil
	case KindXNLI:
		return XNLILike(rng, cfg.N, cfg.Count, cfg.ZipfS), nil
	case KindUniform:
		return Uniform(rng, cfg.N, cfg.Count), nil
	case KindSequential:
		return Sequential(cfg.N, cfg.Count), nil
	default:
		return nil, fmt.Errorf("trace: unknown kind %q", cfg.Kind)
	}
}

// Permutation returns one random permutation of 0..n-1: "randomly generates
// an address in the range 0−N where none of the addresses are repeated
// until all the addresses are accessed at least once" (§VII-B).
func Permutation(rng *rand.Rand, n uint64) []uint64 {
	out := make([]uint64, n)
	for i := uint64(0); i < n; i++ {
		out[i] = i
	}
	rng.Shuffle(int(n), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// PermutationEpochs returns count accesses drawn from back-to-back
// independent permutations of 0..n-1, so reuse distance is between 1 and
// 2n-1 accesses — the steady-state form of the permutation workload that
// LAORAM's look-ahead window must span.
func PermutationEpochs(rng *rand.Rand, n uint64, count int) []uint64 {
	out := make([]uint64, 0, count)
	for len(out) < count {
		p := Permutation(rng, n)
		need := count - len(out)
		if need >= len(p) {
			out = append(out, p...)
		} else {
			out = append(out, p[:need]...)
		}
	}
	return out
}

// Gaussian samples count addresses from N(n/2, (sigmaFrac*n)^2), clamped
// into [0, n).
func Gaussian(rng *rand.Rand, n uint64, count int, sigmaFrac float64) []uint64 {
	out := make([]uint64, count)
	mean := float64(n) / 2
	sigma := sigmaFrac * float64(n)
	for i := range out {
		v := rng.NormFloat64()*sigma + mean
		if v < 0 {
			v = 0
		}
		if v >= float64(n) {
			v = float64(n) - 1
		}
		out[i] = uint64(v)
	}
	return out
}

// KaggleLike reproduces Fig. 2's shape: with probability hotRate the access
// falls in the hot band (the lowest hotFrac·n indices, themselves
// Zipf-skewed so a handful of rows dominate, as categorical features do in
// Criteo data); otherwise the access is uniform over the whole table.
func KaggleLike(rng *rand.Rand, n uint64, count int, hotFrac, hotRate float64) []uint64 {
	hotN := uint64(float64(n) * hotFrac)
	if hotN < 1 {
		hotN = 1
	}
	var zipf *rand.Zipf
	if hotN > 1 {
		zipf = rand.NewZipf(rng, 1.2, 1, hotN-1)
	}
	out := make([]uint64, count)
	for i := range out {
		if rng.Float64() < hotRate {
			if zipf != nil {
				out[i] = zipf.Uint64()
			} else {
				out[i] = 0
			}
		} else {
			out[i] = uint64(rng.Int63n(int64(n)))
		}
	}
	return out
}

// XNLILike reproduces an NLP token stream: token IDs over an n-entry
// vocabulary with Zipf(s) frequencies. Rank r maps to table row r, matching
// frequency-sorted vocabularies used by sentencepiece-style tokenisers.
func XNLILike(rng *rand.Rand, n uint64, count int, s float64) []uint64 {
	zipf := rand.NewZipf(rng, s, 1, n-1)
	out := make([]uint64, count)
	for i := range out {
		out[i] = zipf.Uint64()
	}
	return out
}

// Uniform samples count addresses uniformly from [0, n).
func Uniform(rng *rand.Rand, n uint64, count int) []uint64 {
	out := make([]uint64, count)
	for i := range out {
		out[i] = uint64(rng.Int63n(int64(n)))
	}
	return out
}

// Sequential returns 0,1,2,...,count-1 mod n — the best case for PrORAM's
// spatial-locality superblocks (§II-D).
func Sequential(n uint64, count int) []uint64 {
	out := make([]uint64, count)
	for i := range out {
		out[i] = uint64(i) % n
	}
	return out
}

// UniqueCount returns the number of distinct addresses in the stream.
func UniqueCount(stream []uint64) int {
	seen := make(map[uint64]struct{}, len(stream))
	for _, a := range stream {
		seen[a] = struct{}{}
	}
	return len(seen)
}

// RepeatFraction returns the fraction of accesses that revisit an address
// already seen earlier in the stream — the "thin band" intensity of Fig. 2.
func RepeatFraction(stream []uint64) float64 {
	if len(stream) == 0 {
		return 0
	}
	seen := make(map[uint64]struct{}, len(stream))
	repeats := 0
	for _, a := range stream {
		if _, ok := seen[a]; ok {
			repeats++
		} else {
			seen[a] = struct{}{}
		}
	}
	return float64(repeats) / float64(len(stream))
}
