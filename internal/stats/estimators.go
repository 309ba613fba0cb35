package stats

import (
	"math"
	"math/rand"
	"sort"
)

// VariationalInterval is an in-memory reference implementation of the
// paper's variational subsampling interval (Section 4.2, Theorem 2). No query
// runs it: the middleware estimates errors in SQL (internal/core). It stays
// as the reference the Theorem 2 tests check, and as the model for computing
// the paper's empirical-quantile interval inside the rewrite (ROADMAP 1(b)).

// Interval is a two-sided confidence interval around an estimate.
type Interval struct {
	Estimate float64
	Lo, Hi   float64
}

// Estimator names an aggregate estimated from a sample of a population of
// size N. For avg the estimator is the sample mean; for sum it is the sample
// mean scaled by N.
type Estimator int

// Supported estimators.
const (
	EstimateAvg Estimator = iota
	EstimateSum
)

func pointEstimate(kind Estimator, xs []float64, popN int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if kind == EstimateSum {
		return Mean(xs) * float64(popN)
	}
	return Mean(xs)
}

// VariationalInterval implements the paper's variational subsampling
// (Section 4.2, Theorem 2): a single O(n) pass assigns each tuple to at
// most one subsample; per-subsample estimates are then combined using the
// empirical distribution
//
//	L_n(x) = (1/b) Σ 1( sqrt(ns_i) (ĝ_i - ĝ_0) <= x )
//
// scaled back by sqrt(n) for the sample estimate's interval. Subsample
// sizes ns_i vary (binomial), which the per-term sqrt(ns_i) corrects.
func VariationalInterval(kind Estimator, xs []float64, popN int64, confidence float64, b, ns int, rng *rand.Rand) Interval {
	n := len(xs)
	if n == 0 || b <= 0 || ns <= 0 {
		return Interval{}
	}
	g0 := pointEstimate(kind, xs, popN)

	sums := make([]float64, b)
	counts := make([]int64, b)
	// Each tuple joins subsample i in [1,b] with probability ns/n each,
	// or no subsample with the remaining mass — one random draw per tuple.
	thresh := float64(b*ns) / float64(n)
	if thresh > 1 {
		thresh = 1
	}
	for _, x := range xs {
		u := rng.Float64()
		if u >= thresh {
			continue
		}
		sid := int(u / thresh * float64(b))
		if sid >= b {
			sid = b - 1
		}
		sums[sid] += x
		counts[sid]++
	}

	devs := make([]float64, 0, b)
	for i := 0; i < b; i++ {
		if counts[i] == 0 {
			continue
		}
		mean := sums[i] / float64(counts[i])
		var gi float64
		switch kind {
		case EstimateAvg:
			gi = mean
		case EstimateSum:
			gi = mean * float64(popN)
		}
		devs = append(devs, math.Sqrt(float64(counts[i]))*(gi-g0))
	}
	if len(devs) == 0 {
		return Interval{Estimate: g0}
	}
	sort.Float64s(devs)
	alpha := 1 - confidence
	scale := 1 / math.Sqrt(float64(n))
	tLo := Quantile(devs, alpha/2) * scale
	tHi := Quantile(devs, 1-alpha/2) * scale
	return Interval{Estimate: g0, Lo: g0 - tHi, Hi: g0 - tLo}
}
