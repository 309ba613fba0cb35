// Package stats implements the statistical machinery of VerdictDB: the
// inverse complementary error function and staircase sampling probability of
// Lemma 1, normal-distribution helpers for confidence intervals, and sample
// statistics (mean, variance, quantiles). The error-estimation methods
// themselves are SQL the middleware emits (internal/core); theorem2_test.go
// checks Theorem 2, the convergence variational subsampling rests on.
package stats

import "math"

// ErfcInv returns the inverse of the complementary error function:
// erfc(ErfcInv(y)) = y for y in (0, 2). It uses a Newton refinement of a
// rational initial guess and is accurate to ~1e-12 over the usable range.
func ErfcInv(y float64) float64 {
	if y <= 0 {
		return math.Inf(1)
	}
	if y >= 2 {
		return math.Inf(-1)
	}
	x := NormQuantile(1-y/2) / math.Sqrt2
	// Newton iterations on f(x) = erfc(x) - y; f'(x) = -2/sqrt(pi) e^{-x^2}.
	for i := 0; i < 4; i++ {
		f := math.Erfc(x) - y
		d := -2 / math.Sqrt(math.Pi) * math.Exp(-x*x)
		if d == 0 {
			break
		}
		x -= f / d
	}
	return x
}

// NormQuantile returns the p-quantile of the standard normal distribution
// using the Acklam rational approximation refined by one Halley step.
func NormQuantile(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	if p >= 1 {
		return math.Inf(1)
	}
	// Coefficients for the Acklam approximation.
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const pLow = 0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= 1-pLow:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement using the normal CDF.
	e := NormCDF(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	x = x - u/(1+x*u/2)
	return x
}

// NormCDF is the standard normal cumulative distribution function.
func NormCDF(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }

// ZScore returns the two-sided z multiplier for the given confidence level
// (e.g. 0.95 -> 1.959964...).
func ZScore(confidence float64) float64 {
	if confidence <= 0 {
		return 0
	}
	if confidence >= 1 {
		return math.Inf(1)
	}
	return NormQuantile(0.5 + confidence/2)
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the sample variance of xs (0 for fewer than 2 values).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var s float64
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// Stddev is the sample standard deviation.
func Stddev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantile returns the q-quantile (0..1) of xs by linear interpolation.
// xs must be sorted ascending.
func Quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return sorted[n-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}
