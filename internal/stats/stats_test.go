package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestErfcInvRoundTrip(t *testing.T) {
	for _, y := range []float64{0.001, 0.01, 0.1, 0.5, 1.0, 1.5, 1.9, 1.99} {
		x := ErfcInv(y)
		if got := math.Erfc(x); math.Abs(got-y) > 1e-9 {
			t.Errorf("erfc(ErfcInv(%v)) = %v", y, got)
		}
	}
}

func TestErfcInvProperty(t *testing.T) {
	f := func(u float64) bool {
		y := math.Mod(math.Abs(u), 1.98) + 0.01 // (0.01, 1.99)
		x := ErfcInv(y)
		return math.Abs(math.Erfc(x)-y) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormQuantile(t *testing.T) {
	cases := []struct{ p, want float64 }{
		{0.5, 0},
		{0.975, 1.959964},
		{0.025, -1.959964},
		{0.995, 2.575829},
		{0.84134, 0.99998}, // ~Phi(1)
	}
	for _, c := range cases {
		if got := NormQuantile(c.p); math.Abs(got-c.want) > 1e-4 {
			t.Errorf("NormQuantile(%v) = %v want %v", c.p, got, c.want)
		}
	}
}

func TestNormQuantileCDFInverse(t *testing.T) {
	f := func(u float64) bool {
		p := math.Mod(math.Abs(u), 0.98) + 0.01
		return math.Abs(NormCDF(NormQuantile(p))-p) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZScore(t *testing.T) {
	if z := ZScore(0.95); math.Abs(z-1.959964) > 1e-4 {
		t.Errorf("z(0.95) = %v", z)
	}
	if z := ZScore(0.99); math.Abs(z-2.575829) > 1e-4 {
		t.Errorf("z(0.99) = %v", z)
	}
}

func TestMinSamplingProbGuarantee(t *testing.T) {
	// Empirically verify Lemma 1: Bernoulli sampling with f_m(n) yields at
	// least m tuples with probability >= 1-delta.
	rng := rand.New(rand.NewSource(1))
	const delta = 0.01
	for _, tc := range []struct{ m, n int64 }{{10, 100}, {100, 10000}, {50, 1000}} {
		p := MinSamplingProb(tc.m, tc.n, delta)
		if p <= 0 || p > 1 {
			t.Fatalf("f_%d(%d) = %v out of range", tc.m, tc.n, p)
		}
		failures := 0
		const trials = 2000
		for trial := 0; trial < trials; trial++ {
			var k int64
			for i := int64(0); i < tc.n; i++ {
				if rng.Float64() < p {
					k++
				}
			}
			if k < tc.m {
				failures++
			}
		}
		// Allow generous slack over delta for Monte Carlo noise.
		if rate := float64(failures) / trials; rate > 5*delta {
			t.Errorf("f_%d(%d)=%v violated guarantee: failure rate %v >> delta %v",
				tc.m, tc.n, p, rate, delta)
		}
	}
}

func TestMinSamplingProbMonotone(t *testing.T) {
	// f_m(n) decreases in n and increases in m.
	prev := 1.0
	for _, n := range []int64{100, 200, 500, 1000, 5000, 10000} {
		p := MinSamplingProb(50, n, 0.001)
		if p > prev+1e-12 {
			t.Errorf("f_50(%d)=%v not decreasing (prev %v)", n, p, prev)
		}
		prev = p
	}
	if MinSamplingProb(90, 100, 0.001) < MinSamplingProb(10, 100, 0.001) {
		t.Error("f_m not increasing in m")
	}
}

func TestMinSamplingProbEdges(t *testing.T) {
	if p := MinSamplingProb(0, 100, 0.001); p != 0 {
		t.Errorf("m=0: %v", p)
	}
	if p := MinSamplingProb(100, 100, 0.001); p != 1 {
		t.Errorf("m=n: %v", p)
	}
	if p := MinSamplingProb(200, 100, 0.001); p != 1 {
		t.Errorf("m>n: %v", p)
	}
}

func TestStaircaseCoversFm(t *testing.T) {
	steps := Staircase(100, 1_000_000, 0.001, 12)
	// The staircase probability must upper-bound f_m(n) for all n.
	for _, n := range []int64{150, 500, 2000, 10000, 123456, 999999} {
		sp := StaircaseProb(steps, n)
		fm := MinSamplingProb(100, n, 0.001)
		if sp < fm-1e-9 {
			t.Errorf("staircase(%d)=%v < f_m=%v", n, sp, fm)
		}
	}
	// Strata smaller than m are taken whole.
	if p := StaircaseProb(steps, 50); p != 1 {
		t.Errorf("small stratum prob %v", p)
	}
}

func TestStaircaseCaseSQL(t *testing.T) {
	steps := Staircase(10, 1000, 0.001, 4)
	sql := StaircaseCaseSQL(steps, "strata_size")
	if len(sql) == 0 || sql[:4] != "case" {
		t.Fatalf("sql: %s", sql)
	}
	for _, want := range []string{"when strata_size >=", "else 1 end"} {
		if !contains(sql, want) {
			t.Errorf("missing %q in %s", want, sql)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func gaussianSample(n int, mean, sd float64, rng *rand.Rand) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = mean + sd*rng.NormFloat64()
	}
	return xs
}

func TestQuantileHelper(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if q := Quantile(xs, 0.5); q != 3 {
		t.Errorf("median %v", q)
	}
	if q := Quantile(xs, 0); q != 1 {
		t.Errorf("q0 %v", q)
	}
	if q := Quantile(xs, 1); q != 5 {
		t.Errorf("q1 %v", q)
	}
	if q := Quantile(nil, 0.5); q != 0 {
		t.Errorf("empty %v", q)
	}
}

func TestVarianceWelfordMatchesDirect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := gaussianSample(100, 5, 3, rng)
		v := Variance(xs)
		// direct two-pass
		m := Mean(xs)
		var s float64
		for _, x := range xs {
			s += (x - m) * (x - m)
		}
		want := s / float64(len(xs)-1)
		return math.Abs(v-want) < 1e-9*math.Max(1, want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
