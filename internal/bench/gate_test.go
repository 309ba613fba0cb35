package bench

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func engineReport(scale float64) *EngineBenchReport {
	return &EngineBenchReport{
		Benchmarks: []EngineBenchResult{
			{Name: "E1GroupedAgg", NsPerOp: 16e6 * scale, AllocsPerOp: 2400, BytesPerOp: 110_000},
			{Name: "E1FilterAgg", NsPerOp: 6e6 * scale, AllocsPerOp: 190, BytesPerOp: 46_000},
			{Name: "E1HashJoin", NsPerOp: 36e6 * scale, AllocsPerOp: 10_600, BytesPerOp: 18e6},
		},
	}
}

func TestGateEngineIdenticalPasses(t *testing.T) {
	base := engineReport(1)
	if v := GateEngine(base, engineReport(1), DefaultGateConfig()); len(v) != 0 {
		t.Fatalf("identical reports should pass, got %v", v)
	}
}

// TestGateEngineCatchesDoubledNs is the gate's reason to exist: a synthetic
// 2x ns/op regression on every benchmark must fail.
func TestGateEngineCatchesDoubledNs(t *testing.T) {
	base := engineReport(1)
	cand := engineReport(2)
	v := GateEngine(base, cand, DefaultGateConfig())
	if len(v) != len(base.Benchmarks) {
		t.Fatalf("want %d ns violations, got %d: %v", len(base.Benchmarks), len(v), v)
	}
	for _, viol := range v {
		if !strings.Contains(viol.Metric, "ns_per_op") {
			t.Errorf("unexpected metric in %v", viol)
		}
		if viol.Ratio < 1.9 || viol.Ratio > 2.1 {
			t.Errorf("ratio should be ~2.0: %v", viol)
		}
	}
}

func TestGateEngineCatchesAllocRegression(t *testing.T) {
	base := engineReport(1)
	cand := engineReport(1)
	cand.Benchmarks[0].AllocsPerOp *= 1.3 // past the tight 1.15x allocation limit
	v := GateEngine(base, cand, DefaultGateConfig())
	if len(v) != 1 || !strings.Contains(v[0].Metric, "allocs_per_op") {
		t.Fatalf("want one allocs violation, got %v", v)
	}
}

// TestGateEngineFloorSkipsNoise: a microsecond-scale benchmark doubling is
// scheduler noise, not a regression — the absolute floor skips it.
func TestGateEngineFloorSkipsNoise(t *testing.T) {
	base := &EngineBenchReport{Benchmarks: []EngineBenchResult{
		{Name: "Tiny", NsPerOp: 3_000, AllocsPerOp: 4, BytesPerOp: 256},
	}}
	cand := &EngineBenchReport{Benchmarks: []EngineBenchResult{
		{Name: "Tiny", NsPerOp: 30_000, AllocsPerOp: 40, BytesPerOp: 2560},
	}}
	if v := GateEngine(base, cand, DefaultGateConfig()); len(v) != 0 {
		t.Fatalf("sub-floor metrics should be skipped, got %v", v)
	}
}

// TestGateEngineFloorStillCatchesBlowUp: a sub-floor baseline (the bounded
// LIMIT 0 probe) is judged against the floor, so it cannot silently turn
// back into a table scan.
func TestGateEngineFloorStillCatchesBlowUp(t *testing.T) {
	base := &EngineBenchReport{Benchmarks: []EngineBenchResult{
		{Name: "E1LimitProbe", NsPerOp: 3_000, AllocsPerOp: 20, BytesPerOp: 2048},
	}}
	cand := &EngineBenchReport{Benchmarks: []EngineBenchResult{
		{Name: "E1LimitProbe", NsPerOp: 13e6, AllocsPerOp: 1650, BytesPerOp: 23e6},
	}}
	if v := GateEngine(base, cand, DefaultGateConfig()); len(v) != 3 {
		t.Fatalf("want ns, allocs and bytes violations, got %v", v)
	}
}

// TestGateEngineMissingBenchmarkFails: dropping a benchmark from the run
// hides regressions, so lost coverage is itself a failure.
func TestGateEngineMissingBenchmarkFails(t *testing.T) {
	base := engineReport(1)
	cand := engineReport(1)
	cand.Benchmarks = cand.Benchmarks[1:]
	v := GateEngine(base, cand, DefaultGateConfig())
	if len(v) != 1 || !math.IsInf(v[0].Ratio, 1) {
		t.Fatalf("want one missing-benchmark violation, got %v", v)
	}
	if !strings.Contains(v[0].String(), "missing from candidate") {
		t.Fatalf("violation should explain the missing run: %s", v[0])
	}
}

func progressiveReport(scale float64) *ProgressiveReport {
	var rs []ProgressiveResult
	for _, q := range []string{"tq-1", "tq-6", "iq-1"} {
		for _, tgt := range []float64{0.01, 0.05} {
			rs = append(rs, ProgressiveResult{Dataset: "tpch", Query: q, Target: tgt, ElapsedMs: 12 * scale})
		}
	}
	return &ProgressiveReport{Results: rs}
}

func TestGateProgressive(t *testing.T) {
	base := progressiveReport(1)
	if v := GateProgressive(base, progressiveReport(1.1), DefaultGateConfig()); len(v) != 0 {
		t.Fatalf("10%% drift should pass, got %v", v)
	}
	v := GateProgressive(base, progressiveReport(2), DefaultGateConfig())
	if len(v) != 1 || !strings.Contains(v[0].Metric, "elapsed_ms") {
		t.Fatalf("want one elapsed-median violation, got %v", v)
	}
}

// TestGateLoadsCommittedBaselines: the checked-in BENCH_*.json files must
// stay parseable by the gate, and each must pass when compared to itself.
// One result tripling while the rest hold steady is per-query jitter; the
// median-of-ratios must absorb it.
func TestGateProgressiveMedianRobustToOutlier(t *testing.T) {
	base := progressiveReport(1)
	cand := progressiveReport(1)
	cand.Results[0].ElapsedMs *= 3
	if v := GateProgressive(base, cand, DefaultGateConfig()); len(v) != 0 {
		t.Fatalf("single outlier result should pass the median gate, got %v", v)
	}
}

func TestGateProgressiveMissingResultFails(t *testing.T) {
	base := progressiveReport(1)
	cand := progressiveReport(1)
	cand.Results = cand.Results[:len(cand.Results)-1]
	v := GateProgressive(base, cand, DefaultGateConfig())
	if len(v) != 1 || !math.IsInf(v[0].Ratio, 1) {
		t.Fatalf("want one missing-result violation, got %v", v)
	}
}

// TestGateRejectsMismatchedProcs: allocations scale with the worker count, so
// a candidate measured at another GOMAXPROCS is refused, not judged.
func TestGateRejectsMismatchedProcs(t *testing.T) {
	base, cand := engineReport(1), engineReport(1)
	base.GoMaxProcs, cand.GoMaxProcs = 1, 2
	v, err := Gate("engine", base, cand, DefaultGateConfig())
	if !errors.Is(err, ErrProcsMismatch) {
		t.Fatalf("want ErrProcsMismatch, got %v, %v", v, err)
	}
	cand.GoMaxProcs = 1
	if v, err := Gate("engine", base, cand, DefaultGateConfig()); err != nil || len(v) != 0 {
		t.Fatalf("matching reports should be gated and pass, got %v, %v", v, err)
	}
}

func TestGateLoadsCommittedBaselines(t *testing.T) {
	for kind, file := range map[string]string{
		"engine":      "BENCH_engine.json",
		"progressive": "BENCH_progressive.json",
	} {
		path := filepath.Join("..", "..", file)
		rep, err := LoadGateReport(kind, path)
		if err != nil {
			t.Fatalf("loading %s: %v", path, err)
		}
		v, err := Gate(kind, rep, rep, DefaultGateConfig())
		if err != nil {
			t.Fatalf("gating %s: %v", kind, err)
		}
		if len(v) != 0 {
			t.Fatalf("%s vs itself should pass, got %v", file, v)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 2, 3}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
}
