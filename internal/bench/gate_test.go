package bench

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// benchRow is one benchmark's line of `go test -bench -benchmem` output.
type benchRow struct {
	name              string
	ns, bytes, allocs float64
}

// e1Rows is the three-benchmark suite the engine cases gate, ns/op scaled.
func e1Rows(scale float64) []benchRow {
	return []benchRow{
		{"E1GroupedAgg", 16e6 * scale, 110_000, 2400},
		{"E1FilterAgg", 6e6 * scale, 46_000, 190},
		{"E1HashJoin", 36e6 * scale, 18e6, 10_600},
	}
}

// benchOutput renders rows as three rounds of `go test -bench -benchmem`
// print them, as the engine suite runs: each round a header, every row (names
// carrying suffix, "" at GOMAXPROCS=1) and the trailer.
func benchOutput(rows []benchRow, suffix string) string {
	var b strings.Builder
	for round := 0; round < 3; round++ {
		b.WriteString("goos: linux\ngoarch: amd64\npkg: verdictdb/internal/engine\ncpu: test\n")
		for _, r := range rows {
			fmt.Fprintf(&b, "Benchmark%s%s \t      50\t %.0f ns/op\t %.0f B/op\t %.0f allocs/op\n",
				r.name, suffix, r.ns, r.bytes, r.allocs)
		}
		b.WriteString("PASS\nok  \tverdictdb/internal/engine\t14.0s\n")
	}
	return b.String()
}

func parseBench(t *testing.T, out string) *EngineReport {
	t.Helper()
	rep, err := parseBenchOutput(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func engineReport(t *testing.T, scale float64) *EngineReport {
	return parseBench(t, benchOutput(e1Rows(scale), ""))
}

// TestParseBenchOutputMedian: each benchmark is its median over the runs,
// so one slow run of three moves nothing; the Benchmark prefix goes, and no
// -N suffix means GOMAXPROCS=1.
func TestParseBenchOutputMedian(t *testing.T) {
	out := benchOutput(e1Rows(1), "")
	out = strings.Replace(out, " 16000000 ns/op\t 110000 B/op\t 2400 allocs/op",
		" 99000000 ns/op\t 990000 B/op\t 9900 allocs/op", 1)
	rep := parseBench(t, out)
	if rep.GoMaxProcs != 1 || len(rep.Benchmarks) != 3 {
		t.Fatalf("parsed %+v", rep)
	}
	want := EngineResult{Name: "E1GroupedAgg", NsPerOp: 16e6, AllocsPerOp: 2400, BytesPerOp: 110_000}
	if got := rep.Benchmarks[0]; got != want {
		t.Fatalf("got %+v, want %+v", got, want)
	}
	if rep := parseBench(t, benchOutput(e1Rows(1), "-2")); rep.GoMaxProcs != 2 || rep.Benchmarks[0].Name != "E1GroupedAgg" {
		t.Fatalf("-2 suffix parsed as %+v", rep)
	}
}

// TestParseBenchOutputRefuses: input the gate cannot judge in full is an
// error, not a pass.
func TestParseBenchOutputRefuses(t *testing.T) {
	mixed := benchOutput(e1Rows(1)[:1], "") + benchOutput(e1Rows(1)[1:], "-2")
	noMem := "BenchmarkE1GroupedAgg \t 50\t 16000000 ns/op\n"
	for name, out := range map[string]string{"mixed suffixes": mixed, "no -benchmem": noMem, "empty": "PASS\n"} {
		if rep, err := parseBenchOutput(strings.NewReader(out)); err == nil {
			t.Errorf("%s: parsed %+v, want an error", name, rep)
		}
	}
}

func TestGateEngineIdenticalPasses(t *testing.T) {
	base := engineReport(t, 1)
	if v := GateEngine(base, engineReport(t, 1), DefaultGateConfig()); len(v) != 0 {
		t.Fatalf("identical reports should pass, got %v", v)
	}
}

// TestGateEngineCatchesDoubledNs is the gate's reason to exist: a synthetic
// 2x ns/op regression on every benchmark must fail.
func TestGateEngineCatchesDoubledNs(t *testing.T) {
	base := engineReport(t, 1)
	cand := engineReport(t, 2)
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
	base := engineReport(t, 1)
	rows := e1Rows(1)
	rows[0].allocs *= 1.3 // past the tight 1.15x allocation limit
	v := GateEngine(base, parseBench(t, benchOutput(rows, "")), DefaultGateConfig())
	if len(v) != 1 || !strings.Contains(v[0].Metric, "allocs_per_op") {
		t.Fatalf("want one allocs violation, got %v", v)
	}
}

// TestGateEngineFloorSkipsNoise: a microsecond-scale benchmark doubling is
// scheduler noise, not a regression — the absolute floor skips it.
func TestGateEngineFloorSkipsNoise(t *testing.T) {
	base := parseBench(t, benchOutput([]benchRow{{"Tiny", 3_000, 256, 4}}, ""))
	cand := parseBench(t, benchOutput([]benchRow{{"Tiny", 30_000, 2560, 40}}, ""))
	if v := GateEngine(base, cand, DefaultGateConfig()); len(v) != 0 {
		t.Fatalf("sub-floor metrics should be skipped, got %v", v)
	}
}

// TestGateEngineFloorStillCatchesBlowUp: a sub-floor baseline (the bounded
// LIMIT 0 probe) is judged against the floor, so it cannot silently turn
// back into a table scan.
func TestGateEngineFloorStillCatchesBlowUp(t *testing.T) {
	base := parseBench(t, benchOutput([]benchRow{{"E1LimitProbe", 3_000, 2048, 20}}, ""))
	cand := parseBench(t, benchOutput([]benchRow{{"E1LimitProbe", 13e6, 23e6, 1650}}, ""))
	if v := GateEngine(base, cand, DefaultGateConfig()); len(v) != 3 {
		t.Fatalf("want ns, allocs and bytes violations, got %v", v)
	}
}

// TestGateEngineMissingBenchmarkFails: dropping a benchmark from the run
// hides regressions, so lost coverage is itself a failure.
func TestGateEngineMissingBenchmarkFails(t *testing.T) {
	base := engineReport(t, 1)
	cand := parseBench(t, benchOutput(e1Rows(1)[1:], ""))
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
// The baseline's names carry no suffix (GOMAXPROCS=1), the candidate's -2.
func TestGateRejectsMismatchedProcs(t *testing.T) {
	base := engineReport(t, 1)
	cand := parseBench(t, benchOutput(e1Rows(1), "-2"))
	v, err := Gate("engine", base, cand, DefaultGateConfig())
	if !errors.Is(err, ErrProcsMismatch) {
		t.Fatalf("want ErrProcsMismatch, got %v, %v", v, err)
	}
	if v, err := Gate("engine", base, engineReport(t, 1), DefaultGateConfig()); err != nil || len(v) != 0 {
		t.Fatalf("matching reports should be gated and pass, got %v, %v", v, err)
	}
}

// TestGateLoadsCommittedBaselines: the committed baselines must stay
// parseable by the gate, and each must pass when compared to itself.
func TestGateLoadsCommittedBaselines(t *testing.T) {
	for kind, file := range map[string]string{
		"engine":      "BENCH_engine.txt",
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
