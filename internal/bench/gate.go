package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// This file is the benchmark regression gate: it compares a freshly
// measured report against the committed baseline (BENCH_engine.txt or
// BENCH_progressive.json) and turns "the numbers moved" into a pass/fail
// decision CI can act on.
//
// The thresholds are variance-aware, not exact-match. The engine suite is
// internal/engine's BenchmarkE1* run several times with `go test -bench`,
// and each benchmark is judged by its median over the runs. Wall-clock
// numbers on shared CI hardware still jitter by tens of percent, so
// per-benchmark time ratios get a generous limit, while allocation counts —
// which are near-deterministic — get a tight one. The progressive suite measures
// dozens of per-query latencies whose individual jitter is worse still;
// those are judged by the median of per-entry ratios, which one noisy
// query cannot move. An engine metric whose baseline sits below an absolute
// floor is compared against the floor instead: a 3µs benchmark doubling is
// scheduler noise, not a regression; the same benchmark reaching
// milliseconds is. Progressive entries below MsFloor are skipped.

// GateConfig holds the regression thresholds. A candidate/baseline ratio
// above a Max*Ratio limit is a violation; an engine baseline below the
// matching floor counts as the floor.
type GateConfig struct {
	MaxNsRatio     float64 // per-benchmark ns/op ratio limit
	MaxAllocsRatio float64 // per-benchmark allocs/op ratio limit (allocs are near-deterministic)
	MaxBytesRatio  float64 // per-benchmark bytes/op ratio limit
	MaxMedianRatio float64 // progressive median-of-latency-ratios limit

	NsFloor     float64 // ns/op baselines faster than this count as this
	AllocsFloor float64 // allocs/op baselines below this many allocations count as this
	BytesFloor  float64 // bytes/op baselines below this many bytes count as this
	MsFloor     float64 // skip per-entry latency ratios when the baseline is below this many ms
}

// DefaultGateConfig returns the thresholds `make bench-gate` runs with.
func DefaultGateConfig() GateConfig {
	return GateConfig{
		MaxNsRatio:     1.5,
		MaxAllocsRatio: 1.15,
		MaxBytesRatio:  1.5,
		MaxMedianRatio: 1.4,
		NsFloor:        100_000, // 100µs
		AllocsFloor:    64,
		BytesFloor:     1 << 16,
		MsFloor:        1.0,
	}
}

// ErrProcsMismatch refuses an engine comparison: the two reports were
// measured at different GOMAXPROCS.
var ErrProcsMismatch = errors.New("reports were measured at different GOMAXPROCS")

// EngineResult is one benchmark of an engine report: the median of each
// metric over the runs of it in the output.
type EngineResult struct {
	Name        string // without the Benchmark prefix and the -N suffix
	NsPerOp     float64
	AllocsPerOp float64
	BytesPerOp  float64
}

// EngineReport is the parsed output of one or more `go test -bench
// -benchmem` runs.
type EngineReport struct {
	// GoMaxProcs is read from the -N suffix go test gives each benchmark
	// name; it leaves the suffix off at GOMAXPROCS=1.
	GoMaxProcs int
	Benchmarks []EngineResult // in order of first appearance
}

// parseBenchOutput reads `go test -bench -benchmem` output and reduces each
// benchmark to its median per metric. Lines that are not benchmark results
// (the goos/pkg/cpu header, PASS, ok) are skipped. A result without B/op or
// allocs/op (a run without -benchmem), names with two different -N suffixes
// and an output with no results at all are errors: each would let a
// regression through unjudged.
func parseBenchOutput(r io.Reader) (*EngineReport, error) {
	type samples struct{ ns, allocs, bytes []float64 }
	byName := map[string]*samples{}
	var order []string
	procs := 0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name, p := strings.TrimPrefix(f[0], "Benchmark"), 1
		if i := strings.LastIndexByte(name, '-'); i >= 0 {
			if n, err := strconv.Atoi(name[i+1:]); err == nil && n > 0 {
				name, p = name[:i], n
			}
		}
		if procs != 0 && p != procs {
			return nil, fmt.Errorf("%s was measured at GOMAXPROCS=%d, earlier results at %d", f[0], p, procs)
		}
		procs = p
		units := map[string]float64{}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad value %q", f[0], f[i])
			}
			units[f[i+1]] = v
		}
		ns, okNs := units["ns/op"]
		bytes, okBytes := units["B/op"]
		allocs, okAllocs := units["allocs/op"]
		if !okNs || !okBytes || !okAllocs {
			return nil, fmt.Errorf("%s lacks ns/op, B/op or allocs/op (run go test with -benchmem)", f[0])
		}
		s := byName[name]
		if s == nil {
			s = &samples{}
			byName[name] = s
			order = append(order, name)
		}
		s.ns, s.bytes, s.allocs = append(s.ns, ns), append(s.bytes, bytes), append(s.allocs, allocs)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(order) == 0 {
		return nil, errors.New("no benchmark results")
	}
	rep := &EngineReport{GoMaxProcs: procs}
	for _, name := range order {
		s := byName[name]
		rep.Benchmarks = append(rep.Benchmarks, EngineResult{
			Name:    name,
			NsPerOp: median(s.ns), AllocsPerOp: median(s.allocs), BytesPerOp: median(s.bytes),
		})
	}
	return rep, nil
}

// Violation is one metric that moved past its threshold (or disappeared
// from the candidate run, which hides regressions and fails too).
type Violation struct {
	Metric string
	Base   float64
	Cand   float64
	Ratio  float64
	Limit  float64
}

func (v Violation) String() string {
	if math.IsInf(v.Ratio, 1) {
		return fmt.Sprintf("%s: present in baseline (%.6g) but missing from candidate run", v.Metric, v.Base)
	}
	return fmt.Sprintf("%s: %.6g -> %.6g (%.2fx, limit %.2fx)", v.Metric, v.Base, v.Cand, v.Ratio, v.Limit)
}

// ratioViolation compares one metric pair against its limit. A baseline
// below the floor is judged as if it sat at the floor: a 3µs benchmark
// doubling is noise, the same benchmark growing past the floor itself (a
// bounded probe turning back into a table scan) is not.
func ratioViolation(metric string, base, cand, floor, limit float64, out []Violation) []Violation {
	ref := max(base, floor)
	if ref == 0 {
		return out
	}
	if r := cand / ref; r > limit {
		out = append(out, Violation{Metric: metric, Base: base, Cand: cand, Ratio: r, Limit: limit})
	}
	return out
}

func missingViolation(metric string, base float64, out []Violation) []Violation {
	return append(out, Violation{Metric: metric, Base: base, Ratio: math.Inf(1)})
}

// GateEngine compares the engine microbenchmark suite benchmark-by-
// benchmark: each is a median over several runs on a fixed dataset, so
// per-benchmark ratios are trustworthy enough to judge individually.
func GateEngine(base, cand *EngineReport, cfg GateConfig) []Violation {
	byName := make(map[string]EngineResult, len(cand.Benchmarks))
	for _, b := range cand.Benchmarks {
		byName[b.Name] = b
	}
	var out []Violation
	for _, b := range base.Benchmarks {
		c, ok := byName[b.Name]
		if !ok {
			out = missingViolation(b.Name, b.NsPerOp, out)
			continue
		}
		out = ratioViolation(b.Name+" ns_per_op", b.NsPerOp, c.NsPerOp, cfg.NsFloor, cfg.MaxNsRatio, out)
		out = ratioViolation(b.Name+" allocs_per_op", b.AllocsPerOp, c.AllocsPerOp, cfg.AllocsFloor, cfg.MaxAllocsRatio, out)
		out = ratioViolation(b.Name+" bytes_per_op", b.BytesPerOp, c.BytesPerOp, cfg.BytesFloor, cfg.MaxBytesRatio, out)
	}
	return out
}

// GateProgressive compares the progressive suite's end-to-end latencies,
// keyed by (dataset, query, target). Individual results are single
// measurements and far too noisy to gate on alone, so they are judged by
// the median of per-result ratios — a robust location estimate one outlier
// cannot drag past the limit.
func GateProgressive(base, cand *ProgressiveReport, cfg GateConfig) []Violation {
	key := func(r ProgressiveResult) string {
		return fmt.Sprintf("%s/%s@%g", r.Dataset, r.Query, r.Target)
	}
	byKey := make(map[string]ProgressiveResult, len(cand.Results))
	for _, r := range cand.Results {
		byKey[key(r)] = r
	}
	var out []Violation
	var ratios []float64
	for _, b := range base.Results {
		c, ok := byKey[key(b)]
		if !ok {
			out = missingViolation("result "+key(b), b.ElapsedMs, out)
			continue
		}
		if b.ElapsedMs >= cfg.MsFloor && b.ElapsedMs > 0 {
			ratios = append(ratios, c.ElapsedMs/b.ElapsedMs)
		}
	}
	return medianViolation("results elapsed_ms median ratio", ratios, cfg.MaxMedianRatio, out)
}

// medianViolation appends a violation when the median of ratios exceeds
// the limit. An empty ratio set (everything under the floor) passes.
func medianViolation(metric string, ratios []float64, limit float64, out []Violation) []Violation {
	if len(ratios) == 0 {
		return out
	}
	m := median(ratios)
	if m > limit {
		out = append(out, Violation{Metric: metric, Base: 1, Cand: m, Ratio: m, Limit: limit})
	}
	return out
}

// median returns the middle value (mean of the middle two for even n).
// It sorts a copy; the caller's slice is untouched.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// LoadGateReport reads one report into the matching type: kind "engine" is
// `go test -bench` output (BENCH_engine.txt), "progressive" is
// BENCH_progressive.json.
func LoadGateReport(kind, path string) (any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep any
	switch kind {
	case "engine":
		rep, err = parseBenchOutput(bytes.NewReader(data))
	case "progressive":
		rep = &ProgressiveReport{}
		err = json.Unmarshal(data, rep)
	default:
		return nil, fmt.Errorf("benchgate: unknown report kind %q", kind)
	}
	if err != nil {
		return nil, fmt.Errorf("benchgate: parsing %s: %w", path, err)
	}
	return rep, nil
}

// Gate dispatches to the kind-specific comparison. base and cand must both
// come from LoadGateReport with the same kind.
func Gate(kind string, base, cand any, cfg GateConfig) ([]Violation, error) {
	switch kind {
	case "engine":
		b, c := base.(*EngineReport), cand.(*EngineReport)
		// Allocations (one set of buffers per morsel worker) and wall time
		// both depend on the worker count: reports measured at different
		// GOMAXPROCS are not comparable, so refuse rather than misjudge.
		if b.GoMaxProcs != c.GoMaxProcs {
			return nil, fmt.Errorf("%w: baseline %d, candidate %d; re-measure the candidate with GOMAXPROCS=%d",
				ErrProcsMismatch, b.GoMaxProcs, c.GoMaxProcs, b.GoMaxProcs)
		}
		return GateEngine(b, c, cfg), nil
	case "progressive":
		return GateProgressive(base.(*ProgressiveReport), cand.(*ProgressiveReport), cfg), nil
	}
	return nil, fmt.Errorf("benchgate: unknown report kind %q", kind)
}
