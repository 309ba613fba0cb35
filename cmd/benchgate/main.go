// Command benchgate compares a freshly measured benchmark report against
// the committed BENCH_*.json baseline and exits nonzero when a metric
// regressed past its variance-aware threshold. `make bench-gate` wires it
// up: re-measure the engine suite, then gate against the checked-in
// numbers.
//
//	benchgate -kind engine -base BENCH_engine.json -cand /tmp/engine.json
//
// Thresholds default to bench.DefaultGateConfig and can be loosened or
// tightened per run with the -max-* flags (0 keeps the default).
package main

import (
	"flag"
	"fmt"
	"os"

	"verdictdb/internal/bench"
)

func main() {
	var (
		kind      = flag.String("kind", "engine", "report kind: engine or progressive")
		basePath  = flag.String("base", "BENCH_engine.json", "committed baseline report")
		candPath  = flag.String("cand", "", "candidate report from a fresh run (required)")
		maxNs     = flag.Float64("max-ns", 0, "override ns/op ratio limit (0 = default)")
		maxAllocs = flag.Float64("max-allocs", 0, "override allocs/op ratio limit (0 = default)")
		maxBytes  = flag.Float64("max-bytes", 0, "override bytes/op ratio limit (0 = default)")
		maxMedian = flag.Float64("max-median", 0, "override median-of-latency-ratios limit (0 = default)")
	)
	flag.Parse()
	if *candPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -cand is required")
		flag.Usage()
		os.Exit(2)
	}

	cfg := bench.DefaultGateConfig()
	if *maxNs > 0 {
		cfg.MaxNsRatio = *maxNs
	}
	if *maxAllocs > 0 {
		cfg.MaxAllocsRatio = *maxAllocs
	}
	if *maxBytes > 0 {
		cfg.MaxBytesRatio = *maxBytes
	}
	if *maxMedian > 0 {
		cfg.MaxMedianRatio = *maxMedian
	}

	base, err := bench.LoadGateReport(*kind, *basePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	cand, err := bench.LoadGateReport(*kind, *candPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}

	violations, err := bench.Gate(*kind, base, cand, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %s: %d regression(s) vs %s:\n", *kind, len(violations), *basePath)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, "  ", v)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: %s: %s within thresholds of %s\n", *kind, *candPath, *basePath)
}
