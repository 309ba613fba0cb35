// benchrunner prints the evaluation tables the repository measures the
// middleware by.
//
// Usage:
//
//	benchrunner -exp all
//	benchrunner -exp speedup -engine redshift
//	benchrunner -exp correctness -tpch 0.05 -insta 0.05 -trials 2
//
// Experiments:
//
//	speedup      Figures 4, 9, 10 (per-query speedups and errors; -engine
//	             picks the SQL dialect, all over the same in-memory engine)
//	correctness  Figure 8 on answers: each method's 95 % intervals scored
//	             against BYPASS over -trials scramble seeds of the 33
//	             shapes through Conn.Query; writes BENCH_coverage.json
//	             (-covout)
//	engine       engine hot-path microbenchmarks; writes BENCH_engine.json
//	             (-benchout) so successive PRs can diff perf
//	progressive  accuracy-driven progressive execution over block-partitioned
//	             scrambles: time-to-accuracy curves and early-termination
//	             rates per target relative error; writes
//	             BENCH_progressive.json (-progout)
//	all          every experiment above, in that order
//
// Any other -exp or -engine value prints the valid names and exits with
// status 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"verdictdb/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment to run: speedup|correctness|engine|progressive|all (see doc comment)")
	engineName := flag.String("engine", "all", "SQL dialect for speedup, each over the same in-memory engine: impala|sparksql|redshift|generic|all (all = the first three)")
	tpchScale := flag.Float64("tpch", 0, "TPC-H scale override (1.0 = 600k lineitem)")
	instaScale := flag.Float64("insta", 0, "insta scale override (1.0 = 1M order_products)")
	trials := flag.Int("trials", 50, "scramble seeds for -exp correctness")
	covOut := flag.String("covout", "BENCH_coverage.json", "correctness experiment JSON output (empty to skip)")
	seed := flag.Int64("seed", 42, "random seed")
	benchOut := flag.String("benchout", "BENCH_engine.json", "engine microbenchmark JSON output (empty to skip)")
	progOut := flag.String("progout", "BENCH_progressive.json", "progressive experiment JSON output (empty to skip)")
	progTargets := flag.String("progtargets", "0.01,0.02,0.05,0.1", "comma-separated target relative errors for -exp progressive")
	progBlockRows := flag.Int64("progblockrows", 0, "scramble block size for -exp progressive (0 = experiment default)")
	flag.Parse()

	cfg := bench.DefaultConfig()
	cfg.Seed = *seed
	if *tpchScale > 0 {
		cfg.TPCHScale = *tpchScale
	}
	if *instaScale > 0 {
		cfg.InstaScale = *instaScale
	}

	w := os.Stdout
	experiments := []struct {
		name string
		run  func() error
	}{
		{"speedup", func() error {
			engines := []string{"redshift", "sparksql", "impala"}
			if *engineName != "all" {
				engines = []string{*engineName}
			}
			for _, e := range engines {
				if _, err := bench.SpeedupExperiment(w, cfg, e); err != nil {
					return err
				}
				fmt.Fprintln(w)
			}
			return nil
		}},
		{"correctness", func() error {
			_, err := bench.CorrectnessExperiment(w, cfg, *trials, *covOut)
			return err
		}},
		{"engine", func() error {
			_, err := bench.EngineBench(w, *benchOut, 5)
			return err
		}},
		{"progressive", func() error {
			progCfg := cfg
			progCfg.BlockRows = *progBlockRows
			var targets []float64
			for _, part := range strings.Split(*progTargets, ",") {
				part = strings.TrimSpace(part)
				if part == "" {
					continue
				}
				f, err := strconv.ParseFloat(part, 64)
				if err != nil || f < 0 {
					return fmt.Errorf("bad -progtargets entry %q", part)
				}
				targets = append(targets, f)
			}
			_, err := bench.ProgressiveExperiment(w, progCfg, *progOut, targets)
			return err
		}},
	}

	names := make([]string, 0, len(experiments)+1)
	known := *exp == "all"
	for _, e := range experiments {
		names = append(names, e.name)
		known = known || *exp == e.name
	}
	if !known {
		fmt.Fprintf(os.Stderr, "benchrunner: unknown -exp %q; valid: %s\n", *exp, strings.Join(append(names, "all"), ", "))
		os.Exit(2)
	}
	if _, err := bench.DriverByName(*engineName); err != nil && *engineName != "all" {
		fmt.Fprintf(os.Stderr, "benchrunner: -engine: %v, all\n", err)
		os.Exit(2)
	}
	for _, e := range experiments {
		if *exp != "all" && *exp != e.name {
			continue
		}
		fmt.Fprintf(w, "\n================ %s ================\n", e.name)
		if err := e.run(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
	}
}
