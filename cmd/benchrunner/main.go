// benchrunner regenerates every table and figure of the paper's evaluation.
//
// Usage:
//
//	benchrunner -exp all
//	benchrunner -exp speedup -engine redshift
//	benchrunner -exp estimators -tpch 0.2 -insta 0.2
//
// Experiments (DESIGN.md experiment index):
//
//	speedup      Figures 4, 9, 10 (per-query speedups and errors; -engine
//	             picks the SQL dialect, all over the same in-memory engine)
//	scaling      Figure 5  (speedup vs data size, fixed sample)
//	snappy       Figure 6  (integrated AQP comparison)
//	native       Table 2   (native approximate aggregates)
//	estimators   Figure 7  (error-estimation method overheads)
//	correctness  Figure 8 on answers: each method's 95 % intervals scored
//	             against BYPASS over -trials scramble seeds of the 33
//	             shapes through Conn.Query; writes BENCH_coverage.json
//	             (-covout)
//	prep         Figure 11 (sample preparation time)
//	ablation     design-choice ablations (sample type, Lemma 1 delta, top-k)
//	engine       engine hot-path microbenchmarks; writes BENCH_engine.json
//	             (-benchout) so successive PRs can diff perf
//	progressive  accuracy-driven progressive execution over block-partitioned
//	             scrambles: time-to-accuracy curves and early-termination
//	             rates per target relative error; writes
//	             BENCH_progressive.json (-progout)
//
// Figures 12-14 (error-bound accuracy vs n, b and subsample size) are
// retired: they ran interval code on synthetic arrays no query produces.
// Figure 7 (estimators) still measures the resampling methods' latency gap
// on real queries.
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
	exp := flag.String("exp", "all", "experiment to run (see doc comment)")
	engineName := flag.String("engine", "all", "SQL dialect for speedup, each over the same in-memory engine: impala|sparksql|redshift|generic|all (all = the first three)")
	tpchScale := flag.Float64("tpch", 0, "TPC-H scale override (1.0 = 600k lineitem)")
	instaScale := flag.Float64("insta", 0, "insta scale override (1.0 = 1M order_products)")
	trials := flag.Int("trials", 50, "scramble seeds for -exp correctness; the staircase ablation runs 20x as many Monte Carlo trials")
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
	run := func(name string, fn func() error) {
		if *exp != "all" && *exp != name {
			return
		}
		fmt.Fprintf(w, "\n================ %s ================\n", name)
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("speedup", func() error {
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
	})
	run("scaling", func() error {
		_, err := bench.ScalingExperiment(w, []float64{0.02, 0.1, 0.4, 1.0}, 6000, cfg.Seed)
		return err
	})
	run("snappy", func() error {
		_, err := bench.SnappyExperiment(w, cfg)
		return err
	})
	run("native", func() error {
		_, err := bench.NativeExperiment(w, cfg)
		return err
	})
	run("estimators", func() error {
		_, err := bench.EstimatorOverheadExperiment(w, cfg)
		return err
	})
	run("correctness", func() error {
		_, err := bench.CorrectnessExperiment(w, cfg, *trials, *covOut)
		return err
	})
	run("prep", func() error {
		_, err := bench.PrepExperiment(w, cfg)
		return err
	})
	run("engine", func() error {
		_, err := bench.EngineBench(w, *benchOut, 5)
		return err
	})
	run("progressive", func() error {
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
	})
	run("ablation", func() error {
		if _, err := bench.AblationSampleType(w, cfg.Seed); err != nil {
			return err
		}
		fmt.Fprintln(w)
		bench.AblationStaircase(w, max(500, *trials*20), cfg.Seed)
		fmt.Fprintln(w)
		_, err := bench.AblationPlannerTopK(w, cfg)
		return err
	})
}
