package bench

import (
	"fmt"
	"io"
	"time"

	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/workload"
)

// DriverByName returns the driver constructor for a dialect name; every
// dialect runs on the same in-memory engine. An unknown name is an error that
// lists the valid ones.
func DriverByName(name string) (func(*engine.Engine) *drivers.Driver, error) {
	switch name {
	case "impala":
		return drivers.NewImpala, nil
	case "sparksql", "spark":
		return drivers.NewSparkSQL, nil
	case "redshift":
		return drivers.NewRedshift, nil
	case "generic":
		return drivers.NewGeneric, nil
	}
	return nil, fmt.Errorf("unknown dialect %q; valid: impala, sparksql, redshift, generic", name)
}

// ---------------------------------------------------------------------------
// E1 + E2: Figures 4, 9, 10 — per-query speedups and actual errors.
// ---------------------------------------------------------------------------

// SpeedupExperiment runs all 33 benchmark queries on one engine and prints
// per-query speedups (Figures 4 and 9) and true relative errors (Figure 10).
func SpeedupExperiment(w io.Writer, cfg Config, driverName string) ([]QueryResult, error) {
	mk, err := DriverByName(driverName)
	if err != nil {
		return nil, err
	}
	tpch, err := NewTPCHEnv(cfg, mk)
	if err != nil {
		return nil, err
	}
	insta, err := NewInstaEnv(cfg, mk)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "## Figure 4/9 (%s): per-query speedup; Figure 10: actual relative error\n", driverName)
	fmt.Fprintf(w, "%-7s %12s %12s %9s %9s %9s\n", "query", "exact", "approx", "speedup", "approx?", "rel.err")
	var out []QueryResult
	run := func(env *Env, queries []workload.Query) error {
		for _, q := range queries {
			res, err := RunQueryPair(env, q)
			if err != nil {
				return err
			}
			out = append(out, res)
			fmt.Fprintf(w, "%-7s %12v %12v %8.2fx %9v %8.2f%%\n",
				res.ID, res.ExactTime.Round(time.Microsecond), res.ApproxTime.Round(time.Microsecond),
				res.Speedup, res.Approximate, 100*res.MaxRelErrTrue)
		}
		return nil
	}
	if err := run(tpch, workload.TPCHQueries); err != nil {
		return nil, err
	}
	if err := run(insta, workload.InstaQueries); err != nil {
		return nil, err
	}
	// Summary row (the paper reports per-engine averages).
	var sum float64
	var maxS float64
	n := 0
	for _, r := range out {
		if r.Approximate {
			sum += r.Speedup
			if r.Speedup > maxS {
				maxS = r.Speedup
			}
			n++
		}
	}
	if n > 0 {
		fmt.Fprintf(w, "average speedup over %d approximated queries: %.2fx (max %.2fx)\n", n, sum/float64(n), maxS)
	}
	return out, nil
}
