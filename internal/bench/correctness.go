package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	verdictdb "verdictdb"
	"verdictdb/internal/core"
	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/sqlparser"
	"verdictdb/internal/workload"
)

// The correctness experiment checks Figure 8's claim on the answers the
// system returns: for each scramble seed it rebuilds the TPC-H and Insta
// environments (data and samples redrawn), runs the 33 workload shapes
// through Conn.Query and BYPASS, and scores every estimated cell against the
// exact one. A calibrated 95 % interval covers the exact value in 95 % of
// cells, and a normal one's half-width is 1.96/√(2/π) ≈ 2.46 times the mean
// absolute error.

// CoverageRow scores one group of estimated cells.
type CoverageRow struct {
	Method  string `json:"method"`
	Shape   string `json:"shape,omitempty"`
	Kind    string `json:"kind,omitempty"`    // the select item's aggregate (see aggKind)
	Samples string `json:"samples,omitempty"` // sorted sample types that answered, joined with +
	// Cells counts estimates with an interval and an exact counterpart;
	// Covered those whose interval holds the exact value.
	Cells      int     `json:"cells"`
	Covered    int     `json:"covered"`
	Coverage   float64 `json:"coverage"`
	WidthRatio float64 `json:"width_ratio"` // mean half-width / mean |estimate − exact|
	// Missing counts exact values whose estimate is NULL or NaN;
	// MissingGroups the exact cells of groups the answer lacks.
	Missing       int `json:"missing"`
	MissingGroups int `json:"missing_groups"`
	// Declined counts queries the method answered by passthrough (by-method
	// and overall rows only); nothing of theirs is scored.
	Declined int `json:"declined,omitempty"`

	halfWidth, absErr float64 // the sums behind WidthRatio
}

// CoverageReport is the BENCH_coverage.json payload.
type CoverageReport struct {
	Timestamp  string        `json:"timestamp"`
	Seeds      []int64       `json:"seeds"`
	TPCHScale  float64       `json:"tpch_scale"`
	InstaScale float64       `json:"insta_scale"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	WallS      float64       `json:"wall_s"`
	Overall    []CoverageRow `json:"overall"` // every method pooled
	ByMethod   []CoverageRow `json:"by_method"`
	ByKind     []CoverageRow `json:"by_kind"`
	BySamples  []CoverageRow `json:"by_samples"`
	Rows       []CoverageRow `json:"rows"` // method × shape × kind × samples
}

// coverageMethods are the error-estimation methods scored, in report order.
// The resampling baselines answer plain count/sum/avg items only and pass
// every other shape through.
var coverageMethods = []struct {
	name   string
	method core.ErrorMethod
}{
	{"variational", core.MethodVariational},
	{"traditional", core.MethodTraditionalSubsampling},
	{"bootstrap", core.MethodConsolidatedBootstrap},
}

func methodRank(name string) int {
	for i, m := range coverageMethods {
		if m.name == name {
			return i
		}
	}
	return len(coverageMethods)
}

func (r *CoverageRow) add(c cellMatch) {
	switch {
	case c.missing:
		r.Missing++
	case c.interval:
		r.Cells++
		if c.lo <= c.exact && c.exact <= c.hi {
			r.Covered++
		}
		r.halfWidth += (c.hi - c.lo) / 2
		r.absErr += math.Abs(c.estimate - c.exact)
	}
}

// rollUp sums rows into one per distinct key(row), finished and sorted.
func rollUp(rows []CoverageRow, key func(CoverageRow) CoverageRow) []CoverageRow {
	acc := map[CoverageRow]*CoverageRow{}
	for _, r := range rows {
		k := key(r)
		s := acc[k]
		if s == nil {
			s = &k
			acc[k] = s
		}
		s.Cells += r.Cells
		s.Covered += r.Covered
		s.Missing += r.Missing
		s.MissingGroups += r.MissingGroups
		s.Declined += r.Declined
		s.halfWidth += r.halfWidth
		s.absErr += r.absErr
	}
	out := make([]CoverageRow, 0, len(acc))
	for _, r := range acc {
		if r.Cells > 0 {
			r.Coverage = float64(r.Covered) / float64(r.Cells)
		}
		if r.absErr > 0 {
			r.WidthRatio = r.halfWidth / r.absErr
		}
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		switch {
		case a.Method != b.Method:
			return methodRank(a.Method) < methodRank(b.Method)
		case a.Shape != b.Shape:
			return a.Shape < b.Shape
		case a.Kind != b.Kind:
			return a.Kind < b.Kind
		}
		return a.Samples < b.Samples
	})
	return out
}

// aggKind names a select item's aggregate: a lone aggregate call by its
// function (count(distinct …) is count_distinct), any other item holding an
// aggregate expr.
func aggKind(e sqlparser.Expr) string {
	fc, ok := e.(*sqlparser.FuncCall)
	switch {
	case !ok || !sqlparser.IsAggregate(fc):
		return "expr"
	case fc.Name == "count" && fc.Distinct:
		return "count_distinct"
	}
	return fc.Name
}

// CorrectnessExperiment scores every method's intervals over the scramble
// seeds cfg.Seed … cfg.Seed+seeds−1 and writes the report to outPath ("" skips
// the file).
func CorrectnessExperiment(w io.Writer, cfg Config, seeds int, outPath string) (*CoverageReport, error) {
	start := time.Now()
	rep := &CoverageReport{
		Timestamp:  start.UTC().Format(time.RFC3339),
		TPCHScale:  cfg.TPCHScale,
		InstaScale: cfg.InstaScale,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	// One row per cell group, plus one Declined-only row per passthrough.
	acc := map[CoverageRow]*CoverageRow{}
	var declined []CoverageRow
	for i := 0; i < seeds; i++ {
		c := cfg
		c.Seed = cfg.Seed + int64(i)
		rep.Seeds = append(rep.Seeds, c.Seed)
		for _, ds := range []struct {
			mk      func(Config, func(*engine.Engine) *drivers.Driver) (*Env, error)
			queries []workload.Query
		}{{NewTPCHEnv, workload.TPCHQueries}, {NewInstaEnv, workload.InstaQueries}} {
			env, err := ds.mk(c, drivers.NewGeneric)
			if err != nil {
				return nil, err
			}
			samples, err := env.Conn.Samples()
			if err != nil {
				return nil, err
			}
			typeOf := map[string]string{}
			for _, s := range samples {
				typeOf[s.SampleTable] = s.Type.String()
			}
			// The baselines get connections of their own over the same samples.
			conns := []*verdictdb.Conn{env.Conn}
			for _, m := range coverageMethods[1:] {
				opts := verdictdb.Defaults()
				opts.Method = m.method
				conn, err := verdictdb.Open(env.DB, opts)
				if err != nil {
					return nil, err
				}
				conns = append(conns, conn)
			}
			for _, q := range ds.queries {
				exact, err := env.Conn.Query("bypass " + q.SQL)
				if err != nil {
					return nil, fmt.Errorf("%s exact: %w", q.ID, err)
				}
				for k, conn := range conns {
					method := coverageMethods[k].name
					a, err := conn.Query(q.SQL)
					if err != nil {
						return nil, fmt.Errorf("%s %s: %w", q.ID, method, err)
					}
					if !a.Approximate {
						declined = append(declined, CoverageRow{Method: method, Declined: 1})
						continue
					}
					m, err := matchAnswers(q, exact, a)
					if err != nil {
						return nil, err
					}
					var types []string
					for _, t := range a.SampleTables {
						if !slices.Contains(types, typeOf[t]) {
							types = append(types, typeOf[t])
						}
					}
					sort.Strings(types)
					row := func(col int) *CoverageRow {
						k := CoverageRow{Method: method, Shape: q.ID, Kind: aggKind(m.items[col].Expr), Samples: strings.Join(types, "+")}
						if acc[k] == nil {
							acc[k] = &k
						}
						return acc[k]
					}
					for _, cell := range m.cells {
						if cell.missing || cell.interval { // not an exactly answered extreme
							row(cell.col).add(cell)
						}
					}
					for col, agg := range m.isAgg {
						if agg && m.absentGroups > 0 {
							row(col).MissingGroups += m.absentGroups
						}
					}
				}
			}
		}
	}
	var rows []CoverageRow
	for _, r := range acc {
		rows = append(rows, *r)
	}
	rep.Rows = rollUp(rows, func(r CoverageRow) CoverageRow {
		return CoverageRow{Method: r.Method, Shape: r.Shape, Kind: r.Kind, Samples: r.Samples}
	})
	rep.ByKind = rollUp(rows, func(r CoverageRow) CoverageRow { return CoverageRow{Method: r.Method, Kind: r.Kind} })
	rep.BySamples = rollUp(rows, func(r CoverageRow) CoverageRow { return CoverageRow{Method: r.Method, Samples: r.Samples} })
	rows = append(rows, declined...)
	rep.ByMethod = rollUp(rows, func(r CoverageRow) CoverageRow { return CoverageRow{Method: r.Method} })
	rep.Overall = rollUp(rows, func(CoverageRow) CoverageRow { return CoverageRow{Method: "all"} })
	rep.WallS = time.Since(start).Seconds()

	fmt.Fprintf(w, "## Figure 8 on answers: 95%% interval calibration through Conn.Query (%d seeds, tpch %g, insta %g)\n",
		seeds, cfg.TPCHScale, cfg.InstaScale)
	fmt.Fprintf(w, "%-12s %-15s %-22s %7s %8s %6s %8s %8s %8s\n",
		"method", "kind", "samples", "cells", "coverage", "width", "missing", "mgroups", "declined")
	for _, rs := range [][]CoverageRow{rep.Overall, rep.ByMethod, rep.ByKind, rep.BySamples} {
		for _, r := range rs {
			fmt.Fprintf(w, "%-12s %-15s %-22s %7d %8.3f %6.2f %8d %8d %8d\n",
				r.Method, r.Kind, r.Samples, r.Cells, r.Coverage, r.WidthRatio, r.Missing, r.MissingGroups, r.Declined)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "wall time %.1fs\n", rep.WallS)
	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "wrote %s\n", outPath)
	}
	return rep, nil
}
