package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	"verdictdb/internal/core"
	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/meta"
	"verdictdb/internal/sampling"
	"verdictdb/internal/sqlparser"
	"verdictdb/internal/stats"
)

// This file holds the ablation studies DESIGN.md calls out: each isolates
// one design choice of the system and quantifies its effect.

// SampleTypeAblation compares uniform vs stratified samples for a grouped
// query over skewed strata — the design decision behind Section 3.2. The
// metric is the worst per-group relative error: uniform samples starve rare
// groups; stratified samples guarantee per-stratum minimums.
type SampleTypeAblationResult struct {
	SampleType    string
	WorstGroupErr float64
	MissingGroups int
}

// AblationSampleType runs the uniform-vs-stratified comparison.
func AblationSampleType(w io.Writer, seed int64) ([]SampleTypeAblationResult, error) {
	eng := engine.NewSeeded(seed)
	if err := eng.CreateTable("skewed", []engine.Column{
		{Name: "grp", Type: engine.TString},
		{Name: "x", Type: engine.TFloat},
	}); err != nil {
		return nil, err
	}
	// Strata sizes: 200k, 20k, 2k, 200, 50 — three orders of magnitude.
	rng := rand.New(rand.NewSource(seed))
	sizes := []int{200_000, 20_000, 2_000, 200, 50}
	var rows [][]engine.Value
	for g, size := range sizes {
		for i := 0; i < size; i++ {
			rows = append(rows, []engine.Value{
				fmt.Sprintf("g%d", g), 10 + 10*rng.NormFloat64(),
			})
		}
	}
	if err := eng.InsertRows("skewed", rows); err != nil {
		return nil, err
	}
	db := drivers.NewGeneric(eng)
	cat, err := meta.Open(db)
	if err != nil {
		return nil, err
	}
	builder := sampling.NewBuilder(db, cat)
	if _, err := builder.CreateUniform("skewed", 0.01); err != nil {
		return nil, err
	}
	if _, err := builder.CreateStratified("skewed", []string{"grp"}, 0.01); err != nil {
		return nil, err
	}

	exact, err := db.Query("select grp, count(*) as c, avg(x) as m from skewed group by grp order by grp")
	if err != nil {
		return nil, err
	}

	fmt.Fprintf(w, "## Ablation: sample type for grouped queries over skewed strata\n")
	fmt.Fprintf(w, "%-12s %16s %15s\n", "sample", "worst group err", "missing groups")
	var out []SampleTypeAblationResult
	for _, typ := range []sqlparser.SampleType{sqlparser.UniformSample, sqlparser.StratifiedSample} {
		// Force the plan by registering only the one sample in a scratch
		// catalog view: simplest is a fresh planner-facing middleware whose
		// catalog holds just this sample.
		all, err := cat.List()
		if err != nil {
			return nil, err
		}
		var only []meta.SampleInfo
		for _, si := range all {
			if si.Type == typ {
				only = append(only, si)
			}
		}
		res := SampleTypeAblationResult{SampleType: typ.String()}
		// Per-group estimates straight from the forced sample, using the
		// rewriter directly.
		sel, err := sqlparser.ParseSelect("select grp, count(*) as c, avg(x) as m from skewed group by grp")
		if err != nil {
			return nil, err
		}
		plan, err := forcedPlan(sel, only)
		if err != nil {
			return nil, err
		}
		ro, err := core.Rewrite(sel, plan, []int{1, 2}, true)
		if err != nil {
			return nil, err
		}
		rs, err := db.Query(drivers.Render(db, ro.Stmt))
		if err != nil {
			return nil, err
		}
		got := map[string]float64{}
		for _, r := range rs.Rows {
			c, _ := engine.ToFloat(r[1])
			got[engine.ToStr(r[0])] = c
		}
		for _, er := range exact.Rows {
			g := engine.ToStr(er[0])
			want, _ := engine.ToFloat(er[1])
			gv, ok := got[g]
			if !ok {
				res.MissingGroups++
				continue
			}
			re := math.Abs(gv-want) / want
			if re > res.WorstGroupErr {
				res.WorstGroupErr = re
			}
		}
		out = append(out, res)
		fmt.Fprintf(w, "%-12s %15.2f%% %15d\n", res.SampleType, 100*res.WorstGroupErr, res.MissingGroups)
	}
	return out, nil
}

// forcedPlan builds a CandidatePlan that maps the single-table query's
// occurrence onto the given sample.
func forcedPlan(sel *sqlparser.SelectStmt, samples []meta.SampleInfo) (core.CandidatePlan, error) {
	if len(samples) != 1 {
		return core.CandidatePlan{}, fmt.Errorf("bench: forcedPlan wants exactly one sample, got %d", len(samples))
	}
	occ, err := core.OccurrencesOf(sel)
	if err != nil {
		return core.CandidatePlan{}, err
	}
	plan := core.CandidatePlan{Choices: map[string]core.TableChoice{}}
	for alias, o := range occ {
		si := samples[0]
		plan.Choices[alias] = core.TableChoice{Occurrence: o, Sample: &si}
	}
	return plan, nil
}

// AblationStaircaseDelta measures how often the per-stratum minimum of
// Equation 1 is violated for different delta settings of Lemma 1 — the
// design knob behind the staircase function.
type StaircaseDeltaResult struct {
	Delta         float64
	ViolationRate float64
}

// AblationStaircase sweeps delta and reports empirical violation rates.
func AblationStaircase(w io.Writer, trials int, seed int64) []StaircaseDeltaResult {
	rng := rand.New(rand.NewSource(seed))
	const m, n = 50, 5000
	fmt.Fprintf(w, "## Ablation: Lemma 1 delta vs per-stratum guarantee violations (m=%d, n=%d)\n", m, n)
	fmt.Fprintf(w, "%-10s %16s %16s\n", "delta", "sampling prob", "violation rate")
	var out []StaircaseDeltaResult
	for _, delta := range []float64{0.1, 0.01, 0.001} {
		p := stats.MinSamplingProb(m, n, delta)
		violations := 0
		for trial := 0; trial < trials; trial++ {
			k := 0
			for i := 0; i < n; i++ {
				if rng.Float64() < p {
					k++
				}
			}
			if k < m {
				violations++
			}
		}
		rate := float64(violations) / float64(trials)
		out = append(out, StaircaseDeltaResult{Delta: delta, ViolationRate: rate})
		fmt.Fprintf(w, "%-10g %16.5f %15.3f%%\n", delta, p, 100*rate)
	}
	return out
}

// AblationTopK measures planning time and achieved plan score as the
// heuristic prune width k (Appendix E.2) varies, over a join query with
// many candidate samples per table.
type TopKResult struct {
	K        int
	PlanTime time.Duration
	Score    float64
}

// AblationPlannerTopK sweeps the prune width.
func AblationPlannerTopK(w io.Writer, cfg Config) ([]TopKResult, error) {
	env, err := NewInstaEnv(cfg, drivers.NewGeneric)
	if err != nil {
		return nil, err
	}
	cat, err := meta.Open(env.DB)
	if err != nil {
		return nil, err
	}
	// Register extra uniform samples at assorted ratios to widen the
	// candidate space.
	builder := sampling.NewBuilder(env.DB, cat)
	for _, r := range []float64{0.002, 0.004, 0.006, 0.008} {
		if _, err := builder.CreateUniform("order_products", r); err != nil {
			return nil, err
		}
		// Re-register under a distinct name so they coexist.
		all, _ := cat.List()
		for _, si := range all {
			if si.Type == sqlparser.UniformSample && si.BaseTable == "order_products" && si.Ratio == r {
				si.SampleTable = fmt.Sprintf("%s_r%d", si.SampleTable, int(r*1000))
				_ = env.DB.Exec(fmt.Sprintf("create table %s as select * from %s",
					si.SampleTable, sampling.SampleName("order_products", sqlparser.UniformSample, nil)))
				_ = cat.Register(si)
			}
		}
	}
	all, err := cat.List()
	if err != nil {
		return nil, err
	}
	sql := `select o.order_dow, sum(op.price) as rev from orders o
		inner join order_products op on o.order_id = op.order_id group by o.order_dow`
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	occ, err := core.OccurrencesOf(sel)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "## Ablation: planner prune width k (Appendix E.2)\n")
	fmt.Fprintf(w, "%-6s %14s %12s\n", "k", "plan time", "score")
	var out []TopKResult
	for _, k := range []int{1, 2, 4, 10} {
		pcfg := core.DefaultPlannerConfig()
		pcfg.TopK = k
		planner := core.NewPlanner(pcfg, all)
		start := time.Now()
		var score float64
		const reps = 200
		for i := 0; i < reps; i++ {
			plans, _, ok, err := planner.PlanQuery(sel, occ)
			if err != nil {
				return nil, err
			}
			if ok {
				score = plans[0].Plan.Score
			}
		}
		res := TopKResult{K: k, PlanTime: time.Since(start) / reps, Score: score}
		out = append(out, res)
		fmt.Fprintf(w, "%-6d %14v %12.5f\n", k, res.PlanTime.Round(time.Microsecond), res.Score)
	}
	return out, nil
}
