package core

import (
	"fmt"
	"strings"

	"verdictdb/internal/sampling"
	"verdictdb/internal/sqlparser"
)

// This file implements the query rewrite of Appendix G (Rewrite) and, in the
// estimators table, the one definition of each aggregate kind's partial
// aggregates, point estimator and per-subsample estimator. Nested aggregate
// blocks apply the same per-subsample estimators (nested.go, Section 5.2);
// progressive.go's execution loop runs the rendered rewrite.

// ColKind classifies an output column of a rewritten query.
type ColKind int

// Output column kinds.
const (
	ColGroup ColKind = iota
	ColAgg
	ColErr
	// ColSubCount is the per-group contributing-subsample count appended by
	// progressive rewrites; the merger ignores it (it never reaches users),
	// the executor's stopping rule reads it.
	ColSubCount
)

// OutputCol maps a rewritten query's output column back to the original
// query's select items.
type OutputCol struct {
	Kind    ColKind
	ItemIdx int // index into the original select items
	Name    string
}

// RewriteOutput is a rewritten query plus the metadata the answer rewriter
// needs to reassemble user-facing results.
type RewriteOutput struct {
	Stmt         *sqlparser.SelectStmt
	Columns      []OutputCol
	B            int64
	SampleTables []string
}

// BlockContext constrains a rewrite to a scramble block prefix: the sampled
// occurrence Alias only reads blocks 1..Bound, and every Horvitz-Thompson
// weight is corrected by Frac — the fraction of the sample's rows inside the
// prefix — so point estimates stay unbiased on the partial scan. Block ids
// are value-independent, making a prefix a uniform subsample of the sample.
type BlockContext struct {
	Alias string  // plan-choices alias (lower-case) of the sampled occurrence
	Bound int64   // highest block id included (inclusive, 1-based)
	Frac  float64 // fraction of the sample's rows within blocks 1..Bound
}

// rewriter holds per-rewrite state.
type rewriter struct {
	plan         CandidatePlan
	sampleTables []string
	nameSeq      int

	// block constrains the rewrite to a block prefix (nil for full-sample
	// rewrites). blockPred is the pending block-range predicate, drained by
	// the query block that owns the substituted table reference.
	block        *BlockContext
	blockPred    sqlparser.Expr
	blockApplied bool
}

// takeBlockPred returns and clears the pending block-range predicate; the
// innermost query block enclosing the sampled table drains it into WHERE.
func (rw *rewriter) takeBlockPred() sqlparser.Expr {
	p := rw.blockPred
	rw.blockPred = nil
	return p
}

// andExpr conjoins two predicates, treating nil as TRUE.
func andExpr(a, b sqlparser.Expr) sqlparser.Expr {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	}
	return &sqlparser.BinaryExpr{Op: "AND", L: a, R: b}
}

// partials records the inner-query partial-aggregate columns backing one
// original aggregate call.
type partials struct {
	kind  AggKind
	cols  []string // inner output aliases
	ratio float64  // the source's sampling ratio, which scales count-distinct
	// replicated marks partials over a Bernoulli-nested variational table:
	// each subsample's partial is a complete estimate, so the full-sample
	// combination is the mean across subsamples, not the HT sum.
	replicated bool
}

const (
	innerAlias  = "vt1"
	sizeCol     = "verdict_size"
	errSuffix   = "_verdict_err"
	groupPrefix = "verdict_g"
	subCountCol = "verdict_nsub"
)

// Rewrite builds the variational-subsampling form of sel for the given plan
// (Appendix G shape): an inner query grouping by (groups, sid) computing
// Horvitz-Thompson partial aggregates, wrapped in an outer query that
// weight-averages the subsamples into an unbiased point estimate and a
// standard error per aggregate. Each aggregate kind's partials and
// estimators come from the estimators table below.
//
// itemIdx lists the aggregate select items this plan answers; all non-agg
// (grouping) items are always included. includeOrderLimit controls whether
// ORDER BY / LIMIT / HAVING attach to the outer query (the middleware turns
// this off when results from several consolidated plans must be merged
// first). A non-nil bc restricts the rewrite to a scramble block prefix (the
// progressive loop in progressive.go); nil rewrites over the full sample.
func Rewrite(sel *sqlparser.SelectStmt, plan CandidatePlan, itemIdx []int, includeOrderLimit bool, bc *BlockContext) (*RewriteOutput, error) {
	rw := &rewriter{plan: plan, block: bc}
	newFrom, src, err := rw.substituteFrom(sel.From)
	if err != nil {
		return nil, err
	}
	if src.sid == nil {
		return nil, fmt.Errorf("core: plan substituted no samples")
	}
	if bc != nil && !rw.blockApplied {
		return nil, fmt.Errorf("core: block context alias %q matched no sampled occurrence", bc.Alias)
	}

	wanted := make(map[int]bool, len(itemIdx))
	for _, i := range itemIdx {
		wanted[i] = true
	}

	// ---- Inner query ----
	inner := &sqlparser.SelectStmt{From: newFrom, Where: sqlparser.CloneExpr(sel.Where)}
	if bp := rw.takeBlockPred(); bp != nil {
		inner.Where = andExpr(inner.Where, bp)
	}

	// Group columns.
	type groupInfo struct {
		expr  sqlparser.Expr
		alias string
	}
	groups := make([]groupInfo, len(sel.GroupBy))
	usedAliases := map[string]bool{}
	for i, g := range sel.GroupBy {
		alias := fmt.Sprintf("%s%d", groupPrefix, i)
		if cr, ok := g.(*sqlparser.ColumnRef); ok && !usedAliases[strings.ToLower(cr.Name)] {
			alias = cr.Name
		}
		usedAliases[strings.ToLower(alias)] = true
		groups[i] = groupInfo{expr: g, alias: alias}
		inner.Items = append(inner.Items, sqlparser.SelectItem{Expr: sqlparser.CloneExpr(g), Alias: alias})
		inner.GroupBy = append(inner.GroupBy, sqlparser.CloneExpr(g))
	}

	// Partial aggregates for every distinct aggregate call referenced by the
	// answered items, HAVING, and ORDER BY.
	partialByKey := map[string]*partials{}
	registerAggs := func(e sqlparser.Expr) error {
		for _, fc := range aggsIn(e) {
			key := sqlparser.FormatExpr(fc)
			if _, ok := partialByKey[key]; ok {
				continue
			}
			p, err := rw.addPartials(inner, fc, src)
			if err != nil {
				return err
			}
			partialByKey[key] = p
		}
		return nil
	}
	for i, it := range sel.Items {
		if wanted[i] {
			if err := registerAggs(it.Expr); err != nil {
				return nil, err
			}
		}
	}
	if includeOrderLimit {
		if sel.Having != nil {
			if err := registerAggs(sel.Having); err != nil {
				return nil, err
			}
		}
		for _, ob := range sel.OrderBy {
			if sqlparser.ContainsAggregate(ob.Expr) {
				if err := registerAggs(ob.Expr); err != nil {
					return nil, err
				}
			}
		}
	}

	// Subsample id and size.
	inner.Items = append(inner.Items,
		sqlparser.SelectItem{Expr: sqlparser.CloneExpr(src.sid), Alias: sampling.SidCol},
		sqlparser.SelectItem{Expr: &sqlparser.FuncCall{Name: "count", Star: true}, Alias: sizeCol},
	)
	inner.GroupBy = append(inner.GroupBy, sqlparser.CloneExpr(src.sid))

	// ---- Outer query ----
	outer := &sqlparser.SelectStmt{
		From: &sqlparser.DerivedTable{Select: inner, Alias: innerAlias},
	}
	for _, g := range groups {
		outer.GroupBy = append(outer.GroupBy, &sqlparser.ColumnRef{Table: innerAlias, Name: g.alias})
	}

	groupAliasFor := func(e sqlparser.Expr) (string, bool) {
		f := sqlparser.FormatExpr(e)
		for _, g := range groups {
			if sqlparser.FormatExpr(g.expr) == f {
				return g.alias, true
			}
		}
		return "", false
	}

	// substitute rewrites an expression over the original relations into one
	// over vt1: aggregate calls become either full-sample or per-subsample
	// estimators; other column refs must match a grouping expression.
	substitute := func(e sqlparser.Expr, perSubsample bool) (sqlparser.Expr, error) {
		out, err := mapAggs(e, func(fc *sqlparser.FuncCall) (sqlparser.Expr, error) {
			p := partialByKey[sqlparser.FormatExpr(fc)]
			if p == nil {
				return nil, fmt.Errorf("core: aggregate %s not planned", sqlparser.FormatExpr(fc))
			}
			est := estimators[p.kind]
			col := func(i int) sqlparser.Expr { return &sqlparser.ColumnRef{Table: innerAlias, Name: p.cols[i]} }
			if perSubsample {
				return est.perSub(p, col, src.b), nil
			}
			return est.point(p, col), nil
		})
		if err != nil {
			return nil, err
		}
		// Remaining column refs must be grouping expressions.
		var subErr error
		out = sqlparser.RewriteExpr(out, func(x sqlparser.Expr) sqlparser.Expr {
			if cr, ok := x.(*sqlparser.ColumnRef); ok {
				if strings.EqualFold(cr.Table, innerAlias) {
					return x
				}
				if alias, ok := groupAliasFor(cr); ok {
					return &sqlparser.ColumnRef{Table: innerAlias, Name: alias}
				}
				subErr = fmt.Errorf("core: non-grouping column %s in aggregate context", sqlparser.FormatExpr(cr))
			}
			return x
		})
		if subErr != nil {
			return nil, subErr
		}
		return out, nil
	}

	out := &RewriteOutput{B: src.b, SampleTables: rw.sampleTables}
	// Error columns go last so positional ORDER BY stays valid.
	var errItems []sqlparser.SelectItem
	var errCols []OutputCol
	for i, it := range sel.Items {
		name := itemName(it, i)
		switch {
		case it.Expr == nil || !sqlparser.ContainsAggregate(it.Expr):
			if it.Star {
				return nil, fmt.Errorf("core: SELECT * not supported with aggregates")
			}
			alias, ok := groupAliasFor(it.Expr)
			if !ok {
				return nil, fmt.Errorf("core: select item %q is neither aggregate nor grouping expression", sqlparser.FormatExpr(it.Expr))
			}
			outer.Items = append(outer.Items, sqlparser.SelectItem{
				Expr:  &sqlparser.ColumnRef{Table: innerAlias, Name: alias},
				Alias: name,
			})
			out.Columns = append(out.Columns, OutputCol{Kind: ColGroup, ItemIdx: i, Name: name})
		case wanted[i]:
			point, err := substitute(it.Expr, false)
			if err != nil {
				return nil, err
			}
			perSub, err := substitute(it.Expr, true)
			if err != nil {
				return nil, err
			}
			outer.Items = append(outer.Items, sqlparser.SelectItem{Expr: point, Alias: name})
			out.Columns = append(out.Columns, OutputCol{Kind: ColAgg, ItemIdx: i, Name: name})
			errItems = append(errItems, sqlparser.SelectItem{Expr: errorExpr(perSub), Alias: name + errSuffix})
			errCols = append(errCols, OutputCol{Kind: ColErr, ItemIdx: i, Name: name + errSuffix})
		default:
			// Aggregate item answered by a different consolidated plan (or
			// the exact extreme query); skipped here.
		}
	}
	outer.Items = append(outer.Items, errItems...)
	out.Columns = append(out.Columns, errCols...)

	// Progressive rewrites expose how many subsamples contributed to each
	// group: the executor refuses to stop early on groups estimated from too
	// few subsamples (where a stddev over one value degenerates to zero).
	if bc != nil {
		outer.Items = append(outer.Items, sqlparser.SelectItem{
			Expr:  &sqlparser.FuncCall{Name: "count", Star: true},
			Alias: subCountCol,
		})
		out.Columns = append(out.Columns, OutputCol{Kind: ColSubCount, ItemIdx: -1, Name: subCountCol})
	}

	if includeOrderLimit {
		if sel.Having != nil {
			h, err := substitute(sel.Having, false)
			if err != nil {
				return nil, err
			}
			outer.Having = h
		}
		for _, ob := range sel.OrderBy {
			newOb := sqlparser.OrderItem{Desc: ob.Desc}
			switch {
			case isPositional(ob.Expr):
				newOb.Expr = sqlparser.CloneExpr(ob.Expr)
			case isAliasRef(ob.Expr, outer.Items):
				newOb.Expr = sqlparser.CloneExpr(ob.Expr)
			default:
				oe, err := substitute(ob.Expr, false)
				if err != nil {
					return nil, err
				}
				newOb.Expr = oe
			}
			outer.OrderBy = append(outer.OrderBy, newOb)
		}
		outer.Limit = sqlparser.CloneExpr(sel.Limit)
	}

	out.Stmt = outer
	return out, nil
}

// mapAggs returns a copy of e with every aggregate call replaced by f's
// result; an error from f is returned (the last one, when several fail).
func mapAggs(e sqlparser.Expr, f func(*sqlparser.FuncCall) (sqlparser.Expr, error)) (sqlparser.Expr, error) {
	var subErr error
	out := sqlparser.RewriteExpr(sqlparser.CloneExpr(e), func(x sqlparser.Expr) sqlparser.Expr {
		fc, ok := x.(*sqlparser.FuncCall)
		if !ok || fc.Over != nil || !sqlparser.AggregateFuncs[fc.Name] {
			return x
		}
		r, err := f(fc)
		if err != nil {
			subErr = err
			return x
		}
		return r
	})
	return out, subErr
}

// addPartials appends the inner partial-aggregate columns for one aggregate
// call and returns their descriptor.
func (rw *rewriter) addPartials(inner *sqlparser.SelectStmt, fc *sqlparser.FuncCall, src vsource) (*partials, error) {
	kind := classifyAgg(fc)
	est, ok := estimators[kind]
	if !ok {
		return nil, fmt.Errorf("core: aggregate %s cannot be rewritten", fc.Name)
	}
	exprs, err := est.partials(fc, htSum(src.prob))
	if err != nil {
		return nil, err
	}
	p := &partials{kind: kind, ratio: src.ratio, replicated: src.replicated}
	for i, e := range exprs {
		rw.nameSeq++
		alias := fmt.Sprintf("vp%d_%c", rw.nameSeq, 'a'+i)
		inner.Items = append(inner.Items, sqlparser.SelectItem{Expr: e, Alias: alias})
		p.cols = append(p.cols, alias)
	}
	return p, nil
}

// aggEstimator is one aggregate kind's rewrite (Section 4's estimators in the
// Appendix G shape), written once:
//   - partials are the inner block's partial aggregates per (group, sid);
//     ht(e) is the Horvitz-Thompson sum of e over the source;
//   - point combines a group's partials over every subsample into the
//     full-sample estimate;
//   - perSub turns one subsample's partials into that subsample's estimate,
//     whose spread errorExpr turns into the standard error.
//
// col(i) returns a fresh expression for partial i on every call: a vt1
// column at the top level, the partial expression itself in a nested
// block's variational table (rewriteNested).
type aggEstimator struct {
	partials func(fc *sqlparser.FuncCall, ht func(sqlparser.Expr) sqlparser.Expr) ([]sqlparser.Expr, error)
	point    func(p *partials, col func(int) sqlparser.Expr) sqlparser.Expr
	perSub   func(p *partials, col func(int) sqlparser.Expr, b int64) sqlparser.Expr
}

// estimators holds every aggregate kind the rewrite approximates; min/max
// are answered exactly instead (Section 2.2).
var estimators = map[AggKind]aggEstimator{
	AggCount: {
		partials: func(_ *sqlparser.FuncCall, ht func(sqlparser.Expr) sqlparser.Expr) ([]sqlparser.Expr, error) {
			return []sqlparser.Expr{ht(floatLit(1))}, nil
		},
		point: htTotal, perSub: htTotalPerSub,
	},
	AggSum: {
		partials: func(fc *sqlparser.FuncCall, ht func(sqlparser.Expr) sqlparser.Expr) ([]sqlparser.Expr, error) {
			return []sqlparser.Expr{ht(argOf(fc))}, nil
		},
		point: htTotal, perSub: htTotalPerSub,
	},
	AggAvg: {
		partials: func(fc *sqlparser.FuncCall, ht func(sqlparser.Expr) sqlparser.Expr) ([]sqlparser.Expr, error) {
			return []sqlparser.Expr{ht(argOf(fc)), ht(floatLit(1))}, nil
		},
		point: overSums(ratioEstimate), perSub: ratioEstimate,
	},
	AggVar:    {partials: momentPartials, point: overSums(moments(false)), perSub: moments(false)},
	AggStddev: {partials: momentPartials, point: overSums(moments(true)), perSub: moments(true)},
	AggQuantile: {
		partials: func(fc *sqlparser.FuncCall, _ func(sqlparser.Expr) sqlparser.Expr) ([]sqlparser.Expr, error) {
			q, err := quantileFraction(fc)
			if err != nil {
				return nil, err
			}
			return []sqlparser.Expr{call("percentile", argOf(fc), floatLit(q))}, nil
		},
		// Subsample-size-weighted average of per-subsample percentiles.
		point: func(_ *partials, col func(int) sqlparser.Expr) sqlparser.Expr {
			size := func() sqlparser.Expr { return &sqlparser.ColumnRef{Table: innerAlias, Name: sizeCol} }
			return binop("/", call("sum", binop("*", col(0), size())), call("sum", size()))
		},
		perSub: func(_ *partials, col func(int) sqlparser.Expr, _ int64) sqlparser.Expr { return col(0) },
	},
	AggCountDistinct: {
		partials: func(fc *sqlparser.FuncCall, _ func(sqlparser.Expr) sqlparser.Expr) ([]sqlparser.Expr, error) {
			return []sqlparser.Expr{&sqlparser.FuncCall{Name: "count", Distinct: true, Args: []sqlparser.Expr{argOf(fc)}}}, nil
		},
		point: func(p *partials, col func(int) sqlparser.Expr) sqlparser.Expr {
			if p.replicated {
				return call("avg", col(0))
			}
			// Universe-sample scaling: distinct values hash-partition across
			// subsamples, so the sample-wide distinct count is the sum.
			return binop("/", call("sum", col(0)), floatLit(p.ratio))
		},
		perSub: func(p *partials, col func(int) sqlparser.Expr, b int64) sqlparser.Expr {
			if p.replicated {
				return col(0)
			}
			return binop("/", binop("*", col(0), intLit(b)), floatLit(p.ratio))
		},
	},
}

// htTotal is count's and sum's point estimate: the HT sum over every
// subsample, or their mean when each subsample's partial already estimates
// the population quantity (a replicated source).
func htTotal(p *partials, col func(int) sqlparser.Expr) sqlparser.Expr {
	if p.replicated {
		return call("avg", col(0))
	}
	return call("sum", col(0))
}

// htTotalPerSub is count's and sum's per-subsample estimate: a subsample is
// a 1/b thinning of the sample, so its HT sum scales by b — unless it is
// already a complete estimate.
func htTotalPerSub(p *partials, col func(int) sqlparser.Expr, b int64) sqlparser.Expr {
	if p.replicated {
		return col(0)
	}
	return binop("*", col(0), intLit(b))
}

// ratioEstimate is avg's estimate: the HT sum over the HT count.
func ratioEstimate(_ *partials, col func(int) sqlparser.Expr, _ int64) sqlparser.Expr {
	return binop("/", col(0), col(1))
}

// momentPartials are the HT sums of x, x² and 1 that var and stddev need.
func momentPartials(fc *sqlparser.FuncCall, ht func(sqlparser.Expr) sqlparser.Expr) ([]sqlparser.Expr, error) {
	return []sqlparser.Expr{ht(argOf(fc)), ht(binop("*", argOf(fc), argOf(fc))), ht(floatLit(1))}, nil
}

// moments is the variance E[x²] − E[x]² over momentPartials, or the standard
// deviation sqrt(abs(·)) of it.
func moments(stddev bool) func(*partials, func(int) sqlparser.Expr, int64) sqlparser.Expr {
	return func(_ *partials, col func(int) sqlparser.Expr, _ int64) sqlparser.Expr {
		mean := binop("/", col(0), col(2))
		meanSq := binop("/", col(1), col(2))
		variance := binop("-", meanSq, call("pow", mean, intLit(2)))
		if stddev {
			return call("sqrt", call("abs", variance))
		}
		return variance
	}
}

// overSums is the point estimate of a ratio-shaped per-subsample estimator:
// the same ratio over the partials summed across every subsample.
func overSums(est func(*partials, func(int) sqlparser.Expr, int64) sqlparser.Expr) func(*partials, func(int) sqlparser.Expr) sqlparser.Expr {
	return func(p *partials, col func(int) sqlparser.Expr) sqlparser.Expr {
		return est(p, func(i int) sqlparser.Expr { return call("sum", col(i)) }, 0)
	}
}

// htSum returns the Horvitz-Thompson sum over a source with inclusion
// probability prob: e ↦ sum(e / prob).
func htSum(prob sqlparser.Expr) func(sqlparser.Expr) sqlparser.Expr {
	return func(e sqlparser.Expr) sqlparser.Expr { return call("sum", overProb(e, prob)) }
}

// argOf returns a fresh copy of an aggregate call's first argument.
func argOf(fc *sqlparser.FuncCall) sqlparser.Expr {
	if len(fc.Args) == 0 {
		return nil
	}
	return sqlparser.CloneExpr(fc.Args[0])
}

func call(name string, args ...sqlparser.Expr) sqlparser.Expr {
	return &sqlparser.FuncCall{Name: name, Args: args}
}

func binop(op string, l, r sqlparser.Expr) sqlparser.Expr {
	return &sqlparser.BinaryExpr{Op: op, L: l, R: r}
}

// errorExpr wraps a per-subsample estimator into the standard-error formula
// of Appendix G:
//
//	stddev(est_i) * sqrt(avg(sub_size)) / sqrt(sum(sub_size))
func errorExpr(perSub sqlparser.Expr) sqlparser.Expr {
	size := func() sqlparser.Expr { return &sqlparser.ColumnRef{Table: innerAlias, Name: sizeCol} }
	return binop("/",
		binop("*", call("stddev", perSub), call("sqrt", call("avg", size()))),
		call("sqrt", call("sum", size())))
}

func quantileFraction(fc *sqlparser.FuncCall) (float64, error) {
	if fc.Name == "median" || fc.Name == "approx_median" || len(fc.Args) < 2 {
		return 0.5, nil
	}
	lit, ok := fc.Args[1].(*sqlparser.Literal)
	if !ok {
		return 0, fmt.Errorf("core: percentile fraction must be a literal")
	}
	switch v := lit.Val.(type) {
	case int64:
		return float64(v), nil
	case float64:
		return v, nil
	}
	return 0, fmt.Errorf("core: bad percentile fraction")
}

// itemName is a select item's output name: its alias, or a name derived
// from its expression.
func itemName(it sqlparser.SelectItem, pos int) string {
	if it.Alias != "" {
		return it.Alias
	}
	return deriveName(it.Expr, pos)
}

func deriveName(e sqlparser.Expr, pos int) string {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		return x.Name
	case *sqlparser.FuncCall:
		return x.Name
	}
	return fmt.Sprintf("_c%d", pos)
}

func isPositional(e sqlparser.Expr) bool {
	lit, ok := e.(*sqlparser.Literal)
	if !ok {
		return false
	}
	_, isInt := lit.Val.(int64)
	return isInt
}

func isAliasRef(e sqlparser.Expr, items []sqlparser.SelectItem) bool {
	cr, ok := e.(*sqlparser.ColumnRef)
	if !ok || cr.Table != "" {
		return false
	}
	for _, it := range items {
		if strings.EqualFold(it.Alias, cr.Name) {
			return true
		}
	}
	return false
}
