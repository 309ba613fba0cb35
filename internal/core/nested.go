package core

import (
	"fmt"
	"strings"

	"verdictdb/internal/sampling"
	"verdictdb/internal/sqlparser"
)

// nestedInfo describes the variational table built for a derived aggregate
// block.
type nestedInfo struct {
	b int64
	// complete is true when the block's GROUP BY includes the universe
	// (hashed) sample's hash column: every surviving group then contains
	// ALL of its base tuples, so inner aggregates are exact per group and
	// the enclosing query sees each group row with inclusion probability
	// ratio (the universe τ). This is what makes per-entity statistics
	// (e.g. average basket value) unbiased — Bernoulli samples cannot
	// preserve small groups, universe samples can (Section 5.1).
	complete bool
	ratio    float64
}

// rewriteNested turns a derived table containing aggregates into its
// variational table (Section 5.2, Query 7): the block is re-grouped by
// (original groups, sid) and each aggregate becomes its per-subsample
// estimator, so the enclosing query sees one row per (group, subsample)
// carrying an estimate of the true aggregate plus a verdict_sid column.
//
// info.b is 0 if the block touched no samples.
func (rw *rewriter) rewriteNested(sel *sqlparser.SelectStmt) (*sqlparser.SelectStmt, nestedInfo, error) {
	newFrom, src, err := rw.substituteFrom(sel.From)
	if err != nil {
		return nil, nestedInfo{}, err
	}
	if src.sid == nil {
		return nil, nestedInfo{}, nil
	}
	info := nestedInfo{b: src.b, ratio: src.ratio}
	if src.hashed && groupsContainHashCol(sel.GroupBy, src.hashedCols) {
		info.complete = true
		// Groups are complete: aggregate them exactly (probability 1
		// within the group) and let the enclosing level scale by τ.
		src.prob = nil
	}
	out := &sqlparser.SelectStmt{
		From:  newFrom,
		Where: sqlparser.CloneExpr(sel.Where),
	}
	if bp := rw.takeBlockPred(); bp != nil {
		out.Where = andExpr(out.Where, bp)
	}
	for _, g := range sel.GroupBy {
		out.GroupBy = append(out.GroupBy, sqlparser.CloneExpr(g))
	}

	substitute := func(e sqlparser.Expr) (sqlparser.Expr, error) {
		if info.complete {
			// Complete groups need no estimator surgery: the original
			// aggregates are exact within each surviving group.
			return sqlparser.CloneExpr(e), nil
		}
		return mapAggs(e, func(fc *sqlparser.FuncCall) (sqlparser.Expr, error) { return nestedEstimate(fc, src) })
	}

	for i, it := range sel.Items {
		if it.Star {
			return nil, nestedInfo{}, fmt.Errorf("core: SELECT * not supported in nested aggregate blocks")
		}
		name := itemName(it, i)
		if sqlparser.ContainsAggregate(it.Expr) {
			est, err := substitute(it.Expr)
			if err != nil {
				return nil, nestedInfo{}, err
			}
			out.Items = append(out.Items, sqlparser.SelectItem{Expr: est, Alias: name})
		} else {
			out.Items = append(out.Items, sqlparser.SelectItem{Expr: sqlparser.CloneExpr(it.Expr), Alias: name})
		}
	}
	// Per-subsample grouping: append sid.
	out.Items = append(out.Items, sqlparser.SelectItem{
		Expr: sqlparser.CloneExpr(src.sid), Alias: sampling.SidCol,
	})
	out.GroupBy = append(out.GroupBy, sqlparser.CloneExpr(src.sid))

	if sel.Having != nil {
		h, err := substitute(sel.Having)
		if err != nil {
			return nil, nestedInfo{}, err
		}
		out.Having = h
	}
	// ORDER BY / LIMIT inside a derived aggregate block would change which
	// rows survive per subsample; the paper's supported query class keeps
	// ordering at the top level, so it is dropped here (LIMIT would be
	// statistically meaningless per subsample).
	return out, info, nil
}

// groupsContainHashCol reports whether some GROUP BY term is a column the
// universe sample hashes on (matched by qualified "alias.col" or bare name).
func groupsContainHashCol(groupBy []sqlparser.Expr, hashedCols map[string]bool) bool {
	for _, g := range groupBy {
		cr, ok := g.(*sqlparser.ColumnRef)
		if !ok {
			continue
		}
		name := strings.ToLower(cr.Name)
		if cr.Table != "" {
			if hashedCols[strings.ToLower(cr.Table)+"."+name] {
				return true
			}
			continue
		}
		//verdict:unordered existence check; any-order traversal yields the same answer
		for k := range hashedCols {
			if strings.HasSuffix(k, "."+name) {
				return true
			}
		}
	}
	return false
}

// nestedEstimate is one aggregate's per-subsample estimate inside a
// variational table: its estimator's perSub over the partial expressions
// themselves, evaluated per (group, sid).
func nestedEstimate(fc *sqlparser.FuncCall, src vsource) (sqlparser.Expr, error) {
	kind := classifyAgg(fc)
	if kind == AggExtreme {
		// min/max in a nested block: keep it as-is per subsample (a
		// conservative estimate; the middleware never approximates extreme
		// stats at the top level).
		return sqlparser.CloneExpr(fc), nil
	}
	est, ok := estimators[kind]
	if !ok {
		return nil, fmt.Errorf("core: aggregate %s not supported in nested block", fc.Name)
	}
	parts, err := est.partials(fc, htSum(src.prob))
	if err != nil {
		return nil, err
	}
	p := &partials{kind: kind, ratio: src.ratio, replicated: src.replicated}
	return est.perSub(p, func(i int) sqlparser.Expr { return sqlparser.CloneExpr(parts[i]) }, src.b), nil
}
