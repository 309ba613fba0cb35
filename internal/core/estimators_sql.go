package core

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/sqlparser"
	"verdictdb/internal/stats"
)

// resampleSeq uniquifies the baselines' scratch-table names so concurrent
// resampling queries never clobber each other's temp tables.
var resampleSeq atomic.Int64

// This file implements the two resampling baselines of Section 6.4 as a
// middleware would have to: entirely in SQL.
//
// Traditional subsampling (Query 1): materialize an O(b*n) table assigning
// each sample tuple to each subsample with probability ns/n, then aggregate
// per subsample. Consolidated bootstrap: the same materialization but with a
// Poisson(1) multiplicity per (tuple, resample) — the standard online
// bootstrap consolidation. Both pay the O(b*n) construction the paper's
// variational subsampling avoids; benchmarks (Figure 7) measure exactly
// that gap.

// runResamplingBaseline answers a query using traditional subsampling or
// consolidated bootstrap. Only plain aggregate items (count/sum/avg) are
// supported — the baselines exist for the Figure 7 comparison.
func (m *Middleware) runResamplingBaseline(ctx context.Context, sel *sqlparser.SelectStmt, cp ConsolidatedPlan, original string) (*Answer, error) {
	b := 100

	// Substitute samples into FROM.
	rw := &rewriter{plan: cp.Plan}
	newFrom, src, err := rw.substituteFrom(sel.From)
	if err != nil || src.sid == nil {
		return m.passthrough(ctx, original, PassOther)
	}

	// Decompose items: group items and plain aggregates.
	type aggSpec struct {
		itemIdx int
		kind    AggKind
		arg     sqlparser.Expr // nil for count(*)
		name    string
	}
	var groups []struct {
		expr  sqlparser.Expr
		alias string
		idx   int
	}
	var aggs []aggSpec
	for i, it := range sel.Items {
		if it.Expr == nil {
			return m.passthrough(ctx, original, PassOther)
		}
		if !sqlparser.ContainsAggregate(it.Expr) {
			alias := fmt.Sprintf("g%d", len(groups))
			groups = append(groups, struct {
				expr  sqlparser.Expr
				alias string
				idx   int
			}{it.Expr, alias, i})
			continue
		}
		fc, ok := it.Expr.(*sqlparser.FuncCall)
		if !ok {
			return m.passthrough(ctx, original, PassOther)
		}
		kind := classifyAgg(fc)
		if kind != AggCount && kind != AggSum && kind != AggAvg {
			return m.passthrough(ctx, original, PassOther)
		}
		var arg sqlparser.Expr
		if len(fc.Args) > 0 {
			arg = fc.Args[0]
		}
		name := it.Alias
		if name == "" {
			name = deriveName(it.Expr, i)
		}
		aggs = append(aggs, aggSpec{itemIdx: i, kind: kind, arg: arg, name: name})
	}
	if len(aggs) == 0 {
		return m.passthrough(ctx, original, PassOther)
	}

	start := time.Now()
	var totalScanned int64
	exec := func(canonical string) error {
		stmt, err := sqlparser.Parse(canonical)
		if err != nil {
			return fmt.Errorf("core: baseline SQL parse: %w (sql: %s)", err, canonical)
		}
		return m.db.ExecContext(ctx, drivers.Render(m.db, stmt))
	}
	query := func(canonical string) (*engine.ResultSet, error) {
		stmt, err := sqlparser.Parse(canonical)
		if err != nil {
			return nil, fmt.Errorf("core: baseline SQL parse: %w (sql: %s)", err, canonical)
		}
		rs, err := m.db.QueryContext(ctx, drivers.Render(m.db, stmt))
		if rs != nil {
			totalScanned += rs.RowsScanned
		}
		return rs, err
	}

	// 1. Materialize the filtered sample relation once: group columns,
	// aggregate arguments, inclusion probability.
	seq := strconv.FormatInt(resampleSeq.Add(1), 10)
	baseTmp := drivers.QualifyTemp("resample_base", seq)
	var items []string
	for _, g := range groups {
		items = append(items, fmt.Sprintf("%s as %s", sqlparser.FormatExpr(g.expr), g.alias))
	}
	for k, a := range aggs {
		if a.arg != nil {
			items = append(items, fmt.Sprintf("%s as x%d", sqlparser.FormatExpr(a.arg), k))
		} else {
			items = append(items, fmt.Sprintf("1.0 as x%d", k))
		}
	}
	items = append(items, fmt.Sprintf("%s as p", sqlparser.FormatExpr(probOrOne(src.prob))))
	fromSQL := sqlparser.FormatDialect(&sqlparser.SelectStmt{
		Items: []sqlparser.SelectItem{{Star: true}},
		From:  newFrom,
		Where: sqlparser.CloneExpr(sel.Where),
	}, sqlparser.DefaultDialect)
	fromSQL = strings.TrimPrefix(fromSQL, "SELECT * FROM ")
	whereSQL := ""
	if idx := strings.Index(fromSQL, " WHERE "); idx >= 0 {
		whereSQL = fromSQL[idx:]
		fromSQL = fromSQL[:idx]
	}
	if err := exec("drop table if exists " + baseTmp); err != nil {
		return nil, err
	}
	if err := exec(fmt.Sprintf("create table %s as select %s from %s%s",
		baseTmp, strings.Join(items, ", "), fromSQL, whereSQL)); err != nil {
		return nil, err
	}
	defer func() { _ = exec("drop table if exists " + baseTmp) }()

	rsN, err := query("select count(*) from " + baseTmp)
	if err != nil {
		return nil, err
	}
	n, _ := engine.ToInt(rsN.Rows[0][0])
	if n == 0 {
		return m.passthrough(ctx, original, PassOther)
	}
	ns := int64(math.Sqrt(float64(n)))
	if ns < 1 {
		ns = 1
	}

	// 2. Numbers table with b subsample ids.
	numsTmp := drivers.QualifyTemp("resample_nums", seq)
	if err := exec("drop table if exists " + numsTmp); err != nil {
		return nil, err
	}
	if err := exec(fmt.Sprintf("create table %s (sid bigint)", numsTmp)); err != nil {
		return nil, err
	}
	var vals []string
	for i := 1; i <= b; i++ {
		vals = append(vals, fmt.Sprintf("(%d)", i))
	}
	if err := exec(fmt.Sprintf("insert into %s values %s", numsTmp, strings.Join(vals, ", "))); err != nil {
		return nil, err
	}
	defer func() { _ = exec("drop table if exists " + numsTmp) }()

	// 3. The O(b*n) resample materialization.
	subsTmp := drivers.QualifyTemp("resample_subs", seq)
	if err := exec("drop table if exists " + subsTmp); err != nil {
		return nil, err
	}
	var ctas string
	if m.opts.Method == MethodTraditionalSubsampling {
		ctas = fmt.Sprintf(
			"create table %s as select t.*, nums.sid, 1.0 as w from %s as t cross join %s as nums where rand() < %.12g",
			subsTmp, baseTmp, numsTmp, float64(ns)/float64(n))
	} else {
		ctas = fmt.Sprintf(
			"create table %s as select t.*, nums.sid, rand_poisson1() as w from %s as t cross join %s as nums",
			subsTmp, baseTmp, numsTmp)
	}
	if err := exec(ctas); err != nil {
		return nil, err
	}
	defer func() { _ = exec("drop table if exists " + subsTmp) }()

	// 4. Per-subsample aggregates and full-sample point estimates.
	groupCols := make([]string, len(groups))
	for i, g := range groups {
		groupCols[i] = g.alias
	}
	var subAggs, pointAggs []string
	subAggs = append(subAggs, "sum(w / p) as ht")
	pointAggs = append(pointAggs, "sum(1.0 / p) as ht")
	for k := range aggs {
		subAggs = append(subAggs, fmt.Sprintf("sum(w * x%d / p) as s%d", k, k))
		pointAggs = append(pointAggs, fmt.Sprintf("sum(x%d / p) as s%d", k, k))
	}
	groupPrefixSQL := ""
	groupBySub := "sid"
	groupByPoint := ""
	if len(groupCols) > 0 {
		groupPrefixSQL = strings.Join(groupCols, ", ") + ", "
		groupBySub = strings.Join(groupCols, ", ") + ", sid"
		groupByPoint = " group by " + strings.Join(groupCols, ", ")
	}
	rsSub, err := query(fmt.Sprintf("select %ssid, %s from %s group by %s",
		groupPrefixSQL, strings.Join(subAggs, ", "), subsTmp, groupBySub))
	if err != nil {
		return nil, err
	}
	rsPoint, err := query(fmt.Sprintf("select %s%s from %s%s",
		groupPrefixSQL, strings.Join(pointAggs, ", "), baseTmp, groupByPoint))
	if err != nil {
		return nil, err
	}

	// 5. Combine in the answer rewriter: per-group point estimates and the
	// spread of per-subsample estimates.
	ng := len(groups)
	scale := 1.0
	if m.opts.Method == MethodTraditionalSubsampling {
		scale = float64(n) / float64(ns) // HT correction for ns/n thinning
	}
	type acc struct {
		point []float64
		ests  [][]float64 // per agg: per-subsample estimates
	}
	rowsByKey := map[string]*acc{}
	var order []string
	keyOf := func(row []engine.Value) string {
		var kb strings.Builder
		for i := 0; i < ng; i++ {
			kb.WriteString(engine.GroupKey(row[i]))
			kb.WriteByte('\x1f')
		}
		return kb.String()
	}
	groupVals := map[string][]engine.Value{}
	for _, row := range rsPoint.Rows {
		k := keyOf(row)
		a := &acc{point: make([]float64, len(aggs)), ests: make([][]float64, len(aggs))}
		ht, _ := engine.ToFloat(row[ng])
		for j := range aggs {
			s, _ := engine.ToFloat(row[ng+1+j])
			switch aggs[j].kind {
			case AggCount:
				a.point[j] = ht
			case AggSum:
				a.point[j] = s
			case AggAvg:
				if ht != 0 {
					a.point[j] = s / ht
				}
			}
		}
		rowsByKey[k] = a
		order = append(order, k)
		groupVals[k] = row[:ng]
	}
	for _, row := range rsSub.Rows {
		k := keyOf(row)
		a, ok := rowsByKey[k]
		if !ok {
			continue
		}
		ht, _ := engine.ToFloat(row[ng+1])
		for j := range aggs {
			s, _ := engine.ToFloat(row[ng+2+j])
			var est float64
			switch aggs[j].kind {
			case AggCount:
				est = ht * scale
			case AggSum:
				est = s * scale
			case AggAvg:
				if ht == 0 {
					continue
				}
				est = s / ht
			}
			a.ests[j] = append(a.ests[j], est)
		}
	}

	answer := &Answer{
		Approximate:  true,
		Status:       Supported,
		Confidence:   m.opts.Confidence,
		SampleTables: rw.sampleTables,
		RewrittenSQL: []string{ctas},
	}
	answer.Cols = make([]string, len(sel.Items))
	for i, it := range sel.Items {
		if it.Alias != "" {
			answer.Cols[i] = it.Alias
		} else {
			answer.Cols[i] = deriveName(it.Expr, i)
		}
	}
	seScale := 1.0
	if m.opts.Method == MethodTraditionalSubsampling {
		seScale = math.Sqrt(float64(ns) / float64(n))
	}
	for _, k := range order {
		a := rowsByKey[k]
		row := make([]engine.Value, len(sel.Items))
		errs := make([]float64, len(sel.Items))
		for i := range errs {
			errs[i] = math.NaN()
		}
		for gi, g := range groups {
			row[g.idx] = groupVals[k][gi]
		}
		for j, as := range aggs {
			row[as.itemIdx] = a.point[j]
			if len(a.ests[j]) > 1 {
				errs[as.itemIdx] = stats.Stddev(a.ests[j]) * seScale
			}
		}
		answer.Rows = append(answer.Rows, row)
		answer.StdErr = append(answer.StdErr, errs)
	}
	answer.ElapsedNanos = time.Since(start).Nanoseconds()
	answer.RowsScanned = totalScanned
	if err := m.applyOrderLimit(sel, answer); err != nil {
		return answer, nil //nolint:nilerr // ordering best-effort for baselines
	}
	return answer, nil
}
