package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/sqlparser"
)

// Explain describes — without executing anything against base data — how
// the middleware would answer a SELECT: support status, the consolidated
// sample plans with scores and I/O costs, extreme-statistic decomposition,
// and the rewritten SQL that would be sent to the engine. ctx bounds the
// catalog and cardinality probes Explain issues while planning.
func (m *Middleware) Explain(ctx context.Context, sel *sqlparser.SelectStmt) (*Answer, error) {
	a := &Answer{
		Cols:       []string{"step", "detail"},
		Confidence: m.opts.Confidence,
	}
	add := func(step, detail string) {
		a.Rows = append(a.Rows, []engine.Value{step, detail})
	}

	status := Analyze(sel)
	add("support", status.String())
	if status != Supported {
		add("execution", "passthrough to underlying engine")
		a.StdErr = nanMatrix(len(a.Rows), 2)
		return a, nil
	}

	snapshot, version := m.cat.Snapshot()
	qp, err := m.planSelect(ctx, sel, snapshot, version)
	if err != nil {
		return nil, err
	}
	flat := qp.flat
	if flat != nil && sqlparser.Format(flat) != sqlparser.Format(sel) {
		add("flatten", "comparison subqueries converted to joins")
	}
	if len(qp.occ) > 0 {
		var aliases []string
		for al, o := range qp.occ {
			aliases = append(aliases, fmt.Sprintf("%s=%s", al, o.Base))
		}
		sort.Strings(aliases)
		add("tables", strings.Join(aliases, ", "))
	}
	if qp.decline != "" {
		add("plan", qp.decline)
		add("execution", "passthrough to underlying engine")
		a.StdErr = nanMatrix(len(a.Rows), 2)
		return a, nil
	}
	plans, extremeIdx, multi := qp.plans, qp.extremeIdx, qp.multi

	for i, cp := range plans {
		var choices []string
		for al, c := range cp.Plan.Choices {
			if c.Sample != nil {
				choices = append(choices, fmt.Sprintf("%s->%s", al, c.Sample.SampleTable))
			} else {
				choices = append(choices, fmt.Sprintf("%s->base", al))
			}
		}
		sort.Strings(choices)
		add(fmt.Sprintf("plan %d", i+1),
			fmt.Sprintf("items %v via %s (score %.4f, cost %d rows)",
				cp.ItemIdx, strings.Join(choices, ", "), cp.Plan.Score, cp.Plan.Cost))
		ro, err := Rewrite(flat, cp.Plan, cp.ItemIdx, !multi)
		if err != nil {
			return nil, err
		}
		add(fmt.Sprintf("rewritten %d", i+1), drivers.Render(m.db, ro.Stmt))
		add(fmt.Sprintf("subsamples %d", i+1), fmt.Sprintf("b = %d", ro.B))
	}
	if len(extremeIdx) > 0 {
		add("extreme", fmt.Sprintf("items %v answered exactly from base tables (min/max)", extremeIdx))
	}
	add("error estimation", methodName(m.opts.Method))
	a.StdErr = nanMatrix(len(a.Rows), 2)
	return a, nil
}

func methodName(m ErrorMethod) string {
	switch m {
	case MethodVariational:
		return "variational subsampling"
	case MethodNone:
		return "none"
	case MethodTraditionalSubsampling:
		return "traditional subsampling (O(b*n))"
	case MethodConsolidatedBootstrap:
		return "consolidated bootstrap (O(b*n))"
	}
	return "unknown"
}
