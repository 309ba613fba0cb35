// Package core implements VerdictDB's middleware: the AQP rewriter that
// turns an analytic query into a single SQL statement whose standard
// execution yields an unbiased approximate answer plus error estimates
// (Sections 4-5), the sample planner that picks sample tables under an I/O
// budget (Appendix E), and the answer rewriter that scales results and
// enforces accuracy contracts (Section 2.4).
package core

import (
	"fmt"
	"strings"

	"verdictdb/internal/sqlparser"
)

// SupportStatus classifies whether the middleware can speed up a query
// (Table 1). Unsupported queries pass through to the engine unchanged.
type SupportStatus int

// Support classifications.
const (
	Supported SupportStatus = iota
	// PassNoAggregates: no aggregate functions and no GROUP BY.
	PassNoAggregates
	// PassExistsSubquery: EXISTS / IN-subquery predicates (Section 2.2:
	// VerdictDB does not approximate these).
	PassExistsSubquery
	// PassSetOperation: UNION and friends.
	PassSetOperation
	// PassDistinctSelect: SELECT DISTINCT blocks.
	PassDistinctSelect
	// PassOnlyExtremes: every aggregate is min/max (never approximated).
	PassOnlyExtremes
	// PassOther: anything else the rewriter cannot handle.
	PassOther
)

func (s SupportStatus) String() string {
	switch s {
	case Supported:
		return "supported"
	case PassNoAggregates:
		return "no aggregates"
	case PassExistsSubquery:
		return "exists/in-subquery"
	case PassSetOperation:
		return "set operation"
	case PassDistinctSelect:
		return "select distinct"
	case PassOnlyExtremes:
		return "extreme statistics only"
	}
	return "unsupported"
}

// extremeAggs are the statistics VerdictDB never approximates.
var extremeAggs = map[string]bool{"min": true, "max": true}

// Analyze inspects a parsed SELECT and reports whether the AQP rewriter
// supports it.
func Analyze(sel *sqlparser.SelectStmt) SupportStatus {
	if sel.Union != nil {
		return PassSetOperation
	}
	if sel.Distinct {
		return PassDistinctSelect
	}
	if !sqlparser.HasAggregates(sel) {
		return PassNoAggregates
	}
	// EXISTS / IN-subquery anywhere in WHERE or HAVING.
	disqualified := false
	checkPred := func(e sqlparser.Expr) {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			switch t := x.(type) {
			case *sqlparser.ExistsExpr:
				disqualified = true
			case *sqlparser.InExpr:
				if t.Subquery != nil {
					disqualified = true
				}
			}
			return true
		})
	}
	checkPred(sel.Where)
	checkPred(sel.Having)
	if disqualified {
		return PassExistsSubquery
	}
	// Subqueries in the select list are not approximated.
	for _, it := range sel.Items {
		bad := false
		sqlparser.WalkExpr(it.Expr, func(x sqlparser.Expr) bool {
			if _, ok := x.(*sqlparser.SubqueryExpr); ok {
				bad = true
			}
			return true
		})
		if bad {
			return PassOther
		}
	}
	// All aggregates extreme?
	anyMeanLike := false
	for _, it := range sel.Items {
		sqlparser.WalkExpr(it.Expr, func(x sqlparser.Expr) bool {
			if fc, ok := x.(*sqlparser.FuncCall); ok && fc.Over == nil && sqlparser.AggregateFuncs[fc.Name] {
				if !extremeAggs[fc.Name] {
					anyMeanLike = true
				}
				return false
			}
			return true
		})
	}
	if !anyMeanLike {
		if len(sel.GroupBy) > 0 && len(collectAggItems(sel)) == 0 {
			// GROUP BY without aggregate functions: just a dedup; pass.
			return PassNoAggregates
		}
		return PassOnlyExtremes
	}
	return Supported
}

// AggKind classifies an aggregate call for rewriting.
type AggKind int

// Aggregate classes the rewriter distinguishes.
const (
	AggCount AggKind = iota
	AggSum
	AggAvg
	AggVar
	AggStddev
	AggQuantile
	AggCountDistinct
	AggExtreme // min/max — answered exactly
	AggOther
)

// classifyAgg maps a function call to its rewrite class.
func classifyAgg(fc *sqlparser.FuncCall) AggKind {
	if fc.Distinct {
		if fc.Name == "count" {
			return AggCountDistinct
		}
		return AggOther
	}
	switch fc.Name {
	case "count", "approx_count_distinct", "ndv":
		if fc.Name != "count" {
			return AggCountDistinct
		}
		return AggCount
	case "sum":
		return AggSum
	case "avg":
		return AggAvg
	case "var", "variance", "var_samp":
		return AggVar
	case "stddev", "stddev_samp":
		return AggStddev
	case "percentile", "quantile", "median", "approx_median":
		return AggQuantile
	case "min", "max":
		return AggExtreme
	}
	return AggOther
}

// aggsIn returns the distinct aggregate calls inside an expression.
func aggsIn(e sqlparser.Expr) []*sqlparser.FuncCall {
	var out []*sqlparser.FuncCall
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if fc, ok := x.(*sqlparser.FuncCall); ok && fc.Over == nil && sqlparser.AggregateFuncs[fc.Name] {
			out = append(out, fc)
			return false
		}
		return true
	})
	return out
}

// collectAggItems returns the indexes of select items containing aggregates.
func collectAggItems(sel *sqlparser.SelectStmt) []int {
	var out []int
	for i, it := range sel.Items {
		if it.Expr != nil && sqlparser.ContainsAggregate(it.Expr) {
			out = append(out, i)
		}
	}
	return out
}

// tableOccurrence is one base-table reference in a FROM tree.
type tableOccurrence struct {
	Alias string // effective alias (lower-cased)
	Base  string // base table name (lower-cased)
	// Rows is the base table's cardinality (0 when unknown); the planner
	// charges large base-table reads against the I/O budget.
	Rows int64
	// JoinCols are this occurrence's columns used in equi-join conditions,
	// mapped to the (alias, column) on the other side.
	JoinCols map[string][]joinPeer
}

type joinPeer struct {
	Alias string
	Col   string
}

// collectOccurrences walks a FROM tree gathering base-table references and
// equi-join column pairs. Derived tables are descended into (their inner
// occurrences are planned too) but tracked separately by the rewriter.
func collectOccurrences(from sqlparser.TableExpr, out map[string]*tableOccurrence) error {
	switch t := from.(type) {
	case nil:
		return nil
	case *sqlparser.TableRef:
		alias := strings.ToLower(t.Alias)
		if alias == "" {
			alias = strings.ToLower(baseName(t.Name))
		}
		if _, dup := out[alias]; dup {
			return fmt.Errorf("core: duplicate table alias %q", alias)
		}
		out[alias] = &tableOccurrence{
			Alias:    alias,
			Base:     strings.ToLower(t.Name),
			JoinCols: map[string][]joinPeer{},
		}
		return nil
	case *sqlparser.DerivedTable:
		// The derived table's own occurrences are handled when the rewriter
		// recurses; at this level it contributes no sampleable occurrence.
		return nil
	case *sqlparser.JoinExpr:
		if err := collectOccurrences(t.Left, out); err != nil {
			return err
		}
		if err := collectOccurrences(t.Right, out); err != nil {
			return err
		}
		recordJoinPairs(t.On, out)
		return nil
	}
	return fmt.Errorf("core: unsupported FROM element %T", from)
}

// recordJoinPairs extracts alias1.c1 = alias2.c2 conjuncts.
func recordJoinPairs(on sqlparser.Expr, occ map[string]*tableOccurrence) {
	if on == nil {
		return
	}
	if be, ok := on.(*sqlparser.BinaryExpr); ok {
		if be.Op == "AND" {
			recordJoinPairs(be.L, occ)
			recordJoinPairs(be.R, occ)
			return
		}
		if be.Op == "=" {
			l, lok := be.L.(*sqlparser.ColumnRef)
			r, rok := be.R.(*sqlparser.ColumnRef)
			if lok && rok && l.Table != "" && r.Table != "" {
				la, ra := strings.ToLower(l.Table), strings.ToLower(r.Table)
				lc, rc := strings.ToLower(l.Name), strings.ToLower(r.Name)
				if lo, ok := occ[la]; ok {
					lo.JoinCols[lc] = append(lo.JoinCols[lc], joinPeer{Alias: ra, Col: rc})
				}
				if ro, ok := occ[ra]; ok {
					ro.JoinCols[rc] = append(ro.JoinCols[rc], joinPeer{Alias: la, Col: lc})
				}
			}
		}
	}
}

func baseName(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}
