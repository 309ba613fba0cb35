package main

import (
	"fmt"
	"hash"
	"math"
	"sort"
	"strconv"
	"strings"

	verdictdb "verdictdb"
	"verdictdb/internal/engine"
	"verdictdb/internal/sqlparser"
)

// verdict accumulates the outcome of a run's verification passes.
type verdict struct {
	checked  int            // shapes run
	failures []string       // one line per shape that failed
	rows     map[string]int // approximate answer's row count by shape, the timed loop's cheap per-op check
	exact    map[string]int // the same for the BYPASS answer

	relErrs []float64 // true relative error of every matched aggregate cell
	cells   int       // aggregate cells with an exact counterpart
	covered int       // ... whose exact value lies inside the confidence interval
}

func (v *verdict) relErrMedian() float64 { return median(v.relErrs) }

func (v *verdict) coverage() float64 {
	if v.cells == 0 {
		return 0
	}
	return float64(v.covered) / float64(v.cells)
}

// verify runs every shape once through the AQP path and once with BYPASS and
// checks the first against the second, adding both answers to digest:
// passthrough answers must equal the exact rows; approximate answers must
// have the same columns and no group the exact answer lacks. Every estimated
// cell feeds the accuracy metrics. redraws holds further approximate answers
// to the same shapes, from systems over the same data whose samples were
// drawn independently (see approxAnswers); they are checked against the same
// exact answers, which makes the accuracy metrics three times steadier
// across seeds for the price of 33 sample-sized queries each.
func (v *verdict) verify(ev *env, shapes []shape, digest hash.Hash, redraws [][]*verdictdb.Answer) error {
	for i, s := range shapes {
		conn := ev.sides[s.side].conn
		approx, err := conn.Query(s.sql)
		if err != nil {
			return fmt.Errorf("%s: %w", s.id, err)
		}
		exact, err := conn.Query("BYPASS " + s.sql)
		if err != nil {
			return fmt.Errorf("%s exact: %w", s.id, err)
		}
		v.checked++
		v.rows[s.id] = len(approx.Rows)
		v.exact[s.id] = len(exact.Rows)
		digestAnswer(digest, s.id, approx)
		digestAnswer(digest, s.id+" exact", exact)
		if msg := v.compare(s, approx, exact); msg != "" {
			v.failures = append(v.failures, s.id+": "+msg)
		}
		for k, answers := range redraws {
			v.checked++
			if msg := v.compare(s, answers[i], exact); msg != "" {
				v.failures = append(v.failures, fmt.Sprintf("%s (sample redraw %d): %s", s.id, k+1, msg))
			}
		}
	}
	return nil
}

// approxAnswers runs every shape once through the AQP path.
func approxAnswers(ev *env, shapes []shape) ([]*verdictdb.Answer, error) {
	out := make([]*verdictdb.Answer, len(shapes))
	for i, s := range shapes {
		a, err := ev.sides[s.side].conn.Query(s.sql)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.id, err)
		}
		out[i] = a
	}
	return out, nil
}

func (v *verdict) compare(s shape, approx, exact *verdictdb.Answer) string {
	if strings.Join(approx.Cols, ",") != strings.Join(exact.Cols, ",") {
		return fmt.Sprintf("columns %v, exact has %v", approx.Cols, exact.Cols)
	}
	if !approx.Approximate {
		if rowsText(approx) != rowsText(exact) {
			return "passthrough rows differ from the exact rows"
		}
		return ""
	}
	stmt, err := sqlparser.Parse(s.sql)
	sel, ok := stmt.(*sqlparser.SelectStmt)
	if err != nil || !ok || len(sel.Items) != len(approx.Cols) {
		return "cannot tell the aggregate columns from the SQL"
	}
	// Select items that hold an aggregate are estimates; the rest form the
	// group key.
	isAgg := make([]bool, len(sel.Items))
	for c, it := range sel.Items {
		isAgg[c] = it.Expr != nil && sqlparser.ContainsAggregate(it.Expr)
	}
	keyOf := func(row []engine.Value) string {
		var b strings.Builder
		for c, agg := range isAgg {
			if !agg {
				b.WriteString(engine.GroupKey(row[c]))
				b.WriteByte(0x1f)
			}
		}
		return b.String()
	}
	exactByKey := make(map[string][]engine.Value, len(exact.Rows))
	for _, row := range exact.Rows {
		exactByKey[keyOf(row)] = row
	}
	// A LIMIT picks groups by estimated rank, and tq-13 groups by an inner
	// aggregate that is itself estimated: neither can promise exact keys.
	looseKeys := sel.Limit != nil || s.id == "tq-13"
	for r, row := range approx.Rows {
		erow, ok := exactByKey[keyOf(row)]
		if !ok {
			if looseKeys {
				continue
			}
			return fmt.Sprintf("group %q is not in the exact answer", keyOf(row))
		}
		for c, agg := range isAgg {
			want, isNum := engine.ToFloat(erow[c])
			if !agg || !isNum {
				continue
			}
			got, isNum := engine.ToFloat(row[c])
			if !isNum || math.IsNaN(got) {
				// A 2 % sample can hold no row of a selective predicate
				// (tq-19 at some seeds): the estimate is missing, which is
				// the worst accuracy, not a broken answer.
				v.cells++
				v.relErrs = append(v.relErrs, 1)
				continue
			}
			lo, hi, ok := approx.ConfidenceInterval(r, c)
			if !ok {
				continue // answered exactly (extreme statistics), not an estimate
			}
			v.cells++
			if lo <= want && want <= hi {
				v.covered++
			}
			if want != 0 {
				v.relErrs = append(v.relErrs, math.Abs(got-want)/math.Abs(want))
			}
		}
	}
	return ""
}

func rowsText(a *verdictdb.Answer) string {
	var b strings.Builder
	for _, row := range a.Rows {
		for _, cell := range row {
			b.WriteString(cellText(cell))
			b.WriteByte(0x1f)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// cellText formats a value with every digit, so digests differ whenever an
// answer does.
func cellText(v engine.Value) string {
	if f, ok := v.(float64); ok {
		return strconv.FormatFloat(f, 'g', -1, 64)
	}
	return fmt.Sprint(v)
}

func digestAnswer(h hash.Hash, id string, a *verdictdb.Answer) {
	fmt.Fprintf(h, "%s\n%s\n%s", id, strings.Join(a.Cols, ","), rowsText(a))
	for _, row := range a.StdErr {
		for _, se := range row {
			fmt.Fprintf(h, "%s,", strconv.FormatFloat(se, 'g', -1, 64))
		}
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by nearest rank (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
