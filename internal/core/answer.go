package core

import (
	"math"
	"strings"

	"verdictdb/internal/engine"
	"verdictdb/internal/stats"
)

// Answer is what VerdictDB returns to the user: the (approximate) result
// plus error estimates and provenance.
type Answer struct {
	Cols []string
	Rows [][]engine.Value

	// StdErr[r][c] is the estimated standard error of Rows[r][c]; NaN for
	// non-aggregate columns and exact results.
	StdErr [][]float64

	// Approximate is true when sample tables answered the query.
	Approximate bool
	// Status explains a passthrough (Supported when Approximate).
	Status SupportStatus
	// SampleTables lists the samples used.
	SampleTables []string
	// RewrittenSQL holds the SQL actually sent to the engine.
	RewrittenSQL []string
	// HACFallback is true when an accuracy contract forced an exact re-run.
	HACFallback bool
	// Confidence is the confidence level used for intervals.
	Confidence float64
	// ElapsedNanos is the measured wall time of the backend calls that
	// produced the answer (0 when nothing executed, as for EXPLAIN).
	ElapsedNanos int64
	// RowsScanned totals base/sample rows read by the engine.
	RowsScanned int64
	// BlocksScanned/BlocksTotal report progressive execution's block-prefix
	// position: the answer was estimated from the first BlocksScanned of the
	// sample's BlocksTotal scramble blocks. Both are 0 for single-shot
	// execution (passthrough, non-progressive plans).
	BlocksScanned int
	BlocksTotal   int
	// DeadlineDegraded marks a progressive answer returned because the
	// query's deadline expired mid-ramp: it is the last completed block
	// prefix's unbiased partial estimate, not the accuracy-target stopping
	// point, and the guard rails (accuracy contract, cardinality check) were
	// skipped. Its standard errors are still honest.
	DeadlineDegraded bool
}

// Degraded reports whether the answer was cut short by a deadline rather
// than reaching its accuracy target (see DeadlineDegraded).
func (a *Answer) Degraded() bool { return a.DeadlineDegraded }

// ColIndex returns the index of the named output column, or -1.
func (a *Answer) ColIndex(name string) int {
	for i, c := range a.Cols {
		if strings.EqualFold(c, name) {
			return i
		}
	}
	return -1
}

// Value returns the cell at (row, named column), or nil when either is out
// of range (including a negative row, e.g. a failed lookup passed through).
func (a *Answer) Value(row int, col string) engine.Value {
	i := a.ColIndex(col)
	if i < 0 || row < 0 || row >= len(a.Rows) || i >= len(a.Rows[row]) {
		return nil
	}
	return a.Rows[row][i]
}

// Float returns the cell coerced to float64 (NaN when absent).
func (a *Answer) Float(row int, col string) float64 {
	v, ok := engine.ToFloat(a.Value(row, col))
	if !ok {
		return math.NaN()
	}
	return v
}

// ConfidenceInterval returns the (lo, hi) interval at the answer's
// confidence level for an aggregate cell; ok is false for cells without an
// error estimate.
func (a *Answer) ConfidenceInterval(row, col int) (lo, hi float64, ok bool) {
	if row < 0 || row >= len(a.StdErr) || col < 0 || col >= len(a.StdErr[row]) {
		return 0, 0, false
	}
	if row >= len(a.Rows) || col >= len(a.Rows[row]) {
		return 0, 0, false
	}
	se := a.StdErr[row][col]
	if math.IsNaN(se) {
		return 0, 0, false
	}
	v, okF := engine.ToFloat(a.Rows[row][col])
	if !okF {
		return 0, 0, false
	}
	z := stats.ZScore(a.Confidence)
	return v - z*se, v + z*se, true
}

// RelativeError returns z*se/|value| for a cell (NaN when unavailable).
func (a *Answer) RelativeError(row, col int) float64 {
	lo, hi, ok := a.ConfidenceInterval(row, col)
	if !ok {
		return math.NaN()
	}
	v, _ := engine.ToFloat(a.Rows[row][col])
	if v == 0 {
		return math.NaN()
	}
	return (hi - lo) / 2 / math.Abs(v)
}

// MaxRelativeError returns the largest relative error across all aggregate
// cells, or NaN when no cell has a defined relative error — a zero-row
// partial (or one whose aggregates are all zero or stderr-less) carries no
// accuracy information, and reporting rel-err 0 would let barely-scanned
// prefixes fake perfect accuracy past early-stopping and contract checks.
// NaN compares false against any threshold, so callers treat it as "accuracy
// unknown". It walks the StdErr matrix directly so rows the merger dropped
// (or any Rows/StdErr length mismatch) are skipped rather than recomputed
// from stale entries.
func (a *Answer) MaxRelativeError() float64 {
	worst := math.NaN()
	for r := range a.StdErr {
		if r >= len(a.Rows) {
			break
		}
		for c := range a.StdErr[r] {
			re := a.RelativeError(r, c)
			if !math.IsNaN(re) && !(re <= worst) {
				worst = re
			}
		}
	}
	return worst
}

// exactAnswer wraps an exact result set. Rows are deep-copied: the Answer
// may outlive the ResultSet (plan-cache hits, benchmark harnesses), and a
// caller mutating the ResultSet must not corrupt it.
func exactAnswer(rs *engine.ResultSet, status SupportStatus, confidence float64) *Answer {
	a := &Answer{
		Cols:        append([]string(nil), rs.Cols...),
		Rows:        copyRows(rs.Rows),
		Status:      status,
		Confidence:  confidence,
		RowsScanned: rs.RowsScanned,
	}
	a.StdErr = nanMatrix(len(rs.Rows), len(rs.Cols))
	return a
}

// copyRows deep-copies a row matrix (one level: cell values are immutable).
func copyRows(rows [][]engine.Value) [][]engine.Value {
	out := make([][]engine.Value, len(rows))
	for i, r := range rows {
		out[i] = append([]engine.Value(nil), r...)
	}
	return out
}

func nanMatrix(rows, cols int) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		row := make([]float64, cols)
		for j := range row {
			row[j] = math.NaN()
		}
		m[i] = row
	}
	return m
}

// mergedRow accumulates one output row across consolidated plans and the
// exact extreme query.
type mergedRow struct {
	vals []engine.Value
	errs []float64
	seen []bool
}

// merger assembles final answers from per-plan partial results keyed by the
// group columns.
type merger struct {
	nItems int
	rows   map[string]*mergedRow
	order  []string
}

func newMerger(nItems int) *merger {
	return &merger{nItems: nItems, rows: map[string]*mergedRow{}}
}

func (m *merger) row(key string) *mergedRow {
	r, ok := m.rows[key]
	if !ok {
		r = &mergedRow{
			vals: make([]engine.Value, m.nItems),
			errs: make([]float64, m.nItems),
			seen: make([]bool, m.nItems),
		}
		for i := range r.errs {
			r.errs[i] = math.NaN()
		}
		m.rows[key] = r
		m.order = append(m.order, key)
	}
	return r
}

// add merges one partial result set. cols describes each output column's
// role; group columns form the merge key.
func (m *merger) add(rs *engine.ResultSet, cols []OutputCol) {
	// Locate group columns (merge key parts) and error columns by item.
	errByItem := map[int]int{}
	for ci, oc := range cols {
		if oc.Kind == ColErr {
			errByItem[oc.ItemIdx] = ci
		}
	}
	for _, row := range rs.Rows {
		var kb strings.Builder
		for ci, oc := range cols {
			if oc.Kind == ColGroup {
				kb.WriteString(engine.GroupKey(row[ci]))
				kb.WriteByte('\x1f')
			}
		}
		mr := m.row(kb.String())
		for ci, oc := range cols {
			switch oc.Kind {
			case ColGroup, ColAgg:
				mr.vals[oc.ItemIdx] = row[ci]
				mr.seen[oc.ItemIdx] = true
				if oc.Kind == ColAgg {
					if ei, ok := errByItem[oc.ItemIdx]; ok {
						if se, okF := engine.ToFloat(row[ei]); okF {
							mr.errs[oc.ItemIdx] = se
						}
					}
				}
			}
		}
	}
}

// result materializes the merged rows in first-seen order, keeping only
// rows seen by every contributing plan for all items (group mismatches can
// occur when one plan's sample missed a rare group entirely). Rows with
// incomplete seen flags are dropped — emitting them would surface nil
// aggregate cells for the items the missing plan was responsible for.
func (m *merger) result() ([][]engine.Value, [][]float64) {
	rows := make([][]engine.Value, 0, len(m.order))
	errs := make([][]float64, 0, len(m.order))
	for _, k := range m.order {
		mr := m.rows[k]
		complete := true
		for _, s := range mr.seen {
			if !s {
				complete = false
				break
			}
		}
		if !complete {
			continue
		}
		rows = append(rows, mr.vals)
		errs = append(errs, mr.errs)
	}
	return rows, errs
}
