package core

import (
	"context"
	"errors"
	"math"
	"slices"
	"strings"

	"verdictdb/internal/engine"
	"verdictdb/internal/faultpoint"
	"verdictdb/internal/meta"
	"verdictdb/internal/sqlparser"
)

// This file holds the middleware's one execution loop (execute, runPrefix)
// and the accuracy-driven progressive execution it implements over
// block-partitioned scrambles. A single-shot query is a one-prefix run over
// the whole sample. A progressive one runs the chosen sample plan
// block-prefix by block-prefix (a doubling schedule, so total work stays
// within ~2x of the stopping prefix), re-estimates the
// variational-subsampling standard errors after each prefix, and stops as
// soon as the caller's target relative error is met — the anytime behavior
// online aggregation systems offer, expressed purely through SQL rewriting:
// each prefix but the full one adds a `_vdb_block <= K` predicate and folds
// the prefix's row fraction into the Horvitz-Thompson weights, so every
// partial answer is unbiased. Plans that cannot run progressively
// (passthrough, resampling baselines, multi-plan merges, extreme statistics,
// count-distinct, nested aggregate blocks, or samples built without blocks)
// run as one prefix.

// progressiveInfo is the cached handle for block-prefix execution of one
// plan entry. Read-only after buildEntry, like the rest of the entry.
type progressiveInfo struct {
	plan        CandidatePlan
	itemIdx     []int
	alias       string // plan-choices alias of the single sampled occurrence
	blockCounts []int64
	totalRows   int64
}

// ProgressiveUpdate is one block prefix's worth of progressive execution,
// delivered to a Progressive request's callback. Final marks the answer the
// call also returns (after guard rails ran).
type ProgressiveUpdate struct {
	Answer        *Answer
	BlocksScanned int
	BlocksTotal   int
	Final         bool
}

// ProgressiveCallback observes per-prefix answers; returning false stops
// execution early (the current prefix's answer becomes final).
type ProgressiveCallback func(ProgressiveUpdate) bool

// execute runs a plan entry prefix by prefix. A single-shot query is one
// prefix: the whole sample through the entry's cached statements. A
// progressive one (prog set and the entry eligible) walks blockSchedule and
// stops once prog's target relative error is met; its last prefix is the
// whole sample through the same cached statements, so a zero target sends
// exactly what Conn.Query sends. The accepted prefix's answer takes the
// guard rails (finishEntryAnswer); an aborted query returns its error, and
// any other failure falls back to exact execution.
func (m *Middleware) execute(ctx context.Context, e *planEntry, original string, prog *Progressive) (a *Answer, err error) {
	defer func() {
		if err == nil {
			finalUpdate(prog, a)
		}
	}()
	if e.passthrough {
		return m.passthrough(ctx, original, e.status)
	}
	var p *progressiveInfo
	bounds, total, target := []int{0}, 0, 0.0
	if prog != nil && e.prog != nil {
		p, total, target = e.prog, len(e.prog.blockCounts), prog.Target
		bounds = blockSchedule(total, target)
	}
	// prev is the most recent completed prefix's unbiased partial answer —
	// the deadline-degraded result if time runs out mid-ramp.
	var prev *Answer
	for idx := 0; ; idx++ {
		bound := bounds[idx]
		if p != nil {
			// Sample DDL between prefixes invalidates the plan: later
			// prefixes would mix block layouts across catalog versions,
			// silently biasing the estimate. Surface it as a typed error.
			if m.cat.Version() != e.version {
				return nil, ErrCatalogChanged
			}
			if err := faultpoint.Hit(faultpoint.SiteCoreProgressivePrefix); err != nil {
				return nil, err
			}
		}
		answer, minSub, err := m.runPrefix(ctx, e, bound, total, prev)
		switch {
		case err == nil:
		case errors.Is(err, context.DeadlineExceeded) && prev != nil:
			// A deadline expiring mid-ramp degrades gracefully: the last
			// completed prefix is unbiased (its Horvitz-Thompson weights
			// already fold in the prefix fraction), so returning it flagged
			// beats returning nothing.
			return m.degradeAnswer(prev), nil
		case queryAborted(err):
			// An aborted query (cancel, deadline, memory budget, contained
			// panic) propagates: re-running it as a full exact scan would
			// invert the user's intent.
			return nil, err
		default:
			// A stale catalog (sample table dropped outside VerdictDB) or a
			// dialect corner case must never break the user's query: fall
			// back to exact execution, like the paper's middleware.
			return m.passthrough(ctx, original, PassOther)
		}
		if p != nil {
			if err := faultpoint.Hit(faultpoint.SiteCoreMergePrefix); err != nil {
				return nil, err
			}
			answer.BlocksScanned, answer.BlocksTotal = bound, total
		}
		prev = answer

		stop := idx == len(bounds)-1 ||
			target > 0 && minSub >= minStopSubsamples && accuracyMet(answer, p.itemIdx, target)
		if !stop && prog.Callback != nil && !prog.Callback(ProgressiveUpdate{
			Answer: answer, BlocksScanned: bound, BlocksTotal: total,
		}) {
			stop = true // caller accepted this prefix's accuracy
		}
		if stop {
			final, err := m.finishEntryAnswer(ctx, e, answer, original)
			if p != nil && errors.Is(err, context.DeadlineExceeded) {
				// The guard rails' exact re-run ran out of time; the
				// completed prefix itself is still a valid partial.
				return m.degradeAnswer(answer), nil
			}
			return final, err
		}
		// Accuracy forecast: the variational stderr shrinks roughly with
		// 1/sqrt(rows scanned). When even the full sample cannot plausibly
		// reach the target, skip the intermediate prefixes — the doubling
		// ramp would re-scan the sample several times for nothing.
		if re := answer.MaxRelativeError(); re > 0 && !math.IsNaN(re) {
			scannedRows := float64(prefixRows(p.blockCounts, bound))
			if scannedRows*(re/target)*(re/target) > float64(p.totalRows) {
				idx = len(bounds) - 2 // next iteration runs the full prefix
			}
		}
	}
}

// runPrefix executes one prefix of a plan entry and merges its partial
// answers: blocks 1..bound of the entry's sample when bound < total, else
// the whole sample through the entry's cached statements (or its resampling
// baseline). The answer accumulates prev's statements, time and rows; the
// second result is the fewest subsamples any group was estimated from (0
// when the statements do not report it). The entry is shared across
// concurrent queries and never mutated here — anything an Answer could
// mutate later (column names) is cloned.
func (m *Middleware) runPrefix(ctx context.Context, e *planEntry, bound, total int, prev *Answer) (*Answer, int64, error) {
	if e.resample != nil {
		a, err := m.runResamplingBaseline(ctx, e)
		return a, 0, err
	}
	steps, extreme := e.steps, e.extreme
	if bound < total {
		p := e.prog
		ro, err := Rewrite(e.flat, p.plan, p.itemIdx, true, &BlockContext{
			Alias: p.alias, Bound: int64(bound),
			Frac: float64(prefixRows(p.blockCounts, bound)) / float64(p.totalRows),
		})
		if err != nil {
			return nil, 0, err
		}
		steps, extreme = []planStep{m.step(ro)}, nil
	}
	a := &Answer{Approximate: true, Status: Supported, Confidence: m.opts.Confidence}
	if prev != nil {
		a.RewrittenSQL = slices.Clone(prev.RewrittenSQL)
		a.ElapsedNanos, a.RowsScanned = prev.ElapsedNanos, prev.RowsScanned
	}
	mg := newMerger(len(e.names))
	run := func(st *planStep) (*engine.ResultSet, error) {
		rs, elapsed, err := m.timedQuery(ctx, st.sql)
		if err != nil {
			return nil, err
		}
		a.ElapsedNanos += elapsed
		a.RowsScanned += rs.RowsScanned
		mg.add(rs, st.columns)
		return rs, nil
	}
	var minSub int64
	for i := range steps {
		rs, err := run(&steps[i])
		if err != nil {
			return nil, 0, err
		}
		a.RewrittenSQL = append(a.RewrittenSQL, steps[i].sql)
		a.SampleTables = append(a.SampleTables, steps[i].sampleTables...)
		if n := minSubsamples(rs, steps[i].columns); i == 0 || n < minSub {
			minSub = n
		}
	}
	if extreme != nil {
		if _, err := run(extreme); err != nil {
			return nil, 0, err
		}
	}
	// Materialize merged rows in original item order. Cols is a private
	// copy: appendErrorColumns extends it per answer.
	a.Cols = slices.Clone(e.names)
	a.Rows, a.StdErr = mg.result()
	return a, minSub, nil
}

// degradeAnswer finalizes a completed block-prefix partial after a deadline
// expiry: the answer is flagged DeadlineDegraded and only the user-visible
// error columns are applied — the guard rails (group-cardinality check,
// accuracy contract) are skipped because both can demand an exact re-run
// there is no time left to pay for.
func (m *Middleware) degradeAnswer(partial *Answer) *Answer {
	partial.DeadlineDegraded = true
	if m.opts.ErrorColumns {
		appendErrorColumns(partial)
	}
	return partial
}

// minStopSubsamples is the fewest subsamples any group may be estimated
// from before an early stop is allowed. Variational subsampling's stderr is
// a stddev across per-subsample estimates; over one or two subsamples it
// degenerates (a single value has zero spread) and would fake perfect
// accuracy on barely-scanned joins.
const minStopSubsamples = 8

// minSubsamples returns the smallest per-group contributing-subsample count
// of a progressive partial result (its ColSubCount column), or 0 when the
// column is absent or empty.
func minSubsamples(rs *engine.ResultSet, cols []OutputCol) int64 {
	ci := slices.IndexFunc(cols, func(oc OutputCol) bool { return oc.Kind == ColSubCount })
	if ci < 0 || len(rs.Rows) == 0 {
		return 0
	}
	min := int64(0)
	for r, row := range rs.Rows {
		n, ok := engine.ToInt(row[ci])
		if !ok {
			return 0
		}
		if r == 0 || n < min {
			min = n
		}
	}
	return min
}

// accuracyMet decides early stopping: the prefix answer must be non-empty
// and carry a finite standard error for EVERY aggregate cell — a NaN stderr
// (e.g. a group observed in a single subsample) means the error is unknown,
// not zero, and MaxRelativeError would silently skip it. Only then is the
// worst relative error compared to the target. Zero-valued aggregate cells
// have no defined relative error and are skipped, matching the accuracy
// contract's semantics.
func accuracyMet(a *Answer, aggIdx []int, target float64) bool {
	if len(a.Rows) == 0 {
		return false
	}
	for r := range a.Rows {
		for _, c := range aggIdx {
			if c >= len(a.StdErr[r]) || math.IsNaN(a.StdErr[r][c]) {
				return false
			}
		}
	}
	return a.MaxRelativeError() <= target
}

// blockSchedule returns the block-prefix bounds to execute: a doubling ramp
// ending at the full prefix. A non-positive target means "exact variational
// answer" — one full-prefix execution, no early stopping to attempt.
func blockSchedule(total int, target float64) []int {
	if total <= 1 || target <= 0 {
		return []int{total}
	}
	var s []int
	for k := 1; k < total; k *= 2 {
		s = append(s, k)
	}
	return append(s, total)
}

// prefixRows sums the row counts of blocks 1..bound.
func prefixRows(counts []int64, bound int) int64 {
	if bound > len(counts) {
		bound = len(counts)
	}
	var n int64
	for _, c := range counts[:bound] {
		n += c
	}
	return n
}

// finalUpdate delivers the answer a progressive request returns to its
// callback, if it has one.
func finalUpdate(prog *Progressive, a *Answer) {
	if prog != nil && prog.Callback != nil && a != nil {
		prog.Callback(ProgressiveUpdate{
			Answer:        a,
			BlocksScanned: a.BlocksScanned,
			BlocksTotal:   a.BlocksTotal,
			Final:         true,
		})
	}
}

// progressiveInfoFor decides whether a planned query can execute
// block-prefix by block-prefix and returns its handle (nil when not):
//
//   - variational error estimation only (the stopping rule needs stderrs);
//   - a single consolidated plan with no exact extreme items (multi-plan
//     merges would need coordinated prefixes);
//   - exactly one sampled occurrence, whose sample was built with blocks;
//   - no count-distinct aggregates (a row prefix of a universe sample
//     undercounts distinct keys in a way the row fraction cannot correct);
//   - no nested aggregate blocks (complete-group universe semantics do not
//     survive prefix thinning).
func (m *Middleware) progressiveInfoFor(flat *sqlparser.SelectStmt, plans []ConsolidatedPlan, extremeIdx []int) *progressiveInfo {
	if m.opts.Method != MethodVariational {
		return nil
	}
	if len(plans) != 1 || len(extremeIdx) > 0 {
		return nil
	}
	if hasNestedAggregates(flat.From) {
		return nil
	}
	cp := plans[0]
	var alias string
	var si *meta.SampleInfo
	//verdict:unordered bails out unless exactly one sampled choice exists, so order cannot matter
	for a, c := range cp.Plan.Choices {
		if c.Sample == nil {
			continue
		}
		if si != nil {
			return nil // progressive prefixes cover exactly one sample
		}
		alias, si = a, c.Sample
	}
	if si == nil || si.BlockRows <= 0 || len(si.BlockCounts) == 0 {
		return nil
	}
	total := si.TotalBlockRows()
	if total <= 0 {
		return nil
	}
	exprs := make([]sqlparser.Expr, 0, len(cp.ItemIdx)+len(flat.OrderBy)+1)
	for _, i := range cp.ItemIdx {
		exprs = append(exprs, flat.Items[i].Expr)
	}
	if flat.Having != nil {
		exprs = append(exprs, flat.Having)
	}
	for _, ob := range flat.OrderBy {
		exprs = append(exprs, ob.Expr)
	}
	for _, e := range exprs {
		for _, fc := range aggsIn(e) {
			if classifyAgg(fc) == AggCountDistinct {
				return nil
			}
		}
	}
	return &progressiveInfo{
		plan:        cp.Plan,
		itemIdx:     cp.ItemIdx,
		alias:       strings.ToLower(alias),
		blockCounts: si.BlockCounts,
		totalRows:   total,
	}
}

// hasNestedAggregates reports whether a FROM tree contains a derived table
// with aggregates (rewritten via the Section 5.2 variational-table path).
func hasNestedAggregates(t sqlparser.TableExpr) bool {
	switch tt := t.(type) {
	case *sqlparser.DerivedTable:
		return sqlparser.HasAggregates(tt.Select) || hasNestedAggregates(tt.Select.From)
	case *sqlparser.JoinExpr:
		return hasNestedAggregates(tt.Left) || hasNestedAggregates(tt.Right)
	}
	return false
}
