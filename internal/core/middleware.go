package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/meta"
	"verdictdb/internal/sqlparser"
)

// ErrorMethod selects the error-estimation strategy (Section 6.4 compares
// them; variational subsampling is the paper's contribution and default).
type ErrorMethod int

// Error-estimation methods.
const (
	MethodVariational ErrorMethod = iota
	// MethodNone computes approximate answers without error estimates
	// (the "no error estimation" baseline of Figure 7).
	MethodNone
	// MethodTraditionalSubsampling materializes an O(b*n) subsample table
	// and aggregates it per subsample (Query 1 of Section 4.1).
	MethodTraditionalSubsampling
	// MethodConsolidatedBootstrap materializes b Poisson-weighted resamples
	// (the state-of-the-art bootstrap baseline of Section 6.4).
	MethodConsolidatedBootstrap
)

// Options configures the middleware (Section 2.4's knobs).
type Options struct {
	// Confidence for error reporting (default 0.95).
	Confidence float64
	// MinAccuracy is the optional High-level Accuracy Contract: when > 0,
	// answers whose worst relative error exceeds 1-MinAccuracy are re-run
	// exactly (Section 2.4).
	MinAccuracy float64
	// ErrorColumns appends <col>_err columns to user-visible output.
	ErrorColumns bool
	// Method selects the error-estimation strategy.
	Method ErrorMethod
	// Planner tuning, including the I/O budget (Planner.IOBudget).
	Planner PlannerConfig
	// MaxGroupsFraction declines AQP when the estimated group cardinality
	// exceeds this fraction of the sample size (the paper's "AQP not
	// feasible due to high-cardinality grouping attributes").
	MaxGroupsFraction float64
	// MemoryBudgetBytes bounds each query's estimated engine-side memory
	// (group hash tables, join build sides, materialized rows). Overruns
	// abort the query with engine.ErrMemoryBudget instead of OOMing the
	// process. 0 means unbounded; a per-query engine.WithMemoryBudget on the
	// query's context overrides it.
	MemoryBudgetBytes int64
}

// DefaultOptions mirrors the paper's defaults.
func DefaultOptions() Options {
	return Options{
		Confidence:        0.95,
		Planner:           DefaultPlannerConfig(),
		MaxGroupsFraction: 0.08,
	}
}

// Middleware is the VerdictDB core: it intercepts queries, rewrites the
// supported ones against sample tables, and rewrites answers back. It is
// safe for concurrent use: opts/db/cat are immutable after New, and the two
// caches (plan/rewrite entries and base-table row counts) are internally
// synchronized and invalidated by catalog version bumps.
type Middleware struct {
	db   drivers.DB
	cat  *meta.Catalog
	opts Options

	plans *planCache
	stats rowStats
}

// rowStats caches base-table row counts (the planner's budget inputs) so
// repeated queries skip the per-occurrence RowCount probes. The cache is
// tied to a catalog version and additionally flushed by InvalidateStats
// when DML flows through the middleware; gen counts those flushes so an
// in-flight probe that started before a flush cannot re-cache its pre-DML
// reading afterwards.
type rowStats struct {
	mu      sync.Mutex
	version int64            // guarded by mu
	gen     int64            // guarded by mu
	rows    map[string]int64 // guarded by mu
}

// New builds a middleware over an underlying database and sample catalog.
func New(db drivers.DB, cat *meta.Catalog, opts Options) *Middleware {
	if opts.Confidence == 0 {
		opts.Confidence = 0.95
	}
	budget := cmp.Or(opts.Planner.IOBudget, 0.02)
	if opts.Planner.TopK == 0 {
		opts.Planner = DefaultPlannerConfig()
	}
	opts.Planner.IOBudget = budget
	if opts.MaxGroupsFraction == 0 {
		opts.MaxGroupsFraction = 0.08
	}
	m := &Middleware{db: db, cat: cat, opts: opts, plans: newPlanCache(defaultPlanCacheCap)}
	m.stats.rows = map[string]int64{}
	return m
}

// CacheStats reports cumulative plan-cache hits and misses.
func (m *Middleware) CacheStats() (hits, misses int64) { return m.plans.stats() }

// InvalidateStats drops the cached base-table row counts and every cached
// plan. Call it after changing base data behind the middleware's back
// (loads, or DML not issued through verdictdb.Conn, which calls it for the
// DML it passes through). Sample DDL routed through the catalog bumps its
// version, which invalidates on its own.
func (m *Middleware) InvalidateStats() {
	m.stats.mu.Lock()
	m.stats.rows = map[string]int64{}
	m.stats.gen++
	m.stats.mu.Unlock()
	m.plans.flush()
}

// rowCount returns a base table's cardinality from the stats cache,
// refreshing it when the catalog version moved.
func (m *Middleware) rowCount(table string, version int64) (int64, bool) {
	m.stats.mu.Lock()
	if m.stats.version != version {
		m.stats.rows = map[string]int64{}
		m.stats.version = version
	}
	if n, ok := m.stats.rows[table]; ok {
		m.stats.mu.Unlock()
		return n, true
	}
	gen := m.stats.gen
	m.stats.mu.Unlock()
	n, err := m.db.RowCount(table)
	if err != nil {
		return 0, false
	}
	m.stats.mu.Lock()
	// Only cache if neither the catalog version nor the invalidation
	// generation moved while we probed — a concurrent DML's flush must not
	// be undone by this in-flight reading.
	if m.stats.version == version && m.stats.gen == gen {
		m.stats.rows[table] = n
	}
	m.stats.mu.Unlock()
	return n, true
}

// Progressive requests accuracy-driven execution block prefix by block
// prefix (progressive.go). A nil *Progressive runs a plan single-shot.
type Progressive struct {
	// Target is the relative error at which the scan stops early; <= 0
	// scans the whole sample.
	Target float64
	// Callback, when non-nil, receives every prefix's answer and then the
	// final one; returning false accepts the current prefix.
	Callback ProgressiveCallback
}

// QueryCached answers sql from the plan/rewrite cache, skipping parse,
// analysis, planning, and rewriting entirely. handled is false on a cache
// miss: the caller parses sql and, for a SELECT, runs QuerySelect, which
// repopulates the cache. Only statements QuerySelect built can hit.
//
// Both entry points honor ctx at every engine poll point, and a memory
// budget (Options.MemoryBudgetBytes, or WithMemoryBudget on ctx) bounds the
// query's engine-side allocations. Under prog, a deadline expiring after at
// least one block prefix completed returns that prefix's unbiased partial
// answer with DeadlineDegraded set instead of an error, and sample DDL
// racing the query surfaces as ErrCatalogChanged between prefixes.
func (m *Middleware) QueryCached(ctx context.Context, sql string, prog *Progressive) (a *Answer, handled bool, err error) {
	ctx = m.budgetCtx(ctx)
	defer containPanic(&err, sql)
	e := m.plans.lookup(normalizeSQL(sql), m.cat.Version())
	if e == nil {
		return nil, false, nil
	}
	a, err = m.execute(ctx, e, sql, prog)
	return a, true, err
}

// QuerySelect runs a parsed SELECT through the AQP pipeline and caches its
// plan. original must be the SQL sel was parsed from: the cache keys on it,
// and a passthrough executes it.
func (m *Middleware) QuerySelect(ctx context.Context, sel *sqlparser.SelectStmt, original string, prog *Progressive) (a *Answer, err error) {
	ctx = m.budgetCtx(ctx)
	defer containPanic(&err, original)
	m.plans.countMiss() // a SELECT running the full pipeline
	gen := m.plans.generation()
	entry, err := m.buildEntry(ctx, sel)
	if err != nil {
		return nil, err
	}
	m.plans.put(normalizeSQL(original), entry, gen)
	return m.execute(ctx, entry, original, prog)
}

// queryPlan is the outcome of the planning preamble that buildEntry turns
// into a plan entry and Explain describes. status is the query's support
// status; decline says why a supported query passes through to the engine.
// When both allow AQP, plans holds at least one consolidated plan.
type queryPlan struct {
	status     SupportStatus
	version    int64 // catalog version the plan was made under
	flat       *sqlparser.SelectStmt
	occ        map[string]*tableOccurrence
	plans      []ConsolidatedPlan
	extremeIdx []int
	multi      bool // several partial plans: order/limit applied middleware-side
	decline    string
}

// planSelect plans a SELECT against one catalog snapshot: analyze it, and
// for a supported one flatten comparison subqueries, resolve table
// occurrences, fill in base-table row counts (plan costs and scores depend
// on them), plan, then apply the decline rules.
func (m *Middleware) planSelect(ctx context.Context, sel *sqlparser.SelectStmt) (*queryPlan, error) {
	snapshot, version := m.cat.Snapshot()
	qp := &queryPlan{status: Analyze(sel), version: version, occ: map[string]*tableOccurrence{}}
	if qp.status != Supported {
		return qp, nil
	}
	flat, err := FlattenComparisonSubqueries(sel)
	if err != nil || flat == nil {
		qp.decline = "comparison subqueries cannot be flattened"
		return qp, nil
	}
	qp.flat = flat
	if err := collectAllOccurrences(flat, qp.occ); err != nil {
		qp.decline = err.Error()
		return qp, nil
	}
	//verdict:unordered per-entry mutation keyed by the entry itself; no cross-entry effects
	for _, o := range qp.occ {
		if n, ok := m.rowCount(o.Base, version); ok {
			o.Rows = n
		}
	}
	var ok bool
	qp.plans, qp.extremeIdx, ok, err = NewPlanner(m.opts.Planner, snapshot).PlanQuery(flat, qp.occ)
	qp.multi = len(qp.plans) > 1 || len(qp.extremeIdx) > 0
	switch {
	case err != nil:
		qp.decline = err.Error()
	case !ok:
		qp.decline = "no admissible sample plan within the I/O budget"
	default:
		// High-cardinality grouping check (Section 6.2: tq-3/8/15 declined).
		// An aborted probe aborts the query; any other failure is a stale
		// catalog (a sample dropped mid-plan) that execution falls back from.
		decline, err := m.groupCardinalityTooHigh(ctx, flat, qp.plans[0].Plan)
		switch {
		case queryAborted(err):
			return nil, err
		case decline:
			qp.decline = "declined: grouping cardinality too high for the sample"
		case qp.multi && flat.Having != nil:
			qp.decline = "declined: HAVING across merged partial plans is not reassembled"
		}
	}
	return qp, nil
}

// buildEntry runs the deterministic half of the pipeline — analyze,
// flatten, plan, rewrite, render — and packages the result as a cacheable
// planEntry.
func (m *Middleware) buildEntry(ctx context.Context, sel *sqlparser.SelectStmt) (*planEntry, error) {
	qp, err := m.planSelect(ctx, sel)
	if err != nil {
		return nil, err
	}
	return m.entryFor(qp), nil
}

// entryFor turns a query plan into the plan entry that executes it: a
// passthrough, a resampling baseline, or the rendered rewrite of every
// consolidated plan plus the exact extreme-statistics query.
func (m *Middleware) entryFor(qp *queryPlan) *planEntry {
	pass := func(status SupportStatus, decline string) *planEntry {
		return &planEntry{version: qp.version, passthrough: true, status: status, decline: decline}
	}
	switch {
	case qp.status != Supported:
		return pass(qp.status, "")
	case qp.decline != "":
		return pass(PassOther, qp.decline)
	}
	flat, plans, multi := qp.flat, qp.plans, qp.multi
	entry := &planEntry{version: qp.version, flat: flat, multi: multi}
	for i, it := range flat.Items {
		entry.names = append(entry.names, itemName(it, i))
	}
	entry.guardGroups = len(flat.GroupBy) > 0 && flat.Limit == nil
	// The post-execution guard compares group counts against the smallest
	// sampled plan — the binding constraint on how thin the sample spreads.
	for _, cp := range plans {
		if cp.Plan.Cost > 0 && (entry.planSampleRows == 0 || cp.Plan.Cost < entry.planSampleRows) {
			entry.planSampleRows = cp.Plan.Cost
		}
	}

	switch m.opts.Method {
	case MethodTraditionalSubsampling, MethodConsolidatedBootstrap:
		if multi {
			return pass(PassOther, "declined: resampling baselines answer single-plan queries only")
		}
		entry.resample = &plans[0]
		return entry
	}
	for _, cp := range plans {
		ro, err := Rewrite(flat, cp.Plan, cp.ItemIdx, !multi, nil)
		if err != nil {
			return pass(PassOther, err.Error())
		}
		if m.opts.Method == MethodNone {
			stripErrorColumns(ro)
		}
		entry.steps = append(entry.steps, m.step(ro))
	}
	// Extreme statistics answered exactly (Section 2.2 decomposition).
	if len(qp.extremeIdx) > 0 {
		sqlText, cols := m.buildExtremeQuery(flat, qp.extremeIdx)
		entry.extreme = &planStep{sql: sqlText, columns: cols}
	}
	entry.prog = m.progressiveInfoFor(flat, plans, qp.extremeIdx)
	return entry
}

// step renders one rewritten statement as a plan step.
func (m *Middleware) step(ro *RewriteOutput) planStep {
	return planStep{sql: drivers.Render(m.db, ro.Stmt), columns: ro.Columns, sampleTables: ro.SampleTables, b: ro.B}
}

// finishEntryAnswer applies the post-merge tail shared by single-shot and
// progressive execution: middleware-side ORDER BY/LIMIT for merged plans,
// the post-execution high-cardinality guard, the accuracy contract, and
// user-visible error columns.
func (m *Middleware) finishEntryAnswer(ctx context.Context, e *planEntry, answer *Answer, original string) (*Answer, error) {
	if e.multi {
		if err := m.applyOrderLimit(e.flat, answer); err != nil {
			return m.passthrough(ctx, original, PassOther)
		}
	}

	// Post-execution high-cardinality guard: grouping expressions the
	// pre-probe skipped (derived columns, expressions) can still explode
	// the group count; if the result spreads the sample across too many
	// groups, the estimates are meaningless — run exactly instead. The
	// group count is compared against the chosen plan's sample rows, NOT
	// cumulative scan counts: summing RowsScanned double-counts multi-plan
	// partials and includes the extreme query's full base-table scan, which
	// made the guard nearly impossible to trip for those queries. Only
	// applicable when no LIMIT truncated the output.
	if e.guardGroups &&
		float64(len(answer.Rows)) > m.opts.MaxGroupsFraction*float64(max(e.planSampleRows, 1)) {
		return m.passthrough(ctx, original, PassOther)
	}

	// High-level Accuracy Contract (Section 2.4).
	if m.opts.MinAccuracy > 0 {
		if answer.MaxRelativeError() > (1 - m.opts.MinAccuracy) {
			exact, err := m.passthrough(ctx, original, Supported)
			if err != nil {
				return nil, err
			}
			exact.HACFallback = true
			return exact, nil
		}
	}

	if m.opts.ErrorColumns {
		appendErrorColumns(answer)
	}
	return answer, nil
}

// passthrough executes the original SQL unchanged.
func (m *Middleware) passthrough(ctx context.Context, sql string, status SupportStatus) (*Answer, error) {
	rs, elapsed, err := m.timedQuery(ctx, sql)
	if err != nil {
		return nil, err
	}
	a := exactAnswer(rs, status, m.opts.Confidence)
	a.ElapsedNanos = elapsed
	return a, nil
}

// timedQuery runs one backend query and measures it in nanoseconds: the
// clock behind every Answer.ElapsedNanos the middleware reports.
func (m *Middleware) timedQuery(ctx context.Context, sql string) (*engine.ResultSet, int64, error) {
	start := time.Now()
	rs, err := m.db.QueryContext(ctx, sql)
	return rs, time.Since(start).Nanoseconds(), err
}

// collectAllOccurrences gathers occurrences from the top-level FROM and all
// derived-table FROMs. Conflicting aliases across scopes disable sampling
// for that alias (both scopes read base tables).
func collectAllOccurrences(sel *sqlparser.SelectStmt, out map[string]*tableOccurrence) error {
	if err := collectOccurrences(sel.From, out); err != nil {
		return err
	}
	var walkDerived func(t sqlparser.TableExpr) error
	walkDerived = func(t sqlparser.TableExpr) error {
		switch tt := t.(type) {
		case *sqlparser.DerivedTable:
			sub := map[string]*tableOccurrence{}
			if err := collectOccurrences(tt.Select.From, sub); err != nil {
				return err
			}
			//verdict:unordered alias-keyed fold; each alias's outcome depends only on its own presence
			for a, o := range sub {
				if _, dup := out[a]; dup {
					delete(out, a) // ambiguous alias: fall back to base
					continue
				}
				out[a] = o
			}
			return nil
		case *sqlparser.JoinExpr:
			if err := walkDerived(tt.Left); err != nil {
				return err
			}
			return walkDerived(tt.Right)
		}
		return nil
	}
	return walkDerived(sel.From)
}

// groupCardinalityTooHigh estimates the query's group cardinality and
// declines AQP when the chosen samples would spread too thin across groups
// (the paper's "AQP not feasible for high-cardinality grouping attributes",
// Section 6.2). Each simple grouping column is probed with one ndv() against
// the table chosen for the column's occurrence — the sample table when one
// was picked, otherwise the base table (dimension tables are cheap to
// scan). A qualified column (t.col) binds to its occurrence's table; an
// unqualified one to the first occurrence, in deterministic alias order,
// whose schema (db.Columns, the LIMIT 0 probe) has the column — its binding
// table under SQL's unambiguous-reference rule. A column no table has (an
// output alias) is not probed at all, and a probe's error is returned, not
// read as "not in this table": planSelect tells an abort from a stale
// catalog. The largest per-column cardinality lower-bounds the group count.
// Non-column grouping expressions are skipped — the probe is deliberately
// conservative.
func (m *Middleware) groupCardinalityTooHigh(ctx context.Context, sel *sqlparser.SelectStmt, plan CandidatePlan) (bool, error) {
	if len(sel.GroupBy) == 0 {
		return false, nil
	}
	var sampleRows int64
	probeByAlias := map[string]string{} // alias -> table to probe
	aliases := make([]string, 0, len(plan.Choices))
	//verdict:unordered commutative sum plus keyed map writes; aliases are sorted right below
	for a, c := range plan.Choices {
		switch {
		case c.Sample != nil:
			sampleRows += c.Sample.SampleRows
			probeByAlias[a] = c.Sample.SampleTable
		case c.Occurrence != nil:
			probeByAlias[a] = c.Occurrence.Base
		default:
			continue
		}
		aliases = append(aliases, a)
	}
	sort.Strings(aliases)
	if sampleRows == 0 {
		return false, nil
	}
	maxNdv := int64(0)
	for _, g := range sel.GroupBy {
		cr, ok := g.(*sqlparser.ColumnRef)
		if !ok {
			continue
		}
		cands := aliases
		if cr.Table != "" {
			// Qualified column: only its own occurrence's table may answer —
			// a same-named column on another occurrence has unrelated
			// cardinality.
			cands = []string{strings.ToLower(cr.Table)}
		}
		for _, a := range cands {
			tbl, found := probeByAlias[a]
			if !found {
				continue
			}
			cols, err := m.db.Columns(tbl)
			if err != nil {
				return false, err
			}
			if !slices.ContainsFunc(cols, func(c string) bool { return strings.EqualFold(c, cr.Name) }) {
				continue
			}
			rs, err := m.db.QueryContext(ctx, fmt.Sprintf("select ndv(%s) from %s", cr.Name, tbl))
			if err != nil {
				return false, err
			}
			if v, okV := engine.ToInt(rs.Rows[0][0]); okV && v > maxNdv {
				maxNdv = v
			}
			break
		}
	}
	return float64(maxNdv) > m.opts.MaxGroupsFraction*float64(sampleRows), nil
}

// buildExtremeQuery renders the exact query answering min/max items from
// base tables.
func (m *Middleware) buildExtremeQuery(sel *sqlparser.SelectStmt, extremeIdx []int) (string, []OutputCol) {
	ex := &sqlparser.SelectStmt{
		From:  sqlparser.CloneTable(sel.From),
		Where: sqlparser.CloneExpr(sel.Where),
	}
	for _, g := range sel.GroupBy {
		ex.GroupBy = append(ex.GroupBy, sqlparser.CloneExpr(g))
	}
	var cols []OutputCol
	want := map[int]bool{}
	for _, i := range extremeIdx {
		want[i] = true
	}
	for i, it := range sel.Items {
		isAgg := it.Expr != nil && sqlparser.ContainsAggregate(it.Expr)
		name := itemName(it, i)
		switch {
		case !isAgg:
			ex.Items = append(ex.Items, sqlparser.SelectItem{Expr: sqlparser.CloneExpr(it.Expr), Alias: name})
			cols = append(cols, OutputCol{Kind: ColGroup, ItemIdx: i, Name: name})
		case want[i]:
			ex.Items = append(ex.Items, sqlparser.SelectItem{Expr: sqlparser.CloneExpr(it.Expr), Alias: name})
			cols = append(cols, OutputCol{Kind: ColAgg, ItemIdx: i, Name: name})
		}
	}
	return drivers.Render(m.db, ex), cols
}

// applyOrderLimit sorts and truncates merged multi-plan answers in the
// middleware (ORDER BY and LIMIT were stripped from the partial queries).
func (m *Middleware) applyOrderLimit(sel *sqlparser.SelectStmt, a *Answer) error {
	if len(sel.OrderBy) > 0 {
		type keyed struct {
			row  []engine.Value
			errs []float64
			key  []engine.Value
		}
		items := make([]keyed, len(a.Rows))
		for r := range a.Rows {
			k := keyed{row: a.Rows[r], errs: a.StdErr[r]}
			for _, ob := range sel.OrderBy {
				ci, err := m.orderColumn(sel, ob.Expr, a)
				if err != nil {
					return err
				}
				k.key = append(k.key, a.Rows[r][ci])
			}
			items[r] = k
		}
		sort.SliceStable(items, func(x, y int) bool {
			for j, ob := range sel.OrderBy {
				va, vb := items[x].key[j], items[y].key[j]
				var c int
				switch {
				case va == nil && vb == nil:
					c = 0
				case va == nil:
					c = -1
				case vb == nil:
					c = 1
				default:
					c = engine.Compare(va, vb)
				}
				if ob.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		for r := range items {
			a.Rows[r] = items[r].row
			a.StdErr[r] = items[r].errs
		}
	}
	if sel.Limit != nil {
		if lit, ok := sel.Limit.(*sqlparser.Literal); ok {
			if n, ok2 := lit.Val.(int64); ok2 && int64(len(a.Rows)) > n {
				a.Rows = a.Rows[:n]
				a.StdErr = a.StdErr[:n]
			}
		}
	}
	return nil
}

// orderColumn resolves an ORDER BY term to a merged output column index.
func (m *Middleware) orderColumn(sel *sqlparser.SelectStmt, e sqlparser.Expr, a *Answer) (int, error) {
	if lit, ok := e.(*sqlparser.Literal); ok {
		if p, isInt := lit.Val.(int64); isInt && p >= 1 && int(p) <= len(a.Cols) {
			return int(p - 1), nil
		}
	}
	if cr, ok := e.(*sqlparser.ColumnRef); ok && cr.Table == "" {
		if ci := a.ColIndex(cr.Name); ci >= 0 {
			return ci, nil
		}
	}
	f := sqlparser.FormatExpr(e)
	for i, it := range sel.Items {
		if it.Expr != nil && sqlparser.FormatExpr(it.Expr) == f {
			return i, nil
		}
	}
	return 0, fmt.Errorf("core: cannot resolve ORDER BY term %s after plan merge", f)
}

// stripErrorColumns removes _err outputs for the no-error-estimation
// baseline.
func stripErrorColumns(ro *RewriteOutput) {
	kept := ro.Stmt.Items[:0]
	var keptCols []OutputCol
	for i, oc := range ro.Columns {
		if oc.Kind == ColErr {
			continue
		}
		kept = append(kept, ro.Stmt.Items[i])
		keptCols = append(keptCols, oc)
	}
	ro.Stmt.Items = kept
	ro.Columns = keptCols
}

// appendErrorColumns exposes half-width confidence intervals as extra
// user-visible columns named <col>_err. When the query already has a column
// by that name (a user alias like revenue_err), the generated name is
// de-duplicated with a numeric suffix so the appended column never shadows
// — or is shadowed by — user output.
func appendErrorColumns(a *Answer) {
	var aggCols []int
	used := make(map[string]bool, len(a.Cols))
	for c := range a.Cols {
		used[strings.ToLower(a.Cols[c])] = true
		for r := range a.Rows {
			if !math.IsNaN(a.StdErr[r][c]) {
				aggCols = append(aggCols, c)
				break
			}
		}
	}
	for _, c := range aggCols {
		name := a.Cols[c] + "_err"
		for n := 2; used[strings.ToLower(name)]; n++ {
			name = fmt.Sprintf("%s_err%d", a.Cols[c], n)
		}
		used[strings.ToLower(name)] = true
		a.Cols = append(a.Cols, name)
		for r := range a.Rows {
			lo, hi, ok := a.ConfidenceInterval(r, c)
			if ok {
				a.Rows[r] = append(a.Rows[r], (hi-lo)/2)
			} else {
				a.Rows[r] = append(a.Rows[r], nil)
			}
			a.StdErr[r] = append(a.StdErr[r], math.NaN())
		}
	}
}
