package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"verdictdb/internal/faultpoint"
	"verdictdb/internal/sqlparser"
)

// ResultSet is the output of a query: column names plus rows. RowsScanned
// counts base-table rows read while answering, which the benchmark harness
// uses as an engine-independent I/O measure.
type ResultSet struct {
	Cols        []string
	Rows        [][]Value
	RowsScanned int64

	colOnce sync.Once
	colIdx  map[string]int
}

// ColIndex returns the index of the named output column, -1 when absent,
// or AmbiguousColIndex when several output columns share the name
// case-insensitively. The lowercase lookup map is built once on first use.
func (rs *ResultSet) ColIndex(name string) int {
	rs.colOnce.Do(func() {
		rs.colIdx = buildLowerIndex(rs.Cols)
	})
	if i, ok := rs.colIdx[strings.ToLower(name)]; ok {
		return i
	}
	return -1
}

// Query parses and executes a SELECT statement.
func (e *Engine) Query(sql string) (*ResultSet, error) {
	return e.QueryContext(context.Background(), sql)
}

// QueryContext is Query under a context: execution polls ctx between chunks
// (or every pollEvery rows on row-at-a-time paths) and returns ctx.Err() with
// every morsel worker drained; a memory budget carried by ctx (or the
// engine default) aborts with ErrMemoryBudget; panics anywhere below are
// contained into *InternalError, leaving the engine usable.
func (e *Engine) QueryContext(ctx context.Context, sql string) (rs *ResultSet, err error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*sqlparser.SelectStmt)
	if !ok {
		return nil, fmt.Errorf("engine: Query requires SELECT, got %T", stmt)
	}
	defer containPanic(&err, sql)
	if err := faultpoint.Hit(faultpoint.SiteEngineQuery); err != nil {
		return nil, err
	}
	qc := e.newQueryCtx(ctx, sql)
	rs, err = execSelectWithOuter(qc, sel, nil)
	if err != nil {
		return nil, stampQuery(err, sql)
	}
	rs.RowsScanned = qc.scanned
	return rs, nil
}

// Exec parses and executes any statement. SELECTs return their result set;
// DDL/DML return an empty result set.
func (e *Engine) Exec(sql string) (*ResultSet, error) {
	return e.ExecContext(context.Background(), sql)
}

// ExecContext is Exec under a context; see QueryContext for the contract.
func (e *Engine) ExecContext(ctx context.Context, sql string) (*ResultSet, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	return e.execStmtContext(ctx, stmt, sql)
}

// ExecStmt executes an already-parsed statement.
func (e *Engine) ExecStmt(stmt sqlparser.Statement) (*ResultSet, error) {
	return e.ExecStmtContext(context.Background(), stmt)
}

// ExecStmtContext executes an already-parsed statement under a context.
func (e *Engine) ExecStmtContext(ctx context.Context, stmt sqlparser.Statement) (*ResultSet, error) {
	return e.execStmtContext(ctx, stmt, "")
}

func (e *Engine) execStmtContext(ctx context.Context, stmt sqlparser.Statement, sql string) (rs *ResultSet, err error) {
	defer containPanic(&err, sql)
	rs, err = e.execStmtInner(ctx, stmt)
	if err != nil {
		return nil, stampQuery(err, sql)
	}
	return rs, nil
}

func (e *Engine) execStmtInner(ctx context.Context, stmt sqlparser.Statement) (*ResultSet, error) {
	switch s := stmt.(type) {
	case *sqlparser.SelectStmt:
		qc := e.newQueryCtx(ctx, "")
		rs, err := execSelectWithOuter(qc, s, nil)
		if err != nil {
			return nil, err
		}
		rs.RowsScanned = qc.scanned
		return rs, nil
	case *sqlparser.CreateTableStmt:
		if s.AsSelect != nil {
			qc := e.newQueryCtx(ctx, "")
			rs, err := execSelectWithOuter(qc, s.AsSelect, nil)
			if err != nil {
				return nil, err
			}
			cols := make([]Column, len(rs.Cols))
			for i, c := range rs.Cols {
				cols[i] = Column{Name: c, Type: inferColType(rs.Rows, i)}
			}
			if err := e.storeResult(qc, s.Name, cols, rs.Rows, s.IfNotExists); err != nil {
				return nil, err
			}
			return &ResultSet{RowsScanned: qc.scanned}, nil
		}
		cols := make([]Column, len(s.Columns))
		for i, c := range s.Columns {
			cols[i] = Column{Name: c.Name, Type: TypeFromSQL(c.Type)}
		}
		if s.IfNotExists && e.HasTable(s.Name) {
			return &ResultSet{}, nil
		}
		if err := e.CreateTable(s.Name, cols); err != nil {
			return nil, err
		}
		return &ResultSet{}, nil
	case *sqlparser.DropTableStmt:
		if err := e.DropTable(s.Name, s.IfExists); err != nil {
			return nil, err
		}
		return &ResultSet{}, nil
	case *sqlparser.InsertStmt:
		return e.execInsert(ctx, s)
	default:
		return nil, fmt.Errorf("engine: unsupported statement %T", stmt)
	}
}

func (e *Engine) execInsert(ctx context.Context, s *sqlparser.InsertStmt) (*ResultSet, error) {
	t, err := e.Lookup(s.Table)
	if err != nil {
		return nil, err
	}
	// Map insert columns to table positions.
	var colIdx []int
	if len(s.Columns) > 0 {
		for _, c := range s.Columns {
			idx := t.ColIndex(c)
			if idx == AmbiguousColIndex {
				return nil, fmt.Errorf("%w: %q in insert", ErrAmbiguousColumn, c)
			}
			if idx < 0 {
				return nil, fmt.Errorf("engine: unknown column %q in insert", c)
			}
			colIdx = append(colIdx, idx)
		}
	} else {
		for i := range t.Cols {
			colIdx = append(colIdx, i)
		}
	}
	qc := e.newQueryCtx(ctx, "")
	var srcRows [][]Value
	if s.Select != nil {
		rs, err := execSelectWithOuter(qc, s.Select, nil)
		if err != nil {
			return nil, err
		}
		srcRows = rs.Rows
	} else {
		scope := &env{qc: qc}
		for _, exprRow := range s.Rows {
			fns, _ := compileExprs(scope, exprRow)
			row := make([]Value, len(fns))
			for i, fn := range fns {
				if row[i], err = fn(nil); err != nil {
					return nil, err
				}
			}
			srcRows = append(srcRows, row)
		}
	}
	out := make([][]Value, 0, len(srcRows))
	for _, src := range srcRows {
		if len(src) != len(colIdx) {
			return nil, fmt.Errorf("engine: insert width mismatch: %d values for %d columns", len(src), len(colIdx))
		}
		row := make([]Value, len(t.Cols))
		for i, idx := range colIdx {
			row[idx] = src[i]
		}
		out = append(out, row)
	}
	if err := e.insertRowsCtx(qc, s.Table, out); err != nil {
		return nil, err
	}
	// Surface a seal-time budget overrun even when the insert was too short
	// for the amortized per-row tick to poll.
	if err := qc.pollAbort(); err != nil {
		return nil, err
	}
	return &ResultSet{RowsScanned: qc.scanned}, nil
}

func inferColType(rows [][]Value, col int) ColType {
	for _, r := range rows {
		if r[col] != nil {
			return InferType(r[col])
		}
	}
	return TAny
}

// execSelectWithOuter runs one SELECT block. outer provides the enclosing
// scope for correlated subqueries, or nil at top level.
func execSelectWithOuter(qc *queryCtx, sel *sqlparser.SelectStmt, outer *env) (*ResultSet, error) {
	// Cancellation gate per SELECT block: subqueries — including correlated
	// ones evaluated per outer row — re-enter here, so even O(outer × inner)
	// plans observe cancellation promptly.
	if err := qc.pollAbort(); err != nil {
		return nil, err
	}
	// LIMIT is known before anything is read, so a block that streams can
	// hand it to its scan.
	limit, err := evalLimit(qc, sel.Limit)
	if err != nil {
		return nil, err
	}
	rel, where, err := buildFrom(qc, sel.From, sel.Where, outer)
	if err != nil {
		return nil, err
	}

	baseEnv := &env{
		qc:            qc,
		rel:           rel,
		outer:         outer,
		subqueryCache: map[*sqlparser.SelectStmt]Value{},
		inSetCache:    map[*sqlparser.SelectStmt]map[string]bool{},
	}
	if outer != nil {
		baseEnv.subqueryCache = outer.subqueryCache
		baseEnv.inSetCache = outer.inSetCache
	}

	// Compile the WHERE predicate once per query.
	var wherePred *laneExpr
	wherePure := true
	if where != nil {
		wherePred, wherePure = compileLanes(baseEnv, where)
	}

	// Collect aggregate and window calls from the output clauses. The rows the
	// clauses after aggregation read carry their results after the relation's
	// columns, aggregates first: HAVING and window partitions and arguments
	// see the aggregates, projection and ORDER BY the windows too.
	aggCalls, winCalls := collectCalls(sel)
	hasAgg := len(aggCalls) > 0 || len(sel.GroupBy) > 0
	calls := append(aggCalls, winCalls...)
	width := rel.width() + len(calls)
	aggEnv, postEnv := baseEnv.withCalls(calls[:len(aggCalls)]), baseEnv.withCalls(calls)

	// Compile the select list. A bad star qualifier is reported where
	// projection runs, after the per-row errors of the clauses before it.
	outCols, outErr := deriveOutCols(rel, sel)
	items, itemCols, projPure := compileProjection(postEnv, outCols)
	plain := !hasAgg && len(winCalls) == 0 && sel.Having == nil && wherePure && projPure

	// A plain block with no DISTINCT or ORDER BY streams: its first n output
	// rows come from the first source rows that pass WHERE, so the scan takes
	// LIMIT as its bound and stops there. An impure block evaluates every
	// row before truncating: the order of its RNG draws is part of every
	// scramble.
	bound := noLimit
	if plain && !sel.Distinct && len(sel.OrderBy) == 0 {
		bound = limit
	}

	var pre [][]Value // the rows before projection; nil when the vector pipeline projected
	var cols []string
	var projRows [][]Value
	projDone := false
	if hasAgg {
		// Fused scan→filter→aggregate: vectorized chunk morsels when every
		// expression is pure and has a kernel, the serial row closures
		// otherwise.
		p := buildScanPlan(baseEnv, sel, aggCalls, width, where, wherePred, wherePure)
		p.reprCols = outputCols(baseEnv, sel, winCalls, itemCols)
		pre, err = p.run()
		if err != nil {
			return nil, err
		}
	} else {
		// Non-aggregate select: fused vectorized filter→project when every
		// clause supports it. ORDER BY is restricted to output
		// aliases/positions because the vectorized pipeline never
		// materializes the pre-projection rows the expression form would
		// need.
		if plain && outErr == nil && !qc.eng.noVec.Load() &&
			orderByOutputsOnly(sel, outColNames(outCols)) {
			if vs := buildVecSelect(baseEnv, outCols, where); vs != nil {
				refund := qc.markMem()
				projRows, err = vs.run(rel.src, bound)
				switch {
				case err == nil:
					cols, projDone = outColNames(outCols), true
				case errors.Is(err, errKernel):
					refund()
				default:
					return nil, err
				}
			}
		}
		if !projDone {
			if pre, err = filterRows(qc, rel.src, wherePred, bound); err != nil {
				return nil, err
			}
			if len(winCalls) > 0 {
				// Room for the window results after each row's columns.
				qc.chargeMem(int64(len(pre)) * boxedRowBytes(width))
				for i, row := range pre {
					if err := qc.tick(); err != nil {
						return nil, err
					}
					pre[i] = append(make([]Value, 0, width), row...)[:width]
				}
			}
		}
	}

	// HAVING.
	if sel.Having != nil {
		having, _ := compileExpr(aggEnv, sel.Having)
		kept := pre[:0:0]
		for _, row := range pre {
			if err := qc.tick(); err != nil {
				return nil, err
			}
			v, err := having(row)
			if err != nil {
				return nil, err
			}
			if b, ok := ToBool(v); ok && b {
				kept = append(kept, row)
			}
		}
		pre = kept
	}

	if !projDone {
		// Window functions over the (possibly aggregated) rows.
		if len(winCalls) > 0 {
			if err := computeWindows(aggEnv, pre, winCalls); err != nil {
				return nil, err
			}
		}

		// Projection.
		if outErr != nil {
			return nil, outErr
		}
		cols = outColNames(outCols)
		if projRows, err = project(qc, pre, items); err != nil {
			return nil, err
		}
	}

	// DISTINCT, keeping pre in step for ORDER BY.
	if sel.Distinct {
		seen := map[string]bool{}
		kept, keptPre := projRows[:0:0], pre[:0:0]
		var buf []byte
		for i, pr := range projRows {
			buf = appendRowKey(buf[:0], pr)
			if !seen[string(buf)] {
				seen[string(buf)] = true
				kept = append(kept, pr)
				if pre != nil {
					keptPre = append(keptPre, pre[i])
				}
			}
		}
		projRows, pre = kept, keptPre
	}

	// ORDER BY.
	if len(sel.OrderBy) > 0 {
		if err := orderRows(postEnv, sel, cols, pre, projRows); err != nil {
			return nil, err
		}
	}

	if len(projRows) > limit {
		projRows = projRows[:limit]
	}

	rs := &ResultSet{Cols: cols, Rows: projRows}

	// UNION continuation.
	if sel.Union != nil {
		rhs, err := execSelectWithOuter(qc, sel.Union, outer)
		if err != nil {
			return nil, err
		}
		if len(rhs.Cols) != len(rs.Cols) {
			return nil, fmt.Errorf("engine: UNION column count mismatch (%d vs %d)", len(rs.Cols), len(rhs.Cols))
		}
		combined := append(rs.Rows, rhs.Rows...)
		if !sel.UnionAll {
			seen := map[string]bool{}
			dedup := combined[:0:0]
			var buf []byte
			for _, r := range combined {
				buf = appendRowKey(buf[:0], r)
				if !seen[string(buf)] {
					seen[string(buf)] = true
					dedup = append(dedup, r)
				}
			}
			combined = dedup
		}
		rs.Rows = combined
	}
	return rs, nil
}

// appendRowKey encodes a whole row into one reusable dedup-key buffer.
func appendRowKey(buf []byte, row []Value) []byte {
	for _, v := range row {
		buf = appendKeyValue(buf, v)
	}
	return buf
}

// filterRows is the row closures' scan: the first n rows of src that pass the
// WHERE predicate (nil keeps every row), serially in slot order, so chunks past
// the bound are never loaded. The predicate reads each row's lanes through one
// scratch row; only the rows that pass are boxed, and charged, whole.
func filterRows(qc *queryCtx, src *colSource, pred *laneExpr, n int) ([][]Value, error) {
	return scanChunks(qc, src, n, false, func() chunkEmit {
		var scratch []Value
		return func(out [][]Value, ch *chunk, room int) ([][]Value, error) {
			if scratch == nil {
				scratch = make([]Value, len(ch.cols))
			}
			kept := len(out)
			for i := 0; i < ch.n && room > 0; i++ {
				if pred != nil {
					v, err := pred.at(ch, i, scratch)
					if err != nil {
						return nil, err
					}
					if b, ok := ToBool(v); !ok || !b {
						continue
					}
				}
				out = append(out, ch.materializeRow(i))
				room--
			}
			if !ch.overRows() {
				qc.chargeMem(int64(len(out)-kept) * boxedRowBytes(len(ch.cols)))
			}
			return out, nil
		}
	})
}

// evalLimit evaluates a block's LIMIT (nil means noLimit) before the block
// reads anything. LIMIT sees no relation, so a column reference makes it
// non-constant; subqueries and coercible values (1.5, '3') are accepted.
func evalLimit(qc *queryCtx, e sqlparser.Expr) (int, error) {
	if e == nil {
		return noLimit, nil
	}
	constant := true
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if _, isCol := x.(*sqlparser.ColumnRef); isCol {
			constant = false
		}
		return constant
	})
	if !constant {
		return 0, ErrBadLimit
	}
	fn, _ := compileExpr(&env{qc: qc}, e)
	v, err := fn(nil)
	if err != nil {
		return 0, err
	}
	n, ok := ToInt(v)
	if !ok || n < 0 {
		return 0, fmt.Errorf("%w, got %v", ErrBadLimit, v)
	}
	return int(min(n, noLimit)), nil
}

// collectCalls gathers aggregate calls and window calls referenced by the
// SELECT items, HAVING, and ORDER BY clauses.
func collectCalls(sel *sqlparser.SelectStmt) (aggs, wins []*sqlparser.FuncCall) {
	seenAgg := map[*sqlparser.FuncCall]bool{}
	seenWin := map[*sqlparser.FuncCall]bool{}
	visit := func(e sqlparser.Expr) {
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			fc, ok := x.(*sqlparser.FuncCall)
			if !ok {
				return true
			}
			if fc.Over != nil {
				if !seenWin[fc] {
					seenWin[fc] = true
					wins = append(wins, fc)
				}
				return true // descend: args may contain aggregates
			}
			if sqlparser.AggregateFuncs[fc.Name] {
				if !seenAgg[fc] {
					seenAgg[fc] = true
					aggs = append(aggs, fc)
				}
				return false // no nested aggregates
			}
			return true
		})
	}
	for _, it := range sel.Items {
		if it.Expr != nil {
			visit(it.Expr)
		}
	}
	if sel.Having != nil {
		visit(sel.Having)
	}
	for _, o := range sel.OrderBy {
		visit(o.Expr)
	}
	return aggs, wins
}

// computeWindows writes every window call's result into its slot of each
// row, after the aggregate slots scope's rows carry. Only aggregate functions
// with OVER (PARTITION BY ...) are supported — the shape VerdictDB's rewrites
// need.
func computeWindows(scope *env, rows [][]Value, winCalls []*sqlparser.FuncCall) error {
	slot := scope.rel.width() + len(scope.calls)
	for wi, wc := range winCalls {
		if !sqlparser.AggregateFuncs[wc.Name] {
			return fmt.Errorf("engine: window function %s not supported", wc.Name)
		}
		partFns, _ := compileExprs(scope, wc.Over.PartitionBy)
		argFn, _ := compileAggArg(scope, wc)
		// Partition the rows.
		parts := map[string][][]Value{}
		var order []string
		var kb []byte
		for _, row := range rows {
			if err := scope.qc.tick(); err != nil {
				return err
			}
			var err error
			if kb, err = appendKey(kb[:0], partFns, row); err != nil {
				return err
			}
			k := string(kb)
			if _, ok := parts[k]; !ok {
				order = append(order, k)
			}
			parts[k] = append(parts[k], row)
		}
		q, err := quantileLiteralArg(wc)
		if err != nil {
			return err
		}
		var slabs accSlabs
		for _, k := range order {
			members := parts[k]
			acc, err := newAccumulator(&sqlparser.FuncCall{
				Name: wc.Name, Distinct: wc.Distinct, Star: wc.Star, Args: wc.Args,
			}, q, scope.qc, &slabs)
			if err != nil {
				return err
			}
			for _, row := range members {
				if err := scope.qc.tick(); err != nil {
					return err
				}
				if argFn == nil {
					acc.addStar()
					continue
				}
				v, err := argFn(row)
				if err != nil {
					return err
				}
				if err := acc.add(v); err != nil {
					return err
				}
			}
			res := acc.result()
			for _, row := range members {
				row[slot+wi] = res
			}
		}
	}
	return nil
}

// outCol is one output column of a SELECT list: either a direct copy of
// source column idx (expr nil, from star expansion) or an expression.
type outCol struct {
	name string
	expr sqlparser.Expr // nil means direct column copy
	idx  int            // source index for star expansion
}

// deriveOutCols expands the select list into output columns, resolving
// star items against the relation schema.
func deriveOutCols(rel *relation, sel *sqlparser.SelectStmt) ([]outCol, error) {
	var outCols []outCol
	for i, it := range sel.Items {
		switch {
		case it.Star:
			for ci := range rel.names {
				if it.StarTable != "" && !strings.EqualFold(rel.qualifiers[ci], it.StarTable) {
					continue
				}
				outCols = append(outCols, outCol{name: rel.names[ci], expr: nil, idx: ci})
			}
			if it.StarTable != "" {
				found := false
				for ci := range rel.names {
					if strings.EqualFold(rel.qualifiers[ci], it.StarTable) {
						found = true
						break
					}
				}
				if !found {
					return nil, fmt.Errorf("engine: unknown table %q in %s.*", it.StarTable, it.StarTable)
				}
			}
		default:
			name := it.Alias
			if name == "" {
				name = deriveColName(it.Expr, i)
			}
			outCols = append(outCols, outCol{name: name, expr: it.Expr, idx: -1})
		}
	}
	return outCols, nil
}

func outColNames(outCols []outCol) []string {
	cols := make([]string, len(outCols))
	for i, oc := range outCols {
		cols[i] = oc.name
	}
	return cols
}

// orderOutputIndex returns the output column an ORDER BY term names — a
// 1-based position or an output alias — or -1 when the term is an
// expression over the pre-projection row.
func orderOutputIndex(e sqlparser.Expr, cols []string) int {
	switch x := e.(type) {
	case *sqlparser.Literal:
		if p, isInt := x.Val.(int64); isInt && p >= 1 && int(p) <= len(cols) {
			return int(p) - 1
		}
	case *sqlparser.ColumnRef:
		if x.Table == "" {
			for i, c := range cols {
				if strings.EqualFold(c, x.Name) {
					return i
				}
			}
		}
	}
	return -1
}

// orderByOutputsOnly reports whether orderRows can evaluate every ORDER BY
// term from the projected rows alone, without the pre-projection entries
// the vectorized pipeline never materializes.
func orderByOutputsOnly(sel *sqlparser.SelectStmt, cols []string) bool {
	for _, ob := range sel.OrderBy {
		if orderOutputIndex(ob.Expr, cols) < 0 {
			return false
		}
	}
	return true
}

// compileProjection compiles each output column once per query; pure
// reports whether every compiled expression is, and reads lists the columns of
// the row they are handed that they read.
func compileProjection(scope *env, outCols []outCol) (items []projCol, reads []int, pure bool) {
	c := &compiler{scope: scope, pure: true}
	items = make([]projCol, len(outCols))
	for i, oc := range outCols {
		if oc.expr == nil {
			items[i] = projCol{idx: oc.idx}
			c.read(oc.idx)
			continue
		}
		items[i] = projCol{fn: c.compile(oc.expr)}
	}
	return items, c.cols, c.pure
}

// outputCols lists the columns of an aggregated block's representative rows
// that the clauses evaluated after aggregation read — the select list
// (itemCols), HAVING, ORDER BY, window partitions and arguments — so the scan
// boxes those cells of a representative and no others (scanPlan.newGroup). The
// clauses after the select list are compiled here only for the compiler's
// record of what they read; each is compiled for use where it runs.
func outputCols(scope *env, sel *sqlparser.SelectStmt, winCalls []*sqlparser.FuncCall, itemCols []int) []int {
	if sel.Having == nil && len(sel.OrderBy) == 0 && len(winCalls) == 0 {
		return itemCols
	}
	c := &compiler{scope: scope, cols: itemCols}
	if sel.Having != nil {
		c.compile(sel.Having)
	}
	for _, ob := range sel.OrderBy {
		c.compile(ob.Expr)
	}
	for _, wc := range winCalls {
		for _, e := range wc.Over.PartitionBy {
			c.compile(e)
		}
		for _, a := range wc.Args {
			c.compile(a)
		}
	}
	return c.cols
}

// project evaluates the compiled select list for every row.
func project(qc *queryCtx, pre [][]Value, items []projCol) ([][]Value, error) {
	// Projection output is freshly boxed rows: charge it up front, so a
	// blow-up (huge unaggregated projection) aborts at the next poll.
	qc.chargeMem(int64(len(pre)) * boxedRowBytes(len(items)))
	rowsOut := make([][]Value, len(pre))
	for i, row := range pre {
		if err := qc.tick(); err != nil {
			return nil, err
		}
		out, err := projectRow(row, items)
		if err != nil {
			return nil, err
		}
		rowsOut[i] = out
	}
	return rowsOut, nil
}

func deriveColName(e sqlparser.Expr, pos int) string {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		return x.Name
	case *sqlparser.FuncCall:
		return x.Name
	}
	return fmt.Sprintf("_c%d", pos)
}

// orderRows sorts projRows by the ORDER BY terms. Terms may be output aliases,
// 1-based positions, or expressions over pre, the rows before projection (in
// step with projRows; nil only when every term names an output).
func orderRows(scope *env, sel *sqlparser.SelectStmt, cols []string, pre, projRows [][]Value) error {
	n := len(projRows)
	// Per term: the output column it names, else its compiled expression.
	outIdx := make([]int, len(sel.OrderBy))
	fns := make([]compiledExpr, len(sel.OrderBy))
	for j, ob := range sel.OrderBy {
		if outIdx[j] = orderOutputIndex(ob.Expr, cols); outIdx[j] < 0 {
			fns[j], _ = compileExpr(scope, ob.Expr)
		}
	}
	keys := make([][]Value, n)
	for i := 0; i < n; i++ {
		key := make([]Value, len(sel.OrderBy))
		for j := range sel.OrderBy {
			if outIdx[j] >= 0 {
				key[j] = projRows[i][outIdx[j]]
				continue
			}
			v, err := fns[j](pre[i])
			if err != nil {
				return err
			}
			key[j] = v
		}
		keys[i] = key
	}

	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ka, kb := keys[idx[a]], keys[idx[b]]
		for j, ob := range sel.OrderBy {
			va, vb := ka[j], kb[j]
			var c int
			switch {
			case va == nil && vb == nil:
				c = 0
			case va == nil:
				c = -1 // NULLs first ascending
			case vb == nil:
				c = 1
			default:
				c = Compare(va, vb)
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
	permuted := make([][]Value, n)
	for i, id := range idx {
		permuted[i] = projRows[id]
	}
	copy(projRows, permuted)
	return nil
}
