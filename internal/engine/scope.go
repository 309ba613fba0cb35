package engine

import (
	"context"
	"fmt"
	"strings"

	"verdictdb/internal/sqlparser"
)

// relation is an intermediate result: a schema of (qualifier, name) columns
// over a chunk source. A base-table scan's source is its snapshot; a join's is
// the late-materialized chunks the join emits; the three producers of boxed
// rows — a derived table's result, the row join's output, the FROM-less single
// row — wrap them with rowSource. Every consumer reads chunks: kernels their
// typed vectors, the row closures the lanes an expression names.
type relation struct {
	qualifiers []string   // per-column table qualifier ("" if none)
	names      []string   // per-column name
	src        *colSource // nil only for the schema-only relations scopeWalker builds

	// lazily built resolution maps
	qualified map[string]int // "qual.name" (lower) -> index
	bare      map[string]int // "name" (lower) -> index; ambiguousIdx if dup
}

const ambiguousIdx = AmbiguousColIndex

func newRelation(quals, names []string, src *colSource) *relation {
	return &relation{qualifiers: quals, names: names, src: src}
}

// tableRelation is the relation of a base-table reference: the table's
// columns under the reference's alias (or the table's base name), over src.
func tableRelation(t *sqlparser.TableRef, tbl *Table, src *colSource) *relation {
	qual := t.Alias
	if qual == "" {
		qual = baseName(t.Name)
	}
	names := make([]string, len(tbl.Cols))
	for i, c := range tbl.Cols {
		names[i] = c.Name
	}
	return aliasedRelation(qual, names, src)
}

// aliasedRelation is a relation whose columns all carry one qualifier: a
// derived table's result, or a base table's columns.
func aliasedRelation(qual string, names []string, src *colSource) *relation {
	quals := make([]string, len(names))
	for i := range quals {
		quals[i] = qual
	}
	return newRelation(quals, names, src)
}

// joinedRelation is the schema of a join's output: the left input's columns,
// then the right's.
func joinedRelation(l, r *relation) *relation {
	return newRelation(append(append([]string{}, l.qualifiers...), r.qualifiers...),
		append(append([]string{}, l.names...), r.names...), nil)
}

func (r *relation) width() int { return len(r.names) }

func (r *relation) buildIndex() {
	if r.bare != nil {
		return
	}
	r.qualified = make(map[string]int, len(r.names))
	r.bare = make(map[string]int, len(r.names))
	// name index: one entry per schema column, not row-scale
	for i, n := range r.names {
		low := strings.ToLower(n)
		if q := r.qualifiers[i]; q != "" {
			r.qualified[strings.ToLower(q)+"."+low] = i //verdict:nocharge schema-width
		}
		if prev, ok := r.bare[low]; ok && prev != i {
			r.bare[low] = ambiguousIdx //verdict:nocharge schema-width
		} else {
			r.bare[low] = i //verdict:nocharge schema-width
		}
	}
}

// resolve maps a column reference to a column index.
func (r *relation) resolve(table, name string) (int, error) {
	r.buildIndex()
	low := strings.ToLower(name)
	if table != "" {
		if idx, ok := r.qualified[strings.ToLower(table)+"."+low]; ok {
			return idx, nil
		}
		return -1, fmt.Errorf("engine: unknown column %s.%s", table, name)
	}
	idx, ok := r.bare[low]
	if !ok {
		return -1, fmt.Errorf("engine: unknown column %s", name)
	}
	if idx == ambiguousIdx {
		// Keep the sentinel in the return so callers can tell ambiguity
		// (an error even when enclosing scopes know the name) from absence.
		return ambiguousIdx, fmt.Errorf("%w %s", ErrAmbiguousColumn, name)
	}
	return idx, nil
}

// canResolve reports whether the reference resolves without error.
func (r *relation) canResolve(table, name string) bool {
	_, err := r.resolve(table, name)
	return err == nil
}

// queryCtx carries per-query state through execution.
type queryCtx struct {
	eng     *Engine
	scanned int64 // base-table rows read
	depth   int   // subquery nesting guard

	// Lifecycle control (lifecycle.go): the caller's context, the optional
	// memory gauge, the poll counter for serial loops (unsynchronized —
	// morsel workers call pollAbort directly), and the SQL for InternalError
	// provenance.
	ctx   context.Context
	mem   *memGauge
	polls int
	query string

	// Correlated-subquery memoization: a correlated scalar subquery is
	// re-evaluated for every outer row, but its result depends only on the
	// outer values it references; corrCache memoizes results keyed by those
	// values. This turns the O(outer x inner) naive evaluation into
	// O(distinct keys x inner) — the difference between seconds and hours on
	// TPC-H q17.
	corrCache map[*sqlparser.SelectStmt]map[string]Value

	views viewArena // the chunk views its loads make (newView)
}

// env is one SELECT block's scope: what a compiled expression can see
// beyond the row it is called with. Closures that read it (enclosing-scope
// columns, subqueries) capture the env they were compiled in and are impure,
// so they only ever run serially, in row order. Aggregate and window results
// are not scope state: they are columns of the rows the clauses after
// aggregation are handed (calls).
type env struct {
	qc  *queryCtx
	rel *relation
	// row is the row being evaluated, for inner scopes to read: a subquery
	// closure stores its row here before running the subquery.
	row []Value
	// calls are the aggregate, then window, calls whose results the rows this
	// scope's closures are handed carry after rel's columns, one slot each in
	// this order; nil in a block's scan scope (withCalls).
	calls []*sqlparser.FuncCall
	outer *env // enclosing scope for correlated subqueries
	// subqueryCache memoizes uncorrelated scalar/IN subquery results at the
	// query level (shared across rows via pointer).
	subqueryCache map[*sqlparser.SelectStmt]Value
	inSetCache    map[*sqlparser.SelectStmt]map[string]bool
}

// withCalls is ev for clauses whose rows carry the results of calls after
// rel's columns: ev itself when there are none.
func (ev *env) withCalls(calls []*sqlparser.FuncCall) *env {
	if len(calls) == 0 {
		return ev
	}
	post := *ev
	post.calls = calls
	return &post
}

func errCannotNegate(v Value) error {
	return fmt.Errorf("engine: cannot negate %T", v)
}

func errNotNonBool(v Value) error {
	return fmt.Errorf("engine: NOT applied to non-boolean %T", v)
}

func joinName(table, name string) string {
	if table == "" {
		return name
	}
	return table + "." + name
}

// arith applies a numeric operator. Division always yields float64 (the
// middleware's rewrites depend on exact ratios); +,-,* stay integral when
// both operands are integers; % requires integers.
func arith(op string, l, r Value) (Value, error) {
	li, lIsInt := l.(int64)
	ri, rIsInt := r.(int64)
	if lIsInt && rIsInt && op != "/" {
		switch op {
		case "+":
			return li + ri, nil
		case "-":
			return li - ri, nil
		case "*":
			return li * ri, nil
		case "%":
			if ri == 0 {
				return nil, nil
			}
			return li % ri, nil
		}
	}
	lf, lok := ToFloat(l)
	rf, rok := ToFloat(r)
	if !lok || !rok {
		return nil, fmt.Errorf("engine: non-numeric operand for %q (%T, %T)", op, l, r)
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, nil
		}
		return lf / rf, nil
	case "%":
		// int64(rf) can be 0 for 0 < |rf| < 1; guard both so the modulo
		// below cannot divide by zero.
		if rf == 0 || int64(rf) == 0 {
			return nil, nil
		}
		return float64(int64(lf) % int64(rf)), nil
	}
	return nil, fmt.Errorf("engine: unknown arithmetic op %q", op)
}

// outerRefs returns the column references of a subquery that resolve in none
// of its own scopes — sel's FROM, or the FROM of a subquery nested in it —
// and therefore read the scopes enclosing sel, in deterministic order. Every
// clause that can see an enclosing scope is walked: select list, WHERE,
// GROUP BY, HAVING, ORDER BY, join conditions, UNION branches and nested
// subqueries (a derived table's body cannot). Names resolve with
// relation.resolve over schema-only relations shaped like the ones execution
// will build, so the answer is the compiler's. ok is false when a schema is
// not known yet (a missing table): the subquery must then count as correlated.
func outerRefs(qc *queryCtx, sel *sqlparser.SelectStmt) (refs []*sqlparser.ColumnRef, ok bool) {
	w := &scopeWalker{qc: qc, ok: true}
	w.selectStmt(sel, nil)
	return w.refs, w.ok
}

// schemaScope is one open scope of the walk — a SELECT block's FROM schema, or
// a join's while its condition is walked — linked to the scopes around it.
type schemaScope struct {
	rel *relation
	up  *schemaScope
}

type scopeWalker struct {
	qc   *queryCtx
	refs []*sqlparser.ColumnRef
	ok   bool
}

func (w *scopeWalker) selectStmt(sel *sqlparser.SelectStmt, up *schemaScope) {
	for ; sel != nil && w.ok; sel = sel.Union {
		rel := w.from(sel.From, up)
		if rel == nil {
			return
		}
		sc := &schemaScope{rel: rel, up: up}
		for _, it := range sel.Items {
			w.expr(it.Expr, sc)
		}
		w.expr(sel.Where, sc)
		for _, g := range sel.GroupBy {
			w.expr(g, sc)
		}
		w.expr(sel.Having, sc)
		if len(sel.OrderBy) > 0 {
			outCols, err := deriveOutCols(rel, sel)
			w.ok = w.ok && err == nil
			for _, ob := range sel.OrderBy {
				if orderOutputIndex(ob.Expr, outColNames(outCols)) < 0 {
					w.expr(ob.Expr, sc)
				}
			}
		}
	}
}

// from returns the schema of a FROM tree as execution will build it, walking
// the join conditions on the way; nil (and ok cleared) when it cannot tell.
func (w *scopeWalker) from(t sqlparser.TableExpr, up *schemaScope) *relation {
	switch t := t.(type) {
	case nil:
		return newRelation(nil, nil, nil)
	case *sqlparser.TableRef:
		if tbl, err := w.qc.eng.Lookup(t.Name); err == nil {
			return tableRelation(t, tbl, nil)
		}
	case *sqlparser.DerivedTable:
		// The body runs with no enclosing scope: only its output names matter.
		body := &scopeWalker{qc: w.qc, ok: true}
		if inner := body.from(t.Select.From, nil); inner != nil {
			if outCols, err := deriveOutCols(inner, t.Select); err == nil {
				return aliasedRelation(t.Alias, outColNames(outCols), nil)
			}
		}
	case *sqlparser.JoinExpr:
		l, r := w.from(t.Left, up), w.from(t.Right, up)
		if l == nil || r == nil {
			return nil
		}
		rel := joinedRelation(l, r)
		w.expr(t.On, &schemaScope{rel: rel, up: up})
		return rel
	}
	w.ok = false
	return nil
}

func (w *scopeWalker) expr(e sqlparser.Expr, sc *schemaScope) {
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		switch x := x.(type) {
		case *sqlparser.ColumnRef:
			if !sc.binds(x) {
				w.qc.chargeMem(bytesPerRef)
				w.refs = append(w.refs, x)
			}
		case *sqlparser.SubqueryExpr:
			w.selectStmt(x.Select, sc)
		case *sqlparser.InExpr:
			w.selectStmt(x.Subquery, sc)
		case *sqlparser.ExistsExpr:
			w.selectStmt(x.Select, sc)
		}
		return w.ok
	})
}

// binds reports whether sc or a scope around it binds cr: it resolves there,
// or is ambiguous there (an error that never falls through to an enclosing
// scope).
func (sc *schemaScope) binds(cr *sqlparser.ColumnRef) bool {
	for ; sc != nil; sc = sc.up {
		if idx, err := sc.rel.resolve(cr.Table, cr.Name); err == nil || idx == ambiguousIdx {
			return true
		}
	}
	return false
}

// execSubquery runs sel with ev as its enclosing scope; ev.row must be the
// row the subquery expression is being evaluated for.
func (ev *env) execSubquery(sel *sqlparser.SelectStmt) (*ResultSet, error) {
	if ev.qc.depth > 16 {
		return nil, fmt.Errorf("engine: subquery nesting too deep")
	}
	ev.qc.depth++
	defer func() { ev.qc.depth-- }()
	return execSelectWithOuter(ev.qc, sel, ev)
}

// subqueryMemo says how a scalar subquery's result may be reused across
// rows: an uncorrelated one once per query; a correlated one per distinct
// combination of the outer values it references (keyFns, compiled in the
// scope that evaluates the subquery). A correlated subquery with a
// reference that does not resolve there has keyFns nil and is never reused.
type subqueryMemo struct {
	correlated bool
	keyFns     []compiledExpr
}

// scalarSubquery evaluates sel for the current ev.row.
func (ev *env) scalarSubquery(sel *sqlparser.SelectStmt, memo subqueryMemo) (Value, error) {
	var corrKey string
	switch {
	case !memo.correlated:
		if v, ok := ev.subqueryCache[sel]; ok {
			return v, nil
		}
	case memo.keyFns != nil:
		kb, err := appendKey(nil, memo.keyFns, ev.row)
		if err != nil {
			return nil, err
		}
		corrKey = string(kb)
		if v, hit := ev.qc.corrCache[sel][corrKey]; hit {
			return v, nil
		}
	}
	rs, err := ev.execSubquery(sel)
	if err != nil {
		return nil, err
	}
	var v Value
	switch {
	case len(rs.Rows) == 0:
		v = nil
	case len(rs.Rows) == 1 && len(rs.Rows[0]) == 1:
		v = rs.Rows[0][0]
	case len(rs.Rows[0]) != 1:
		return nil, fmt.Errorf("engine: scalar subquery returned %d columns", len(rs.Rows[0]))
	default:
		return nil, fmt.Errorf("engine: scalar subquery returned %d rows", len(rs.Rows))
	}
	switch {
	case !memo.correlated:
		if ev.subqueryCache != nil {
			ev.subqueryCache[sel] = v
		}
	case memo.keyFns != nil:
		if ev.qc.corrCache == nil {
			ev.qc.corrCache = map[*sqlparser.SelectStmt]map[string]Value{}
		}
		byKey := ev.qc.corrCache[sel]
		if byKey == nil {
			byKey = map[string]Value{}
			ev.qc.corrCache[sel] = byKey
		}
		byKey[corrKey] = v
	}
	return v, nil
}

// inSubquerySet returns the group keys of the rows an IN subquery yields for
// the current ev.row; a NULL among them is present as nullGroupKey.
func (ev *env) inSubquerySet(sel *sqlparser.SelectStmt, correlated bool) (map[string]bool, error) {
	if !correlated {
		if s, ok := ev.inSetCache[sel]; ok {
			return s, nil
		}
	}
	rs, err := ev.execSubquery(sel)
	if err != nil {
		return nil, err
	}
	set := make(map[string]bool, len(rs.Rows))
	for _, r := range rs.Rows {
		if len(r) != 1 {
			return nil, fmt.Errorf("engine: IN subquery must return one column")
		}
		set[GroupKey(r[0])] = true
	}
	if !correlated && ev.inSetCache != nil {
		ev.inSetCache[sel] = set
	}
	return set, nil
}

// likeMatch implements SQL LIKE with % and _ wildcards.
func likeMatch(s, pattern string) bool {
	return likeMatchAt(s, pattern)
}

func likeMatchAt(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeMatchAt(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || s[0] != p[0] {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

func castValue(v Value, typ string) (Value, error) {
	if v == nil {
		return nil, nil
	}
	switch TypeFromSQL(typ) {
	case TInt:
		if i, ok := ToInt(v); ok {
			return i, nil
		}
		return nil, nil
	case TFloat:
		if f, ok := ToFloat(v); ok {
			return f, nil
		}
		return nil, nil
	case TString:
		return ToStr(v), nil
	case TBool:
		if b, ok := ToBool(v); ok {
			return b, nil
		}
		return nil, nil
	}
	return v, nil
}
