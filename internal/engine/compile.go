package engine

import (
	"fmt"
	"slices"
	"strings"

	"verdictdb/internal/sqlparser"
)

// This file lowers sqlparser.Expr trees into closure chains once per query:
// the engine's one row-at-a-time evaluator, and the reference the vector
// kernels in vectorize.go are tested against. A compiled expression
// resolves every column reference at compile time (so row access is a
// direct index), bakes operators into per-op closures, and records purity.
// Pure compiled expressions may be evaluated concurrently by the
// morsel-parallel scan in parallel.go.
//
// The compiler is total. Expressions that need more than the row — columns
// of an enclosing scope, subqueries — capture the env they were compiled in
// and are impure, as are rand and friends: impure closures run serially, in
// row order, so sampling stays deterministic and the captured scope has one
// writer. An aggregate or window reference is a column read: the clauses
// after aggregation are handed rows that carry the results (env.calls). An
// expression that cannot be evaluated at all (unknown or ambiguous column,
// aggregate outside an aggregating clause, bare INTERVAL, unknown operator)
// lowers to an impure closure that returns the error when called, so a query
// that never evaluates it — zero rows, a short-circuit — still succeeds.

// compiledExpr evaluates one expression against a row of the relation it
// was compiled for. Implementations must be reentrant: pure compiled
// expressions are called concurrently by parallel scan workers.
type compiledExpr func(row []Value) (Value, error)

// impureFuncs are the scalar functions whose result depends on engine RNG
// state. Queries containing them never take the parallel path.
var impureFuncs = map[string]bool{
	"rand": true, "random": true, "rand_poisson1": true,
}

type compiler struct {
	scope *env
	pure  bool
	// cols lists the columns of the row argument the closures read: the ones
	// resolveColumn indexes, and the ones a subquery reads of the row it is
	// handed (readOuter). A caller may leave every other slot unfilled.
	cols []int
}

// laneExpr is a compiled expression with the columns of its row it reads, so
// it can run against a chunk's lanes through a scratch row holding only those.
type laneExpr struct {
	fn   compiledExpr
	cols []int
}

// compileLanes lowers e for evaluation against the lanes of scope.rel's chunks.
func compileLanes(scope *env, e sqlparser.Expr) (x *laneExpr, pure bool) {
	c := &compiler{scope: scope, pure: true}
	fn := c.compile(e)
	return &laneExpr{fn: fn, cols: c.cols}, c.pure
}

// at evaluates the expression for row i of ch, boxing into the scratch row only
// the columns it reads.
func (x *laneExpr) at(ch *chunk, i int, row []Value) (Value, error) {
	for _, j := range x.cols {
		row[j] = ch.valueAt(j, i)
	}
	return x.fn(row)
}

// compileExpr lowers e for rows of scope.rel. pure=false means the closure
// reads scope state or the engine RNG and must run serially in row order.
func compileExpr(scope *env, e sqlparser.Expr) (fn compiledExpr, pure bool) {
	c := &compiler{scope: scope, pure: true}
	return c.compile(e), c.pure
}

// compileExprs lowers a list of expressions against one scope.
func compileExprs(scope *env, exprs []sqlparser.Expr) (fns []compiledExpr, pure bool) {
	c := &compiler{scope: scope, pure: true}
	fns = make([]compiledExpr, len(exprs))
	for i, e := range exprs {
		fns[i] = c.compile(e)
	}
	return fns, c.pure
}

// compileAggArg lowers the argument of an aggregate call; fn is nil for
// count(*)-style star calls.
func compileAggArg(scope *env, fc *sqlparser.FuncCall) (fn compiledExpr, pure bool) {
	c := &compiler{scope: scope, pure: true}
	switch {
	case fc.Star:
	case len(fc.Args) == 0:
		fn = c.fail(fmt.Errorf("engine: aggregate %s requires an argument", fc.Name))
	default:
		fn = c.compile(fc.Args[0])
	}
	return fn, c.pure
}

// appendKey encodes the values of fns for row into a key buffer.
func appendKey(buf []byte, fns []compiledExpr, row []Value) ([]byte, error) {
	for _, fn := range fns {
		v, err := fn(row)
		if err != nil {
			return buf, err
		}
		buf = appendKeyValue(buf, v)
	}
	return buf, nil
}

// fail lowers an expression that cannot be evaluated: the closure evaluates
// operands in order (their errors win) and then reports err.
func (c *compiler) fail(err error, operands ...compiledExpr) compiledExpr {
	c.pure = false
	return func(row []Value) (Value, error) {
		for _, op := range operands {
			if _, operr := op(row); operr != nil {
				return nil, operr
			}
		}
		return nil, err
	}
}

func (c *compiler) compile(e sqlparser.Expr) compiledExpr {
	switch x := e.(type) {
	case *sqlparser.Literal:
		v := x.Val
		return func([]Value) (Value, error) { return v, nil }
	case *sqlparser.ColumnRef:
		fn, err := c.resolveColumn(x.Table, x.Name)
		if err != nil {
			return c.fail(err)
		}
		return fn
	case *sqlparser.BinaryExpr:
		return c.compileBinary(x)
	case *sqlparser.UnaryExpr:
		return c.compileUnary(x)
	case *sqlparser.FuncCall:
		return c.compileFunc(x)
	case *sqlparser.CaseExpr:
		return c.compileCase(x)
	case *sqlparser.InExpr:
		return c.compileIn(x)
	case *sqlparser.SubqueryExpr:
		return c.compileScalarSubquery(x.Select)
	case *sqlparser.ExistsExpr:
		c.pure = false
		c.readOuter(x.Select)
		scope, sel, not := c.scope, x.Select, x.Not
		return func(row []Value) (Value, error) {
			scope.row = row
			rs, err := scope.execSubquery(sel)
			if err != nil {
				return nil, err
			}
			return (len(rs.Rows) > 0) != not, nil
		}
	case *sqlparser.BetweenExpr:
		xf, lo, hi := c.compile(x.X), c.compile(x.Lo), c.compile(x.Hi)
		not := x.Not
		return func(row []Value) (Value, error) {
			v, err := xf(row)
			if err != nil {
				return nil, err
			}
			lv, err := lo(row)
			if err != nil {
				return nil, err
			}
			hv, err := hi(row)
			if err != nil {
				return nil, err
			}
			if v == nil || lv == nil || hv == nil {
				return nil, nil
			}
			in := Compare(v, lv) >= 0 && Compare(v, hv) <= 0
			return in != not, nil
		}
	case *sqlparser.LikeExpr:
		xf, pf := c.compile(x.X), c.compile(x.Pattern)
		not := x.Not
		return func(row []Value) (Value, error) {
			v, err := xf(row)
			if err != nil {
				return nil, err
			}
			p, err := pf(row)
			if err != nil {
				return nil, err
			}
			if v == nil || p == nil {
				return nil, nil
			}
			return likeMatch(ToStr(v), ToStr(p)) != not, nil
		}
	case *sqlparser.IsNullExpr:
		xf := c.compile(x.X)
		not := x.Not
		return func(row []Value) (Value, error) {
			v, err := xf(row)
			if err != nil {
				return nil, err
			}
			return (v == nil) != not, nil
		}
	case *sqlparser.CastExpr:
		xf := c.compile(x.X)
		typ := x.Type
		return func(row []Value) (Value, error) {
			v, err := xf(row)
			if err != nil {
				return nil, err
			}
			return castValue(v, typ)
		}
	case *sqlparser.IntervalExpr:
		// A bare interval only makes sense as the right operand of date
		// arithmetic, which compileBinary handles.
		return c.fail(fmt.Errorf("engine: INTERVAL outside date arithmetic"))
	}
	return c.fail(fmt.Errorf("engine: cannot evaluate %T", e))
}

// resolveColumn finds the innermost scope that knows the column — once, at
// compile time. In the compiled scope it is an index into the row argument;
// in an enclosing scope, an index into that scope's current row. A name the
// innermost scope finds ambiguous is an error: it must not fall through to
// an enclosing scope (or to "unknown column").
func (c *compiler) resolveColumn(table, name string) (compiledExpr, error) {
	for scope := c.scope; scope != nil; scope = scope.outer {
		if scope.rel == nil {
			continue
		}
		idx, err := scope.rel.resolve(table, name)
		switch {
		case err == nil && scope == c.scope:
			c.read(idx)
			return func(row []Value) (Value, error) { return row[idx], nil }, nil
		case err == nil:
			c.pure = false
			return func([]Value) (Value, error) { return scope.row[idx], nil }, nil
		case idx == ambiguousIdx:
			return nil, err
		}
	}
	return nil, fmt.Errorf("engine: unknown column %s", joinName(table, name))
}

func (c *compiler) read(idx int) {
	if !slices.Contains(c.cols, idx) {
		c.cols = append(c.cols, idx) //verdict:nocharge plan-size: at most one entry per schema column
	}
}

// readOuter is outerRefs for a subquery about to be handed the row through
// scope.row, recording what it reads of that row: the references that bind in
// this scope, or every column when the walk cannot tell.
func (c *compiler) readOuter(sel *sqlparser.SelectStmt) (refs []*sqlparser.ColumnRef, known bool) {
	refs, known = outerRefs(c.scope.qc, sel)
	rel := c.scope.rel
	if rel == nil {
		return refs, known
	}
	if !known {
		for j := range rel.names {
			c.read(j)
		}
	}
	for _, cr := range refs {
		if idx, err := rel.resolve(cr.Table, cr.Name); err == nil {
			c.read(idx)
		}
	}
	return refs, known
}

// compileScalarSubquery lowers (SELECT ...) used as a value. The subquery's
// references to enclosing scopes are resolved here, so each row only renders
// their current values into the memo key.
func (c *compiler) compileScalarSubquery(sel *sqlparser.SelectStmt) compiledExpr {
	c.pure = false
	var memo subqueryMemo
	if refs, known := c.readOuter(sel); !known {
		memo.correlated = true
	} else if len(refs) > 0 {
		memo.correlated = true
		memo.keyFns = make([]compiledExpr, len(refs))
		for i, cr := range refs {
			fn, err := c.resolveColumn(cr.Table, cr.Name)
			if err != nil {
				memo.keyFns = nil
				break
			}
			memo.keyFns[i] = fn
		}
	}
	scope := c.scope
	return func(row []Value) (Value, error) {
		scope.row = row
		return scope.scalarSubquery(sel, memo)
	}
}

func (c *compiler) compileUnary(x *sqlparser.UnaryExpr) compiledExpr {
	xf := c.compile(x.X)
	switch x.Op {
	case "-":
		return func(row []Value) (Value, error) {
			v, err := xf(row)
			if err != nil {
				return nil, err
			}
			switch n := v.(type) {
			case nil:
				return nil, nil
			case int64:
				return -n, nil
			case float64:
				return -n, nil
			}
			return nil, errCannotNegate(v)
		}
	case "NOT":
		return func(row []Value) (Value, error) {
			v, err := xf(row)
			if err != nil {
				return nil, err
			}
			if v == nil {
				return nil, nil
			}
			b, ok := ToBool(v)
			if !ok {
				return nil, errNotNonBool(v)
			}
			return !b, nil
		}
	}
	return c.fail(fmt.Errorf("engine: unknown unary op %q", x.Op), xf)
}

func (c *compiler) compileBinary(x *sqlparser.BinaryExpr) compiledExpr {
	switch x.Op {
	case "AND", "OR":
		lf, rf := c.compile(x.L), c.compile(x.R)
		if x.Op == "AND" {
			return func(row []Value) (Value, error) {
				l, err := lf(row)
				if err != nil {
					return nil, err
				}
				if lb, ok := ToBool(l); ok && !lb {
					return false, nil
				}
				r, err := rf(row)
				if err != nil {
					return nil, err
				}
				if rb, ok := ToBool(r); ok && !rb {
					return false, nil
				}
				if l == nil || r == nil {
					return nil, nil
				}
				return true, nil
			}
		}
		return func(row []Value) (Value, error) {
			l, err := lf(row)
			if err != nil {
				return nil, err
			}
			if lb, ok := ToBool(l); ok && lb {
				return true, nil
			}
			r, err := rf(row)
			if err != nil {
				return nil, err
			}
			if rb, ok := ToBool(r); ok && rb {
				return true, nil
			}
			if l == nil || r == nil {
				return nil, nil
			}
			return false, nil
		}
	}

	// Date +/- INTERVAL.
	if iv, ok := x.R.(*sqlparser.IntervalExpr); ok && (x.Op == "+" || x.Op == "-") {
		lf := c.compile(x.L)
		neg := x.Op == "-"
		return func(row []Value) (Value, error) {
			l, err := lf(row)
			if err != nil {
				return nil, err
			}
			if l == nil {
				return nil, nil
			}
			return shiftDate(ToStr(l), iv, neg)
		}
	}

	lf, rf := c.compile(x.L), c.compile(x.R)
	switch x.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		return c.compileCompare(x, lf, rf)
	case "||":
		return func(row []Value) (Value, error) {
			l, err := lf(row)
			if err != nil {
				return nil, err
			}
			r, err := rf(row)
			if err != nil {
				return nil, err
			}
			if l == nil || r == nil {
				return nil, nil
			}
			return ToStr(l) + ToStr(r), nil
		}
	case "+", "-", "*", "/", "%":
		op := x.Op
		return func(row []Value) (Value, error) {
			l, err := lf(row)
			if err != nil {
				return nil, err
			}
			r, err := rf(row)
			if err != nil {
				return nil, err
			}
			if l == nil || r == nil {
				return nil, nil
			}
			return arith(op, l, r)
		}
	}
	return c.fail(fmt.Errorf("engine: unknown operator %q", x.Op), lf, rf)
}

// compileCompare builds a comparison closure. When the right side is a
// literal the common column-vs-constant shape gets a type-specialized fast
// path that skips the generic Compare dispatch.
func (c *compiler) compileCompare(x *sqlparser.BinaryExpr, lf, rf compiledExpr) compiledExpr {
	op := x.Op
	test := cmpTest(op)
	if lit, isLit := x.R.(*sqlparser.Literal); isLit && lit.Val != nil {
		switch rv := lit.Val.(type) {
		case string:
			return func(row []Value) (Value, error) {
				l, err := lf(row)
				if err != nil {
					return nil, err
				}
				if l == nil {
					return nil, nil
				}
				if ls, ok := l.(string); ok {
					return test(strings.Compare(ls, rv)), nil
				}
				return test(Compare(l, rv)), nil
			}
		case int64:
			// Compare coerces int64 through float64, so the fast path must
			// too: exact int64 comparison would diverge from the generic
			// closure for magnitudes >= 2^53.
			rfloat := float64(rv)
			return func(row []Value) (Value, error) {
				l, err := lf(row)
				if err != nil {
					return nil, err
				}
				switch lv := l.(type) {
				case nil:
					return nil, nil
				case int64:
					return test(cmpFloat64(float64(lv), rfloat)), nil
				case float64:
					return test(cmpFloat64(lv, rfloat)), nil
				}
				return test(Compare(l, rv)), nil
			}
		case float64:
			return func(row []Value) (Value, error) {
				l, err := lf(row)
				if err != nil {
					return nil, err
				}
				switch lv := l.(type) {
				case nil:
					return nil, nil
				case int64:
					return test(cmpFloat64(float64(lv), rv)), nil
				case float64:
					return test(cmpFloat64(lv, rv)), nil
				}
				return test(Compare(l, rv)), nil
			}
		}
	}
	return func(row []Value) (Value, error) {
		l, err := lf(row)
		if err != nil {
			return nil, err
		}
		r, err := rf(row)
		if err != nil {
			return nil, err
		}
		if l == nil || r == nil {
			return nil, nil
		}
		return test(Compare(l, r)), nil
	}
}

func cmpTest(op string) func(int) bool {
	switch op {
	case "=":
		return func(c int) bool { return c == 0 }
	case "<>":
		return func(c int) bool { return c != 0 }
	case "<":
		return func(c int) bool { return c < 0 }
	case "<=":
		return func(c int) bool { return c <= 0 }
	case ">":
		return func(c int) bool { return c > 0 }
	default: // ">="
		return func(c int) bool { return c >= 0 }
	}
}

func cmpFloat64(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func (c *compiler) compileFunc(x *sqlparser.FuncCall) compiledExpr {
	// Window and aggregate calls are computed by the executor into result
	// slots after the relation's columns: a scope that knows the call reads
	// its slot; anywhere else the reference is an error.
	if x.Over != nil || sqlparser.AggregateFuncs[x.Name] {
		if i := slices.Index(c.scope.calls, x); i >= 0 {
			slot := c.scope.rel.width() + i
			return func(row []Value) (Value, error) { return row[slot], nil }
		}
		if x.Over != nil {
			return c.fail(fmt.Errorf("engine: window function %s not available in this context", x.Name))
		}
		return c.fail(fmt.Errorf("engine: aggregate %s not allowed here", x.Name))
	}
	if impureFuncs[x.Name] {
		c.pure = false
	}
	args := make([]compiledExpr, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.compile(a)
	}

	// Fast paths for the hottest scan functions (substr over date columns is
	// all over the TPC-H group-by keys).
	switch x.Name {
	case "substr", "substring":
		if len(x.Args) == 3 {
			start, okS := literalInt(x.Args[1])
			length, okL := literalInt(x.Args[2])
			if okS && okL && start >= 1 && length >= 0 {
				sf := args[0]
				return func(row []Value) (Value, error) {
					v, err := sf(row)
					if err != nil {
						return nil, err
					}
					if v == nil {
						return nil, nil
					}
					s := ToStr(v)
					if int(start) > len(s) {
						return "", nil
					}
					rest := s[start-1:]
					if int(length) < len(rest) {
						rest = rest[:length]
					}
					return rest, nil
				}
			}
		}
	case "year":
		if len(x.Args) == 1 {
			sf := args[0]
			return func(row []Value) (Value, error) {
				v, err := sf(row)
				if err != nil {
					return nil, err
				}
				if v == nil {
					return nil, nil
				}
				s := ToStr(v)
				if len(s) >= 4 {
					if y, ok := ToInt(s[:4]); ok {
						return y, nil
					}
				}
				return nil, nil
			}
		}
	}

	name := x.Name
	eng := c.scope.qc.eng
	return func(row []Value) (Value, error) {
		vals := make([]Value, len(args))
		for i, af := range args {
			v, err := af(row)
			if err != nil {
				return nil, err
			}
			vals[i] = v
		}
		return callScalar(eng, name, vals)
	}
}

func literalInt(e sqlparser.Expr) (int64, bool) {
	lit, ok := e.(*sqlparser.Literal)
	if !ok {
		return 0, false
	}
	i, ok := lit.Val.(int64)
	return i, ok
}

func (c *compiler) compileCase(x *sqlparser.CaseExpr) compiledExpr {
	type when struct{ cond, then compiledExpr }
	whens := make([]when, len(x.Whens))
	for i, w := range x.Whens {
		whens[i] = when{cond: c.compile(w.Cond), then: c.compile(w.Then)}
	}
	var elseF compiledExpr
	if x.Else != nil {
		elseF = c.compile(x.Else)
	}
	if x.Operand != nil {
		opF := c.compile(x.Operand)
		return func(row []Value) (Value, error) {
			op, err := opF(row)
			if err != nil {
				return nil, err
			}
			for _, w := range whens {
				wv, err := w.cond(row)
				if err != nil {
					return nil, err
				}
				if op != nil && wv != nil && Compare(op, wv) == 0 {
					return w.then(row)
				}
			}
			if elseF != nil {
				return elseF(row)
			}
			return nil, nil
		}
	}
	return func(row []Value) (Value, error) {
		for _, w := range whens {
			cv, err := w.cond(row)
			if err != nil {
				return nil, err
			}
			if b, ok := ToBool(cv); ok && b {
				return w.then(row)
			}
		}
		if elseF != nil {
			return elseF(row)
		}
		return nil, nil
	}
}

// compileIn lowers x [NOT] IN (list | subquery). With no match, a NULL among
// the candidates makes the answer unknown rather than false.
func (c *compiler) compileIn(x *sqlparser.InExpr) compiledExpr {
	xf := c.compile(x.X)
	not := x.Not
	if x.Subquery != nil {
		c.pure = false
		scope, sel := c.scope, x.Subquery
		refs, known := c.readOuter(sel)
		correlated := !known || len(refs) > 0
		return func(row []Value) (Value, error) {
			v, err := xf(row)
			if err != nil || v == nil {
				return nil, err
			}
			scope.row = row
			set, err := scope.inSubquerySet(sel, correlated)
			if err != nil {
				return nil, err
			}
			switch {
			case set[GroupKey(v)]:
				return !not, nil
			case set[nullGroupKey]:
				return nil, nil
			}
			return not, nil
		}
	}
	list := make([]compiledExpr, len(x.List))
	for i, le := range x.List {
		list[i] = c.compile(le)
	}
	return func(row []Value) (Value, error) {
		v, err := xf(row)
		if err != nil || v == nil {
			return nil, err
		}
		sawNull := false
		for _, lf := range list {
			lv, err := lf(row)
			if err != nil {
				return nil, err
			}
			if lv == nil {
				sawNull = true
			} else if Compare(v, lv) == 0 {
				return !not, nil
			}
		}
		if sawNull {
			return nil, nil
		}
		return not, nil
	}
}
