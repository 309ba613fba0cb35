package engine

import (
	"fmt"
	"strings"

	"verdictdb/internal/sqlparser"
)

// buildFrom materializes the FROM clause into a relation. preds carries the
// query's scan-prunable WHERE conjuncts (qualified column-vs-literal
// comparisons): table scans whose qualifier matches use zone maps to skip
// chunks that cannot satisfy them — partition pruning for block-clustered
// scrambles — while the conjunct itself stays in WHERE for exactness.
func buildFrom(qc *queryCtx, from sqlparser.TableExpr, outer *env, preds []rangePred) (*relation, error) {
	if from == nil {
		// FROM-less select: a single empty row.
		return newRelation(nil, nil, [][]Value{{}}), nil
	}
	switch t := from.(type) {
	case *sqlparser.TableRef:
		tbl, src, err := qc.eng.snapshot(t.Name)
		if err != nil {
			return nil, err
		}
		qual := t.Alias
		if qual == "" {
			qual = baseName(t.Name)
		}
		if len(preds) > 0 {
			var mine []rangePred
			lowQual := strings.ToLower(qual)
			for _, p := range preds {
				if p.qual == lowQual {
					mine = append(mine, p)
				}
			}
			if len(mine) > 0 {
				src = pruneChunks(tbl, src, mine)
			}
		}
		qc.scanned += int64(src.nrows)
		src.counted = true
		quals := make([]string, len(tbl.Cols))
		names := make([]string, len(tbl.Cols))
		for i, c := range tbl.Cols {
			quals[i] = qual
			names[i] = c.Name
		}
		return newColRelation(quals, names, src), nil
	case *sqlparser.DerivedTable:
		rs, err := execSelectWithOuter(qc, t.Select, nil)
		if err != nil {
			return nil, err
		}
		quals := make([]string, len(rs.Cols))
		for i := range quals {
			quals[i] = t.Alias
		}
		return newRelation(quals, rs.Cols, rs.Rows), nil
	case *sqlparser.JoinExpr:
		left, err := buildFrom(qc, t.Left, outer, preds)
		if err != nil {
			return nil, err
		}
		right, err := buildFrom(qc, t.Right, outer, preds)
		if err != nil {
			return nil, err
		}
		return joinRelations(qc, left, right, t, outer)
	}
	return nil, fmt.Errorf("engine: unsupported FROM element %T", from)
}

// baseName strips a schema qualifier: "verdict_meta.samples" -> "samples".
func baseName(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// joinRelations implements hash-based equi-joins with residual predicates:
// vectorized over columnar chunks with late materialization when the join
// condition lowers to kernels (vecjoin.go), row-at-a-time otherwise, and a
// nested-loop join when no equi-join pair exists.
func joinRelations(qc *queryCtx, left, right *relation, je *sqlparser.JoinExpr, outer *env) (*relation, error) {
	combinedQuals := append(append([]string{}, left.qualifiers...), right.qualifiers...)
	combinedNames := append(append([]string{}, left.names...), right.names...)
	combined := newRelation(combinedQuals, combinedNames, nil)

	on := je.On
	// JOIN ... USING (c1, ...) is sugar for equality on the named columns.
	// Each column must resolve to exactly one column on each side; a silent
	// unqualified ref could bind to the wrong column (or make the equality
	// self-referential), so missing/ambiguous names are errors.
	if len(je.Using) > 0 {
		for _, c := range je.Using {
			lq, err := usingQualifier(left, c, "left")
			if err != nil {
				return nil, err
			}
			rq, err := usingQualifier(right, c, "right")
			if err != nil {
				return nil, err
			}
			eq := &sqlparser.BinaryExpr{
				Op: "=",
				L:  &sqlparser.ColumnRef{Table: lq, Name: c},
				R:  &sqlparser.ColumnRef{Table: rq, Name: c},
			}
			if on == nil {
				on = eq
			} else {
				on = &sqlparser.BinaryExpr{Op: "AND", L: on, R: eq}
			}
		}
	}

	leftKeys, rightKeys, residual := splitJoinCondition(left, right, on)

	// Key expressions compile against their own input, the residual against
	// the combined row; all three see the enclosing query through outer.
	lEnv := &env{qc: qc, rel: left, outer: outer}
	rEnv := &env{qc: qc, rel: right, outer: outer}
	combEnv := &env{qc: qc, rel: combined, outer: outer}

	// Vectorized hash join: equi-keys whose expressions (and residual)
	// lower to pure vector kernels run chunk-at-a-time with reference-based
	// output; everything else — impure ON, subqueries in ON, no equi-key —
	// keeps the row path below.
	if len(leftKeys) > 0 && !qc.eng.noVec.Load() {
		vj, err := buildVecJoin(lEnv, rEnv, combEnv, je.Type, leftKeys, rightKeys, residual)
		if err != nil {
			return nil, err
		}
		if vj != nil {
			src, err := vj.run()
			if err != nil {
				return nil, err
			}
			combined.src = src
			return combined, nil
		}
	}

	// Row path: read both sides through the boxed row view.
	if _, err := qc.materialize(left); err != nil {
		return nil, err
	}
	if _, err := qc.materialize(right); err != nil {
		return nil, err
	}

	// The residual predicate is probed once per candidate pair: reuse one
	// combined-row buffer instead of allocating per probe.
	var residualFn compiledExpr
	if residual != nil {
		residualFn, _ = compileExpr(combEnv, residual)
	}
	combinedBuf := make([]Value, left.width()+right.width())
	// matches is probed once per candidate pair in every row-path variant,
	// so the cancellation/budget tick here covers the O(left × right)
	// nested-loop inner loops — the place a runaway cross join must be
	// interruptible.
	matches := func(lrow, rrow []Value) (bool, error) {
		if err := qc.tick(); err != nil {
			return false, err
		}
		if residualFn == nil {
			return true, nil
		}
		copy(combinedBuf, lrow)
		copy(combinedBuf[left.width():], rrow)
		v, err := residualFn(combinedBuf)
		if err != nil {
			return false, err
		}
		b, ok := ToBool(v)
		return ok && b, nil
	}

	joinedRowBytes := (int64(left.width()+right.width()) + 2) * bytesPerValue
	appendJoined := func(out [][]Value, lrow, rrow []Value) [][]Value {
		qc.chargeMem(joinedRowBytes)
		row := make([]Value, 0, left.width()+right.width())
		if lrow == nil {
			lrow = make([]Value, left.width())
		}
		if rrow == nil {
			rrow = make([]Value, right.width())
		}
		row = append(row, lrow...)
		row = append(row, rrow...)
		return append(out, row)
	}

	var out [][]Value

	if len(leftKeys) == 0 {
		// Nested-loop join (cross join or non-equi condition). A
		// residual-free condition means every pair joins, so the output size
		// is known up front — for CROSS JOIN and INNER JOIN alike.
		if (je.Type == sqlparser.CrossJoin || je.Type == sqlparser.InnerJoin) && residual == nil {
			out = make([][]Value, 0, len(left.rows)*max(1, len(right.rows)))
		}
		// All four outer/inner flavors keep a deterministic order: matched
		// pairs in (left row, right row) order, LEFT/FULL null-extensions in
		// place, RIGHT/FULL unmatched right rows trailing in right order.
		switch je.Type {
		case sqlparser.InnerJoin, sqlparser.CrossJoin:
			for _, lrow := range left.rows {
				for _, rrow := range right.rows {
					ok, err := matches(lrow, rrow)
					if err != nil {
						return nil, err
					}
					if ok {
						out = appendJoined(out, lrow, rrow)
					}
				}
			}
		case sqlparser.LeftJoin:
			for _, lrow := range left.rows {
				matched := false
				for _, rrow := range right.rows {
					ok, err := matches(lrow, rrow)
					if err != nil {
						return nil, err
					}
					if ok {
						matched = true
						out = appendJoined(out, lrow, rrow)
					}
				}
				if !matched {
					out = appendJoined(out, lrow, nil)
				}
			}
		case sqlparser.RightJoin:
			matchedR := make([]bool, len(right.rows))
			for _, lrow := range left.rows {
				for ri, rrow := range right.rows {
					ok, err := matches(lrow, rrow)
					if err != nil {
						return nil, err
					}
					if ok {
						matchedR[ri] = true
						out = appendJoined(out, lrow, rrow)
					}
				}
			}
			for ri, rrow := range right.rows {
				if !matchedR[ri] {
					out = appendJoined(out, nil, rrow)
				}
			}
		case sqlparser.FullJoin:
			matchedR := make([]bool, len(right.rows))
			for _, lrow := range left.rows {
				matched := false
				for ri, rrow := range right.rows {
					ok, err := matches(lrow, rrow)
					if err != nil {
						return nil, err
					}
					if ok {
						matched = true
						matchedR[ri] = true
						out = appendJoined(out, lrow, rrow)
					}
				}
				if !matched {
					out = appendJoined(out, lrow, nil)
				}
			}
			for ri, rrow := range right.rows {
				if !matchedR[ri] {
					out = appendJoined(out, nil, rrow)
				}
			}
		}
		combined.rows = out
		return combined, nil
	}

	// Hash join: build on the right, probe from the left. Key expressions
	// are compiled once per join, and composite keys are rendered into a
	// reusable byte buffer (the map only materializes a key string when a
	// new bucket is inserted). RIGHT/FULL joins track matched
	// flags per build-row position, so unmatched right rows — including
	// NULL-key rows, which never enter a bucket but must still null-extend —
	// emit in build order after the probe.
	lKeyFns, _ := compileExprs(lEnv, leftKeys)
	rKeyFns, _ := compileExprs(rEnv, rightKeys)
	type bucket struct {
		rows [][]Value
		idx  []int // build-row positions, for the matched flags
	}
	build := make(map[string]*bucket, len(right.rows))
	var matched []bool
	if je.Type == sqlparser.RightJoin || je.Type == sqlparser.FullJoin {
		matched = make([]bool, len(right.rows))
	}
	var kbuf []byte
	for ri, rrow := range right.rows {
		if err := qc.tick(); err != nil {
			return nil, err
		}
		var null bool
		var err error
		kbuf, null, err = appendJoinKey(kbuf[:0], rrow, rKeyFns)
		if err != nil {
			return nil, err
		}
		if null {
			continue // NULL join keys never match
		}
		qc.chargeMem(bytesPerRef * 2) // bucket slot + row reference
		b, ok := build[string(kbuf)]
		if !ok {
			b = &bucket{}
			build[string(kbuf)] = b
		}
		b.rows = append(b.rows, rrow)
		b.idx = append(b.idx, ri)
	}

	for _, lrow := range left.rows {
		if err := qc.tick(); err != nil {
			return nil, err
		}
		var null bool
		var err error
		kbuf, null, err = appendJoinKey(kbuf[:0], lrow, lKeyFns)
		if err != nil {
			return nil, err
		}
		var matchedLeft bool
		if !null {
			if b, ok := build[string(kbuf)]; ok {
				for i, rrow := range b.rows {
					ok2, err := matches(lrow, rrow)
					if err != nil {
						return nil, err
					}
					if ok2 {
						matchedLeft = true
						if matched != nil {
							matched[b.idx[i]] = true
						}
						out = appendJoined(out, lrow, rrow)
					}
				}
			}
		}
		if !matchedLeft && (je.Type == sqlparser.LeftJoin || je.Type == sqlparser.FullJoin) {
			out = appendJoined(out, lrow, nil)
		}
	}
	if matched != nil {
		for ri, rrow := range right.rows {
			if !matched[ri] {
				out = appendJoined(out, nil, rrow)
			}
		}
	}
	combined.rows = out
	return combined, nil
}

// usingQualifier resolves a USING column on one join input, returning the
// qualifier of its unique match. Zero matches or several are errors — the
// old behavior of returning an unqualified ref silently bound to whatever
// column the combined scope resolved first.
func usingQualifier(r *relation, col, side string) (string, error) {
	found := -1
	for i, n := range r.names {
		if strings.EqualFold(n, col) {
			if found >= 0 {
				return "", fmt.Errorf("%w: %q in USING is ambiguous on the %s side of the join", ErrAmbiguousColumn, col, side)
			}
			found = i
		}
	}
	if found < 0 {
		return "", fmt.Errorf("%w: %q in USING", ErrJoinColumnNotFound, col)
	}
	return r.qualifiers[found], nil
}

// splitJoinCondition decomposes an ON condition into hash-join key pairs
// (expressions over the left and right inputs respectively) and a residual
// predicate evaluated on combined rows.
func splitJoinCondition(left, right *relation, on sqlparser.Expr) (leftKeys, rightKeys []sqlparser.Expr, residual sqlparser.Expr) {
	if on == nil {
		return nil, nil, nil
	}
	var conjuncts []sqlparser.Expr
	var flatten func(e sqlparser.Expr)
	flatten = func(e sqlparser.Expr) {
		if be, ok := e.(*sqlparser.BinaryExpr); ok && be.Op == "AND" {
			flatten(be.L)
			flatten(be.R)
			return
		}
		conjuncts = append(conjuncts, e)
	}
	flatten(on)

	sideOf := func(e sqlparser.Expr) int {
		// 1 = resolves only in left, 2 = only in right, 0 = neither/both.
		inLeft, inRight := true, true
		anyCol := false
		sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
			if cr, ok := x.(*sqlparser.ColumnRef); ok {
				anyCol = true
				if !left.canResolve(cr.Table, cr.Name) {
					inLeft = false
				}
				if !right.canResolve(cr.Table, cr.Name) {
					inRight = false
				}
			}
			if _, ok := x.(*sqlparser.SubqueryExpr); ok {
				inLeft, inRight = false, false
			}
			return true
		})
		if !anyCol {
			return 0
		}
		// A bare column name may resolve in both sides if names collide;
		// such conditions stay residual.
		switch {
		case inLeft && !inRight:
			return 1
		case inRight && !inLeft:
			return 2
		}
		return 0
	}

	for _, c := range conjuncts {
		be, ok := c.(*sqlparser.BinaryExpr)
		if ok && be.Op == "=" {
			ls, rs := sideOf(be.L), sideOf(be.R)
			switch {
			case ls == 1 && rs == 2:
				leftKeys = append(leftKeys, be.L)
				rightKeys = append(rightKeys, be.R)
				continue
			case ls == 2 && rs == 1:
				leftKeys = append(leftKeys, be.R)
				rightKeys = append(rightKeys, be.L)
				continue
			}
		}
		if residual == nil {
			residual = c
		} else {
			residual = &sqlparser.BinaryExpr{Op: "AND", L: residual, R: c}
		}
	}
	return leftKeys, rightKeys, residual
}

// appendJoinKey renders the join-key expressions for one row into buf.
// null is true when any component is NULL.
func appendJoinKey(buf []byte, row []Value, fns []compiledExpr) ([]byte, bool, error) {
	for _, fn := range fns {
		v, err := fn(row)
		if err != nil {
			return buf, false, err
		}
		if v == nil {
			return buf, true, nil
		}
		buf = appendGroupKey(buf, v)
		buf = append(buf, keySep)
	}
	return buf, false, nil
}
