package engine

import (
	"errors"
	"fmt"
	"strings"

	"verdictdb/internal/sqlparser"
)

// buildFrom materializes the FROM clause into a relation, and returns it with
// the WHERE its rows still need. The leaves are built first, in order — zone-
// pruned table snapshots and derived-table results — so the WHERE analysis
// (planFrom, zonemap.go) can attribute conjuncts to them; then the joins run
// bottom-up, left to right. On its way into its join a base-table leaf counts
// its rows as scanned and may be replaced by the rows that pass the conjuncts
// WHERE pushed to it; one wholly on it then leaves WHERE (fromPlan.residual).
func buildFrom(qc *queryCtx, from sqlparser.TableExpr, where sqlparser.Expr, outer *env) (*relation, sqlparser.Expr, error) {
	if from == nil {
		// FROM-less select: a single empty row.
		return newRelation(nil, nil, rowSource([][]Value{{}})), where, nil
	}
	p := planFrom(qc, from, where)
	rel, err := p.build(from, outer, 0)
	return rel, p.residual(where), err
}

// build joins the planned leaves under t, consuming them in order. A leaf with
// fewer rows than hashBelow (0: partner not known yet) is the input its join
// will hash: vecJoin.run's comparison, against the partner built or next.
func (p *fromPlan) build(t sqlparser.TableExpr, outer *env, hashBelow int) (*relation, error) {
	qc := p.qc
	if j, ok := t.(*sqlparser.JoinExpr); ok {
		below := 0 // read only by a leaf on the left, whose partner is leaf p.next+1
		if _, ok := j.Right.(*sqlparser.TableRef); ok && p.next+1 < len(p.leaves) && p.leaves[p.next+1].base {
			below = p.leaves[p.next+1].rel.src.nrows
		}
		left, err := p.build(j.Left, outer, below)
		if err != nil {
			return nil, err
		}
		right, err := p.build(j.Right, outer, left.src.nrows+1)
		if err != nil {
			return nil, err
		}
		return joinRelations(qc, left, right, j, outer)
	}
	lf := &p.leaves[p.next]
	p.next++
	if lf.err != nil || !lf.base {
		return lf.rel, lf.err
	}
	qc.scanned += int64(lf.rel.src.nrows)
	lf.rel.src.counted = true
	if lf.filter != nil {
		var err error
		if lf.rel.src, lf.outcome, err = filterLeaf(qc, lf.rel, lf.filter, lf.rel.src.nrows < hashBelow); err != nil {
			return nil, err
		}
	}
	return lf.rel, nil
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
	combined := joinedRelation(left, right)

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
			on = andExpr(on, eq)
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
		if vj := buildVecJoin(lEnv, rEnv, combEnv, je.Type, leftKeys, rightKeys, residual); vj != nil {
			refund := qc.markMem()
			src, err := vj.run()
			if err == nil {
				combined.src = src
				return combined, nil
			}
			if !errors.Is(err, errKernel) {
				return nil, err
			}
			refund()
		}
	}

	// Row path, the reference join: both sides boxed for this query.
	lrows, err := left.src.materialize(qc)
	if err != nil {
		return nil, err
	}
	rrows, err := right.src.materialize(qc)
	if err != nil {
		return nil, err
	}

	// The residual predicate is probed once per candidate pair: reuse one
	// combined-row buffer instead of allocating per probe.
	var residualFn compiledExpr
	if residual != nil {
		residualFn, _ = compileExpr(combEnv, residual)
	}
	combinedBuf := make([]Value, left.width()+right.width())
	// matches is probed once per candidate pair, so the cancellation/budget
	// tick here covers the O(left × right) nested-loop inner loop — the place
	// a runaway cross join must be interruptible.
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

	joinedRowBytes := boxedRowBytes(left.width() + right.width())
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

	// Every join type keeps one deterministic order: matched pairs in (left
	// row, right row) order, LEFT/FULL null-extensions in place, RIGHT/FULL
	// unmatched right rows — including NULL-key rows, which never enter a
	// bucket but must still null-extend — trailing in right order.
	var out [][]Value
	extendLeft := je.Type == sqlparser.LeftJoin || je.Type == sqlparser.FullJoin
	var matchedRight []bool
	if je.Type == sqlparser.RightJoin || je.Type == sqlparser.FullJoin {
		matchedRight = make([]bool, len(rrows))
	}
	// joinLeft emits lrow's pairs with its candidate right rows; cands[i] is
	// right row idx[i], or i itself when idx is nil.
	joinLeft := func(lrow []Value, cands [][]Value, idx []int) error {
		if err := qc.tick(); err != nil {
			return err
		}
		matchedLeft := false
		for i, rrow := range cands {
			ok, err := matches(lrow, rrow)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			matchedLeft = true
			if matchedRight != nil {
				ri := i
				if idx != nil {
					ri = idx[i]
				}
				matchedRight[ri] = true
			}
			out = appendJoined(out, lrow, rrow)
		}
		if !matchedLeft && extendLeft {
			out = appendJoined(out, lrow, nil)
		}
		return nil
	}

	if len(leftKeys) == 0 {
		// Nested-loop join (cross join or non-equi condition). A
		// residual-free condition means every pair joins, so the output size
		// is known up front — for CROSS JOIN and INNER JOIN alike.
		if (je.Type == sqlparser.CrossJoin || je.Type == sqlparser.InnerJoin) && residual == nil {
			out = make([][]Value, 0, len(lrows)*max(1, len(rrows)))
		}
		for _, lrow := range lrows {
			if err := joinLeft(lrow, rrows, nil); err != nil {
				return nil, err
			}
		}
	} else {
		// Hash join: build on the right, probe from the left. Key expressions
		// are compiled once per join, and composite keys are rendered into a
		// reusable byte buffer (the map only materializes a key string when a
		// new bucket is inserted).
		lKeyFns, _ := compileExprs(lEnv, leftKeys)
		rKeyFns, _ := compileExprs(rEnv, rightKeys)
		type bucket struct {
			rows [][]Value
			idx  []int // build-row positions, for the matched flags
		}
		build := make(map[string]*bucket, len(rrows))
		var kbuf []byte
		for ri, rrow := range rrows {
			if err := qc.tick(); err != nil {
				return nil, err
			}
			var null bool
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
		none := &bucket{}
		for _, lrow := range lrows {
			var null bool
			kbuf, null, err = appendJoinKey(kbuf[:0], lrow, lKeyFns)
			if err != nil {
				return nil, err
			}
			b := build[string(kbuf)]
			if null || b == nil {
				b = none
			}
			if err := joinLeft(lrow, b.rows, b.idx); err != nil {
				return nil, err
			}
		}
	}
	for ri, matched := range matchedRight {
		if !matched {
			out = appendJoined(out, nil, rrows[ri])
		}
	}
	combined.src = rowSource(out)
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

	for _, c := range flattenAnd(on, nil) {
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
		residual = andExpr(residual, c)
	}
	return leftKeys, rightKeys, residual
}

// appendJoinKey encodes the join-key expressions for one row into buf.
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
		buf = appendKeyValue(buf, v)
	}
	return buf, false, nil
}
