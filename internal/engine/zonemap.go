package engine

import (
	"errors"
	"fmt"

	"verdictdb/internal/faultpoint"
	"verdictdb/internal/sqlparser"
)

// Scan-side pushdown: what a SELECT block's WHERE lets its base-table scans
// skip. One analysis per block (planFrom) attributes each top-level WHERE
// conjunct to the FROM leaf all its columns resolve in — with the leaves' own
// relation.resolve, so a name is attributed exactly when WHERE itself would
// bind it there — and hands each leaf two lists. A pushdown can only drop rows
// WHERE would drop; the one thing it removes from WHERE is a conjunct a filter
// has proved true of every row the joins will produce (fromPlan.residual).
//
// Zone pruning. Sealed chunks carry per-column min/max summaries, computed at
// seal time (buildChunk, columnar.go) and valid forever because sealed chunks
// are immutable. A column-vs-literal comparison skips the chunks whose summary
// proves no row can satisfy it: scrambles are clustered by _vdb_block, so the
// progressive executor's `_vdb_block <= K` prefixes skip the chunks of later
// blocks. The open tail is always scanned, which keeps a concurrent append
// safe. No join-type rule is needed: every prunable comparison rejects NULL,
// so the null-extended row a pruned chunk causes fails WHERE either way.
//
// Filtered join inputs. In a join block, a base-table leaf's conjuncts are
// tested on its rows before it is joined (filterLeaf) and the survivors
// replace it, so the join builds, probes and gathers O(surviving rows) — and
// holds O(hashed side + workers × one chunk): its probe side is a stream
// (vecjoin.go). Three rules keep that invisible except in time:
//   - the class (pushablePred): column references, non-NULL literals,
//     comparisons, [NOT] BETWEEN, [NOT] IN (literals), [NOT] LIKE,
//     IS [NOT] NULL, and AND/OR/NOT over those — nothing that can return an
//     error or a non-boolean, nothing impure;
//   - the prefix: the conjunct and every conjunct before it in WHERE order
//     are of the class with each column resolving in exactly one leaf, so no
//     fallible expression sees fewer rows and every error keeps its identity;
//   - the path (blockPaths): every join between the leaf and the root is
//     INNER/CROSS or keeps the leaf's unmatched rows, with an ON of the class.
//
// A conjunct over several leaves contributes what it implies for each
// (implied). One wholly on a filtered leaf is pure, infallible and in the
// prefix, so dropping it from WHERE changes no error, RNG draw or row order.
// Output order is a subsequence of the unfiltered left-major order; parallel
// float sums may reassociate, because worker boundaries fall on different
// chunks once an input shrinks.

// rangePred is one zone-prunable conjunct of a leaf: column col of its table
// compared to a literal.
type rangePred struct {
	col int
	op  string // <=, <, >=, >, =
	lit Value
}

// fromLeaf is one leaf of a FROM tree, built (snapshot taken, derived table
// executed) before any join runs so the WHERE analysis can see every leaf.
type fromLeaf struct {
	rel     *relation
	base    bool          // rel.src is a table snapshot: prunable, filterable, counted as scanned
	outcome filterOutcome // what became of filter
	own     uint32        // bit i: WHERE's conjunct i is pushed and wholly on this leaf (i < 32)
	err     error         // building it failed; reported when the join order reaches it

	zone   []rangePred    // prune its chunks
	filter sqlparser.Expr // test its rows before it is joined; nil for none
}

// filterOutcome is a base leaf's pre-filter decision. An applied filter's
// own conjuncts left WHERE (residual).
type filterOutcome uint8

const (
	filterNone       filterOutcome = iota // nothing pushed
	filterApplied                         // its survivors replace the input
	filterHashed                          // applied to the input the join will hash
	filterKeptHalf                        // kept: a probed input keeps more than half
	filterKeptKernel                      // kept: a kernel error
	filterBlocked                         // the path to the root forbids a filter
)

// fromPlan is a block's FROM leaves in order, with what WHERE pushes to each.
type fromPlan struct {
	qc     *queryCtx
	leaves []fromLeaf
	leafAt map[*sqlparser.ColumnRef]int // leafOf memo of a join block
	next   int                          // the leaf build reaches next
}

// planFrom builds the leaves of from in order and attributes where's
// conjuncts to them. A leaf that fails to build ends the list: nothing is
// pushed, and the joins before it still run (and fail) first.
func planFrom(qc *queryCtx, from sqlparser.TableExpr, where sqlparser.Expr) *fromPlan {
	p := &fromPlan{qc: qc}
	if !p.open(from) || where == nil {
		return p
	}
	conjs := flattenAnd(where, nil)
	for _, c := range conjs {
		p.zonePred(c)
	}
	for i := range p.leaves {
		if lf := &p.leaves[i]; len(lf.zone) > 0 {
			lf.rel.src = pruneChunks(lf.rel.src, lf.zone)
		}
	}
	if len(p.leaves) < 2 || qc.eng.noVec.Load() {
		return p
	}
	p.blockPaths(from, 0)
	for i, c := range conjs {
		if !pushablePred(c) || !p.allAttributed(c) {
			break
		}
		for li := range p.leaves {
			if lf := &p.leaves[li]; lf.base && lf.outcome != filterBlocked {
				f := p.implied(c, li)
				if f == c && i < 32 {
					lf.own |= 1 << i
				}
				lf.filter = andExpr(lf.filter, f)
			}
		}
	}
	return p
}

// residual is where without the conjuncts the leaves' filters proved: those
// wholly on a leaf whose input its filter replaced.
func (p *fromPlan) residual(where sqlparser.Expr) sqlparser.Expr {
	var proved uint32
	for _, lf := range p.leaves {
		if lf.outcome == filterApplied || lf.outcome == filterHashed {
			proved |= lf.own
		}
	}
	if proved == 0 {
		return where
	}
	var out sqlparser.Expr
	for i, c := range flattenAnd(where, nil) {
		if i >= 32 || proved&(1<<i) == 0 {
			out = andExpr(out, c)
		}
	}
	return out
}

// open builds the leaves under t, left to right; false once one failed.
func (p *fromPlan) open(t sqlparser.TableExpr) bool {
	var lf fromLeaf
	switch t := t.(type) {
	case *sqlparser.JoinExpr:
		return p.open(t.Left) && p.open(t.Right)
	case *sqlparser.TableRef:
		tbl, src, err := p.qc.eng.snapshot(t.Name)
		if lf.err = err; err == nil {
			lf.rel, lf.base = tableRelation(t, tbl, src), true
		}
	case *sqlparser.DerivedTable:
		rs, err := execSelectWithOuter(p.qc, t.Select, nil)
		if lf.err = err; err == nil {
			lf.rel = aliasedRelation(t.Alias, rs.Cols, rowSource(rs.Rows))
		}
	default:
		lf.err = fmt.Errorf("engine: unsupported FROM element %T", t)
	}
	p.leaves = append(p.leaves, lf)
	return lf.err == nil
}

// flattenAnd appends the top-level AND conjuncts of e to out, in order.
func flattenAnd(e sqlparser.Expr, out []sqlparser.Expr) []sqlparser.Expr {
	if be, ok := e.(*sqlparser.BinaryExpr); ok && be.Op == "AND" {
		return flattenAnd(be.R, flattenAnd(be.L, out))
	}
	return append(out, e)
}

// andExpr is a AND b, where nil stands for no condition.
func andExpr(a, b sqlparser.Expr) sqlparser.Expr {
	if a == nil || b == nil {
		if a == nil {
			return b
		}
		return a
	}
	return &sqlparser.BinaryExpr{Op: "AND", L: a, R: b}
}

// leafOf returns the one leaf cr resolves in; -1 when it resolves in none (an
// enclosing scope's column, or unknown) or in several (ambiguous in WHERE).
func (p *fromPlan) leafOf(cr *sqlparser.ColumnRef) int {
	if li, ok := p.leafAt[cr]; ok {
		return li
	}
	li := -1
	for i, lf := range p.leaves {
		if lf.rel.canResolve(cr.Table, cr.Name) {
			if li >= 0 {
				li = -1
				break
			}
			li = i
		}
	}
	if len(p.leaves) > 1 {
		if p.leafAt == nil {
			p.leafAt = map[*sqlparser.ColumnRef]int{}
		}
		p.qc.chargeMem(bytesPerRef)
		p.leafAt[cr] = li
	}
	return li
}

// zonePred records c on its leaf when it is a column of a base table compared
// to a non-NULL literal.
func (p *fromPlan) zonePred(c sqlparser.Expr) {
	be, ok := c.(*sqlparser.BinaryExpr)
	if !ok {
		return
	}
	l, r, op := be.L, be.R, be.Op
	if _, litFirst := l.(*sqlparser.Literal); litFirst {
		l, r, op = r, l, flipCmp(op)
	}
	cr, isCol := l.(*sqlparser.ColumnRef)
	lit, isLit := r.(*sqlparser.Literal)
	if !isCol || !isLit || lit.Val == nil {
		return
	}
	switch op {
	case "<=", "<", ">=", ">", "=":
		if li := p.leafOf(cr); li >= 0 && p.leaves[li].base {
			lf := &p.leaves[li]
			col, _ := lf.rel.resolve(cr.Table, cr.Name)
			p.qc.chargeMem(2 * bytesPerValue)
			lf.zone = append(lf.zone, rangePred{col: col, op: op, lit: Normalize(lit.Val)})
		}
	}
}

func flipCmp(op string) string {
	switch op {
	case "<=":
		return ">="
	case "<":
		return ">"
	case ">=":
		return "<="
	case ">":
		return "<"
	}
	return op
}

// pushablePred reports whether e belongs to the class a join input may be
// filtered by: a predicate no row can make return an error or a non-boolean.
func pushablePred(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			return pushablePred(x.L) && pushablePred(x.R)
		case "=", "<>", "<", "<=", ">", ">=":
			return pushableOperand(x.L) && pushableOperand(x.R)
		}
	case *sqlparser.UnaryExpr:
		return x.Op == "NOT" && pushablePred(x.X)
	case *sqlparser.BetweenExpr:
		return pushableOperand(x.X) && pushableOperand(x.Lo) && pushableOperand(x.Hi)
	case *sqlparser.InExpr:
		if x.Subquery != nil || !pushableOperand(x.X) {
			return false
		}
		for _, le := range x.List {
			if lit, ok := le.(*sqlparser.Literal); !ok || lit.Val == nil {
				return false
			}
		}
		return true
	case *sqlparser.LikeExpr:
		return pushableOperand(x.X) && pushableOperand(x.Pattern)
	case *sqlparser.IsNullExpr:
		return pushableOperand(x.X)
	}
	return false
}

func pushableOperand(e sqlparser.Expr) bool {
	switch x := e.(type) {
	case *sqlparser.ColumnRef:
		return true
	case *sqlparser.Literal:
		return x.Val != nil
	}
	return false
}

// eachColumn calls fn for every column reference in e until it returns false,
// and reports whether it never did.
func eachColumn(e sqlparser.Expr, fn func(*sqlparser.ColumnRef) bool) bool {
	ok := true
	sqlparser.WalkExpr(e, func(x sqlparser.Expr) bool {
		if cr, isCol := x.(*sqlparser.ColumnRef); isCol && ok {
			ok = fn(cr)
		}
		return ok
	})
	return ok
}

// allAttributed reports whether every column of e resolves in exactly one
// leaf — otherwise evaluating e can fail, or reads an enclosing scope.
func (p *fromPlan) allAttributed(e sqlparser.Expr) bool {
	return eachColumn(e, func(cr *sqlparser.ColumnRef) bool { return p.leafOf(cr) >= 0 })
}

// implied returns the strongest predicate over leaf li alone that e implies,
// nil when e says nothing about that leaf by itself; e itself when it is
// wholly on li. An AND implies whatever either side does; an OR only what
// both sides do.
func (p *fromPlan) implied(e sqlparser.Expr, li int) sqlparser.Expr {
	if be, ok := e.(*sqlparser.BinaryExpr); ok && (be.Op == "AND" || be.Op == "OR") {
		l, r := p.implied(be.L, li), p.implied(be.R, li)
		switch {
		case l == be.L && r == be.R:
			return e // wholly on li
		case be.Op == "AND":
			return andExpr(l, r)
		case l != nil && r != nil:
			return &sqlparser.BinaryExpr{Op: "OR", L: l, R: r}
		}
		return nil
	}
	any := false
	only := eachColumn(e, func(cr *sqlparser.ColumnRef) bool {
		any = true
		return p.leafOf(cr) == li
	})
	if any && only {
		return e
	}
	return nil
}

// blockPaths marks the leaves whose rows a filter must not drop before the
// joins above them run: the null-supplying side of an outer join (a dropped
// row would come back null-extended), and both sides of a join whose ON could
// fail or reads anything but the leaves under it. t's leaves start at lo; it
// returns where they end.
func (p *fromPlan) blockPaths(t sqlparser.TableExpr, lo int) (hi int) {
	j, ok := t.(*sqlparser.JoinExpr)
	if !ok {
		return lo + 1
	}
	mid := p.blockPaths(j.Left, lo)
	hi = p.blockPaths(j.Right, mid)
	blockL := j.Type == sqlparser.RightJoin || j.Type == sqlparser.FullJoin
	blockR := j.Type == sqlparser.LeftJoin || j.Type == sqlparser.FullJoin
	if j.On != nil && !(pushablePred(j.On) && eachColumn(j.On, func(cr *sqlparser.ColumnRef) bool {
		li := p.leafOf(cr)
		return lo <= li && li < hi
	})) {
		blockL, blockR = true, true
	}
	for i := lo; i < hi; i++ {
		if (i < mid && blockL) || (i >= mid && blockR) {
			p.leaves[i].outcome = filterBlocked
		}
	}
	return hi
}

// comparableKinds reports whether Compare is meaningful for the pair —
// both numeric, or both strings. Mixed kinds never prune.
func comparableKinds(a, b Value) bool {
	na := isNumeric(a)
	nb := isNumeric(b)
	if na || nb {
		return na && nb
	}
	_, sa := a.(string)
	_, sb := b.(string)
	return sa && sb
}

func isNumeric(v Value) bool {
	switch v.(type) {
	case int64, float64:
		return true
	}
	return false
}

// chunkMaySatisfy reports whether some row of a chunk-column with the given
// zone summary could satisfy `col op lit`. All-NULL columns (nil min)
// satisfy nothing.
func chunkMaySatisfy(min, max Value, op string, lit Value) bool {
	if min == nil {
		return false
	}
	if !comparableKinds(min, lit) || !comparableKinds(max, lit) {
		return true // unprunable, keep
	}
	switch op {
	case "<=":
		return Compare(min, lit) <= 0
	case "<":
		return Compare(min, lit) < 0
	case ">=":
		return Compare(max, lit) >= 0
	case ">":
		return Compare(max, lit) > 0
	case "=":
		return Compare(min, lit) <= 0 && Compare(max, lit) >= 0
	}
	return true
}

// pruneChunks drops whole sealed chunks that cannot satisfy the leaf's zone
// predicates, preserving chunk order. The tail is always kept. Returns the
// source untouched when nothing prunes (the common case), so unpruned scans
// stay allocation-free.
func pruneChunks(src *colSource, preds []rangePred) *colSource {
	if len(src.sealed) == 0 {
		return src
	}
	var keep []bool
	for _, p := range preds {
		//verdict:nopoll zone-map metadata only: O(1) min/max check per chunk, no row work
		for i, sl := range src.sealed {
			if keep != nil && !keep[i] {
				continue
			}
			min, max := sl.slotZone(p.col)
			if !chunkMaySatisfy(min, max, p.op, p.lit) {
				if keep == nil {
					keep = make([]bool, len(src.sealed))
					for j := range keep {
						keep[j] = true
					}
				}
				keep[i] = false
			}
		}
	}
	if keep == nil {
		return src
	}
	kept := make([]chunkSlot, 0, len(src.sealed))
	n := len(src.tail)
	for i, sl := range src.sealed {
		if keep[i] {
			kept = append(kept, sl)
			n += sl.slotRows()
		}
	}
	return &colSource{sealed: kept, tail: src.tail, nrows: n}
}

// filterSampleChunks is how many leading chunks of a join input are tested
// before the rest: a filter that keeps most of them is not worth a full pass.
const filterSampleChunks = 8

// filterLeaf tests a join input's pushed conjuncts on its rows — the WHERE
// conjunct pipeline, chunk morsels — and returns the source that replaces it:
// chunks of row references to the survivors, the late-materialization chunk
// the join itself emits — or src when every row passes. Referencing rows
// costs a second gather of every column the query reads, which past half of a
// probed input is more than the join saves (BenchmarkE1HashJoin keeps 2/3 and
// would run 1.7x slower): there a filter that keeps more than half — of the
// leading chunks, then of all — leaves src as it is. The input the join will
// hash is always filtered: a row dropped there drops its whole fan-out of
// pairs. A kernel error keeps src too.
func filterLeaf(qc *queryCtx, rel *relation, pred sqlparser.Expr, hashed bool) (leaf *colSource, outcome filterOutcome, err error) {
	defer func() {
		if errors.Is(err, errKernel) {
			leaf, outcome, err = rel.src, filterKeptKernel, nil
		}
	}()
	src := rel.src
	c := &vecCompiler{scope: &env{qc: qc, rel: rel}}
	full, conjs := c.lowerWhere(pred)
	if full == nil {
		return nil, 0, errKernel
	}
	slots := src.scanSlots(qc)
	chunks := make([]*chunk, len(slots))
	sels := make([][]int32, len(slots)) // surviving rows per chunk; nil keeps the whole chunk
	// pass tests slots[:n] (skipping what an earlier pass tested) and returns
	// how many of their rows there are and how many survive.
	pass := func(n, nrows int) (rows, kept int, err error) {
		_, err = scanMorsels(qc, slots[:n], nrows, true, func() *vecCtx {
			return newVecCtx(c.nbuf, 0, 0, 0)
		}, func(vc *vecCtx, ci int, ch *chunk) error {
			if chunks[ci] != nil {
				return nil
			}
			if err := faultpoint.Hit(faultpoint.SiteEngineScanChunk); err != nil {
				return err
			}
			chunks[ci] = ch
			sel, all, err := evalFilter(vc, ch, full, conjs)
			if err != nil {
				return errKernel
			}
			if !all {
				qc.chargeMem(int64(len(sel)) * 4)
				sels[ci] = append(make([]int32, 0, len(sel)), sel...)
			}
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		for ci, ch := range chunks[:n] {
			rows += ch.n
			if kept += len(sels[ci]); sels[ci] == nil {
				kept += ch.n
			}
		}
		return rows, kept, nil
	}
	applied := filterApplied
	if hashed {
		applied = filterHashed
	} else if rows, kept, err := pass(min(len(slots), filterSampleChunks), 0); err != nil || 2*kept > rows {
		return src, filterKeptHalf, err
	}
	_, total, err := pass(len(slots), src.nrows)
	switch {
	case err != nil:
		return nil, 0, err
	case total == src.nrows:
		return src, applied, nil
	case !hashed && 2*total > src.nrows:
		return src, filterKeptHalf, nil
	}
	if err := qc.reserve(int64(total) * 8); err != nil {
		return nil, 0, err
	}
	refs := make([]int64, 0, total)
	for ci, sel := range sels {
		if err := qc.pollAbort(); err != nil {
			return nil, 0, err
		}
		if sel == nil {
			for ri := 0; ri < chunks[ci].n; ri++ {
				refs = append(refs, packRef(ci, ri))
			}
		}
		for _, ri := range sel {
			refs = append(refs, packRef(ci, int(ri)))
		}
	}
	gs := &gatherSrc{qc: qc, buildChunks: chunks, buildKinds: chunkKinds(chunks, rel.width())}
	out := &colSource{nrows: total}
	for lo := 0; lo < total; lo += chunkRows {
		out.sealed = append(out.sealed, gs.refChunk(nil, nil, refs[lo:min(lo+chunkRows, total)]))
	}
	return out, applied, nil
}
