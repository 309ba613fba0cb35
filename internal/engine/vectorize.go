package engine

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"verdictdb/internal/sqlparser"
)

// Chunk-at-a-time vectorized expression evaluation. The row compiler in
// compile.go lowers an expression to a per-row closure; this file lowers
// the same ASTs to vector kernels that consume a sealed chunk's columns
// directly and produce typed output vectors, so the scan hot path never boxes
// values. A kernel's input and output are the one lane vector the engine has,
// colVec (columnar.go): a column reference hands a raw or dictionary column
// over as it is stored, and every kernel output is raw or dictionary-coded —
// delta and decimal columns are decoded by the same gather a join uses
// (gatherLanes, vecjoin.go). WHERE predicates produce a selection vector;
// GROUP BY keys render straight from typed lanes into the reusable key buffer;
// aggregate arguments feed accumulators through typed entry points (agg.go).
// Every kernel replicates the row path's semantics exactly — NULL propagation,
// numeric coercion through float64, three-valued AND/OR — and shapes without a
// kernel (CASE, scalar functions, string concatenation, ...) fall back to
// evaluating the row-compiled closure per selected lane, against a scratch row
// holding the lanes it reads. Errors are the row path's too: a kernel evaluates
// only the lanes the row path would (AND/OR short-circuit per lane, vnLogic), a
// kernel error carries its row (laneErr), and a driver reports the one on the
// earliest row (firstErr), in the row path's phase order (vecexec.go).
//
// Only pure expressions are ever vectorized: anything drawing from the
// engine RNG or capturing scope state (subqueries, enclosing-scope columns)
// keeps the serial row path, so sample scrambles stay byte-identical.

// laneFloat extracts lane k of a kernel output as float64 for Compare-style
// numeric comparison. ok is false for non-numeric kinds (bools are not numeric
// in Compare, matching the row path).
func laneFloat(v *colVec, k int) (float64, bool) {
	switch v.kind {
	case TInt:
		return float64(v.ints[k]), true
	case TFloat:
		return v.floats[k], true
	}
	return 0, false
}

// laneStr renders lane k like ToStr (callers have excluded NULL lanes).
func laneStr(v *colVec, k int) string {
	switch v.kind {
	case TString:
		return v.strAt(k)
	case TInt:
		return strconv.FormatInt(v.ints[k], 10)
	case TFloat:
		return strconv.FormatFloat(v.floats[k], 'g', -1, 64)
	case TBool:
		if v.bools[k] {
			return "true"
		}
		return "false"
	}
	return ToStr(v.anys[k])
}

// laneBool mirrors ToBool on lane k: b/ok like ToBool, null for NULL lanes.
func laneBool(v *colVec, k int) (b, ok, null bool) {
	if v.isNull(k) {
		return false, false, true
	}
	switch v.kind {
	case TBool:
		return v.bools[k], true, false
	case TInt:
		return v.ints[k] != 0, true, false
	case TFloat:
		return v.floats[k] != 0, true, false
	case TString:
		return false, false, false
	}
	b, ok = ToBool(v.anys[k])
	return b, ok, false
}

// vbuf is one node's output vector, reset (storage kept) for every chunk, so
// steady-state evaluation allocates nothing. A node's result may instead be a
// chunk's own column (vnCol), which is safe because every kernel writes only
// its own buffer.
type vbuf struct {
	colVec

	// litLanes caches how many lanes a vnLit has already broadcast into
	// this buffer: the constant never changes, so later chunks reslice
	// instead of refilling.
	litLanes int

	sel []int32 // a vnLogic's rows and lanes its left operand left undecided
}

// vecCtx is one worker's evaluation state: per-node buffers plus reusable
// selection scratch. Never shared between goroutines.
type vecCtx struct {
	bufs  []vbuf
	sel   []int32
	ident []int32 // every lane of a chunk longer than allLanes
	keys  []*colVec
	args  []*colVec
	items []*colVec
	row   []Value // vnScalar's scratch row
}

func newVecCtx(nbuf, nkeys, nargs, nitems int) *vecCtx {
	return &vecCtx{
		bufs:  make([]vbuf, nbuf),
		keys:  make([]*colVec, nkeys),
		args:  make([]*colVec, nargs),
		items: make([]*colVec, nitems),
	}
}

// out resets node id's buffer to n lanes of kind and returns it to fill.
// Kernel buffers are per worker and not charged to the query.
func (vc *vecCtx) out(id int, kind ColType, n int) *colVec {
	b := &vc.bufs[id].colVec
	b.reset(nil, kind, n)
	return b
}

// allLanes selects every row of a chunk of up to chunkRows rows. Every context
// shares it, and nothing writes to it.
var allLanes = identitySel(chunkRows)

func identitySel(n int) []int32 {
	sel := make([]int32, n)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}

// lanesOf returns the chunk rows a kernel reads: sel, or every row of ch
// through an identity selection. (Between kernels sel == nil still means
// every lane; this is for the loops that read a stored column.)
func (vc *vecCtx) lanesOf(ch *chunk, sel []int32) []int32 {
	switch {
	case sel != nil:
		return sel
	case ch.n <= len(allLanes):
		return allLanes[:ch.n]
	case len(vc.ident) < ch.n: // a one-to-many join's output chunk
		vc.ident = identitySel(ch.n)
	}
	return vc.ident[:ch.n]
}

func laneCount(ch *chunk, sel []int32) int {
	if sel != nil {
		return len(sel)
	}
	return ch.n
}

// vnode is one vectorized expression node. eval computes the node over the
// chunk's selected lanes (sel nil = all rows) into a context-owned buffer.
type vnode interface {
	eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error)
}

// laneErr is a kernel's evaluation error with the chunk row it failed on.
type laneErr struct {
	row int32
	err error
}

func (e *laneErr) Error() string { return e.err.Error() }
func (e *laneErr) Unwrap() error { return e.err }

// failAt is err, met on lane k of sel, with its row.
func failAt(vc *vecCtx, ch *chunk, sel []int32, k int, err error) error {
	return &laneErr{row: vc.lanesOf(ch, sel)[k], err: err}
}

// firstErr turns err, what evaluating a phase over the lanes sel of ch
// returned, into the error the row path meets first: the one on the earliest
// row. A kernel's error stands unless eval, the phase, fails on the lanes
// before its row too. It returns what eval returns over those lanes.
func firstErr(vc *vecCtx, ch *chunk, sel []int32, err error, eval func(sel []int32) ([]int32, error)) ([]int32, error) {
	idx := vc.lanesOf(ch, sel)
	le, ok := err.(*laneErr)
	if !ok {
		return idx[:0], err
	}
	n, _ := slices.BinarySearch(idx, le.row)
	out, e := eval(idx[:n])
	if e == nil {
		e = err
	}
	return out, e
}

// evalNodes evaluates nodes over ch's selected lanes into out; a nil node
// leaves a nil vector. On an error it returns the one the row path meets
// first, and the lanes of sel out holds.
func evalNodes(vc *vecCtx, ch *chunk, sel []int32, nodes []vnode, out []*colVec) ([]int32, error) {
	for i, n := range nodes {
		out[i] = nil
		if n == nil {
			continue
		}
		v, err := n.eval(vc, ch, sel)
		if err != nil {
			return firstErr(vc, ch, sel, err, func(pre []int32) ([]int32, error) { return evalNodes(vc, ch, pre, nodes, out) })
		}
		out[i] = v
	}
	return sel, nil
}

// ---- leaves ----

type vnCol struct {
	id, col int
}

// eval hands a raw or dictionary column over as it is when every lane is
// read. Otherwise it gathers the selected lanes into its buffer — codes only
// for a dictionary column, which keeps its dictionary — and decodes delta
// and decimal columns, with the gather a join uses.
func (n *vnCol) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	// col() gathers the column first on join-output chunks — the point
	// where late materialization actually copies values, and only for
	// columns some kernel references.
	cv := ch.col(n.col)
	if sel == nil && (cv.enc == encNone || cv.enc == encDict) {
		return cv, nil
	}
	ov := &vc.bufs[n.id].colVec
	idx := vc.lanesOf(ch, sel)
	if cv.enc == encDict {
		ov.gatherCodes(nil, cv, idx)
		return ov, nil
	}
	ov.reset(nil, cv.kind, len(idx))
	gatherLanes(ov, cv, idx)
	return ov, nil
}

type vnLit struct {
	id  int
	val Value
}

func (n *vnLit) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	lanes := laneCount(ch, sel)
	b := &vc.bufs[n.id]
	kind := storageKind(n.val)
	if b.litLanes < lanes {
		b.litLanes = max(lanes, chunkRows) // broadcast once at full width for later chunks
		b.reset(nil, kind, b.litLanes)
		switch x := n.val.(type) {
		case int64:
			fill(b.ints, x)
		case float64:
			fill(b.floats, x)
		case string:
			fill(b.strs, x)
		case bool:
			fill(b.bools, x)
		default:
			fill(b.anys, n.val) // NULL (or exotic) literal: boxed lanes
		}
	}
	b.reset(nil, kind, lanes) // reslices the broadcast
	return &b.colVec, nil
}

func fill[T any](dst []T, x T) {
	for k := range dst {
		dst[k] = x
	}
}

// vnScalar evaluates a pure row-compiled closure per selected lane, through
// the worker's scratch row — the graceful-degradation path for shapes without
// a vector kernel (CASE, coalesce, ||, date arithmetic, ...).
type vnScalar struct {
	id int
	x  *laneExpr
}

func (n *vnScalar) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	if len(vc.row) < ch.width() {
		vc.row = make([]Value, ch.width())
	}
	idx := vc.lanesOf(ch, sel)
	ov := vc.out(n.id, TAny, len(idx))
	for k, i := range idx {
		v, err := n.x.at(ch, int(i), vc.row)
		if err != nil {
			return nil, failAt(vc, ch, sel, k, err)
		}
		ov.anys[k] = v
	}
	return ov, nil
}

// ---- arithmetic ----

type vnArith struct {
	id   int
	op   string
	l, r vnode
}

func (n *vnArith) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	lv, err := n.l.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	rv, err := n.r.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	lanes := laneCount(ch, sel)
	lNum := lv.kind == TInt || lv.kind == TFloat
	rNum := rv.kind == TInt || rv.kind == TFloat

	switch {
	case lNum && rNum && (n.op == "+" || n.op == "-" || n.op == "*"):
		// One loop for the chunk, picked by the operand kinds and the
		// operator; a lane with a NULL operand is computed from what its
		// slots hold, then flagged.
		var ov *colVec
		switch {
		case lv.kind == TInt && rv.kind == TInt:
			ov = vc.out(n.id, TInt, lanes)
			arithLoop(n.op, ov.ints, lv.ints, rv.ints)
		case lv.kind == TInt:
			ov = vc.out(n.id, TFloat, lanes)
			arithLoop(n.op, ov.floats, lv.ints, rv.floats)
		case rv.kind == TInt:
			ov = vc.out(n.id, TFloat, lanes)
			arithLoop(n.op, ov.floats, lv.floats, rv.ints)
		default:
			ov = vc.out(n.id, TFloat, lanes)
			arithLoop(n.op, ov.floats, lv.floats, rv.floats)
		}
		if len(lv.nulls) > 0 || len(rv.nulls) > 0 {
			for k := 0; k < lanes; k++ {
				if lv.isNull(k) || rv.isNull(k) {
					ov.setNull(k, lanes)
				}
			}
		}
		return ov, nil
	case lv.kind == TInt && rv.kind == TInt && n.op == "%":
		ov := vc.out(n.id, TInt, lanes)
		for k := 0; k < lanes; k++ {
			if lv.isNull(k) || rv.isNull(k) || rv.ints[k] == 0 {
				ov.setNull(k, lanes)
				continue
			}
			ov.ints[k] = lv.ints[k] % rv.ints[k]
		}
		return ov, nil
	case lNum && rNum: // "/", and "%" over floats
		ov := vc.out(n.id, TFloat, lanes)
		for k := 0; k < lanes; k++ {
			lf, _ := laneFloat(lv, k)
			rf, _ := laneFloat(rv, k)
			switch {
			case lv.isNull(k) || rv.isNull(k) || rf == 0 || n.op == "%" && int64(rf) == 0:
				ov.setNull(k, lanes)
			case n.op == "/":
				ov.floats[k] = lf / rf
			default:
				ov.floats[k] = float64(int64(lf) % int64(rf))
			}
		}
		return ov, nil
	}

	// Mixed/boxed kinds: per-lane through the row path's arith.
	ov := vc.out(n.id, TAny, lanes)
	for k := 0; k < lanes; k++ {
		if lv.isNull(k) || rv.isNull(k) {
			ov.setNull(k, lanes)
			continue
		}
		res, err := arith(n.op, lv.value(k), rv.value(k))
		if err != nil {
			return nil, failAt(vc, ch, sel, k, err)
		}
		ov.anys[k] = res
	}
	return ov, nil
}

// arithLoop computes dst[k] = l[k] op r[k] for op + - or *, each operand
// converted to dst's type first, as the row path's arith does.
func arithLoop[O, L, R int64 | float64](op string, dst []O, l []L, r []R) {
	l, r = l[:len(dst)], r[:len(dst)]
	switch op {
	case "+":
		for k := range dst {
			dst[k] = O(l[k]) + O(r[k])
		}
	case "-":
		for k := range dst {
			dst[k] = O(l[k]) - O(r[k])
		}
	default:
		for k := range dst {
			dst[k] = O(l[k]) * O(r[k])
		}
	}
}

type vnNeg struct {
	id int
	x  vnode
}

func (n *vnNeg) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	xv, err := n.x.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	lanes := laneCount(ch, sel)
	kind := xv.kind
	if kind != TInt && kind != TFloat {
		kind = TAny
	}
	ov := vc.out(n.id, kind, lanes)
	for k := 0; k < lanes; k++ {
		if xv.isNull(k) {
			ov.setNull(k, lanes)
			continue
		}
		switch kind {
		case TInt:
			ov.ints[k] = -xv.ints[k]
		case TFloat:
			ov.floats[k] = -xv.floats[k]
		default:
			switch x := xv.value(k).(type) {
			case int64:
				ov.anys[k] = -x //verdict:alloc TAny fallback lane: input is already boxed, typed lanes take the branches above
			case float64:
				ov.anys[k] = -x //verdict:alloc TAny fallback lane: input is already boxed, typed lanes take the branches above
			default:
				return nil, failAt(vc, ch, sel, k, errCannotNegate(x))
			}
		}
	}
	return ov, nil
}

// ---- comparisons ----

type vnCmp struct {
	id   int
	op   string
	l, r vnode
}

func (n *vnCmp) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	lv, err := n.l.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	rv, err := n.r.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	lanes := laneCount(ch, sel)
	ov := vc.out(n.id, TBool, lanes)
	test := cmpTest(n.op)
	lNum := lv.kind == TInt || lv.kind == TFloat
	rNum := rv.kind == TInt || rv.kind == TFloat
	for k := 0; k < lanes; k++ {
		if lv.isNull(k) || rv.isNull(k) {
			ov.setNull(k, lanes)
			continue
		}
		switch {
		case lNum && rNum:
			lf, _ := laneFloat(lv, k)
			rf, _ := laneFloat(rv, k)
			ov.bools[k] = test(cmpFloat64(lf, rf))
		case lv.kind == TString && rv.kind == TString:
			ov.bools[k] = test(strings.Compare(lv.strAt(k), rv.strAt(k)))
		default:
			ov.bools[k] = test(Compare(lv.value(k), rv.value(k)))
		}
	}
	return ov, nil
}

// vnCmpLit is a column-vs-literal comparison with one typed loop per chunk,
// picked from the column's encoding and kind. Numbers compare in float64
// through cmpFloat64, as Compare does (NaN compares equal to everything), and
// strings bytewise; delta and decimal columns fuse decode and compare, and
// dictionary columns probe the sorted dict once per chunk and compare codes.
// Boxed columns and pairings whose comparison is not the plain typed one (a
// string column against a number) delegate to the embedded generic node,
// which replicates row-path semantics for every case.
type vnCmpLit struct {
	id  int
	col int
	lit Value
	res [3]bool // the verdict for each comparison result + 1, built at plan time
	fb  vnCmp
}

func (n *vnCmpLit) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	cv := ch.col(n.col)
	idx := vc.lanesOf(ch, sel)
	switch cv.enc {
	case encNone, encDelta, encDecimal:
		if ov, ok := n.evalRaw(vc, cv, idx); ok {
			return ov, nil
		}
	case encDict:
		if s, ok := n.lit.(string); ok {
			return n.evalDict(vc, cv, idx, s), nil
		}
	}
	return n.fb.eval(vc, ch, sel)
}

// evalRaw is the loop over rows idx of a raw, delta or decimal column. ok is
// false (delegate) for a boxed column and for a literal of another kind.
func (n *vnCmpLit) evalRaw(vc *vecCtx, cv *colVec, idx []int32) (*colVec, bool) {
	f, num := numeric(n.lit)
	s, str := n.lit.(string)
	b, isBool := n.lit.(bool)
	if !(num && (cv.kind == TInt || cv.kind == TFloat) || str && cv.kind == TString || isBool && cv.kind == TBool) {
		return nil, false
	}
	ov := vc.out(n.id, TBool, len(idx))
	out, res := ov.bools, &n.res
	switch {
	case cv.enc == encDelta:
		for k, i := range idx {
			out[k] = res[cmpFloat64(float64(cv.deltaAt(int(i))), f)+1]
		}
	case cv.enc == encDecimal:
		p := pow10[cv.exp]
		for k, i := range idx {
			out[k] = res[cmpFloat64(float64(cv.deltaAt(int(i)))/p, f)+1]
		}
	case cv.kind == TInt:
		for k, i := range idx {
			out[k] = res[cmpFloat64(float64(cv.ints[i]), f)+1]
		}
	case cv.kind == TFloat:
		for k, i := range idx {
			out[k] = res[cmpFloat64(cv.floats[i], f)+1]
		}
	case cv.kind == TString:
		for k, i := range idx {
			out[k] = res[strings.Compare(cv.slotStr(int(i)), s)+1]
		}
	default:
		for k, i := range idx {
			out[k] = res[cmpBools(cv.bools[i], b)+1]
		}
	}
	nullLanes(ov, cv, idx)
	return ov, true
}

// nullLanes flags the lanes of ov whose rows idx of cv are NULL.
func nullLanes(ov, cv *colVec, idx []int32) {
	if len(cv.nulls) > 0 {
		for k, i := range idx {
			if cv.nulls[i] {
				ov.setNull(k, len(idx))
			}
		}
	}
}

// codeBounds reduces op against the dictionary boundary pair to interval
// membership over codes: the result for code c is (lo <= c < hi) != neg. lb
// is the first code whose string sorts >= the literal, ub the first sorting
// > it — the sorted dictionary makes every comparison a code comparison
// (dict[c] < lit ⟺ c < lb, dict[c] = lit ⟺ lb <= c < ub, empty when the
// literal misses the dictionary). A plain interval instead of a predicate
// closure: this runs once per chunk on the scan hot path.
func codeBounds(op string, lb, ub uint32) (lo, hi uint32, neg bool) {
	const top = ^uint32(0)
	switch op {
	case "=":
		return lb, ub, false
	case "<>":
		return lb, ub, true
	case "<":
		return 0, lb, false
	case "<=":
		return 0, ub, false
	case ">":
		return ub, top, false
	}
	return lb, top, false // ">="
}

func (n *vnCmpLit) evalDict(vc *vecCtx, cv *colVec, idx []int32, s string) *colVec {
	ov := vc.out(n.id, TBool, len(idx))
	lb := sort.SearchStrings(cv.dict, s)
	ub := lb
	if ub < len(cv.dict) && cv.dict[ub] == s {
		ub++
	}
	lo, hi, neg := codeBounds(n.fb.op, uint32(lb), uint32(ub))
	for k, i := range idx {
		c := uint32(cv.codes[i])
		ov.bools[k] = (c >= lo && c < hi) != neg
	}
	nullLanes(ov, cv, idx)
	return ov
}

// cmpBools orders bools like Compare: false < true.
func cmpBools(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	}
	return 1
}

// vnInLit is IN over a column with an all-literal list, one typed loop per
// chunk. A dictionary column probes the list into the dict once per chunk, a
// boolean LUT indexed by code, so membership is one table load per lane; a raw
// string column looks its lanes up among the string literals, a raw numeric
// one — or a decimal one, decoded in the loop — among the numeric literals in
// float64, with lanesEqual's rules. Compare never equates a string with any
// other type, so the literals of the other kind cannot match. Delta, boolean
// and boxed columns delegate to the embedded generic vnIn.
type vnInLit struct {
	id   int
	col  int
	strs []string
	nums []float64
	fb   vnIn
}

func (n *vnInLit) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	cv := ch.col(n.col)
	if cv.enc == encDelta || cv.kind == TAny || cv.kind == TBool {
		return n.fb.eval(vc, ch, sel)
	}
	idx := vc.lanesOf(ch, sel)
	ov := vc.out(n.id, TBool, len(idx))
	out := ov.bools
	switch {
	case cv.enc == encDict:
		// Storage chunks hold <= chunkRows rows, so dicts fit a stack LUT.
		var lut [chunkRows]bool
		for _, s := range n.strs {
			if c := sort.SearchStrings(cv.dict, s); c < len(cv.dict) && cv.dict[c] == s {
				lut[c] = true
			}
		}
		for k, i := range idx {
			out[k] = lut[cv.codes[i]] != n.fb.not
		}
	case cv.enc == encDecimal:
		p := pow10[cv.exp]
		for k, i := range idx {
			out[k] = inFloats(float64(cv.deltaAt(int(i)))/p, n.nums) != n.fb.not
		}
	case cv.kind == TString:
		for k, i := range idx {
			out[k] = slices.Contains(n.strs, cv.slotStr(int(i))) != n.fb.not
		}
	case cv.kind == TInt:
		for k, i := range idx {
			out[k] = inFloats(float64(cv.ints[i]), n.nums) != n.fb.not
		}
	default:
		for k, i := range idx {
			out[k] = inFloats(cv.floats[i], n.nums) != n.fb.not
		}
	}
	nullLanes(ov, cv, idx)
	return ov, nil
}

// inFloats reports whether x compares equal to one of fs under cmpFloat64.
func inFloats(x float64, fs []float64) bool {
	for _, f := range fs {
		if cmpFloat64(x, f) == 0 {
			return true
		}
	}
	return false
}

// ---- logic ----

type vnLogic struct {
	id   int
	and  bool
	l, r vnode
}

// eval evaluates the right operand only on the lanes the left one leaves
// undecided — not false for AND, not true for OR — as the row path's
// short-circuit does, so it fails on no lane the row path skips.
func (n *vnLogic) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	lv, err := n.l.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	idx := vc.lanesOf(ch, sel)
	lanes, and := len(idx), n.and
	two := func(v *colVec) bool { return v.kind == TBool && len(v.nulls) == 0 }
	b := &vc.bufs[n.id]
	if cap(b.sel) < 2*lanes {
		b.sel = make([]int32, 2*lanes)
	}
	// pos and rsel: the lanes and rows left undecided.
	pos, rsel, m := b.sel[:lanes], b.sel[lanes:2*lanes], 0
	if two(lv) {
		m = pick(lv.bools[:lanes], and, pos)
	} else {
		for k := range idx {
			pos[m] = int32(k)
			if lb, ok, _ := laneBool(lv, k); !ok || lb == and {
				m++
			}
		}
	}
	var rv *colVec
	switch {
	case m == lanes:
		rsel = sel // nothing decided: the same lanes, no copy
	case sel == nil:
		rsel = pos[:m] // every row: a lane is its row
	default:
		rsel = rsel[:m]
		for j, k := range pos[:m] {
			rsel[j] = sel[k]
		}
	}
	if m > 0 {
		if rv, err = n.r.eval(vc, ch, rsel); err != nil {
			return nil, err
		}
	}
	// Lane k of the left operand pairs with lane j of the right one, which
	// advances over the undecided lanes only. Two-valued, a decided lane's
	// result is its left operand's, and the right one's lanes scatter.
	ov := vc.out(n.id, TBool, lanes)
	if two(lv) && (m == 0 || two(rv)) {
		copy(ov.bools, lv.bools[:lanes])
		for j, k := range pos[:m] {
			ov.bools[k] = rv.bools[j]
		}
		return ov, nil
	}
	// Replicates the row path's three-valued logic exactly, including its
	// treatment of unconvertible (non-bool, non-numeric) operands: AND is
	// false on a false operand, OR true on a true one, NULL otherwise when
	// an operand is.
	j := 0
	for k := 0; k < lanes; k++ {
		ov.bools[k] = !and
		lb, lok, lnull := laneBool(lv, k)
		if lok && lb != and {
			continue
		}
		rb, rok, rnull := laneBool(rv, j)
		j++
		switch {
		case rok && rb != and:
		case lnull || rnull:
			ov.setNull(k, lanes)
		default:
			ov.bools[k] = and
		}
	}
	return ov, nil
}

// pick stores in lanes the lanes k whose bools[k] is want, and returns how
// many there are. Not inlined: inlined into vnLogic.eval, its loop kept its
// counters on the stack.
//
//go:noinline
func pick(bools []bool, want bool, lanes []int32) int {
	lanes = lanes[:len(bools)]
	m := 0
	for k, b := range bools {
		lanes[m] = int32(k)
		if b == want {
			m++
		}
	}
	return m
}

type vnNot struct {
	id int
	x  vnode
}

func (n *vnNot) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	xv, err := n.x.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	lanes := laneCount(ch, sel)
	ov := vc.out(n.id, TBool, lanes)
	for k := 0; k < lanes; k++ {
		if xv.isNull(k) {
			ov.setNull(k, lanes)
			continue
		}
		b, ok, _ := laneBool(xv, k)
		if !ok {
			return nil, failAt(vc, ch, sel, k, errNotNonBool(xv.value(k)))
		}
		ov.bools[k] = !b
	}
	return ov, nil
}

// ---- predicates ----

type vnBetween struct {
	id        int
	x, lo, hi vnode
	not       bool
}

func (n *vnBetween) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	xv, err := n.x.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	lo, err := n.lo.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	hi, err := n.hi.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	lanes := laneCount(ch, sel)
	ov := vc.out(n.id, TBool, lanes)
	num := func(v *colVec) bool { return v.kind == TInt || v.kind == TFloat }
	allNum := num(xv) && num(lo) && num(hi)
	allStr := xv.kind == TString && lo.kind == TString && hi.kind == TString
	for k := 0; k < lanes; k++ {
		if xv.isNull(k) || lo.isNull(k) || hi.isNull(k) {
			ov.setNull(k, lanes)
			continue
		}
		var in bool
		switch {
		case allNum:
			xf, _ := laneFloat(xv, k)
			lf, _ := laneFloat(lo, k)
			hf, _ := laneFloat(hi, k)
			in = cmpFloat64(xf, lf) >= 0 && cmpFloat64(xf, hf) <= 0
		case allStr:
			s := xv.strAt(k)
			in = s >= lo.strAt(k) && s <= hi.strAt(k)
		default:
			x := xv.value(k)
			in = Compare(x, lo.value(k)) >= 0 && Compare(x, hi.value(k)) <= 0
		}
		ov.bools[k] = in != n.not
	}
	return ov, nil
}

type vnIn struct {
	id   int
	x    vnode
	list []vnode
	not  bool
}

func (n *vnIn) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	xv, err := n.x.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	lvs := make([]*colVec, len(n.list))
	for i, ln := range n.list {
		lv, err := ln.eval(vc, ch, sel)
		if err != nil {
			return nil, err
		}
		lvs[i] = lv
	}
	lanes := laneCount(ch, sel)
	ov := vc.out(n.id, TBool, lanes)
	for k := 0; k < lanes; k++ {
		if xv.isNull(k) {
			ov.setNull(k, lanes)
			continue
		}
		// No match with a NULL candidate is unknown, as on the row path.
		found, sawNull := false, false
		for _, lv := range lvs {
			if lv.isNull(k) {
				sawNull = true
				continue
			}
			if lanesEqual(xv, lv, k) {
				found = true
				break
			}
		}
		if !found && sawNull {
			ov.setNull(k, lanes)
			continue
		}
		ov.bools[k] = found != n.not
	}
	return ov, nil
}

// lanesEqual mirrors Compare(a, b) == 0 for two non-NULL lanes.
func lanesEqual(a, b *colVec, k int) bool {
	af, aok := laneFloat(a, k)
	bf, bok := laneFloat(b, k)
	if aok && bok {
		return cmpFloat64(af, bf) == 0
	}
	if a.kind == TString && b.kind == TString {
		return a.strAt(k) == b.strAt(k)
	}
	return Compare(a.value(k), b.value(k)) == 0
}

type vnLike struct {
	id     int
	x, pat vnode
	not    bool
}

func (n *vnLike) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	xv, err := n.x.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	pv, err := n.pat.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	lanes := laneCount(ch, sel)
	ov := vc.out(n.id, TBool, lanes)
	for k := 0; k < lanes; k++ {
		if xv.isNull(k) || pv.isNull(k) {
			ov.setNull(k, lanes)
			continue
		}
		ov.bools[k] = likeMatch(laneStr(xv, k), laneStr(pv, k)) != n.not
	}
	return ov, nil
}

type vnIsNull struct {
	id  int
	x   vnode
	not bool
}

func (n *vnIsNull) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	xv, err := n.x.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	lanes := laneCount(ch, sel)
	ov := vc.out(n.id, TBool, lanes)
	for k := 0; k < lanes; k++ {
		ov.bools[k] = xv.isNull(k) != n.not
	}
	return ov, nil
}

// ---- scan-hot scalar functions ----

type vnSubstr struct {
	id            int
	x             vnode
	start, length int64
}

func (n *vnSubstr) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	xv, err := n.x.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	lanes := laneCount(ch, sel)
	ov := vc.out(n.id, TString, lanes)
	for k := 0; k < lanes; k++ {
		if xv.isNull(k) {
			ov.setNull(k, lanes)
			continue
		}
		s := laneStr(xv, k)
		if int(n.start) > len(s) {
			ov.strs[k] = ""
			continue
		}
		rest := s[n.start-1:]
		if int(n.length) < len(rest) {
			rest = rest[:n.length]
		}
		ov.strs[k] = rest
	}
	return ov, nil
}

type vnYear struct {
	id int
	x  vnode
}

func (n *vnYear) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	xv, err := n.x.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	lanes := laneCount(ch, sel)
	ov := vc.out(n.id, TInt, lanes)
	for k := 0; k < lanes; k++ {
		if !xv.isNull(k) {
			if s := laneStr(xv, k); len(s) >= 4 {
				if y, ok := ToInt(s[:4]); ok {
					ov.ints[k] = y
					continue
				}
			}
		}
		ov.setNull(k, lanes)
	}
	return ov, nil
}

// ---- lowering ----

type vecCompiler struct {
	scope *env
	nbuf  int
}

func (c *vecCompiler) newID() int {
	id := c.nbuf
	c.nbuf++
	return id
}

// lower returns a vectorized node for e: a kernel when one exists, else a
// per-lane wrapper around the pure row-compiled closure. nil means e is
// impure and cannot run on the vectorized path at all.
func (c *vecCompiler) lower(e sqlparser.Expr) vnode {
	if n := c.lowerVec(e); n != nil {
		return n
	}
	x, pure := compileLanes(c.scope, e)
	if !pure {
		return nil
	}
	return &vnScalar{id: c.newID(), x: x}
}

func (c *vecCompiler) lowerVec(e sqlparser.Expr) vnode {
	switch x := e.(type) {
	case *sqlparser.Literal:
		return &vnLit{id: c.newID(), val: x.Val}
	case *sqlparser.ColumnRef:
		idx, err := c.scope.rel.resolve(x.Table, x.Name)
		if err != nil {
			return nil
		}
		return &vnCol{id: c.newID(), col: idx}
	case *sqlparser.BinaryExpr:
		switch x.Op {
		case "AND", "OR":
			// (a op b) op c lowers as a op (b op c): the row path's AND and
			// OR are associative, in value and in which operands they
			// evaluate, and a right operand's lanes only shrink down a chain.
			if lx, ok := x.L.(*sqlparser.BinaryExpr); ok && lx.Op == x.Op {
				return c.lower(&sqlparser.BinaryExpr{Op: x.Op, L: lx.L, R: &sqlparser.BinaryExpr{Op: x.Op, L: lx.R, R: x.R}})
			}
			l, r := c.lower(x.L), c.lower(x.R)
			if l == nil || r == nil {
				return nil
			}
			return &vnLogic{id: c.newID(), and: x.Op == "AND", l: l, r: r}
		case "=", "<>", "<", "<=", ">", ">=":
			l, r := c.lower(x.L), c.lower(x.R)
			if l == nil || r == nil {
				return nil
			}
			// Column-vs-literal shapes get the typed kernel. A literal on the
			// left mirrors the operator.
			if cn, ln, ok := colLit(l, r); ok {
				return c.cmpLit(x.Op, cn, ln)
			}
			if cn, ln, ok := colLit(r, l); ok {
				return c.cmpLit(flipCmp(x.Op), cn, ln)
			}
			return &vnCmp{id: c.newID(), op: x.Op, l: l, r: r}
		case "+", "-", "*", "/", "%":
			if _, isInterval := x.R.(*sqlparser.IntervalExpr); isInterval {
				return nil // date arithmetic: scalar fallback
			}
			l, r := c.lower(x.L), c.lower(x.R)
			if l == nil || r == nil {
				return nil
			}
			return &vnArith{id: c.newID(), op: x.Op, l: l, r: r}
		}
		return nil
	case *sqlparser.UnaryExpr:
		xn := c.lower(x.X)
		if xn == nil {
			return nil
		}
		switch x.Op {
		case "-":
			return &vnNeg{id: c.newID(), x: xn}
		case "NOT":
			return &vnNot{id: c.newID(), x: xn}
		}
		return nil
	case *sqlparser.BetweenExpr:
		xn, lo, hi := c.lower(x.X), c.lower(x.Lo), c.lower(x.Hi)
		if xn == nil || lo == nil || hi == nil {
			return nil
		}
		// A column between two non-NULL literals is two literal comparisons
		// under AND, NOT BETWEEN their complements under OR: the same under
		// three-valued logic, with the typed kernel's loops.
		if cn, l, ok := colLit(xn, lo); ok {
			if _, h, ok := colLit(xn, hi); ok {
				if x.Not {
					return &vnLogic{id: c.newID(), l: c.cmpLit("<", cn, l), r: c.cmpLit(">", cn, h)}
				}
				return &vnLogic{id: c.newID(), and: true, l: c.cmpLit(">=", cn, l), r: c.cmpLit("<=", cn, h)}
			}
		}
		return &vnBetween{id: c.newID(), x: xn, lo: lo, hi: hi, not: x.Not}
	case *sqlparser.InExpr:
		if x.Subquery != nil {
			return nil
		}
		// The row path evaluates the list only for a non-NULL operand and
		// stops at a match; the kernel evaluates all of it, so it takes only
		// lists that cannot fail.
		for _, le := range x.List {
			if !pushableOperand(le) {
				return nil
			}
		}
		xn := c.lower(x.X)
		if xn == nil {
			return nil
		}
		list := make([]vnode, len(x.List))
		for i, le := range x.List {
			ln := c.lower(le)
			if ln == nil {
				return nil
			}
			list[i] = ln
		}
		// Column IN (all non-NULL literals) is the typed kernel, which sorts
		// the literals by kind; anything else the generic node it embeds.
		in := &vnInLit{fb: vnIn{id: c.newID(), x: xn, list: list, not: x.Not}}
		cn, isCol := xn.(*vnCol)
		for _, le := range x.List {
			lit, ok := le.(*sqlparser.Literal)
			if !isCol || !ok || lit.Val == nil {
				return &in.fb
			}
			if s, isStr := lit.Val.(string); isStr {
				in.strs = append(in.strs, s)
			} else if f, isNum := numeric(lit.Val); isNum {
				in.nums = append(in.nums, f)
			}
		}
		in.id, in.col = c.newID(), cn.col
		return in
	case *sqlparser.LikeExpr:
		xn, pn := c.lower(x.X), c.lower(x.Pattern)
		if xn == nil || pn == nil {
			return nil
		}
		return &vnLike{id: c.newID(), x: xn, pat: pn, not: x.Not}
	case *sqlparser.IsNullExpr:
		xn := c.lower(x.X)
		if xn == nil {
			return nil
		}
		return &vnIsNull{id: c.newID(), x: xn, not: x.Not}
	case *sqlparser.FuncCall:
		if x.Over != nil || sqlparser.AggregateFuncs[x.Name] || x.Star {
			return nil
		}
		switch x.Name {
		case "substr", "substring":
			if len(x.Args) == 3 {
				start, okS := literalInt(x.Args[1])
				length, okL := literalInt(x.Args[2])
				if okS && okL && start >= 1 && length >= 0 {
					xn := c.lower(x.Args[0])
					if xn == nil {
						return nil
					}
					return &vnSubstr{id: c.newID(), x: xn, start: start, length: length}
				}
			}
		case "year":
			if len(x.Args) == 1 {
				xn := c.lower(x.Args[0])
				if xn == nil {
					return nil
				}
				return &vnYear{id: c.newID(), x: xn}
			}
		}
		return nil // other scalar functions: per-lane fallback
	}
	return nil
}

// colLit matches a column leaf and a non-NULL literal leaf.
func colLit(col, lit vnode) (*vnCol, *vnLit, bool) {
	cn, ok := col.(*vnCol)
	ln, isLit := lit.(*vnLit)
	return cn, ln, ok && isLit && ln.val != nil
}

// cmpLit is the typed kernel for cn op ln, with the generic node embedded for
// chunks it cannot handle.
func (c *vecCompiler) cmpLit(op string, cn *vnCol, ln *vnLit) vnode {
	n, test := &vnCmpLit{id: c.newID(), col: cn.col, lit: ln.val, fb: vnCmp{id: c.newID(), op: op, l: cn, r: ln}}, cmpTest(op)
	for r := range n.res {
		n.res[r] = test(r - 1)
	}
	return n
}

// evalFilter returns the rows of ch that pass where, a WHERE clause or join
// residual lowered as one tree whose AND/OR nodes short-circuit per lane
// (vnLogic); sel itself when every lane does. sel is nil, or on firstErr's
// retry the rows before an error's row: either way lane k is row k. On an
// error it returns the one the row path meets first, with the rows before its
// row that pass.
func evalFilter(vc *vecCtx, ch *chunk, sel []int32, where vnode) ([]int32, error) {
	v, err := where.eval(vc, ch, sel)
	if err != nil {
		return firstErr(vc, ch, sel, err, func(pre []int32) ([]int32, error) { return evalFilter(vc, ch, pre, where) })
	}
	n := laneCount(ch, sel)
	if next := keepTrue(vc, v, n); len(next) < n {
		return next, nil
	}
	return sel, nil
}

// keepTrue returns the lanes k < n of v that are ToBool-true, in the context's
// selection buffer.
func keepTrue(vc *vecCtx, v *colVec, n int) []int32 {
	if cap(vc.sel) < n {
		vc.sel = make([]int32, n)
	}
	out, m := vc.sel[:n], 0
	if v.kind == TBool && len(v.nulls) == 0 {
		return out[:pick(v.bools[:n], true, out)]
	}
	// Locals, as the stores to out could alias v. A kernel output is raw or
	// dict, so its flags are per lane.
	kind, bools, nulls := v.kind, v.bools, v.nulls
	for k := range out {
		var t bool
		switch {
		case len(nulls) > 0 && nulls[k]:
		case kind == TBool:
			t = bools[k]
		case kind == TInt:
			t = v.ints[k] != 0
		case kind == TFloat:
			t = v.floats[k] != 0
		case kind == TAny && v.anys[k] != nil:
			t, _ = ToBool(v.anys[k])
		}
		// Written whether it passes or not, kept by advancing m: no branch
		// on the data.
		out[m] = int32(k)
		if t {
			m++
		}
	}
	return out[:m]
}
