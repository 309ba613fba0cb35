package engine

import (
	"errors"
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
// run-length and delta columns are decoded by the same gather a join uses
// (gatherLanes, vecjoin.go). WHERE predicates produce a selection vector;
// GROUP BY keys render straight from typed lanes into the reusable key buffer;
// aggregate arguments feed accumulators through typed entry points (agg.go).
// Every kernel replicates the row path's semantics exactly — NULL propagation,
// numeric coercion through float64, three-valued AND/OR — and shapes without a
// kernel (CASE, scalar functions, string concatenation, ...) fall back to
// evaluating the row-compiled closure per selected lane, against a scratch row
// holding the lanes it reads. If a kernel reports an error the caller gives up
// the vector attempt (errKernel) and runs the whole block, or join, on the row
// closures, so even error behavior (e.g. short-circuit AND skipping an erroring
// operand) is theirs by construction.
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
}

// vecCtx is one worker's evaluation state: per-node buffers plus reusable
// selection/key scratch. Never shared between goroutines.
type vecCtx struct {
	bufs   []vbuf
	sel    []int32
	sel2   []int32
	ident  []int32 // every lane of a chunk longer than allLanes
	keyBuf []byte
	// lastKey is the grouped scan's one-group memo key, kept across chunks
	// for its storage only.
	lastKey []byte
	keys    []*colVec
	args    []*colVec
	items   []*colVec
	row     []Value // vnScalar's scratch row
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

// errKernel stands for whatever error a kernel's evaluation returned. Whoever
// drives the kernels — a scan block, a join — reports it instead, and its
// caller discards the vector attempt and runs the block on the row closures,
// whose error (text and timing) is the reference. Aborts, budget overruns,
// faults and load errors are never evaluation errors and surface as they are.
var errKernel = errors.New("engine: kernel evaluation error")

// evalNodes evaluates nodes over ch's selected lanes into out; a nil node
// leaves a nil vector.
func evalNodes(vc *vecCtx, ch *chunk, sel []int32, nodes []vnode, out []*colVec) error {
	for i, n := range nodes {
		out[i] = nil
		if n == nil {
			continue
		}
		v, err := n.eval(vc, ch, sel)
		if err != nil {
			return errKernel
		}
		out[i] = v
	}
	return nil
}

// ---- leaves ----

type vnCol struct {
	id, col int
}

// eval hands a raw or dictionary column over as it is when every lane is
// read. Otherwise it gathers the selected lanes into its buffer — codes only
// for a dictionary column, which keeps its dictionary — and decodes
// run-length and delta columns, with the gather a join uses.
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
	gatherLanes(ov, len(idx), 0, cv, idx)
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
	if len(vc.row) < len(ch.cols) {
		vc.row = make([]Value, len(ch.cols))
	}
	idx := vc.lanesOf(ch, sel)
	ov := vc.out(n.id, TAny, len(idx))
	for k, i := range idx {
		v, err := n.x.at(ch, int(i), vc.row)
		if err != nil {
			return nil, err
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

	if lv.kind == TInt && rv.kind == TInt && n.op != "/" {
		ov := vc.out(n.id, TInt, lanes)
		for k := 0; k < lanes; k++ {
			if lv.isNull(k) || rv.isNull(k) {
				ov.setNull(k, lanes)
				continue
			}
			a, b := lv.ints[k], rv.ints[k]
			switch n.op {
			case "+":
				ov.ints[k] = a + b
			case "-":
				ov.ints[k] = a - b
			case "*":
				ov.ints[k] = a * b
			case "%":
				if b == 0 {
					ov.setNull(k, lanes)
					continue
				}
				ov.ints[k] = a % b
			}
		}
		return ov, nil
	}

	if lNum && rNum {
		ov := vc.out(n.id, TFloat, lanes)
		for k := 0; k < lanes; k++ {
			if lv.isNull(k) || rv.isNull(k) {
				ov.setNull(k, lanes)
				continue
			}
			lf, _ := laneFloat(lv, k)
			rf, _ := laneFloat(rv, k)
			switch n.op {
			case "+":
				ov.floats[k] = lf + rf
			case "-":
				ov.floats[k] = lf - rf
			case "*":
				ov.floats[k] = lf * rf
			case "/":
				if rf == 0 {
					ov.setNull(k, lanes)
					continue
				}
				ov.floats[k] = lf / rf
			case "%":
				if rf == 0 || int64(rf) == 0 {
					ov.setNull(k, lanes)
					continue
				}
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
			return nil, err
		}
		ov.anys[k] = res
	}
	return ov, nil
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
				return nil, errCannotNegate(x)
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

// vnCmpLit is a column-vs-literal comparison specialized for encoded
// storage chunks. Dictionary columns probe the sorted dict once per chunk
// and compare codes (a literal missing from the dictionary decides =/<>
// for every non-NULL lane without touching a byte of string data); RLE
// columns evaluate the predicate once per run; delta columns fuse decode
// and compare. Join-output chunks, raw columns, and kind/literal pairings
// whose comparison is not the plain typed one delegate to the embedded
// generic node, which replicates row-path semantics for every case.
type vnCmpLit struct {
	id   int
	op   string
	col  int
	lit  Value
	test func(int) bool // cmpTest(op), built once at plan time
	fb   vnode
}

func (n *vnCmpLit) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	if ch.joinOutput() {
		return n.fb.eval(vc, ch, sel)
	}
	cv := ch.col(n.col)
	idx := vc.lanesOf(ch, sel)
	switch cv.enc {
	case encDict:
		if s, ok := n.lit.(string); ok {
			return n.evalDict(vc, cv, idx, s), nil
		}
	case encRLE:
		if ov, ok := n.evalRLE(vc, cv, idx); ok {
			return ov, nil
		}
	case encDelta:
		if f, ok := numeric(n.lit); ok {
			return n.evalDelta(vc, cv, idx, f), nil
		}
	}
	return n.fb.eval(vc, ch, sel)
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
	lanes := len(idx)
	ov := vc.out(n.id, TBool, lanes)
	lb := sort.SearchStrings(cv.dict, s)
	ub := lb
	if ub < len(cv.dict) && cv.dict[ub] == s {
		ub++
	}
	lo, hi, neg := codeBounds(n.op, uint32(lb), uint32(ub))
	hasNull := len(cv.nulls) > 0
	for k, i := range idx {
		if hasNull && cv.nulls[i] {
			ov.setNull(k, lanes)
			continue
		}
		c := cv.codes[i]
		ov.bools[k] = (c >= lo && c < hi) != neg
	}
	return ov
}

// evalRLE evaluates the comparison once per run — O(runs + lanes) however
// long the runs are. ok is false (delegate to the generic node) when the
// column kind and literal kind do not compare through the plain typed path.
func (n *vnCmpLit) evalRLE(vc *vecCtx, cv *colVec, idx []int32) (*colVec, bool) {
	var litF float64
	var litS string
	var litB bool
	switch cv.kind {
	case TInt, TFloat:
		f, ok := numeric(n.lit)
		if !ok {
			return nil, false
		}
		litF = f
	case TString:
		s, ok := n.lit.(string)
		if !ok {
			return nil, false
		}
		litS = s
	case TBool:
		b, ok := n.lit.(bool)
		if !ok {
			return nil, false
		}
		litB = b
	default:
		return nil, false
	}
	// Per-run verdicts: 0 false, 1 true, 2 NULL. Storage chunks hold at
	// most chunkRows rows, so runs fit a stack array.
	var rres [chunkRows]uint8
	test := n.test
	for r := 0; r < len(cv.runEnds); r++ {
		if len(cv.nulls) > 0 && cv.nulls[r] {
			rres[r] = 2
			continue
		}
		var c int
		switch cv.kind {
		case TInt:
			c = cmpFloat64(float64(cv.ints[r]), litF)
		case TFloat:
			c = cmpFloat64(cv.floats[r], litF)
		case TString:
			c = strings.Compare(cv.slotStr(r), litS)
		case TBool:
			c = cmpBools(cv.bools[r], litB)
		}
		if test(c) {
			rres[r] = 1
		}
	}
	lanes := len(idx)
	ov := vc.out(n.id, TBool, lanes)
	r := 0
	for k, i := range idx {
		r = cv.runFrom(r, int(i))
		if rres[r] == 2 {
			ov.setNull(k, lanes)
		}
		ov.bools[k] = rres[r] == 1
	}
	return ov, true
}

func (n *vnCmpLit) evalDelta(vc *vecCtx, cv *colVec, idx []int32, litF float64) *colVec {
	lanes := len(idx)
	ov := vc.out(n.id, TBool, lanes)
	test := n.test
	hasNull := len(cv.nulls) > 0
	for k, i := range idx {
		if hasNull && cv.nulls[i] {
			ov.setNull(k, lanes)
			continue
		}
		ov.bools[k] = test(cmpFloat64(float64(cv.deltaAt(int(i))), litF))
	}
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

// vnInLit is IN over a column with an all-literal list, specialized for
// dictionary columns: the list probes the dict once per chunk into a
// boolean LUT indexed by code, so membership is one table load per lane.
// Non-string literals are dropped from the LUT — Compare never equates a
// string with any other type, so they cannot match a string column. Raw
// and join chunks delegate to the embedded generic vnIn.
type vnInLit struct {
	id   int
	col  int
	strs []string
	not  bool
	fb   vnode
}

func (n *vnInLit) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	if ch.joinOutput() {
		return n.fb.eval(vc, ch, sel)
	}
	cv := ch.col(n.col)
	if cv.enc != encDict {
		return n.fb.eval(vc, ch, sel)
	}
	// Storage chunks hold <= chunkRows rows, so dicts fit a stack LUT.
	var lut [chunkRows]bool
	for _, s := range n.strs {
		if c := sort.SearchStrings(cv.dict, s); c < len(cv.dict) && cv.dict[c] == s {
			lut[c] = true
		}
	}
	idx := vc.lanesOf(ch, sel)
	lanes := len(idx)
	ov := vc.out(n.id, TBool, lanes)
	hasNull := len(cv.nulls) > 0
	for k, i := range idx {
		if hasNull && cv.nulls[i] {
			ov.setNull(k, lanes)
			continue
		}
		ov.bools[k] = lut[cv.codes[i]] != n.not
	}
	return ov, nil
}

// ---- logic ----

type vnLogic struct {
	id   int
	and  bool
	l, r vnode
}

func (n *vnLogic) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
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
	// Replicates the row path's three-valued logic exactly, including its
	// treatment of unconvertible (non-bool, non-numeric) operands: AND is
	// false on a false operand, OR true on a true one, NULL otherwise when
	// an operand is.
	for k := 0; k < lanes; k++ {
		lb, lok, lnull := laneBool(lv, k)
		rb, rok, rnull := laneBool(rv, k)
		decided := (lok && lb) || (rok && rb)
		if n.and {
			decided = (lok && !lb) || (rok && !rb)
		}
		if !decided && (lnull || rnull) {
			ov.setNull(k, lanes)
			continue
		}
		ov.bools[k] = decided != n.and
	}
	return ov, nil
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
			return nil, errNotNonBool(xv.value(k))
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
			generic := &vnCmp{id: c.newID(), op: x.Op, l: l, r: r}
			// Column-vs-literal shapes get the encoding-aware kernel, with
			// the generic node embedded for chunks it cannot handle. A
			// literal on the left mirrors the operator.
			if cn, ok := l.(*vnCol); ok {
				if ln, ok := r.(*vnLit); ok && ln.val != nil {
					return &vnCmpLit{id: c.newID(), op: x.Op, col: cn.col, lit: ln.val,
						test: cmpTest(x.Op), fb: generic}
				}
			}
			if cn, ok := r.(*vnCol); ok {
				if ln, ok := l.(*vnLit); ok && ln.val != nil {
					op := flipCmp(x.Op)
					return &vnCmpLit{id: c.newID(), op: op, col: cn.col, lit: ln.val,
						test: cmpTest(op), fb: generic}
				}
			}
			return generic
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
		return &vnBetween{id: c.newID(), x: xn, lo: lo, hi: hi, not: x.Not}
	case *sqlparser.InExpr:
		if x.Subquery != nil {
			return nil
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
		generic := &vnIn{id: c.newID(), x: xn, list: list, not: x.Not}
		// Column IN (all non-NULL literals): dictionary LUT kernel. Only the
		// string literals go in the probe set — nothing else can equal a
		// string.
		if cn, ok := xn.(*vnCol); ok {
			var strs []string
			allLit := true
			for _, le := range x.List {
				lit, ok := le.(*sqlparser.Literal)
				if !ok || lit.Val == nil {
					allLit = false
					break
				}
				if s, isStr := lit.Val.(string); isStr {
					strs = append(strs, s)
				}
			}
			if allLit {
				return &vnInLit{id: c.newID(), col: cn.col, strs: strs, not: x.Not, fb: generic}
			}
		}
		return generic
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

// lowerConjuncts flattens the top-level AND conjuncts of a WHERE clause
// and lowers each one, so the filter can evaluate them one at a time over
// a shrinking selection vector — the vectorized analogue of the row path's
// short-circuit AND. Returns nil when any conjunct cannot lower (the full
// predicate could not either).
func (c *vecCompiler) lowerConjuncts(e sqlparser.Expr) []vnode {
	var conjs []vnode
	for _, ce := range flattenAnd(e, nil) {
		n := c.lower(ce)
		if n == nil {
			return nil
		}
		conjs = append(conjs, n)
	}
	return conjs
}

// lowerWhere lowers a WHERE clause for the conjunct-pipeline filter: the
// conjunct list plus the full predicate for evalFilter's unconvertible
// bail path. A single-conjunct clause reuses the conjunct node as the full
// predicate rather than lowering the tree twice. Both nil when the clause
// cannot run vectorized.
func (c *vecCompiler) lowerWhere(e sqlparser.Expr) (full vnode, conjs []vnode) {
	conjs = c.lowerConjuncts(e)
	if conjs == nil {
		return nil, nil
	}
	if len(conjs) == 1 {
		return conjs[0], conjs
	}
	if full = c.lower(e); full == nil {
		return nil, nil
	}
	return full, conjs
}

// evalFilter applies the conjunct pipeline to one chunk: each conjunct is
// evaluated only over the lanes the previous ones kept. NULL conjuncts
// drop the lane (a NULL AND chain is never true), matching filter-level
// ToBool semantics. If a conjunct produces a value ToBool cannot convert —
// where the row path's quirky three-valued AND could still yield true —
// the whole predicate is re-evaluated un-split so semantics stay identical.
// sel == nil with all == true means every row passed.
func evalFilter(vc *vecCtx, ch *chunk, full vnode, conjs []vnode) (sel []int32, all bool, err error) {
	all = true
	for _, cn := range conjs {
		v, err := cn.eval(vc, ch, sel)
		if err != nil {
			return nil, false, err
		}
		idx := vc.lanesOf(ch, sel)
		next, bad := keepTrue(vc, v, idx)
		if bad {
			// Unconvertible conjunct value: the un-split predicate decides.
			wv, err := full.eval(vc, ch, nil)
			if err != nil {
				return nil, false, err
			}
			if sel, _ = keepTrue(vc, wv, vc.lanesOf(ch, nil)); len(sel) == ch.n {
				return nil, true, nil
			}
			return sel, false, nil
		}
		if len(next) == len(idx) {
			continue // every candidate lane passed; selection unchanged
		}
		all = false
		sel = next
		if len(sel) == 0 {
			return sel, false, nil
		}
	}
	return sel, all, nil
}

// keepTrue returns the rows idx[k] whose lane k of v is ToBool-true, in the
// context's spare selection buffer (the two swap, so the next conjunct's
// keepTrue does not overwrite the selection it iterates). bad reports a
// non-NULL lane that does not convert to bool.
func keepTrue(vc *vecCtx, v *colVec, idx []int32) (next []int32, bad bool) {
	if cap(vc.sel2) < len(idx) {
		vc.sel2 = make([]int32, len(idx))
	}
	out, n := vc.sel2[:len(idx)], 0
	// Locals, as the stores to out could alias v. A kernel output is raw or
	// dict, so its flags are per lane.
	kind, bools, nulls := v.kind, v.bools, v.nulls
	for k, i := range idx {
		var t bool
		switch {
		case len(nulls) > 0 && nulls[k]:
		case kind == TBool:
			t = bools[k]
		case kind == TInt:
			t = v.ints[k] != 0
		case kind == TFloat:
			t = v.floats[k] != 0
		case kind == TString:
			bad = true
		case v.anys[k] != nil:
			var ok bool
			t, ok = ToBool(v.anys[k])
			bad = bad || !ok
		}
		// Written whether it passes or not, kept by advancing n: no branch
		// on the data.
		out[n] = i
		if t {
			n++
		}
	}
	out = out[:n]
	vc.sel2 = vc.sel[:0]
	vc.sel = out
	return out, bad
}
