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
// the same ASTs to vector kernels that consume a sealed chunk's typed
// columns directly and produce typed output vectors, so the scan hot path
// never boxes values. WHERE predicates produce a selection vector; GROUP BY
// keys render straight from typed lanes into the reusable key buffer;
// aggregate arguments feed accumulators through typed entry points
// (agg.go). Every kernel replicates the row path's semantics exactly —
// NULL propagation, numeric coercion through float64, three-valued
// AND/OR — and shapes without a kernel (CASE, scalar functions, string
// concatenation, ...) fall back to evaluating the row-compiled closure per
// selected lane, against a scratch row holding the lanes it reads. If a kernel
// reports an error the caller gives up the vector attempt (errKernel) and runs
// the whole block, or join, on the row closures, so even error behavior (e.g.
// short-circuit AND skipping an erroring operand) is theirs by construction.
//
// Only pure expressions are ever vectorized: anything drawing from the
// engine RNG or capturing scope state (subqueries, enclosing-scope columns)
// keeps the serial row path, so sample scrambles stay byte-identical.

// vec is a batch of values for the lanes of one chunk (or its selected
// subset). Exactly one typed slice is populated according to kind; TAny
// means boxed values in anys, where a nil box is NULL. For typed kinds,
// nulls flags NULL lanes (nil when none).
type vec struct {
	kind   ColType
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	anys   []Value
	nulls  []bool

	// dict is non-nil for a dictionary-coded string vector: kind is
	// TString, strs is nil, and lane k holds dict[codes[k]] (dictBoxed
	// pre-boxes each entry; nulls stays per-lane). Borrowed straight from
	// an encDict chunk-column, so equality/range kernels can compare codes
	// instead of bytes; everything else reads through str/laneValue.
	dict      []string
	dictBoxed []Value
	codes     []uint32
}

func (v *vec) isNull(k int) bool {
	if v.kind == TAny {
		return v.anys[k] == nil
	}
	return v.nulls != nil && v.nulls[k]
}

// str returns string lane k (callers have excluded NULL lanes and non-string
// kinds), reading through the dictionary when the vector is coded.
func (v *vec) str(k int) string {
	if v.dict != nil {
		return v.dict[v.codes[k]]
	}
	return v.strs[k]
}

// laneValue boxes lane k back into a dynamic Value.
func laneValue(v *vec, k int) Value {
	if v.kind == TAny {
		return v.anys[k]
	}
	if v.nulls != nil && v.nulls[k] {
		return nil
	}
	switch v.kind {
	case TInt:
		return v.ints[k]
	case TFloat:
		return v.floats[k]
	case TString:
		if v.dict != nil {
			return v.dictBoxed[v.codes[k]]
		}
		return v.strs[k]
	case TBool:
		return v.bools[k]
	}
	return nil
}

// laneFloat extracts lane k as float64 for Compare-style numeric
// comparison. ok is false for non-numeric kinds (bools are not numeric in
// Compare, matching the row path).
func laneFloat(v *vec, k int) (float64, bool) {
	switch v.kind {
	case TInt:
		return float64(v.ints[k]), true
	case TFloat:
		return v.floats[k], true
	}
	return 0, false
}

// laneStr renders lane k like ToStr (callers have excluded NULL lanes).
func laneStr(v *vec, k int) string {
	switch v.kind {
	case TString:
		return v.str(k)
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
func laneBool(v *vec, k int) (b, ok, null bool) {
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

// vbuf owns one node's output storage across chunks, so steady-state
// evaluation allocates nothing. The v field is the current view — it may
// alias chunk storage (column references with a full selection), which is
// safe because every kernel writes only its own buffer.
type vbuf struct {
	v      vec
	ints   []int64
	floats []float64
	strs   []string
	bools  []bool
	anys   []Value
	nulls  []bool
	codes  []uint32

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
	keyBuf []byte
	// lastKey is the grouped scan's one-group memo key, kept across chunks
	// for its storage only.
	lastKey []byte
	keys    []*vec
	args    []*vec
	items   []*vec
	row     []Value // vnScalar's scratch row
}

func newVecCtx(nbuf, nkeys, nargs, nitems int) *vecCtx {
	return &vecCtx{
		bufs:  make([]vbuf, nbuf),
		keys:  make([]*vec, nkeys),
		args:  make([]*vec, nargs),
		items: make([]*vec, nitems),
	}
}

// out prepares node id's buffer for lanes values of the given kind and
// returns the view to fill.
func (vc *vecCtx) out(id int, kind ColType, lanes int) *vec {
	b := &vc.bufs[id]
	b.v.kind = kind
	b.v.ints, b.v.floats, b.v.strs, b.v.bools, b.v.anys, b.v.nulls = nil, nil, nil, nil, nil, nil
	// Clear any dictionary view a previous chunk left behind: the buffer is
	// reused across chunks and a stale dict would silently re-code lanes.
	b.v.dict, b.v.dictBoxed, b.v.codes = nil, nil, nil
	switch kind {
	case TInt:
		if cap(b.ints) < lanes {
			b.ints = make([]int64, lanes)
		}
		b.v.ints = b.ints[:lanes]
	case TFloat:
		if cap(b.floats) < lanes {
			b.floats = make([]float64, lanes)
		}
		b.v.floats = b.floats[:lanes]
	case TString:
		if cap(b.strs) < lanes {
			b.strs = make([]string, lanes)
		}
		b.v.strs = b.strs[:lanes]
	case TBool:
		if cap(b.bools) < lanes {
			b.bools = make([]bool, lanes)
		}
		b.v.bools = b.bools[:lanes]
	case TAny:
		if cap(b.anys) < lanes {
			b.anys = make([]Value, lanes)
		}
		b.v.anys = b.anys[:lanes]
		for i := range b.v.anys {
			b.v.anys[i] = nil
		}
	}
	return &b.v
}

// nullbuf returns node id's cleared null-flag slice, attaching it to the
// current view. Kernels call it on the first NULL they produce.
func (vc *vecCtx) nullbuf(id, lanes int) []bool {
	b := &vc.bufs[id]
	if cap(b.nulls) < lanes {
		b.nulls = make([]bool, lanes)
	}
	n := b.nulls[:lanes]
	for i := range n {
		n[i] = false
	}
	b.v.nulls = n
	return n
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
	eval(vc *vecCtx, ch *chunk, sel []int32) (*vec, error)
}

// errKernel stands for whatever error a kernel's evaluation returned. Whoever
// drives the kernels — a scan block, a join — reports it instead, and its
// caller discards the vector attempt and runs the block on the row closures,
// whose error (text and timing) is the reference. Aborts, budget overruns,
// faults and load errors are never evaluation errors and surface as they are.
var errKernel = errors.New("engine: kernel evaluation error")

// evalNodes evaluates nodes over ch's selected lanes into out; a nil node
// leaves a nil vector.
func evalNodes(vc *vecCtx, ch *chunk, sel []int32, nodes []vnode, out []*vec) error {
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

func (n *vnCol) eval(vc *vecCtx, ch *chunk, sel []int32) (*vec, error) {
	// col() gathers the column first on join-output chunks — the point
	// where late materialization actually copies values, and only for
	// columns some kernel references.
	cv := ch.col(n.col)
	switch cv.enc {
	case encDict:
		return n.evalDict(vc, cv, sel, laneCount(ch, sel)), nil
	case encRLE:
		return n.evalRLE(vc, cv, sel, laneCount(ch, sel)), nil
	case encDelta:
		return n.evalDelta(vc, cv, sel, laneCount(ch, sel)), nil
	}
	if sel == nil {
		// Borrow the chunk's storage wholesale — zero copies.
		b := &vc.bufs[n.id]
		b.v = vec{kind: cv.kind, ints: cv.ints, floats: cv.floats,
			strs: cv.strs, bools: cv.bools, anys: cv.anys, nulls: cv.nulls}
		return &b.v, nil
	}
	lanes := len(sel)
	ov := vc.out(n.id, cv.kind, lanes)
	switch cv.kind {
	case TInt:
		for k, i := range sel {
			ov.ints[k] = cv.ints[i]
		}
	case TFloat:
		for k, i := range sel {
			ov.floats[k] = cv.floats[i]
		}
	case TString:
		for k, i := range sel {
			ov.strs[k] = cv.strs[i]
		}
	case TBool:
		for k, i := range sel {
			ov.bools[k] = cv.bools[i]
		}
	case TAny:
		for k, i := range sel {
			ov.anys[k] = cv.anys[i]
		}
	}
	if cv.nulls != nil && cv.kind != TAny {
		var nulls []bool
		for k, i := range sel {
			if cv.nulls[i] {
				if nulls == nil {
					nulls = vc.nullbuf(n.id, lanes)
				}
				nulls[k] = true
			}
		}
	}
	return ov, nil
}

// evalDict surfaces an encDict column as a dictionary-coded vector: the
// dict is shared and only codes are gathered under a selection, so a string
// column costs 4 bytes/lane to touch regardless of string length.
func (n *vnCol) evalDict(vc *vecCtx, cv *colVec, sel []int32, lanes int) *vec {
	b := &vc.bufs[n.id]
	if sel == nil {
		b.v = vec{kind: TString, nulls: cv.nulls,
			dict: cv.dict, dictBoxed: cv.dictBoxed, codes: cv.codes}
		return &b.v
	}
	if cap(b.codes) < lanes {
		b.codes = make([]uint32, lanes)
	}
	codes := b.codes[:lanes]
	b.v = vec{kind: TString, dict: cv.dict, dictBoxed: cv.dictBoxed, codes: codes}
	for k, i := range sel {
		codes[k] = cv.codes[i]
	}
	if cv.nulls != nil {
		var nulls []bool
		for k, i := range sel {
			if cv.nulls[i] {
				if nulls == nil {
					nulls = vc.nullbuf(n.id, lanes)
				}
				nulls[k] = true
			}
		}
	}
	return &b.v
}

// evalRLE decodes an encRLE column for generic kernels. The selection walk
// exploits that sel is always ascending: one forward run pointer serves the
// whole gather, O(lanes + runs) instead of a binary search per lane.
func (n *vnCol) evalRLE(vc *vecCtx, cv *colVec, sel []int32, lanes int) *vec {
	ov := vc.out(n.id, cv.kind, lanes)
	var nulls []bool
	if sel == nil {
		start := 0
		for r := 0; r < len(cv.runEnds); r++ {
			end := int(cv.runEnds[r])
			if cv.nulls != nil && cv.nulls[r] {
				if nulls == nil {
					nulls = vc.nullbuf(n.id, lanes)
				}
				for i := start; i < end; i++ {
					nulls[i] = true
				}
				start = end
				continue
			}
			switch cv.kind {
			case TInt:
				v := cv.ints[r]
				for i := start; i < end; i++ {
					ov.ints[i] = v
				}
			case TFloat:
				v := cv.floats[r]
				for i := start; i < end; i++ {
					ov.floats[i] = v
				}
			case TString:
				v := cv.strs[r]
				for i := start; i < end; i++ {
					ov.strs[i] = v
				}
			case TBool:
				v := cv.bools[r]
				for i := start; i < end; i++ {
					ov.bools[i] = v
				}
			}
			start = end
		}
		return ov
	}
	r := 0
	for k := 0; k < lanes; k++ {
		i := int(sel[k])
		for int(cv.runEnds[r]) <= i {
			r++
		}
		if cv.nulls != nil && cv.nulls[r] {
			if nulls == nil {
				nulls = vc.nullbuf(n.id, lanes)
			}
			nulls[k] = true
			continue
		}
		switch cv.kind {
		case TInt:
			ov.ints[k] = cv.ints[r]
		case TFloat:
			ov.floats[k] = cv.floats[r]
		case TString:
			ov.strs[k] = cv.strs[r]
		case TBool:
			ov.bools[k] = cv.bools[r]
		}
	}
	return ov
}

// evalDelta unpacks an encDelta column into a dense int vector.
func (n *vnCol) evalDelta(vc *vecCtx, cv *colVec, sel []int32, lanes int) *vec {
	ov := vc.out(n.id, TInt, lanes)
	var nulls []bool
	if sel == nil {
		for i := 0; i < lanes; i++ {
			if cv.nulls != nil && cv.nulls[i] {
				if nulls == nil {
					nulls = vc.nullbuf(n.id, lanes)
				}
				nulls[i] = true
				continue
			}
			ov.ints[i] = cv.deltaAt(i)
		}
		return ov
	}
	for k, i := range sel {
		if cv.nulls != nil && cv.nulls[i] {
			if nulls == nil {
				nulls = vc.nullbuf(n.id, lanes)
			}
			nulls[k] = true
			continue
		}
		ov.ints[k] = cv.deltaAt(int(i))
	}
	return ov
}

type vnLit struct {
	id  int
	val Value
}

func (n *vnLit) eval(vc *vecCtx, ch *chunk, sel []int32) (*vec, error) {
	lanes := laneCount(ch, sel)
	b := &vc.bufs[n.id]
	if b.litLanes >= lanes {
		// Already broadcast at least this wide: reslice the cached fill.
		v := &b.v
		switch v.kind {
		case TInt:
			v.ints = b.ints[:lanes]
		case TFloat:
			v.floats = b.floats[:lanes]
		case TString:
			v.strs = b.strs[:lanes]
		case TBool:
			v.bools = b.bools[:lanes]
		case TAny:
			v.anys = b.anys[:lanes]
		}
		return v, nil
	}
	fill := lanes
	if fill < chunkRows {
		fill = chunkRows // broadcast once at full width for later chunks
	}
	var ov *vec
	switch x := n.val.(type) {
	case int64:
		ov = vc.out(n.id, TInt, fill)
		for k := range ov.ints {
			ov.ints[k] = x
		}
		ov.ints = ov.ints[:lanes]
	case float64:
		ov = vc.out(n.id, TFloat, fill)
		for k := range ov.floats {
			ov.floats[k] = x
		}
		ov.floats = ov.floats[:lanes]
	case string:
		ov = vc.out(n.id, TString, fill)
		for k := range ov.strs {
			ov.strs[k] = x
		}
		ov.strs = ov.strs[:lanes]
	case bool:
		ov = vc.out(n.id, TBool, fill)
		for k := range ov.bools {
			ov.bools[k] = x
		}
		ov.bools = ov.bools[:lanes]
	default:
		// NULL (or exotic) literal: boxed lanes.
		ov = vc.out(n.id, TAny, fill)
		if n.val != nil {
			for k := range ov.anys {
				ov.anys[k] = n.val
			}
		}
		ov.anys = ov.anys[:lanes]
	}
	b.litLanes = fill
	return ov, nil
}

// vnScalar evaluates a pure row-compiled closure per selected lane, through
// the worker's scratch row — the graceful-degradation path for shapes without
// a vector kernel (CASE, coalesce, ||, date arithmetic, ...).
type vnScalar struct {
	id int
	x  *laneExpr
}

func (n *vnScalar) eval(vc *vecCtx, ch *chunk, sel []int32) (*vec, error) {
	if len(vc.row) < len(ch.cols) {
		vc.row = make([]Value, len(ch.cols))
	}
	lanes := laneCount(ch, sel)
	ov := vc.out(n.id, TAny, lanes)
	for k := 0; k < lanes; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		v, err := n.x.at(ch, i, vc.row)
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

func (n *vnArith) eval(vc *vecCtx, ch *chunk, sel []int32) (*vec, error) {
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
		var nulls []bool
		setNull := func(k int) {
			if nulls == nil {
				nulls = vc.nullbuf(n.id, lanes)
			}
			nulls[k] = true
		}
		for k := 0; k < lanes; k++ {
			if lv.isNull(k) || rv.isNull(k) {
				setNull(k)
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
					setNull(k)
					continue
				}
				ov.ints[k] = a % b
			}
		}
		return ov, nil
	}

	if lNum && rNum {
		ov := vc.out(n.id, TFloat, lanes)
		var nulls []bool
		setNull := func(k int) {
			if nulls == nil {
				nulls = vc.nullbuf(n.id, lanes)
			}
			nulls[k] = true
		}
		for k := 0; k < lanes; k++ {
			if lv.isNull(k) || rv.isNull(k) {
				setNull(k)
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
					setNull(k)
					continue
				}
				ov.floats[k] = lf / rf
			case "%":
				if rf == 0 || int64(rf) == 0 {
					setNull(k)
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
			continue // nil box = NULL
		}
		res, err := arith(n.op, laneValue(lv, k), laneValue(rv, k))
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

func (n *vnNeg) eval(vc *vecCtx, ch *chunk, sel []int32) (*vec, error) {
	xv, err := n.x.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	lanes := laneCount(ch, sel)
	switch xv.kind {
	case TInt:
		ov := vc.out(n.id, TInt, lanes)
		var nulls []bool
		for k := 0; k < lanes; k++ {
			if xv.isNull(k) {
				if nulls == nil {
					nulls = vc.nullbuf(n.id, lanes)
				}
				nulls[k] = true
				continue
			}
			ov.ints[k] = -xv.ints[k]
		}
		return ov, nil
	case TFloat:
		ov := vc.out(n.id, TFloat, lanes)
		var nulls []bool
		for k := 0; k < lanes; k++ {
			if xv.isNull(k) {
				if nulls == nil {
					nulls = vc.nullbuf(n.id, lanes)
				}
				nulls[k] = true
				continue
			}
			ov.floats[k] = -xv.floats[k]
		}
		return ov, nil
	}
	ov := vc.out(n.id, TAny, lanes)
	for k := 0; k < lanes; k++ {
		if xv.isNull(k) {
			continue
		}
		switch x := laneValue(xv, k).(type) {
		case int64:
			ov.anys[k] = -x //verdict:alloc TAny fallback lane: input is already boxed, typed lanes take the branches above
		case float64:
			ov.anys[k] = -x //verdict:alloc TAny fallback lane: input is already boxed, typed lanes take the branches above
		default:
			return nil, errCannotNegate(x)
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

func (n *vnCmp) eval(vc *vecCtx, ch *chunk, sel []int32) (*vec, error) {
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
	var nulls []bool
	setNull := func(k int) {
		if nulls == nil {
			nulls = vc.nullbuf(n.id, lanes)
		}
		nulls[k] = true
	}
	lNum := lv.kind == TInt || lv.kind == TFloat
	rNum := rv.kind == TInt || rv.kind == TFloat
	switch {
	case lNum && rNum:
		for k := 0; k < lanes; k++ {
			if lv.isNull(k) || rv.isNull(k) {
				setNull(k)
				continue
			}
			lf, _ := laneFloat(lv, k)
			rf, _ := laneFloat(rv, k)
			ov.bools[k] = test(cmpFloat64(lf, rf))
		}
	case lv.kind == TString && rv.kind == TString:
		for k := 0; k < lanes; k++ {
			if lv.isNull(k) || rv.isNull(k) {
				setNull(k)
				continue
			}
			a, b := lv.str(k), rv.str(k)
			switch {
			case a < b:
				ov.bools[k] = test(-1)
			case a > b:
				ov.bools[k] = test(1)
			default:
				ov.bools[k] = test(0)
			}
		}
	default:
		for k := 0; k < lanes; k++ {
			if lv.isNull(k) || rv.isNull(k) {
				setNull(k)
				continue
			}
			ov.bools[k] = test(Compare(laneValue(lv, k), laneValue(rv, k)))
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

func (n *vnCmpLit) eval(vc *vecCtx, ch *chunk, sel []int32) (*vec, error) {
	if ch.joinOutput() {
		return n.fb.eval(vc, ch, sel)
	}
	cv := ch.col(n.col)
	switch cv.enc {
	case encDict:
		if s, ok := n.lit.(string); ok {
			return n.evalDict(vc, cv, ch, sel, s), nil
		}
	case encRLE:
		if ov, ok := n.evalRLE(vc, cv, ch, sel); ok {
			return ov, nil
		}
	case encDelta:
		if f, ok := numeric(n.lit); ok {
			return n.evalDelta(vc, cv, ch, sel, f), nil
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

func (n *vnCmpLit) evalDict(vc *vecCtx, cv *colVec, ch *chunk, sel []int32, s string) *vec {
	lanes := laneCount(ch, sel)
	ov := vc.out(n.id, TBool, lanes)
	lb := sort.SearchStrings(cv.dict, s)
	ub := lb
	if ub < len(cv.dict) && cv.dict[ub] == s {
		ub++
	}
	lo, hi, neg := codeBounds(n.op, uint32(lb), uint32(ub))
	var nulls []bool
	hasNull := cv.nulls != nil
	if sel == nil {
		for i := 0; i < lanes; i++ {
			if hasNull && cv.nulls[i] {
				if nulls == nil {
					nulls = vc.nullbuf(n.id, lanes)
				}
				nulls[i] = true
				continue
			}
			c := cv.codes[i]
			ov.bools[i] = (c >= lo && c < hi) != neg
		}
		return ov
	}
	for k, i := range sel {
		if hasNull && cv.nulls[i] {
			if nulls == nil {
				nulls = vc.nullbuf(n.id, lanes)
			}
			nulls[k] = true
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
func (n *vnCmpLit) evalRLE(vc *vecCtx, cv *colVec, ch *chunk, sel []int32) (*vec, bool) {
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
		if cv.nulls != nil && cv.nulls[r] {
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
			c = strings.Compare(cv.strs[r], litS)
		case TBool:
			c = cmpBools(cv.bools[r], litB)
		}
		if test(c) {
			rres[r] = 1
		}
	}
	lanes := laneCount(ch, sel)
	ov := vc.out(n.id, TBool, lanes)
	var nulls []bool
	// The output buffer is reused across chunks, so every lane must be
	// written — false runs included.
	if sel == nil {
		start := 0
		for r := 0; r < len(cv.runEnds); r++ {
			end := int(cv.runEnds[r])
			switch rres[r] {
			case 1:
				for i := start; i < end; i++ {
					ov.bools[i] = true
				}
			case 2:
				if nulls == nil {
					nulls = vc.nullbuf(n.id, lanes)
				}
				for i := start; i < end; i++ {
					nulls[i] = true
				}
			default:
				for i := start; i < end; i++ {
					ov.bools[i] = false
				}
			}
			start = end
		}
		return ov, true
	}
	r := 0
	for k := 0; k < lanes; k++ {
		i := int(sel[k])
		for int(cv.runEnds[r]) <= i {
			r++
		}
		switch rres[r] {
		case 1:
			ov.bools[k] = true
		case 2:
			if nulls == nil {
				nulls = vc.nullbuf(n.id, lanes)
			}
			nulls[k] = true
		default:
			ov.bools[k] = false
		}
	}
	return ov, true
}

func (n *vnCmpLit) evalDelta(vc *vecCtx, cv *colVec, ch *chunk, sel []int32, litF float64) *vec {
	lanes := laneCount(ch, sel)
	ov := vc.out(n.id, TBool, lanes)
	test := n.test
	var nulls []bool
	hasNull := cv.nulls != nil
	if sel == nil {
		for i := 0; i < lanes; i++ {
			if hasNull && cv.nulls[i] {
				if nulls == nil {
					nulls = vc.nullbuf(n.id, lanes)
				}
				nulls[i] = true
				continue
			}
			ov.bools[i] = test(cmpFloat64(float64(cv.deltaAt(i)), litF))
		}
		return ov
	}
	for k, i := range sel {
		if hasNull && cv.nulls[i] {
			if nulls == nil {
				nulls = vc.nullbuf(n.id, lanes)
			}
			nulls[k] = true
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

func (n *vnInLit) eval(vc *vecCtx, ch *chunk, sel []int32) (*vec, error) {
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
	lanes := laneCount(ch, sel)
	ov := vc.out(n.id, TBool, lanes)
	var nulls []bool
	hasNull := cv.nulls != nil
	if sel == nil {
		for i := 0; i < lanes; i++ {
			if hasNull && cv.nulls[i] {
				if nulls == nil {
					nulls = vc.nullbuf(n.id, lanes)
				}
				nulls[i] = true
				continue
			}
			ov.bools[i] = lut[cv.codes[i]] != n.not
		}
		return ov, nil
	}
	for k, i := range sel {
		if hasNull && cv.nulls[i] {
			if nulls == nil {
				nulls = vc.nullbuf(n.id, lanes)
			}
			nulls[k] = true
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

func (n *vnLogic) eval(vc *vecCtx, ch *chunk, sel []int32) (*vec, error) {
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
	var nulls []bool
	setNull := func(k int) {
		if nulls == nil {
			nulls = vc.nullbuf(n.id, lanes)
		}
		nulls[k] = true
	}
	// Replicates the row path's three-valued logic exactly, including its
	// treatment of unconvertible (non-bool, non-numeric) operands.
	for k := 0; k < lanes; k++ {
		lb, lok, lnull := laneBool(lv, k)
		rb, rok, rnull := laneBool(rv, k)
		if n.and {
			if (lok && !lb) || (rok && !rb) {
				ov.bools[k] = false
				continue
			}
			if lnull || rnull {
				setNull(k)
				continue
			}
			ov.bools[k] = true
		} else {
			if (lok && lb) || (rok && rb) {
				ov.bools[k] = true
				continue
			}
			if lnull || rnull {
				setNull(k)
				continue
			}
			ov.bools[k] = false
		}
	}
	return ov, nil
}

type vnNot struct {
	id int
	x  vnode
}

func (n *vnNot) eval(vc *vecCtx, ch *chunk, sel []int32) (*vec, error) {
	xv, err := n.x.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	lanes := laneCount(ch, sel)
	ov := vc.out(n.id, TBool, lanes)
	var nulls []bool
	for k := 0; k < lanes; k++ {
		if xv.isNull(k) {
			if nulls == nil {
				nulls = vc.nullbuf(n.id, lanes)
			}
			nulls[k] = true
			continue
		}
		b, ok, _ := laneBool(xv, k)
		if !ok {
			return nil, errNotNonBool(laneValue(xv, k))
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

func (n *vnBetween) eval(vc *vecCtx, ch *chunk, sel []int32) (*vec, error) {
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
	var nulls []bool
	setNull := func(k int) {
		if nulls == nil {
			nulls = vc.nullbuf(n.id, lanes)
		}
		nulls[k] = true
	}
	num := func(v *vec) bool { return v.kind == TInt || v.kind == TFloat }
	switch {
	case num(xv) && num(lo) && num(hi):
		for k := 0; k < lanes; k++ {
			if xv.isNull(k) || lo.isNull(k) || hi.isNull(k) {
				setNull(k)
				continue
			}
			xf, _ := laneFloat(xv, k)
			lf, _ := laneFloat(lo, k)
			hf, _ := laneFloat(hi, k)
			in := cmpFloat64(xf, lf) >= 0 && cmpFloat64(xf, hf) <= 0
			ov.bools[k] = in != n.not
		}
	case xv.kind == TString && lo.kind == TString && hi.kind == TString:
		for k := 0; k < lanes; k++ {
			if xv.isNull(k) || lo.isNull(k) || hi.isNull(k) {
				setNull(k)
				continue
			}
			s := xv.str(k)
			in := s >= lo.str(k) && s <= hi.str(k)
			ov.bools[k] = in != n.not
		}
	default:
		for k := 0; k < lanes; k++ {
			if xv.isNull(k) || lo.isNull(k) || hi.isNull(k) {
				setNull(k)
				continue
			}
			x := laneValue(xv, k)
			in := Compare(x, laneValue(lo, k)) >= 0 && Compare(x, laneValue(hi, k)) <= 0
			ov.bools[k] = in != n.not
		}
	}
	return ov, nil
}

type vnIn struct {
	id   int
	x    vnode
	list []vnode
	not  bool
}

func (n *vnIn) eval(vc *vecCtx, ch *chunk, sel []int32) (*vec, error) {
	xv, err := n.x.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	lvs := make([]*vec, len(n.list))
	for i, ln := range n.list {
		lv, err := ln.eval(vc, ch, sel)
		if err != nil {
			return nil, err
		}
		lvs[i] = lv
	}
	lanes := laneCount(ch, sel)
	ov := vc.out(n.id, TBool, lanes)
	var nulls []bool
	for k := 0; k < lanes; k++ {
		if xv.isNull(k) {
			if nulls == nil {
				nulls = vc.nullbuf(n.id, lanes)
			}
			nulls[k] = true
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
			if nulls == nil {
				nulls = vc.nullbuf(n.id, lanes)
			}
			nulls[k] = true
			continue
		}
		ov.bools[k] = found != n.not
	}
	return ov, nil
}

// lanesEqual mirrors Compare(a, b) == 0 for two non-NULL lanes.
func lanesEqual(a, b *vec, k int) bool {
	af, aok := laneFloat(a, k)
	bf, bok := laneFloat(b, k)
	if aok && bok {
		return cmpFloat64(af, bf) == 0
	}
	if a.kind == TString && b.kind == TString {
		return a.str(k) == b.str(k)
	}
	return Compare(laneValue(a, k), laneValue(b, k)) == 0
}

type vnLike struct {
	id     int
	x, pat vnode
	not    bool
}

func (n *vnLike) eval(vc *vecCtx, ch *chunk, sel []int32) (*vec, error) {
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
	var nulls []bool
	for k := 0; k < lanes; k++ {
		if xv.isNull(k) || pv.isNull(k) {
			if nulls == nil {
				nulls = vc.nullbuf(n.id, lanes)
			}
			nulls[k] = true
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

func (n *vnIsNull) eval(vc *vecCtx, ch *chunk, sel []int32) (*vec, error) {
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

func (n *vnSubstr) eval(vc *vecCtx, ch *chunk, sel []int32) (*vec, error) {
	xv, err := n.x.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	lanes := laneCount(ch, sel)
	ov := vc.out(n.id, TString, lanes)
	var nulls []bool
	for k := 0; k < lanes; k++ {
		if xv.isNull(k) {
			if nulls == nil {
				nulls = vc.nullbuf(n.id, lanes)
			}
			nulls[k] = true
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

func (n *vnYear) eval(vc *vecCtx, ch *chunk, sel []int32) (*vec, error) {
	xv, err := n.x.eval(vc, ch, sel)
	if err != nil {
		return nil, err
	}
	lanes := laneCount(ch, sel)
	ov := vc.out(n.id, TInt, lanes)
	var nulls []bool
	setNull := func(k int) {
		if nulls == nil {
			nulls = vc.nullbuf(n.id, lanes)
		}
		nulls[k] = true
	}
	for k := 0; k < lanes; k++ {
		if xv.isNull(k) {
			setNull(k)
			continue
		}
		s := laneStr(xv, k)
		if len(s) >= 4 {
			if y, ok := ToInt(s[:4]); ok {
				ov.ints[k] = y
				continue
			}
		}
		setNull(k)
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
		lanes := laneCount(ch, sel)
		next, ok := refineSel(vc, v, sel, lanes)
		if !ok {
			// Unconvertible conjunct value: bail to the un-split predicate.
			wv, err := full.eval(vc, ch, nil)
			if err != nil {
				return nil, false, err
			}
			sel, all = buildSel(vc, wv, ch.n)
			if all {
				sel = nil
			}
			return sel, all, nil
		}
		if len(next) == lanes {
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

// refineSel keeps the lanes of cur (nil = all chunk lanes) where v is
// ToBool-true. ok is false when a non-NULL lane cannot convert to bool —
// the caller must re-evaluate the full predicate instead.
func refineSel(vc *vecCtx, v *vec, cur []int32, lanes int) (next []int32, ok bool) {
	if cap(vc.sel2) < lanes {
		vc.sel2 = make([]int32, 0, lanes)
	}
	out := vc.sel2[:0]
	keep := func(k int) {
		if cur != nil {
			out = append(out, cur[k])
		} else {
			out = append(out, int32(k))
		}
	}
	switch v.kind {
	case TBool:
		for k := 0; k < lanes; k++ {
			if !v.isNull(k) && v.bools[k] {
				keep(k)
			}
		}
	case TInt:
		for k := 0; k < lanes; k++ {
			if !v.isNull(k) && v.ints[k] != 0 {
				keep(k)
			}
		}
	case TFloat:
		for k := 0; k < lanes; k++ {
			if !v.isNull(k) && v.floats[k] != 0 {
				keep(k)
			}
		}
	case TString:
		for k := 0; k < lanes; k++ {
			if !v.isNull(k) {
				return nil, false
			}
		}
	default:
		for k := 0; k < lanes; k++ {
			x := v.anys[k]
			if x == nil {
				continue
			}
			b, bok := ToBool(x)
			if !bok {
				return nil, false
			}
			if b {
				keep(k)
			}
		}
	}
	// Swap buffers so the next conjunct's refine does not overwrite the
	// selection it is iterating.
	vc.sel2 = vc.sel[:0]
	vc.sel = out
	return out, true
}

// buildSel collects the lanes a WHERE vector keeps (ToBool semantics: keep
// when the value converts to true) into the context's reusable selection
// buffer. all reports that every lane passed, letting callers keep the
// full-chunk fast path.
func buildSel(vc *vecCtx, v *vec, lanes int) (sel []int32, all bool) {
	if cap(vc.sel) < lanes {
		vc.sel = make([]int32, 0, lanes)
	}
	out := vc.sel[:0]
	switch v.kind {
	case TBool:
		if v.nulls == nil {
			for k := 0; k < lanes; k++ {
				if v.bools[k] {
					out = append(out, int32(k))
				}
			}
		} else {
			for k := 0; k < lanes; k++ {
				if !v.nulls[k] && v.bools[k] {
					out = append(out, int32(k))
				}
			}
		}
	case TInt:
		for k := 0; k < lanes; k++ {
			if !v.isNull(k) && v.ints[k] != 0 {
				out = append(out, int32(k))
			}
		}
	case TFloat:
		for k := 0; k < lanes; k++ {
			if !v.isNull(k) && v.floats[k] != 0 {
				out = append(out, int32(k))
			}
		}
	case TString:
		// ToBool fails on strings: nothing passes.
	default:
		for k := 0; k < lanes; k++ {
			if b, ok := ToBool(v.anys[k]); ok && b {
				out = append(out, int32(k))
			}
		}
	}
	vc.sel = out
	return out, len(out) == lanes
}
