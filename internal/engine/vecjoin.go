package engine

import (
	"sync"

	"verdictdb/internal/faultpoint"
	"verdictdb/internal/sqlparser"
)

// Vectorized hash join with late materialization. The build (right) side is
// scanned chunk-at-a-time: join-key lanes render straight from typed chunk
// vectors into the shared group-key encoding (appendGroupKeyLane), and the
// hash table stores packed (chunkIdx, rowIdx) references — never boxed
// rows. The probe (left) side is scanned chunk-at-a-time too, handed out as
// morsels by parallelJoinProbe (parallel.go) and merged in chunk order, so
// output order is byte-identical to the serial row-at-a-time join at any
// parallelism. Each probe chunk emits one join-output chunk holding a pair
// of row-reference vectors (probe row index + build reference); downstream
// WHERE, GROUP BY, and aggregate kernels read columns through those
// references via joinGather, which copies a column into a typed vector only
// when some kernel first touches it. Boxed rows appear only at the
// ResultSet boundary (or per group representative), exactly like the
// scan-path contract from the columnar storage change.
//
// ON residuals (non-equi conjuncts) are evaluated with the same vector
// kernels over a candidate join-output chunk and refine the pair selection
// before LEFT/FULL null-extension and RIGHT/FULL matched-marking, so outer
// join semantics match the row path bit for bit. Joins that don't fit —
// impure ON expressions, subqueries in ON, no equi-key at all — keep the
// row path in joinRelations, and any chunk whose kernel evaluation errors
// is transparently re-run through the row-compiled closures before state is
// mutated, preserving error identity with the row path.

// nullRef marks a null-extended side in a join-output row reference.
const nullRef = int64(-1)

// packRef encodes a build-side row as chunk index << 32 | row index.
func packRef(ci, ri int) int64 { return int64(ci)<<32 | int64(ri) }

func unpackRef(r int64) (ci, ri int) { return int(r >> 32), int(uint32(r)) }

// joinBucket holds the build-side references sharing one join key, in build
// scan order.
type joinBucket struct{ refs []int64 }

// vecJoin is one lowered hash join: chunked inputs, vector kernels for the
// key and residual expressions, and their row-compiled fallbacks.
type vecJoin struct {
	qc     *queryCtx
	eng    *Engine
	jt     sqlparser.JoinType
	leftW  int
	rightW int

	probeChunks []*chunk
	buildChunks []*chunk
	nProbe      int
	nBuild      int
	buildStart  []int // flat row offset of each build chunk (matched bitmap index)

	// buildKinds caches, per build column, the storage kind shared by every
	// build chunk (TAny when chunks disagree), so gathers pick their typed
	// path once per join instead of per chunk.
	buildKinds []ColType

	lKeyNodes []vnode
	rKeyNodes []vnode
	lKeyFns   []compiledExpr // row fallback, same key encoding
	rKeyFns   []compiledExpr
	lNbuf     int
	rNbuf     int

	resFull  vnode   // nil when the join has no residual
	resConjs []vnode // top-level AND conjuncts of the residual
	resFn    compiledExpr
	resNbuf  int

	buckets map[string]*joinBucket
}

// relationChunks exposes a relation as columnar chunks: base-table scans
// resolve their source slots (loading segment-backed chunks); row-major
// relations (derived tables, row path outputs) are chunkified in place,
// keeping the boxed rows as the chunk row views.
func relationChunks(qc *queryCtx, r *relation) ([]*chunk, error) {
	if r.rows == nil && r.src != nil {
		return r.src.resolveAll(qc)
	}
	return chunkifyRows(r.rows, r.width()), nil
}

// buildVecJoin lowers an equi-join for the vectorized path, or returns nil
// when anything about it (impure keys or residual) needs the row path. The
// scopes are those of the left input, the right input and the combined row.
// The error is a real failure — a segment-backed input chunk that could not
// be loaded.
func buildVecJoin(lEnv, rEnv, combEnv *env, jt sqlparser.JoinType,
	leftKeys, rightKeys []sqlparser.Expr, residual sqlparser.Expr) (*vecJoin, error) {
	qc, eng := lEnv.qc, lEnv.qc.eng
	left, right := lEnv.rel, rEnv.rel
	vj := &vecJoin{qc: qc, eng: eng, jt: jt, leftW: left.width(), rightW: right.width()}

	lc := &vecCompiler{scope: lEnv}
	for _, k := range leftKeys {
		n := lc.lower(k)
		if n == nil {
			return nil, nil
		}
		vj.lKeyNodes = append(vj.lKeyNodes, n) //verdict:nocharge plan-size: one vnode per join key
	}
	vj.lNbuf = lc.nbuf
	rc := &vecCompiler{scope: rEnv}
	for _, k := range rightKeys {
		n := rc.lower(k)
		if n == nil {
			return nil, nil
		}
		vj.rKeyNodes = append(vj.rKeyNodes, n) //verdict:nocharge plan-size: one vnode per join key
	}
	vj.rNbuf = rc.nbuf

	// Row-compiled fallbacks for chunks whose kernels error.
	vj.lKeyFns, _ = compileExprs(lEnv, leftKeys)
	vj.rKeyFns, _ = compileExprs(rEnv, rightKeys)

	if residual != nil {
		cc := &vecCompiler{scope: combEnv}
		vj.resFull, vj.resConjs = cc.lowerWhere(residual)
		if vj.resFull == nil {
			return nil, nil
		}
		vj.resNbuf = cc.nbuf
		vj.resFn, _ = compileExpr(combEnv, residual)
	}

	var err error
	vj.probeChunks, err = relationChunks(qc, left)
	if err != nil {
		return nil, err
	}
	vj.buildChunks, err = relationChunks(qc, right)
	if err != nil {
		return nil, err
	}
	for _, ch := range vj.probeChunks {
		vj.nProbe += ch.n
	}
	vj.buildKinds = make([]ColType, vj.rightW)
	for j := range vj.buildKinds {
		kind := ColType(-1)
		//verdict:nopoll plan-time lane-type resolution: O(1) colKind read per chunk
		for _, ch := range vj.buildChunks {
			k := ch.colKind(j)
			if kind == -1 {
				kind = k
			} else if kind != k {
				kind = TAny
				break
			}
		}
		if kind == -1 {
			kind = TAny
		}
		vj.buildKinds[j] = kind
	}
	return vj, nil
}

// run executes the join: serial hash build, then morsel-parallel probe with
// output chunks concatenated in probe-chunk order. The result is the
// combined relation's columnar source.
func (vj *vecJoin) run() (*colSource, error) {
	if err := vj.buildHash(); err != nil {
		return nil, err
	}
	needMatched := vj.jt == sqlparser.RightJoin || vj.jt == sqlparser.FullJoin
	out, matched, err := parallelJoinProbe(vj, needMatched)
	if err != nil {
		return nil, err
	}
	if needMatched {
		tc, err := vj.trailingChunk(matched)
		if err != nil {
			return nil, err
		}
		if tc != nil {
			out = append(out, tc)
		}
	}
	n := 0
	slots := make([]chunkSlot, len(out)) //verdict:nocharge slot-pointer headers over join-output chunks charged during the probe
	for i, ch := range out {
		n += ch.n
		slots[i] = ch
	}
	return &colSource{sealed: slots, nrows: n}, nil
}

func (vj *vecJoin) insert(key []byte, ref int64) {
	b, ok := vj.buckets[string(key)]
	if !ok {
		b = &joinBucket{}
		vj.buckets[string(key)] = b //verdict:nocharge buildHash pre-charges bytesPerRef per build row before inserting the chunk
	}
	b.refs = append(b.refs, ref) //verdict:nocharge covered by buildHash's per-chunk charge
}

// buildHash scans the build side chunk-at-a-time, rendering key lanes from
// typed vectors; rows with a NULL key component never enter the table,
// matching the row path. A chunk whose key kernel errors is re-run through
// the row-compiled keys, so error identity matches a serial row scan.
func (vj *vecJoin) buildHash() error {
	vj.buckets = make(map[string]*joinBucket)
	vc := newVecCtx(vj.rNbuf, 0, 0, 0)
	keys := make([]*vec, len(vj.rKeyNodes))
	var kbuf []byte
	start := 0
	for ci, ch := range vj.buildChunks {
		if err := vj.qc.pollAbort(); err != nil {
			return err
		}
		if err := faultpoint.Hit(faultpoint.SiteEngineJoinBuild); err != nil {
			return err
		}
		// Build-side entries: one packed reference per non-NULL-key row,
		// plus bucket overhead folded into the flat per-row estimate.
		vj.qc.chargeMem(int64(ch.n) * bytesPerRef)
		vj.buildStart = append(vj.buildStart, start)
		kernelOK := true
		for i, kn := range vj.rKeyNodes {
			v, err := kn.eval(vc, ch, nil)
			if err != nil {
				kernelOK = false
				break
			}
			keys[i] = v
		}
		if !kernelOK {
			if err := vj.buildChunkRows(ch, ci); err != nil {
				return err
			}
			start += ch.n
			continue
		}
		for k := 0; k < ch.n; k++ {
			kbuf = kbuf[:0]
			null := false
			for _, kv := range keys {
				if kv.isNull(k) {
					null = true
					break
				}
				kbuf = appendGroupKeyLane(kbuf, kv, k)
				kbuf = append(kbuf, keySep)
			}
			if null {
				continue
			}
			vj.insert(kbuf, packRef(ci, k))
		}
		start += ch.n
	}
	vj.nBuild = start
	return nil
}

// buildChunkRows is the per-chunk row fallback for the hash build.
func (vj *vecJoin) buildChunkRows(ch *chunk, ci int) error {
	var kbuf []byte
	for ri, row := range ch.rows() {
		kbuf = kbuf[:0]
		null := false
		for _, fn := range vj.rKeyFns {
			v, err := fn(row)
			if err != nil {
				return err
			}
			if v == nil {
				null = true
				break
			}
			kbuf = appendGroupKey(kbuf, v)
			kbuf = append(kbuf, keySep)
		}
		if null {
			continue
		}
		vj.insert(kbuf, packRef(ci, ri))
	}
	return nil
}

func (vj *vecJoin) flat(ref int64) int {
	ci, ri := unpackRef(ref)
	return vj.buildStart[ci] + ri
}

// probeCtx is one probe worker's private state.
type probeCtx struct {
	kc      *vecCtx // key kernel buffers
	rc      *vecCtx // residual kernel buffers
	keys    []*vec
	kbuf    []byte
	matched []bool // build-side matched flags (RIGHT/FULL only)
}

func (vj *vecJoin) newProbeCtx(needMatched bool) *probeCtx {
	pc := &probeCtx{kc: newVecCtx(vj.lNbuf, 0, 0, 0), keys: make([]*vec, len(vj.lKeyNodes))}
	if vj.resFull != nil {
		pc.rc = newVecCtx(vj.resNbuf, 0, 0, 0)
	}
	if needMatched {
		pc.matched = make([]bool, vj.nBuild)
	}
	return pc
}

// probeChunk joins one probe chunk against the hash table, returning the
// join-output chunk (nil when no output rows). Pair order replicates the
// row path exactly: probe rows in order, matches within a probe row in
// build insertion order, LEFT/FULL null-extension in place.
func (vj *vecJoin) probeChunk(pc *probeCtx, ch *chunk) (*chunk, error) {
	for i, kn := range vj.lKeyNodes {
		v, err := kn.eval(pc.kc, ch, nil)
		if err != nil {
			return vj.probeChunkRows(pc, ch)
		}
		pc.keys[i] = v
	}

	// Candidate pairs from the hash probe, pre-sized for the common
	// at-most-one-match case.
	sel := make([]int32, 0, ch.n)
	refs := make([]int64, 0, ch.n)
	for k := 0; k < ch.n; k++ {
		pc.kbuf = pc.kbuf[:0]
		null := false
		for _, kv := range pc.keys {
			if kv.isNull(k) {
				null = true
				break
			}
			pc.kbuf = appendGroupKeyLane(pc.kbuf, kv, k)
			pc.kbuf = append(pc.kbuf, keySep)
		}
		if null {
			continue
		}
		if b, ok := vj.buckets[string(pc.kbuf)]; ok {
			for _, r := range b.refs {
				sel = append(sel, int32(k))
				refs = append(refs, r)
			}
		}
	}

	// Residual refinement over the candidate pairs, using the same vector
	// kernels a downstream WHERE would. When the residual keeps every pair,
	// the candidate chunk (with whatever columns the residual already
	// gathered) is reused as the output chunk.
	var cand *chunk
	if vj.resFull != nil && len(sel) > 0 {
		cand = vj.newJoinChunk(ch, sel, refs)
		rsel, all, err := evalFilter(pc.rc, cand, vj.resFull, vj.resConjs)
		if err != nil {
			return vj.probeChunkRows(pc, ch)
		}
		if !all {
			ns := make([]int32, len(rsel))
			nr := make([]int64, len(rsel))
			for i, x := range rsel {
				ns[i] = sel[x]
				nr[i] = refs[x]
			}
			sel, refs = ns, nr
			cand = nil
		}
	}

	// LEFT/FULL: null-extend probe rows with no surviving pair, in place.
	if vj.jt == sqlparser.LeftJoin || vj.jt == sqlparser.FullJoin {
		ns := make([]int32, 0, len(sel)+ch.n)
		nr := make([]int64, 0, len(refs)+ch.n)
		p := 0
		for k := 0; k < ch.n; k++ {
			had := false
			for p < len(sel) && sel[p] == int32(k) {
				ns = append(ns, sel[p])
				nr = append(nr, refs[p])
				p++
				had = true
			}
			if !had {
				ns = append(ns, int32(k))
				nr = append(nr, nullRef)
			}
		}
		if len(ns) != len(sel) {
			sel, refs = ns, nr
			cand = nil
		}
	}

	if pc.matched != nil {
		for _, r := range refs {
			if r >= 0 {
				pc.matched[vj.flat(r)] = true
			}
		}
	}

	if len(sel) == 0 {
		return nil, nil
	}
	if cand != nil {
		return cand, nil
	}
	return vj.newJoinChunk(ch, sel, refs), nil
}

// probeChunkRows is the per-chunk row fallback for the probe: the same
// per-row key render + bucket walk + residual loop as the row-path join,
// emitting references instead of combined rows.
func (vj *vecJoin) probeChunkRows(pc *probeCtx, ch *chunk) (*chunk, error) {
	var sel []int32
	var refs []int64
	var combinedBuf []Value
	if vj.resFn != nil {
		combinedBuf = make([]Value, vj.leftW+vj.rightW)
	}
	for k, lrow := range ch.rows() {
		pc.kbuf = pc.kbuf[:0]
		null := false
		for _, fn := range vj.lKeyFns {
			v, err := fn(lrow)
			if err != nil {
				return nil, err
			}
			if v == nil {
				null = true
				break
			}
			pc.kbuf = appendGroupKey(pc.kbuf, v)
			pc.kbuf = append(pc.kbuf, keySep)
		}
		matchedLeft := false
		if !null {
			if b, ok := vj.buckets[string(pc.kbuf)]; ok {
				for _, r := range b.refs {
					if vj.resFn != nil {
						ci, ri := unpackRef(r)
						copy(combinedBuf, lrow)
						copy(combinedBuf[vj.leftW:], vj.buildChunks[ci].rows()[ri])
						v, err := vj.resFn(combinedBuf)
						if err != nil {
							return nil, err
						}
						if ok2, isB := ToBool(v); !isB || !ok2 {
							continue
						}
					}
					matchedLeft = true
					sel = append(sel, int32(k))
					refs = append(refs, r)
				}
			}
		}
		if !matchedLeft && (vj.jt == sqlparser.LeftJoin || vj.jt == sqlparser.FullJoin) {
			sel = append(sel, int32(k))
			refs = append(refs, nullRef)
		}
	}
	if pc.matched != nil {
		for _, r := range refs {
			if r >= 0 {
				pc.matched[vj.flat(r)] = true
			}
		}
	}
	if len(sel) == 0 {
		return nil, nil
	}
	return vj.newJoinChunk(ch, sel, refs), nil
}

// trailingChunk emits the unmatched build rows of a RIGHT/FULL join after
// every probe morsel has merged its matched flags, in build order — the row
// path's order. NULL-key build rows never entered a bucket, so their flags
// never set: they null-extend here, as SQL requires.
func (vj *vecJoin) trailingChunk(matched []bool) (*chunk, error) {
	var refs []int64
	flat := 0
	for ci, ch := range vj.buildChunks {
		if err := vj.qc.pollAbort(); err != nil {
			return nil, err
		}
		for ri := 0; ri < ch.n; ri++ {
			if !matched[flat] {
				refs = append(refs, packRef(ci, ri))
			}
			flat++
		}
	}
	if len(refs) == 0 {
		return nil, nil
	}
	sel := make([]int32, len(refs))
	for i := range sel {
		sel[i] = -1
	}
	return vj.newJoinChunk(nil, sel, refs), nil
}

// newJoinChunk wraps a pair of row-reference vectors as a join-output
// chunk; columns gather lazily (joinGather) when kernels touch them.
func (vj *vecJoin) newJoinChunk(probe *chunk, sel []int32, refs []int64) *chunk {
	vj.qc.chargeMem(int64(len(sel)) * 2 * bytesPerRef)
	w := vj.leftW + vj.rightW
	return &chunk{
		cols: make([]colVec, w),
		n:    len(sel),
		gather: &joinGather{
			j: vj, probe: probe, probeSel: sel, refs: refs,
			filled: make([]bool, w),
		},
	}
}

// joinGather is the late-materialization state of one join-output chunk:
// per-row references into the probe chunk and the build chunks. fill copies
// one column into a typed vector on first touch; valueAt boxes single cells
// straight through the references (group representatives, fallback row
// views) without gathering whole columns.
type joinGather struct {
	j        *vecJoin
	probe    *chunk  // nil for the trailing unmatched-build chunk
	probeSel []int32 // probe row per output row; -1 = null-extended probe side
	refs     []int64 // packed build ref per output row; nullRef = null-extended build side

	mu     sync.Mutex
	filled []bool //verdict:guardedby mu
}

func (g *joinGather) fill(c *chunk, j int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.filled[j] {
		return
	}
	// A gathered column is one typed vector of c.n slots. fill has no error
	// path, so the charge surfaces at the caller's next poll.
	g.j.qc.chargeMem(int64(c.n) * bytesPerRef)
	if j < g.j.leftW {
		g.fillProbe(c, j)
	} else {
		g.fillBuild(c, j)
	}
	g.filled[j] = true
}

func gatherNull(cv *colVec, n, k int) {
	if cv.nulls == nil {
		cv.nulls = make([]bool, n)
	}
	cv.nulls[k] = true
}

// fillProbe gathers probe-side column j through probeSel. Sources may
// themselves be join-output chunks (multi-way joins); col() recurses.
func (g *joinGather) fillProbe(c *chunk, j int) {
	cv := &c.cols[j]
	n := c.n
	if g.probe == nil {
		cv.kind = TAny
		cv.anys = make([]Value, n)
		return
	}
	scv := g.probe.col(j)
	cv.kind = scv.kind
	switch scv.kind {
	case TInt:
		cv.ints = make([]int64, n)
		for k, i := range g.probeSel {
			if i < 0 || scv.isNull(int(i)) {
				gatherNull(cv, n, k)
				continue
			}
			cv.ints[k] = scv.intAt(int(i))
		}
	case TFloat:
		cv.floats = make([]float64, n)
		for k, i := range g.probeSel {
			if i < 0 || scv.isNull(int(i)) {
				gatherNull(cv, n, k)
				continue
			}
			cv.floats[k] = scv.floatAt(int(i))
		}
	case TString:
		if scv.enc == encDict {
			// Share the source dictionary and gather only codes: the
			// join-output column stays coded, so downstream group-by/filter
			// kernels keep their code-comparison fast paths.
			cv.enc = encDict
			cv.dict, cv.dictBoxed = scv.dict, scv.dictBoxed
			cv.codes = make([]uint32, n)
			for k, i := range g.probeSel {
				if i < 0 || scv.isNull(int(i)) {
					gatherNull(cv, n, k)
					continue
				}
				cv.codes[k] = scv.codes[i]
			}
			return
		}
		cv.strs = make([]string, n)
		for k, i := range g.probeSel {
			if i < 0 || scv.isNull(int(i)) {
				gatherNull(cv, n, k)
				continue
			}
			cv.strs[k] = scv.strAt(int(i))
		}
	case TBool:
		cv.bools = make([]bool, n)
		for k, i := range g.probeSel {
			if i < 0 || scv.isNull(int(i)) {
				gatherNull(cv, n, k)
				continue
			}
			cv.bools[k] = scv.boolAt(int(i))
		}
	default:
		cv.anys = make([]Value, n)
		for k, i := range g.probeSel {
			if i >= 0 {
				cv.anys[k] = scv.anys[i]
			}
		}
	}
}

// fillBuild gathers build-side column j (combined index) through the refs.
// The typed paths apply when every build chunk stores the column with one
// kind; disagreeing chunks (rare: schema-on-read mixes) gather boxed.
func (g *joinGather) fillBuild(c *chunk, j int) {
	cv := &c.cols[j]
	n := c.n
	bj := j - g.j.leftW
	chs := g.j.buildChunks
	srcs := make([]*colVec, len(chs))
	getCol := func(ci int) *colVec {
		if srcs[ci] == nil {
			srcs[ci] = chs[ci].col(bj)
		}
		return srcs[ci]
	}
	kind := g.j.buildKinds[bj]
	cv.kind = kind
	switch kind {
	case TInt:
		cv.ints = make([]int64, n)
		for k, r := range g.refs {
			if r < 0 {
				gatherNull(cv, n, k)
				continue
			}
			ci, ri := unpackRef(r)
			scv := getCol(ci)
			if scv.isNull(ri) {
				gatherNull(cv, n, k)
				continue
			}
			cv.ints[k] = scv.intAt(ri)
		}
	case TFloat:
		cv.floats = make([]float64, n)
		for k, r := range g.refs {
			if r < 0 {
				gatherNull(cv, n, k)
				continue
			}
			ci, ri := unpackRef(r)
			scv := getCol(ci)
			if scv.isNull(ri) {
				gatherNull(cv, n, k)
				continue
			}
			cv.floats[k] = scv.floatAt(ri)
		}
	case TString:
		// Build chunks can disagree on dictionaries (one per chunk), so the
		// build side always materializes strings.
		cv.strs = make([]string, n)
		for k, r := range g.refs {
			if r < 0 {
				gatherNull(cv, n, k)
				continue
			}
			ci, ri := unpackRef(r)
			scv := getCol(ci)
			if scv.isNull(ri) {
				gatherNull(cv, n, k)
				continue
			}
			cv.strs[k] = scv.strAt(ri)
		}
	case TBool:
		cv.bools = make([]bool, n)
		for k, r := range g.refs {
			if r < 0 {
				gatherNull(cv, n, k)
				continue
			}
			ci, ri := unpackRef(r)
			scv := getCol(ci)
			if scv.isNull(ri) {
				gatherNull(cv, n, k)
				continue
			}
			cv.bools[k] = scv.boolAt(ri)
		}
	default:
		cv.kind = TAny
		cv.anys = make([]Value, n)
		for k, r := range g.refs {
			if r >= 0 {
				ci, ri := unpackRef(r)
				cv.anys[k] = chs[ci].valueAt(bj, ri)
			}
		}
	}
}

// kindOf reports a column's storage kind without gathering it.
func (g *joinGather) kindOf(j int) ColType {
	if j < g.j.leftW {
		if g.probe == nil {
			return TAny
		}
		return g.probe.colKind(j)
	}
	return g.j.buildKinds[j-g.j.leftW]
}

// valueAt boxes one cell through the references.
func (g *joinGather) valueAt(j, i int) Value {
	if j < g.j.leftW {
		si := g.probeSel[i]
		if si < 0 {
			return nil
		}
		return g.probe.valueAt(j, int(si))
	}
	r := g.refs[i]
	if r < 0 {
		return nil
	}
	ci, ri := unpackRef(r)
	return g.j.buildChunks[ci].valueAt(j-g.j.leftW, ri)
}
