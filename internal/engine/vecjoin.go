package engine

import (
	"bytes"
	"fmt"
	"hash/maphash"
	"math"
	"sync/atomic"

	"verdictdb/internal/faultpoint"
	"verdictdb/internal/sqlparser"
)

// Vectorized hash join with late materialization.
//
// Which side is hashed: the input with fewer rows (ties hash the right one)
// goes into one joinTable; the other is scanned chunk-at-a-time as morsels
// (scanMorsels, parallel.go). A rewritten sample ⋈ base join therefore builds
// in O(sample), not O(base).
//
// Why output order does not depend on that choice: the contract is the row
// path's — left rows in order, each left row's matches in right scan order,
// LEFT/FULL null-extension in place, RIGHT/FULL unmatched right rows trailing
// in right order — and a chain in the table holds the hashed rows of one key
// in scan order. Hashed right: each left chunk is looked up and walks its
// chains. Hashed left: the right chunks are looked up in scan order, each
// match is recorded as a (left row, right reference) pair, and a stable
// counting sort by left row regroups the pairs per left chunk. Either way a
// left chunk gets one candidate list (sel, refs) and finish turns it into the
// join-output chunk: residual refinement with the kernels a WHERE would use,
// null-extension, matched flags. That chunk holds only the two reference
// vectors; downstream kernels read columns through joinGather, which copies a
// column into a typed vector when a kernel first touches it, so boxed rows
// appear only at the ResultSet boundary.
//
// Key classes: key equality is GroupKey equality (1 = 1.0, -0 = 0, NULL
// matches nothing). A lane of a single-key join whose encoding is the integer
// form — a TInt, or a float integralFloat folds — is hashed as that int64;
// every other lane (strings, bools, non-integral floats, composite keys) as
// its appendGroupKeyLane bytes, kept in one arena. The two classes can never
// equal each other, so each lane lives in exactly one of the table's two slot
// arrays: the class is a property of the data, not a mode of the join.
//
// Fallbacks: joins that do not lower — impure ON, subqueries in ON, no
// equi-key — keep the row join in joinRelations, the reference. So does a join
// whose key or residual kernel errors: run gives up with errKernel and
// joinRelations joins the same inputs row by row, so the error that surfaces —
// right keys first, then per left row its key and its pairs' residuals — is the
// row join's own rather than an imitation of its order.

// nullRef marks a null-extended side in a join-output row reference.
const nullRef = int64(-1)

// packRef encodes a right-side row as chunk index << 32 | row index.
func packRef(ci, ri int) int64 { return int64(ci)<<32 | int64(ri) }

func unpackRef(r int64) (ci, ri int) { return int(r >> 32), int(uint32(r)) }

// joinSlot heads one chain of hashed rows with equal keys. Rows are numbered
// from 1 in scan order, so the zero slot is empty and 0 ends a chain.
type joinSlot struct {
	key        int64 // the integer key, or the hash of the key's encoded bytes
	head, tail int32
}

// joinTable is the join's hash table: open-addressed slots at load <= 1/2,
// sized once for every hashed row, and one next link per hashed row. It
// holds no pointers, allocates nothing per key, and never rehashes. The slot
// arrays are allocated when their key class first appears.
type joinTable struct {
	qc     *queryCtx
	single bool // one key expression: integer-form lanes hash as int64
	shift  uint
	mask   uint64
	next   []int32 // per hashed row: the next row of its chain

	intSlots  []joinSlot
	byteSlots []joinSlot
	spans     [][2]uint32 // per byteSlots slot: its key's [start, end) in arena
	arena     []byte
}

const (
	keyNull = iota
	keyInt
	keyBytes
)

var joinSeed = maphash.MakeSeed()

func (t *joinTable) init(qc *queryCtx, rows int, single bool) error {
	if rows >= math.MaxInt32 {
		return fmt.Errorf("engine: join input of %d rows is too large to hash", rows)
	}
	bits := uint(3)
	for 1<<bits < 2*rows {
		bits++
	}
	*t = joinTable{qc: qc, single: single, shift: 64 - bits, mask: 1<<bits - 1}
	if err := qc.reserve(int64(rows) * 4); err != nil {
		return err
	}
	t.next = make([]int32, rows)
	return nil
}

// laneKey classifies lane k of a key tuple: keyInt with the integer, keyBytes
// with the hash of the encoding left in kbuf, or keyNull when a component is
// NULL.
func (t *joinTable) laneKey(keys []*vec, k int, kbuf []byte) (int, int64, []byte) {
	if t.single {
		kv := keys[0]
		if kv.isNull(k) {
			return keyNull, 0, kbuf
		}
		switch kv.kind {
		case TInt:
			return keyInt, kv.ints[k], kbuf
		case TFloat:
			if x, ok := integralFloat(kv.floats[k]); ok {
				return keyInt, x, kbuf
			}
		case TAny:
			switch v := kv.anys[k].(type) {
			case int64:
				return keyInt, v, kbuf
			case float64:
				if x, ok := integralFloat(v); ok {
					return keyInt, x, kbuf
				}
			}
		}
	}
	kbuf = kbuf[:0]
	for _, kv := range keys {
		if kv.isNull(k) {
			return keyNull, 0, kbuf
		}
		kbuf = appendGroupKeyLane(kbuf, kv, k)
		kbuf = append(kbuf, keySep)
	}
	return keyBytes, int64(maphash.Bytes(joinSeed, kbuf)), kbuf
}

// intSlot returns the slot holding key x, or the empty slot it would take.
func (t *joinTable) intSlot(x int64) *joinSlot {
	for i := uint64(x) * 0x9E3779B97F4A7C15 >> t.shift; ; i = (i + 1) & t.mask {
		if s := &t.intSlots[i]; s.head == 0 || s.key == x {
			return s
		}
	}
}

// bytesSlot is intSlot for an encoded key with hash h.
func (t *joinTable) bytesSlot(h int64, key []byte) (*joinSlot, uint64) {
	for i := uint64(h) >> t.shift; ; i = (i + 1) & t.mask {
		s := &t.byteSlots[i]
		if s.head == 0 {
			return s, i
		}
		if sp := t.spans[i]; s.key == h && bytes.Equal(t.arena[sp[0]:sp[1]], key) {
			return s, i
		}
	}
}

// insert appends one chunk's rows — lanes [0, n) of keys, numbered from base
// — to their keys' chains. Rows with a NULL key component never enter.
func (t *joinTable) insert(keys []*vec, n, base int, kbuf []byte) ([]byte, error) {
	arena0 := cap(t.arena)
	for k := 0; k < n; k++ {
		class, x, kb := t.laneKey(keys, k, kbuf)
		kbuf = kb
		var s *joinSlot
		switch class {
		case keyNull:
			continue
		case keyInt:
			if t.intSlots == nil {
				if err := t.qc.reserve(int64(t.mask+1) * joinSlotBytes); err != nil {
					return kbuf, err
				}
				t.intSlots = make([]joinSlot, t.mask+1)
			}
			s = t.intSlot(x)
		case keyBytes:
			if t.byteSlots == nil {
				if err := t.qc.reserve(int64(t.mask+1) * (joinSlotBytes + joinSpanBytes)); err != nil {
					return kbuf, err
				}
				t.byteSlots = make([]joinSlot, t.mask+1)
				t.spans = make([][2]uint32, t.mask+1)
			}
			var i uint64
			if s, i = t.bytesSlot(x, kbuf); s.head == 0 {
				if len(t.arena)+len(kbuf) > math.MaxUint32 {
					return kbuf, fmt.Errorf("engine: join keys exceed %d bytes", uint32(math.MaxUint32))
				}
				t.spans[i] = [2]uint32{uint32(len(t.arena)), uint32(len(t.arena) + len(kbuf))}
				t.arena = append(t.arena, kbuf...)
			}
		}
		row := int32(base+k) + 1
		if s.head == 0 {
			s.key, s.head = x, row
		} else {
			t.next[s.tail-1] = row
		}
		s.tail = row
	}
	t.qc.chargeMem(int64(cap(t.arena) - arena0))
	return kbuf, nil
}

// lookup sets heads[k], for lanes [0, n) of keys, to the first hashed row
// with an equal key, or 0.
func (t *joinTable) lookup(keys []*vec, n int, heads []int32, kbuf []byte) []byte {
	for k := 0; k < n; k++ {
		class, x, kb := t.laneKey(keys, k, kbuf)
		kbuf = kb
		heads[k] = 0
		switch {
		case class == keyInt && t.intSlots != nil:
			heads[k] = t.intSlot(x).head
		case class == keyBytes && t.byteSlots != nil:
			s, _ := t.bytesSlot(x, kbuf)
			heads[k] = s.head
		}
	}
	return kbuf
}

// sideKeys is one input's join-key expressions, lowered to vector kernels.
type sideKeys struct {
	nodes []vnode
	nbuf  int
}

// lowerSideKeys lowers one input's key expressions, or reports false when
// one of them needs the row path.
func lowerSideKeys(scope *env, exprs []sqlparser.Expr) (sideKeys, bool) {
	c := &vecCompiler{scope: scope}
	sk := sideKeys{nodes: make([]vnode, len(exprs))}
	for i, e := range exprs {
		if sk.nodes[i] = c.lower(e); sk.nodes[i] == nil {
			return sk, false
		}
	}
	sk.nbuf = c.nbuf
	return sk, true
}

// vecJoin is one lowered hash join: chunked inputs and vector kernels for the
// key and residual expressions.
type vecJoin struct {
	gatherSrc // the right input: what the output chunks' references index
	jt        sqlparser.JoinType
	rightW    int

	leftChunks []*chunk
	nLeft      int
	nRight     int
	leftStart  []int // flat row offset of each chunk, plus the total
	rightStart []int

	lKeys sideKeys
	rKeys sideKeys

	resFull  vnode   // nil when the join has no residual
	resConjs []vnode // top-level AND conjuncts of the residual
	resNbuf  int

	hashLeft bool
	table    joinTable
	// Hashed right: the packed reference of each right row, by flat row.
	rightRefs []int64
	// Hashed left: every candidate pair regrouped left-major; left chunk ci
	// owns [candEnd[ci], candEnd[ci+1]).
	candSel  []int32
	candRefs []int64
	candEnd  []int
}

// chunkStarts returns each chunk's flat row offset followed by the total.
func chunkStarts(chunks []*chunk) []int {
	starts := make([]int, len(chunks)+1)
	//verdict:nopoll plan-time prefix sum: O(1) per chunk
	for i, ch := range chunks {
		starts[i+1] = starts[i] + ch.n
	}
	return starts
}

// buildVecJoin lowers an equi-join for the vectorized path, or returns nil
// when anything about it (impure keys or residual) needs the row path. The
// scopes are those of the left input, the right input and the combined row.
// The error is a real failure — a segment-backed input chunk that could not
// be loaded.
func buildVecJoin(lEnv, rEnv, combEnv *env, jt sqlparser.JoinType,
	leftKeys, rightKeys []sqlparser.Expr, residual sqlparser.Expr) (*vecJoin, error) {
	qc, left, right := lEnv.qc, lEnv.rel, rEnv.rel
	vj := &vecJoin{gatherSrc: gatherSrc{qc: qc, leftW: left.width()}, jt: jt, rightW: right.width()}

	var ok bool
	if vj.lKeys, ok = lowerSideKeys(lEnv, leftKeys); !ok {
		return nil, nil
	}
	if vj.rKeys, ok = lowerSideKeys(rEnv, rightKeys); !ok {
		return nil, nil
	}
	if residual != nil {
		cc := &vecCompiler{scope: combEnv}
		vj.resFull, vj.resConjs = cc.lowerWhere(residual)
		if vj.resFull == nil {
			return nil, nil
		}
		vj.resNbuf = cc.nbuf
	}

	// Both inputs resident, whatever produced them: a snapshot's slots
	// resolved (segment-backed ones loaded), a join's output chunks, or the
	// chunks a row source builds over its rows.
	var err error
	if vj.leftChunks, err = left.src.resolveAll(qc); err != nil {
		return nil, err
	}
	if vj.buildChunks, err = right.src.resolveAll(qc); err != nil {
		return nil, err
	}
	vj.leftStart, vj.rightStart = chunkStarts(vj.leftChunks), chunkStarts(vj.buildChunks)
	vj.nLeft, vj.nRight = vj.leftStart[len(vj.leftChunks)], vj.rightStart[len(vj.buildChunks)]
	vj.buildKinds = chunkKinds(vj.buildChunks, vj.rightW)
	return vj, nil
}

// run executes the join: serial hash build of the smaller input, candidate
// generation, and the per-left-chunk finish, with output chunks in left
// chunk order. The result is the combined relation's columnar source.
func (vj *vecJoin) run() (*colSource, error) {
	vj.hashLeft = vj.nLeft < vj.nRight
	err := vj.build()
	if err == nil && vj.hashLeft {
		err = vj.scanRight()
	}
	if err != nil {
		return nil, err
	}
	needMatched := vj.jt == sqlparser.RightJoin || vj.jt == sqlparser.FullJoin
	var scanned *sideKeys // the left keys are looked up only when the right side is hashed
	if !vj.hashLeft {
		scanned = &vj.lKeys
	}
	ws, err := scanMorsels(vj.qc, vj.leftChunks, vj.nLeft, func() *joinWorker {
		w := newJoinWorker(scanned)
		if vj.resFull != nil {
			w.rc = newVecCtx(vj.resNbuf, 0, 0, 0)
		}
		if needMatched {
			w.matched = make([]bool, vj.nRight)
		}
		return w
	}, vj.joinLeftChunk)
	if err != nil {
		return nil, err
	}
	var out []*chunk
	for _, w := range ws {
		out = append(out, w.out...)
	}
	if needMatched {
		matched := ws[0].matched
		for _, w := range ws[1:] {
			for i, m := range w.matched {
				if m {
					matched[i] = true
				}
			}
		}
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

// build hashes the chosen input chunk-at-a-time.
func (vj *vecJoin) build() error {
	chunks, sk, starts := vj.buildChunks, &vj.rKeys, vj.rightStart
	if vj.hashLeft {
		chunks, sk, starts = vj.leftChunks, &vj.lKeys, vj.leftStart
	}
	if err := vj.table.init(vj.qc, starts[len(chunks)], len(sk.nodes) == 1); err != nil {
		return err
	}
	if !vj.hashLeft {
		if err := vj.qc.reserve(int64(vj.nRight) * 8); err != nil {
			return err
		}
		vj.rightRefs = make([]int64, vj.nRight)
	}
	vc := newVecCtx(sk.nbuf, 0, 0, 0)
	keys := make([]*vec, len(sk.nodes))
	var kbuf []byte
	for ci, ch := range chunks {
		if err := vj.qc.pollAbort(); err != nil {
			return err
		}
		if err := faultpoint.Hit(faultpoint.SiteEngineJoinBuild); err != nil {
			return err
		}
		err := evalNodes(vc, ch, nil, sk.nodes, keys)
		if err != nil {
			return err
		}
		if kbuf, err = vj.table.insert(keys, ch.n, starts[ci], kbuf); err != nil {
			return err
		}
		if !vj.hashLeft {
			for ri := 0; ri < ch.n; ri++ {
				vj.rightRefs[starts[ci]+ri] = packRef(ci, ri)
			}
		}
	}
	return nil
}

func (vj *vecJoin) flat(ref int64) int {
	ci, ri := unpackRef(ref)
	return vj.rightStart[ci] + ri
}

// joinWorker is one morsel worker's private state, for the hashed-left scan
// of the right chunks or for the pass over the left chunks.
type joinWorker struct {
	// Key lookup over the scanned side.
	kc    *vecCtx
	keys  []*vec
	kbuf  []byte
	heads []int32

	// Hashed-left scan output: candidate pairs in right scan order.
	lrows []int32
	rrefs []int64

	// Left pass.
	rc      *vecCtx // residual kernel buffers
	matched []bool  // right-side matched flags (RIGHT/FULL only)
	out     []*chunk
}

// newJoinWorker returns a worker that looks sk's keys up in the table (nil:
// it never does).
func newJoinWorker(sk *sideKeys) *joinWorker {
	w := &joinWorker{}
	if sk != nil {
		w.kc = newVecCtx(sk.nbuf, 0, 0, 0)
		w.keys = make([]*vec, len(sk.nodes))
	}
	return w
}

// lookupChunk evaluates the scanned side's keys over ch and resolves them
// against the table into w.heads.
func (w *joinWorker) lookupChunk(vj *vecJoin, sk *sideKeys, ch *chunk) error {
	if err := evalNodes(w.kc, ch, nil, sk.nodes, w.keys); err != nil {
		return err
	}
	if cap(w.heads) < ch.n {
		w.heads = make([]int32, ch.n)
	}
	w.kbuf = vj.table.lookup(w.keys, ch.n, w.heads[:ch.n], w.kbuf)
	return nil
}

// scanRight is hashed-left candidate generation: morsels of right chunks
// look their keys up in the table of left rows and record every match, then
// a stable counting sort by left row regroups the pairs per left chunk. Pairs
// are recorded in right scan order and the sort is stable, so each left row's
// matches stay in right scan order.
func (vj *vecJoin) scanRight() error {
	next := vj.table.next
	ws, err := scanMorsels(vj.qc, vj.buildChunks, vj.nRight, func() *joinWorker {
		return newJoinWorker(&vj.rKeys)
	}, func(w *joinWorker, ci int, ch *chunk) error {
		if err := faultpoint.Hit(faultpoint.SiteEngineJoinProbe); err != nil {
			return err
		}
		if err := w.lookupChunk(vj, &vj.rKeys, ch); err != nil {
			return err
		}
		cap0 := cap(w.lrows)
		for k := 0; k < ch.n; k++ {
			for r := w.heads[k]; r != 0; r = next[r-1] {
				w.lrows = append(w.lrows, r-1)
				w.rrefs = append(w.rrefs, packRef(ci, k))
			}
		}
		vj.qc.chargeMem(int64(cap(w.lrows)-cap0) * joinPairBytes)
		return nil
	})
	if err != nil {
		return err
	}

	total := 0
	for _, w := range ws {
		total += len(w.lrows)
	}
	if err := vj.qc.reserve(int64(vj.nLeft+1)*8 + int64(total)*joinPairBytes); err != nil {
		return err
	}
	// ends[l+1] counts row l's pairs, then becomes its first output
	// position; the scatter advances it to the end of row l's pairs, which
	// is where row l+1's begin.
	ends := make([]int, vj.nLeft+1)
	vj.candSel, vj.candRefs = make([]int32, total), make([]int64, total)
	for _, w := range ws {
		if err := vj.qc.pollAbort(); err != nil {
			return err
		}
		for _, l := range w.lrows {
			ends[l+1]++
		}
	}
	for l := 1; l <= vj.nLeft; l++ {
		ends[l] += ends[l-1]
	}
	for _, w := range ws {
		if err := vj.qc.pollAbort(); err != nil {
			return err
		}
		for i, l := range w.lrows {
			vj.candRefs[ends[l]] = w.rrefs[i]
			ends[l]++
		}
	}
	vj.candEnd = make([]int, len(vj.leftChunks)+1)
	for ci, ch := range vj.leftChunks {
		if err := vj.qc.pollAbort(); err != nil {
			return err
		}
		lo := vj.leftStart[ci]
		pos := vj.candEnd[ci]
		for k := 0; k < ch.n; k++ {
			for ; pos < ends[lo+k]; pos++ {
				vj.candSel[pos] = int32(k)
			}
		}
		vj.candEnd[ci+1] = pos
	}
	return nil
}

// joinLeftChunk produces one left chunk's join output: its candidate pairs
// (looked up now when the right side is hashed, regrouped by scanRight
// otherwise), then finish.
func (vj *vecJoin) joinLeftChunk(w *joinWorker, ci int, ch *chunk) error {
	var sel []int32
	var refs []int64
	if vj.hashLeft {
		sel = vj.candSel[vj.candEnd[ci]:vj.candEnd[ci+1]]
		refs = vj.candRefs[vj.candEnd[ci]:vj.candEnd[ci+1]]
	} else {
		if err := faultpoint.Hit(faultpoint.SiteEngineJoinProbe); err != nil {
			return err
		}
		if err := w.lookupChunk(vj, &vj.lKeys, ch); err != nil {
			return err
		}
		// Pre-sized for the common at-most-one-match case.
		sel = make([]int32, 0, ch.n)
		refs = make([]int64, 0, ch.n)
		next := vj.table.next
		for k := 0; k < ch.n; k++ {
			for r := w.heads[k]; r != 0; r = next[r-1] {
				sel = append(sel, int32(k))
				refs = append(refs, vj.rightRefs[r-1])
			}
		}
	}
	oc, err := vj.finish(w, ch, sel, refs)
	if err != nil {
		return err
	}
	if oc != nil {
		w.out = append(w.out, oc)
	}
	return nil
}

// finish turns one left chunk's candidate pairs — left rows in order, each
// row's matches in right scan order — into its join-output chunk (nil when
// it has no rows): residual refinement, LEFT/FULL null-extension in place,
// RIGHT/FULL matched flags.
func (vj *vecJoin) finish(w *joinWorker, ch *chunk, sel []int32, refs []int64) (*chunk, error) {
	// When the residual keeps every pair, the candidate chunk (with whatever
	// columns the residual already gathered) is reused as the output chunk.
	var cand *chunk
	if vj.resFull != nil && len(sel) > 0 {
		cand = vj.newJoinChunk(ch, sel, refs)
		rsel, all, err := evalFilter(w.rc, cand, vj.resFull, vj.resConjs)
		if err != nil {
			return nil, errKernel
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

	// LEFT/FULL: null-extend left rows with no surviving pair, in place.
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

	if w.matched != nil {
		for _, r := range refs {
			if r >= 0 {
				w.matched[vj.flat(r)] = true
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
	return vj.refChunk(probe, sel, refs)
}

// gatherSrc is what the row references of late-materialized chunks point
// into: the build chunks, whose columns follow leftW probe-side columns in the
// chunk's row. A join's output chunks share the one inside their vecJoin; the
// surviving rows of a pre-filtered join input (filterLeaf, zonemap.go) are
// chunks with no probe side over the input's own chunks.
type gatherSrc struct {
	qc          *queryCtx
	leftW       int
	buildChunks []*chunk
	// buildKinds is chunkKinds of buildChunks, so gathers pick their typed
	// path once per source instead of per chunk.
	buildKinds []ColType
}

// chunkKinds returns, per column, the storage kind every chunk shares: TAny
// when chunks disagree (or there are none).
func chunkKinds(chunks []*chunk, w int) []ColType {
	kinds := make([]ColType, w)
	for j := range kinds {
		kind := ColType(-1)
		//verdict:nopoll plan-time lane-type resolution: O(1) colKind read per chunk
		for _, ch := range chunks {
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
		kinds[j] = kind
	}
	return kinds
}

// refChunk wraps row references into s as a chunk: sel picks each row's probe
// row (unread when the source has no probe columns), refs its build row.
func (s *gatherSrc) refChunk(probe *chunk, sel []int32, refs []int64) *chunk {
	w := s.leftW + len(s.buildKinds)
	return &chunk{
		cols:   make([]colVec, w),
		n:      len(refs),
		lazy:   &joinGather{j: s, probe: probe, probeSel: sel, refs: refs},
		filled: make([]atomic.Bool, w),
	}
}

// joinGather is the late-materialization filler of one join-output chunk:
// per-row references into the probe chunk and the build chunks. fillCol copies
// one column into a typed vector on first touch; cellAt boxes single cells
// straight through the references (group representatives, the row closures'
// lanes) without gathering whole columns.
type joinGather struct {
	j        *gatherSrc
	probe    *chunk  // nil for the trailing unmatched-build chunk
	probeSel []int32 // probe row per output row; -1 = null-extended probe side
	refs     []int64 // packed build ref per output row; nullRef = null-extended build side
}

func (g *joinGather) fillCol(c *chunk, j int) {
	// A gathered column is one typed vector of c.n slots.
	g.j.qc.chargeMem(int64(c.n) * bytesPerRef)
	if j < g.j.leftW {
		g.fillProbe(c, j)
	} else {
		g.fillBuild(c, j)
	}
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
	// One resolved source column per build chunk the references touch. The
	// rows of a filtered join input reference a short run of chunks; a join's
	// matches can reference all of them.
	lo, hi := len(chs), 0
	for _, r := range g.refs {
		if r >= 0 {
			ci, _ := unpackRef(r)
			lo, hi = min(lo, ci), max(hi, ci+1)
		}
	}
	srcs := make([]*colVec, max(hi-lo, 0))
	getCol := func(ci int) *colVec {
		if srcs[ci-lo] == nil {
			srcs[ci-lo] = chs[ci].col(bj)
		}
		return srcs[ci-lo]
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
func (g *joinGather) kindOf(_ *chunk, j int) ColType {
	if j < g.j.leftW {
		if g.probe == nil {
			return TAny
		}
		return g.probe.colKind(j)
	}
	return g.j.buildKinds[j-g.j.leftW]
}

// cellAt boxes one cell through the references.
func (g *joinGather) cellAt(_ *chunk, j, i int) Value {
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
