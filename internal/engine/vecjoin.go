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

// Vectorized hash join with late materialization, streamed on its probe side.
//
// Which side is hashed: the input with fewer rows (ties hash the right one)
// goes into one joinTable; the other is scanned chunk-at-a-time. A rewritten
// sample ⋈ base join therefore builds in O(sample), not O(base).
//
// What the join holds: the hashed input, and of the right input the chunks its
// output can reference. Its output is a sequence of probe slots (probeSlot), a
// chunkSlot that makes its chunk when it is loaded: a scan over the join —
// an aggregation, a projection, the left pass of a join above — loads one per
// worker into buffers the worker reuses (probeBuf), so a chain of joins is a
// pipeline, leaf chunk → probe → probe → consumer, that holds O(hashed sides
// + workers × one chunk) whatever the output's size, and a LIMIT stops
// pulling. A consumer that needs the whole output resident (a join hashing it,
// the row join) calls resolveAll, which loads every slot and keeps the chunks:
// the same code, kept instead of reused.
//
// Why output order does not depend on the hashed side: the contract is the row
// path's — left rows in order, each left row's matches in right scan order,
// LEFT/FULL null-extension in place, RIGHT/FULL unmatched right rows trailing
// in right order — and a chain in the table holds the hashed rows of one key
// in scan order. Hashed right: each left chunk is looked up and walks its
// chains. Hashed left: the right chunks are looked up in scan order, each
// match is recorded as a (left row, right reference) pair, and a stable
// counting sort by left row regroups the pairs; a probe slot is a range of
// them. Either way a slot has one candidate list (sel, refs) and finish turns
// it into the join-output chunk: residual refinement with the kernels a WHERE
// would use, null-extension. That chunk holds only the two reference vectors;
// downstream kernels read columns through joinGather, which copies a column
// into a colVec when a kernel first touches it — raw lanes, or a probe-side
// dictionary column's codes — with the same gathers a kernel's column leaf (vnCol) uses, so
// boxed rows appear only at the ResultSet boundary.
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
// row join's own rather than an imitation of its order. That is why a join
// whose probe could fail does not stream (run).

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
	dup    bool    // some chain holds more than one row

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
func (t *joinTable) laneKey(keys []*colVec, k int, kbuf []byte) (int, int64, []byte) {
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
func (t *joinTable) insert(keys []*colVec, n, base int, kbuf []byte) ([]byte, error) {
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
			t.dup = true
		}
		s.tail = row
	}
	t.qc.chargeMem(int64(cap(t.arena) - arena0))
	return kbuf, nil
}

// lookup sets heads[k], for lanes [0, n) of keys, to the first hashed row
// with an equal key, or 0.
func (t *joinTable) lookup(keys []*colVec, n int, heads []int32, kbuf []byte) []byte {
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

// vecJoin is one lowered hash join: the two inputs' chunk sources and vector
// kernels for the key and residual expressions.
type vecJoin struct {
	gatherSrc // the right input: what the output chunks' references index
	jt        sqlparser.JoinType
	rightW    int

	left, right *colSource

	lKeys sideKeys
	rKeys sideKeys

	resFull  vnode   // nil when the join has no residual
	resConjs []vnode // top-level AND conjuncts of the residual
	resNbuf  int

	// safeKeys and safeRes: the left keys and the residual are of
	// pushablePred's class, which no row can make return an error. Only then
	// may a probe be left to the consumer (run).
	safeKeys, safeRes bool

	hashLeft   bool
	table      joinTable
	rightStart []int // flat row offset of each right chunk, plus the total
	// Hashed right: the packed reference of each right row, by flat row.
	rightRefs []int64
	// Hashed left: every candidate pair regrouped left-major; a probe slot owns
	// a range of them.
	candSel  []int32
	candRefs []int64
}

// chunkStarts returns each chunk's flat row offset followed by the total.
func chunkStarts[S chunkSlot](chunks []S) []int {
	starts := make([]int, len(chunks)+1)
	//verdict:nopoll plan-time prefix sum: O(1) per chunk
	for i, ch := range chunks {
		starts[i+1] = starts[i] + ch.slotRows()
	}
	return starts
}

// buildVecJoin lowers an equi-join for the vectorized path, or returns nil
// when anything about it (impure keys or residual) needs the row path. The
// scopes are those of the left input, the right input and the combined row.
// Nothing is read yet: run loads what it hashes.
func buildVecJoin(lEnv, rEnv, combEnv *env, jt sqlparser.JoinType,
	leftKeys, rightKeys []sqlparser.Expr, residual sqlparser.Expr) *vecJoin {
	left, right := lEnv.rel, rEnv.rel
	vj := &vecJoin{gatherSrc: gatherSrc{qc: lEnv.qc, leftW: left.width()}, jt: jt, rightW: right.width(),
		left: left.src, right: right.src, safeKeys: true, safeRes: true}

	var ok bool
	if vj.lKeys, ok = lowerSideKeys(lEnv, leftKeys); !ok {
		return nil
	}
	if vj.rKeys, ok = lowerSideKeys(rEnv, rightKeys); !ok {
		return nil
	}
	for _, k := range leftKeys {
		vj.safeKeys = vj.safeKeys && pushableOperand(k)
	}
	if residual != nil {
		cc := &vecCompiler{scope: combEnv}
		vj.resFull, vj.resConjs = cc.lowerWhere(residual)
		if vj.resFull == nil {
			return nil
		}
		vj.resNbuf = cc.nbuf
		vj.safeRes = pushablePred(residual)
	}
	return vj
}

// run executes the join as far as it must be executed now — the hash build
// of the smaller input (by the sources' row counts, which are estimates for a
// streamed join's output; either choice gives the same rows in the same
// order) and, hashed left, the scan of the right one — and returns the
// combined relation's source: one probe slot per piece of the left input,
// each producing its join-output chunk when a consumer pulls it. A consumer
// that scans holds one such chunk per worker; one that needs the whole output
// calls resolveAll.
//
// Two joins resolve their own output here instead. One whose left keys (when
// they are looked up) or residual could fail: a kernel error must end the join
// with errKernel before any consumer starts, so the row join reports it. And
// RIGHT/FULL: the unmatched right rows trail every left row's output.
func (vj *vecJoin) run() (*colSource, error) {
	vj.hashLeft = vj.left.nrows < vj.right.nrows
	trailing := vj.jt == sqlparser.RightJoin || vj.jt == sqlparser.FullJoin
	var slots []chunkSlot
	var err error
	if vj.hashLeft {
		slots, err = vj.hashedLeft(trailing)
	} else {
		slots, err = vj.hashedRight()
	}
	if err != nil {
		return nil, err
	}
	src := &colSource{sealed: slots, probes: true}
	//verdict:nopoll plan-time row estimate: O(1) per slot
	for _, sl := range slots {
		src.nrows += sl.slotRows()
	}
	if !trailing && vj.safeRes && (vj.hashLeft || vj.safeKeys) {
		return src, nil
	}
	out, err := src.resolveAll(vj.qc)
	if err != nil {
		return nil, err
	}
	if trailing {
		tc, err := vj.trailingChunk(out)
		if err != nil {
			return nil, err
		}
		if tc != nil {
			src.hold(append(out, tc))
		}
	}
	return src, nil
}

// hashedRight hashes the right input and returns one probe slot per slot of
// the left one, which is not read here.
func (vj *vecJoin) hashedRight() ([]chunkSlot, error) {
	qc := vj.qc
	var err error
	if vj.buildChunks, err = vj.right.resolveAll(qc); err != nil {
		return nil, err
	}
	vj.buildKinds = chunkKinds(vj.buildChunks, vj.rightW)
	vj.rightStart = chunkStarts(vj.buildChunks)
	if err := vj.build(vj.buildChunks, &vj.rKeys, vj.rightStart); err != nil {
		return nil, err
	}
	nRight := vj.rightStart[len(vj.buildChunks)]
	if err := qc.reserve(int64(nRight) * 8); err != nil {
		return nil, err
	}
	vj.rightRefs = make([]int64, nRight)
	for ci, ch := range vj.buildChunks {
		if err := qc.pollAbort(); err != nil {
			return nil, err
		}
		for ri := 0; ri < ch.n; ri++ {
			vj.rightRefs[vj.rightStart[ci]+ri] = packRef(ci, ri)
		}
	}
	lslots := vj.left.scanSlots(qc)
	ps := make([]probeSlot, len(lslots))
	slots := make([]chunkSlot, len(lslots))
	for i, sl := range lslots {
		ps[i] = probeSlot{vj: vj, left: sl}
		slots[i] = &ps[i]
	}
	return slots, nil
}

// build hashes chunks, the smaller input, chunk-at-a-time.
func (vj *vecJoin) build(chunks []*chunk, sk *sideKeys, starts []int) error {
	if err := vj.table.init(vj.qc, starts[len(chunks)], len(sk.nodes) == 1); err != nil {
		return err
	}
	vc := newVecCtx(sk.nbuf, 0, 0, 0)
	keys := make([]*colVec, len(sk.nodes))
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
	}
	return nil
}

func (vj *vecJoin) flat(ref int64) int {
	ci, ri := unpackRef(ref)
	return vj.rightStart[ci] + ri
}

// keyProbe is one worker's state for looking the scanned side's keys up in
// the table.
type keyProbe struct {
	kc    *vecCtx
	keys  []*colVec
	kbuf  []byte
	heads []int32
}

func newKeyProbe(sk *sideKeys) keyProbe {
	return keyProbe{kc: newVecCtx(sk.nbuf, 0, 0, 0), keys: make([]*colVec, len(sk.nodes))}
}

// lookup evaluates sk, the scanned side's keys, over ch and returns each row's
// chain head in the table (0: no hashed row has its key) and how many
// candidate pairs the chunk has.
func (p *keyProbe) lookup(t *joinTable, sk *sideKeys, ch *chunk) ([]int32, int, error) {
	if err := evalNodes(p.kc, ch, nil, sk.nodes, p.keys); err != nil {
		return nil, 0, err
	}
	if cap(p.heads) < ch.n {
		p.heads = make([]int32, ch.n)
	}
	heads := p.heads[:ch.n]
	p.kbuf = t.lookup(p.keys, ch.n, heads, p.kbuf)
	pairs := 0
	if t.dup {
		for _, h := range heads {
			for r := h; r != 0; r = t.next[r-1] {
				pairs++
			}
		}
	} else {
		for _, h := range heads {
			if h != 0 {
				pairs++
			}
		}
	}
	return heads, pairs, nil
}

// pairBlock is a run of candidate pairs in right scan order: a left row and
// the right row that matched it. A worker's blocks are filled once and never
// copied; their sizes double up to pairBlockMax.
type pairBlock struct {
	lrows []int32
	rrefs []int64
}

const (
	pairBlockMin = 1 << 10
	pairBlockMax = 1 << 16
)

// rightScanner is one morsel worker of the hashed-left scan of the right side.
type rightScanner struct {
	keyProbe
	blocks []pairBlock
}

// hashedLeft hashes the left input, scans the right one for candidate pairs —
// morsels of right chunks look their keys up in the table of left rows and
// record every match — and regroups the pairs per left row with a stable
// counting sort. Pairs are recorded in right scan order and the sort is
// stable, so each left row's matches stay in right scan order. The result is
// probe slots over ranges of the regrouped list, cut at left-row boundaries
// once a range holds probeSlotRows pairs, so that a small left input with many
// matches per row does not become one huge chunk.
//
// The right chunks the output can reference — those with a match, or all of
// them when keepRight says unmatched rows will trail — stay resident for the
// gathers; the others are dropped as the scan passes them.
func (vj *vecJoin) hashedLeft(keepRight bool) ([]chunkSlot, error) {
	qc := vj.qc
	lefts, err := vj.left.resolveAll(qc)
	if err != nil {
		return nil, err
	}
	leftStart := chunkStarts(lefts)
	nLeft := leftStart[len(lefts)]
	if err := vj.build(lefts, &vj.lKeys, leftStart); err != nil {
		return nil, err
	}
	// A streamed right input's slots only estimate their rows, and its chunks
	// would be the workers' to reuse: it is resolved first.
	if keepRight || vj.right.probes {
		if vj.buildChunks, err = vj.right.resolveAll(qc); err != nil {
			return nil, err
		}
	}
	rslots := vj.right.scanSlots(qc)
	if vj.buildChunks == nil {
		vj.buildChunks = make([]*chunk, len(rslots))
	}
	vj.rightStart = chunkStarts(rslots)
	next := vj.table.next
	ws, err := scanMorsels(qc, rslots, vj.rightStart[len(rslots)], true, func() *rightScanner {
		return &rightScanner{keyProbe: newKeyProbe(&vj.rKeys)}
	}, func(w *rightScanner, ci int, ch *chunk) error {
		if err := faultpoint.Hit(faultpoint.SiteEngineJoinProbe); err != nil {
			return err
		}
		heads, pairs, err := w.lookup(&vj.table, &vj.rKeys, ch)
		if err != nil || pairs == 0 {
			return err
		}
		if vj.buildChunks[ci] == nil {
			vj.buildChunks[ci] = ch
		}
		b := len(w.blocks) - 1
		if b < 0 || len(w.blocks[b].lrows)+pairs > cap(w.blocks[b].lrows) {
			size := pairBlockMin
			if b >= 0 {
				size = min(2*cap(w.blocks[b].lrows), pairBlockMax)
			}
			size = max(size, pairs)
			if err := qc.reserve(int64(size) * joinPairBytes); err != nil {
				return err
			}
			w.blocks = append(w.blocks, pairBlock{make([]int32, 0, size), make([]int64, 0, size)})
			b++
		}
		blk := &w.blocks[b]
		p := len(blk.lrows)
		blk.lrows, blk.rrefs = blk.lrows[:p+pairs], blk.rrefs[:p+pairs]
		for k, h := range heads {
			for r := h; r != 0; r = next[r-1] {
				blk.lrows[p], blk.rrefs[p] = r-1, packRef(ci, k)
				p++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	vj.buildKinds = chunkKinds(vj.buildChunks, vj.rightW)

	total := 0
	for _, w := range ws {
		for _, b := range w.blocks {
			total += len(b.lrows)
		}
	}
	if err := qc.reserve(int64(nLeft+1)*8 + int64(total)*joinPairBytes); err != nil {
		return nil, err
	}
	// ends[l+1] counts row l's pairs, then becomes its first output
	// position; the scatter advances it to the end of row l's pairs, which
	// is where row l+1's begin.
	ends := make([]int, nLeft+1)
	vj.candSel, vj.candRefs = make([]int32, total), make([]int64, total)
	for _, w := range ws {
		for _, b := range w.blocks {
			if err := qc.pollAbort(); err != nil {
				return nil, err
			}
			for _, l := range b.lrows {
				ends[l+1]++
			}
		}
	}
	for l := 1; l <= nLeft; l++ {
		ends[l] += ends[l-1]
	}
	for _, w := range ws {
		for _, b := range w.blocks {
			if err := qc.pollAbort(); err != nil {
				return nil, err
			}
			for i, l := range b.lrows {
				vj.candRefs[ends[l]] = b.rrefs[i]
				ends[l]++
			}
		}
	}

	// LEFT/FULL null-extend the left rows with no pair, so every left row
	// needs a slot; otherwise only those with candidates do.
	extend := vj.jt == sqlparser.LeftJoin || vj.jt == sqlparser.FullJoin
	ps := make([]probeSlot, 0, len(lefts)+total/probeSlotRows)
	pos := 0
	for ci, ch := range lefts {
		if err := qc.pollAbort(); err != nil {
			return nil, err
		}
		lo := leftStart[ci]
		k0, p0 := 0, pos
		for k := 0; k < ch.n; k++ {
			for ; pos < ends[lo+k]; pos++ {
				vj.candSel[pos] = int32(k)
			}
			if pos-p0 >= probeSlotRows || k == ch.n-1 {
				if pos > p0 || extend {
					ps = append(ps, probeSlot{vj: vj, left: ch, k0: k0, k1: k + 1, p0: p0, p1: pos})
				}
				k0, p0 = k+1, pos
			}
		}
	}
	slots := make([]chunkSlot, len(ps))
	for i := range ps {
		slots[i] = &ps[i]
	}
	return slots, nil
}

// probeSlotRows is the number of candidate pairs at which a hashed-left probe
// slot ends (at the next left-row boundary).
const probeSlotRows = 1024

// probeSlot is a piece of a join's output that exists once it is loaded: the
// third kind of chunkSlot, beside resident chunks and segment references.
// Hashed right, it is one slot of the left input, itself loaded only now — so
// a chain of such joins over a table is one pipeline per chunk of that table.
// Hashed left, it is rows [k0, k1) of a resident left chunk with their
// regrouped candidates [p0, p1).
type probeSlot struct {
	vj             *vecJoin
	left           chunkSlot
	k0, k1, p0, p1 int
}

// slotRows estimates the output: the candidate pairs (exact but for the
// residual and null-extension), or the left rows that will be looked up.
func (s *probeSlot) slotRows() int {
	if s.vj.hashLeft {
		return s.p1 - s.p0
	}
	return s.left.slotRows()
}

func (s *probeSlot) slotZone(int) (Value, Value) {
	panic("engine: join output is never zone-pruned")
}

// noRows is what a probe slot with no surviving pair loads; scans skip it.
var noRows = &chunk{}

// load produces the slot's join-output chunk: the left slot's candidate pairs
// (looked up now when the right side is hashed, regrouped by hashedLeft
// otherwise), then finish.
func (s *probeSlot) load(qc *queryCtx, pb *probeBuf) (*chunk, error) {
	vj := s.vj
	if pb == nil {
		pb = &probeBuf{keep: true}
	}
	pb.bind(vj)
	if vj.hashLeft {
		return vj.finish(pb, s.left.(*chunk), s.k0, s.k1, vj.candSel[s.p0:s.p1], vj.candRefs[s.p0:s.p1])
	}
	if err := faultpoint.Hit(faultpoint.SiteEngineJoinProbe); err != nil {
		return nil, err
	}
	if pb.left == nil {
		pb.left = &probeBuf{keep: pb.keep}
	}
	left, err := s.left.load(qc, pb.left)
	if err != nil {
		return nil, err
	}
	if left.n == 0 {
		return noRows, nil
	}
	heads, pairs, err := pb.look.lookup(&vj.table, &vj.lKeys, left)
	if err != nil {
		return nil, err
	}
	sel, refs := pb.pairs(0, pairs)
	next, p := vj.table.next, 0
	for k, h := range heads {
		for r := h; r != 0; r = next[r-1] {
			sel[p], refs[p] = int32(k), vj.rightRefs[r-1]
			p++
		}
	}
	return vj.finish(pb, left, 0, left.n, sel, refs)
}

// probeBuf is what a scan worker lends the probe slots it loads: the key and
// residual kernel buffers, and — unless the chunks are kept — the output
// chunk itself with its reference vectors and gathered columns, all reused by
// the worker's next load. left is the same for the slot's own left slot, so a
// pipeline of probes holds one chunk per join and worker.
type probeBuf struct {
	// keep: the loaded chunks outlive the next load (resolveAll), so each is
	// allocated; only the kernel buffers are reused.
	keep bool
	// alias: what the consumer made of a chunk points into the vectors it
	// gathered (a projection's boxed rows, boxcol.go), so those are left to it
	// rather than reused. The chunks below, which it never touched, are not
	// affected.
	alias bool

	vj   *vecJoin // the join the rest was made for
	look keyProbe // left-key lookup, hashed right
	rc   *vecCtx  // residual kernel buffers
	sel  [2][]int32
	refs [2][]int64
	ch   *chunk

	left *probeBuf
}

func (pb *probeBuf) bind(vj *vecJoin) {
	if pb.vj == vj {
		return
	}
	*pb = probeBuf{keep: pb.keep, alias: pb.alias, left: pb.left, vj: vj}
	if !vj.hashLeft {
		pb.look = newKeyProbe(&vj.lKeys)
	}
	if vj.resFull != nil {
		pb.rc = newVecCtx(vj.resNbuf, 0, 0, 0)
	}
}

// pairs returns reference vectors i (a probe uses at most two at a time) with
// n lanes.
func (pb *probeBuf) pairs(i, n int) ([]int32, []int64) {
	if pb.keep || cap(pb.sel[i]) < n {
		size := n
		if !pb.keep {
			size += n / 4
		}
		pb.vj.qc.chargeMem(int64(size) * joinPairBytes)
		pb.sel[i], pb.refs[i] = make([]int32, size), make([]int64, size)
	}
	return pb.sel[i][:n], pb.refs[i][:n]
}

// refChunk wraps the references as the join-output chunk: a new one to keep,
// or the worker's one pointed at them.
func (pb *probeBuf) refChunk(probe *chunk, sel []int32, refs []int64) *chunk {
	if pb.keep || pb.ch == nil {
		ch := pb.vj.refChunk(probe, sel, refs)
		if !pb.keep {
			pb.ch = ch
		}
		return ch
	}
	g := pb.ch.lazy.(*joinGather)
	g.probe, g.probeSel, g.refs = probe, sel, refs
	pb.ch.n = len(refs)
	for j := range pb.ch.filled {
		if pb.ch.filled[j].Load() {
			if pb.alias {
				pb.ch.cols[j] = colVec{}
			}
			pb.ch.filled[j].Store(false)
		}
	}
	return pb.ch
}

// finish turns the candidate pairs of rows [k0, k1) of a left chunk — left
// rows in order, each row's matches in right scan order — into their
// join-output chunk: residual refinement with the kernels a WHERE would use,
// then LEFT/FULL null-extension in place.
func (vj *vecJoin) finish(pb *probeBuf, left *chunk, k0, k1 int, sel []int32, refs []int64) (*chunk, error) {
	// When the residual keeps every pair, the candidate chunk (with whatever
	// columns the residual already gathered) is the output chunk.
	var cand *chunk
	if vj.resFull != nil && len(sel) > 0 {
		cand = pb.refChunk(left, sel, refs)
		rsel, all, err := evalFilter(pb.rc, cand, vj.resFull, vj.resConjs)
		if err != nil {
			return nil, errKernel
		}
		if !all {
			// In place when sel is already vector 0: rsel ascends.
			ns, nr := pb.pairs(0, len(rsel))
			for i, x := range rsel {
				ns[i], nr[i] = sel[x], refs[x]
			}
			sel, refs, cand = ns, nr, nil
		}
	}

	if vj.jt == sqlparser.LeftJoin || vj.jt == sqlparser.FullJoin {
		missing, prev := k1-k0, int32(-1)
		for _, k := range sel {
			if k != prev {
				missing--
				prev = k
			}
		}
		if missing > 0 {
			ns, nr := pb.pairs(1, len(sel)+missing)
			p, o := 0, 0
			for k := int32(k0); k < int32(k1); k++ {
				if p == len(sel) || sel[p] != k {
					ns[o], nr[o] = k, nullRef
					o++
				}
				for ; p < len(sel) && sel[p] == k; p++ {
					ns[o], nr[o] = k, refs[p]
					o++
				}
			}
			sel, refs, cand = ns, nr, nil
		}
	}

	if len(sel) == 0 {
		return noRows, nil
	}
	if cand != nil {
		return cand, nil
	}
	return pb.refChunk(left, sel, refs), nil
}

// trailingChunk is the unmatched right rows of a RIGHT/FULL join, in right
// order — the row path's order — after out, every left row's output (nil when
// every right row matched). NULL-key right rows never entered a chain, so
// nothing references them: they null-extend here, as SQL requires.
func (vj *vecJoin) trailingChunk(out []*chunk) (*chunk, error) {
	nRight := vj.rightStart[len(vj.buildChunks)]
	if err := vj.qc.reserve(int64(nRight)); err != nil {
		return nil, err
	}
	matched := make([]bool, nRight)
	for _, ch := range out {
		if err := vj.qc.pollAbort(); err != nil {
			return nil, err
		}
		for _, r := range ch.lazy.(*joinGather).refs {
			if r >= 0 {
				matched[vj.flat(r)] = true
			}
		}
	}
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
	vj.qc.chargeMem(int64(len(refs)) * 8)
	return vj.refChunk(nil, nil, refs), nil
}

// gatherSrc is what the row references of late-materialized chunks point
// into: the build chunks, whose columns follow leftW probe-side columns in the
// chunk's row. A join's output chunks share the one inside their vecJoin; the
// surviving rows of a pre-filtered join input (filterLeaf, zonemap.go) are
// chunks with no probe side over the input's own chunks.
type gatherSrc struct {
	qc    *queryCtx
	leftW int
	// buildChunks holds nil where no reference can point: a right chunk the
	// hashed-left scan found no match in.
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
			if ch == nil {
				continue
			}
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
	probeSel []int32 // probe row per output row; unread when probe is nil
	refs     []int64 // packed build ref per output row; nullRef = null-extended build side
}

func (g *joinGather) fillCol(c *chunk, j int) {
	if j < g.j.leftW {
		g.fillProbe(c, &c.cols[j], j)
	} else {
		g.fillBuild(c, &c.cols[j], j-g.j.leftW)
	}
}

// fillProbe gathers probe-side column j through probeSel. Sources may
// themselves be join-output chunks (multi-way joins); col() recurses.
func (g *joinGather) fillProbe(c *chunk, cv *colVec, j int) {
	qc, n := g.j.qc, c.n
	if g.probe == nil {
		cv.reset(qc, TAny, n)
		clear(cv.anys)
		return
	}
	scv := g.probe.col(j)
	if scv.enc == encDict {
		cv.gatherCodes(qc, scv, g.probeSel)
		return
	}
	cv.reset(qc, scv.kind, n)
	gatherLanes(cv, n, 0, scv, g.probeSel)
}

// fillBuild gathers build-side column bj through the refs, a run of
// references into one build chunk at a time. The typed paths apply when every
// build chunk stores the column with one kind; disagreeing chunks (rare:
// schema-on-read mixes) gather boxed. Build chunks can disagree on
// dictionaries (one per chunk), so the build side always materializes strings.
func (g *joinGather) fillBuild(c *chunk, cv *colVec, bj int) {
	n, chs, refs := c.n, g.j.buildChunks, g.refs
	kind := g.j.buildKinds[bj]
	cv.reset(g.j.qc, kind, n)
	for k := 0; k < n; {
		r := refs[k]
		e := k + 1
		for e < n && refs[e]>>32 == r>>32 {
			e++
		}
		switch {
		case r < 0:
			for i := k; i < e; i++ {
				cv.setNull(i, n)
			}
		case kind == TAny:
			ch := chs[r>>32]
			for i, r := range refs[k:e] {
				cv.anys[k+i] = ch.valueAt(bj, int(uint32(r)))
			}
		default:
			gatherLanes(cv, n, k, chs[r>>32].col(bj), refs[k:e])
		}
		k = e
	}
}

// Gathers: the one way lanes are copied out of a column into a reset colVec —
// a join's gathered columns, and a kernel reading a column under a selection
// or through an encoding (vnCol). A row index is an int32 selection entry or
// the low half of a packed join reference.

// gatherCodes makes cv rows idx of the dictionary column scv, codes only: the
// dictionary is shared, so the gathered column stays coded and code-comparing
// kernels keep their fast paths. A NULL row's code is 0, a valid one.
func (cv *colVec) gatherCodes(qc *queryCtx, scv *colVec, idx []int32) {
	n := len(idx)
	cv.reset(qc, TString, 0)
	cv.enc, cv.dict, cv.dictBoxed = encDict, scv.dict, scv.dictBoxed
	cv.codes = lanes(qc, cv.codes, n)
	gatherRaw(cv.codes, scv.codes, idx)
	if len(scv.nulls) > 0 {
		for k, i := range idx {
			if scv.nulls[i] {
				cv.setNull(k, n)
			}
		}
	}
}

// gatherRaw copies src's rows idx into dst.
func gatherRaw[T any, I int32 | int64](dst, src []T, idx []I) {
	for k, i := range idx {
		dst[k] = src[uint32(i)]
	}
}

// gatherLanes copies rows idx of scv, a source column of cv's kind, into
// lanes [k0, k0+len(idx)) of cv (of n lanes), decoding: dictionary strings
// are materialized, stored strings viewed out of their block, delta integers
// unpacked, and run-length slots read by a forward walk over the runs. The
// loop is picked once per call; raw vectors without NULLs — every gathered
// column, most stored floats — are flat copies.
func gatherLanes[I int32 | int64](cv *colVec, n, k0 int, scv *colVec, idx []I) {
	switch cv.kind {
	case TInt:
		if scv.enc != encDelta {
			gatherSlots(cv, n, k0, cv.ints, scv.ints, scv, idx)
			return
		}
		dst := cv.ints[k0 : k0+len(idx)]
		for k, x := range idx {
			if i := int(uint32(x)); len(scv.nulls) > 0 && scv.nulls[i] {
				cv.setNull(k0+k, n)
			} else {
				dst[k] = scv.deltaAt(i)
			}
		}
	case TFloat:
		gatherSlots(cv, n, k0, cv.floats, scv.floats, scv, idx)
	case TString:
		switch {
		case scv.enc == encDict:
			dst := cv.strs[k0 : k0+len(idx)]
			for k, x := range idx {
				if i := uint32(x); len(scv.nulls) > 0 && scv.nulls[i] {
					cv.setNull(k0+k, n)
				} else {
					dst[k] = scv.dict[scv.codes[i]]
				}
			}
		case scv.soffs == nil:
			gatherSlots(cv, n, k0, cv.strs, scv.strs, scv, idx)
		default:
			gatherBlock(cv, n, k0, scv, idx)
		}
	case TBool:
		gatherSlots(cv, n, k0, cv.bools, scv.bools, scv, idx)
	default:
		gatherRaw(cv.anys[k0:k0+len(idx)], scv.anys, idx)
	}
}

// gatherSlots is gatherLanes from vals, the typed slots of a raw or
// run-length column scv.
func gatherSlots[T any, I int32 | int64](cv *colVec, n, k0 int, dst, vals []T, scv *colVec, idx []I) {
	dst = dst[k0 : k0+len(idx)]
	switch {
	case scv.enc == encRLE:
		r := 0
		for k, x := range idx {
			if r = scv.runFrom(r, int(uint32(x))); len(scv.nulls) > 0 && scv.nulls[r] {
				cv.setNull(k0+k, n)
			} else {
				dst[k] = vals[r]
			}
		}
	case len(scv.nulls) > 0:
		for k, x := range idx {
			if i := uint32(x); scv.nulls[i] {
				cv.setNull(k0+k, n)
			} else {
				dst[k] = vals[i]
			}
		}
	default:
		gatherRaw(dst, vals, idx)
	}
}

// gatherBlock is gatherLanes from a stored string column: each lane a view of
// its slot in scv's block.
func gatherBlock[I int32 | int64](cv *colVec, n, k0 int, scv *colVec, idx []I) {
	dst := cv.strs[k0 : k0+len(idx)]
	r := 0
	for k, x := range idx {
		slot := int(uint32(x))
		if scv.enc == encRLE {
			r = scv.runFrom(r, slot)
			slot = r
		}
		if len(scv.nulls) > 0 && scv.nulls[slot] {
			cv.setNull(k0+k, n)
		} else {
			dst[k] = blockStr(scv.sbytes, scv.soffs[slot], scv.soffs[slot+1])
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
		if g.probe == nil {
			return nil
		}
		return g.probe.valueAt(j, int(g.probeSel[i]))
	}
	r := g.refs[i]
	if r < 0 {
		return nil
	}
	ci, ri := unpackRef(r)
	return g.j.buildChunks[ci].valueAt(j-g.j.leftW, ri)
}
