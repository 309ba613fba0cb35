package engine

import (
	"fmt"
	"math"
	"sync/atomic"

	"verdictdb/internal/faultpoint"
	"verdictdb/internal/sqlparser"
	"verdictdb/internal/storage"
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
// dictionary column's codes — with the gathers a kernel's column leaf (vnCol)
// uses on the probe side and the join's build column table on the build side,
// so boxed rows appear only at the ResultSet boundary.
//
// Key classes: the hashed side goes into the engine's key table (keytable.go),
// so key equality is GroupKey equality, as in a GROUP BY, except that a NULL
// component matches nothing.
//
// Fallbacks: joins that do not lower — impure ON, subqueries in ON, no
// equi-key, a key past the first that can fail — keep the row join in
// joinRelations, the reference.
//
// Errors: the row join evaluates every right key, then per left row its key
// (up to a NULL component) and its pairs' residuals. So only a left input whose
// keys cannot fail is hashed, a probe reports a left key's error after the
// residuals of the rows before it, and a fallible probe runs before any
// consumer starts (run).

// nullRef marks a null-extended side in a join-output row reference.
const nullRef = int64(-1)

// packRef encodes a right-side row as chunk index << 32 | row index.
func packRef(ci, ri int) int64 { return int64(ci)<<32 | int64(ri) }

func unpackRef(r int64) (ci, ri int) { return int(r >> 32), int(uint32(r)) }

// joinTable is the join's key table (keytable.go), sized once for every hashed
// row, plus one next link per hashed row: a key's slot heads the chain of the
// hashed rows with that key, in scan order. It never rehashes.
type joinTable struct {
	keyTable
	next []int32 // per hashed row: the next row of its chain
	dup  bool    // some chain holds more than one row
}

func (t *joinTable) init(qc *queryCtx, rows int, single bool) error {
	if rows >= math.MaxInt32 {
		return fmt.Errorf("engine: join input of %d rows is too large to hash", rows)
	}
	t.keyTable.init(qc, rows, single, false)
	if err := qc.reserve(int64(rows) * 4); err != nil {
		return err
	}
	t.next = make([]int32, rows)
	return nil
}

// insert appends one chunk's rows — lanes [0, n) of keys, numbered from base
// — to their keys' chains. Rows with a NULL key component never enter.
func (t *joinTable) insert(keys []*colVec, n, base int, kbuf []byte) ([]byte, error) {
	for k := 0; k < n; k++ {
		class, x, kb := t.laneKey(keys, k, kbuf)
		kbuf = kb
		if class == keyNull {
			continue
		}
		s, err := t.claim(class, x, kbuf)
		if err != nil {
			return kbuf, err
		}
		row := int32(base+k) + 1
		if s.head == 0 {
			s.head = row
		} else {
			t.next[s.tail-1] = row
			t.dup = true
		}
		s.tail = row
	}
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
			s := t.intSlot(x)
			heads[k] = s.head
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

	res     vnode // nil when there is no residual
	resNbuf int

	// safeKeys and safeRes: the left keys and the residual are of
	// pushablePred's class, which no row can make return an error. Only then
	// may the left input be hashed, or a probe be left to the consumer (run).
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
	// plan-time prefix sum: O(1) per chunk
	for i, ch := range chunks {
		starts[i+1] = starts[i] + ch.slotRows()
	}
	return starts
}

// buildVecJoin lowers an equi-join for the vectorized path, or returns nil
// when anything about it (impure keys or residual, a key the kernels would
// evaluate where a NULL key component before it stops the row join) needs the
// row path. The scopes are those of the left input, the right input and the
// combined row. Nothing is read yet: run loads what it hashes.
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
	for i, k := range leftKeys {
		vj.safeKeys = vj.safeKeys && pushableOperand(k)
		if i > 0 && !(pushableOperand(k) && pushableOperand(rightKeys[i])) {
			return nil
		}
	}
	if residual != nil {
		cc := &vecCompiler{scope: combEnv}
		if vj.res = cc.lower(residual); vj.res == nil {
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
// Two joins resolve their own output here instead. One whose left keys or
// residual could fail: its errors come before any of its consumer's, as they
// do in the row join. And RIGHT/FULL: the unmatched right rows trail every
// left row's output.
func (vj *vecJoin) run() (*colSource, error) {
	vj.hashLeft = vj.left.nrows < vj.right.nrows && vj.safeKeys
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
	// plan-time row estimate: O(1) per slot
	for _, sl := range slots {
		src.nrows += sl.slotRows()
	}
	if !trailing && vj.safeRes && vj.safeKeys {
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
	vj.setBuild(vj.buildChunks, vj.rightW)
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
		_, err := evalNodes(vc, ch, nil, sk.nodes, keys)
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
// candidate pairs the chunk has. On a key error, the heads are those of the
// rows before the error's row.
func (p *keyProbe) lookup(t *joinTable, sk *sideKeys, ch *chunk) ([]int32, int, error) {
	clean, err := evalNodes(p.kc, ch, nil, sk.nodes, p.keys)
	n := laneCount(ch, clean)
	if cap(p.heads) < ch.n {
		p.heads = make([]int32, ch.n)
	}
	heads := p.heads[:n]
	p.kbuf = t.lookup(p.keys, n, heads, p.kbuf)
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
	return heads, pairs, err
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
	ws, err := scanMorsels(qc, rslots, vj.rightStart[len(rslots)], false, func() *rightScanner {
		return &rightScanner{keyProbe: newKeyProbe(&vj.rKeys)}
	}, func(w *rightScanner, ci int, ch *chunk) error {
		if err := faultpoint.Hit(faultpoint.SiteEngineJoinProbe); err != nil {
			return err
		}
		heads, pairs, err := w.lookup(&vj.table, &vj.rKeys, ch)
		if err != nil || pairs == 0 {
			return err
		}
		if vj.buildChunks[ci] == nil { // a chunk of its own: ch is the worker's
			if vj.buildChunks[ci], err = rslots[ci].load(qc, nil); err != nil {
				return err
			}
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
	vj.setBuild(vj.buildChunks, vj.rightW)

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

func (s *probeSlot) slotZone(int) *storage.Zone {
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
	// A left key's error comes after the residuals of the rows before its row.
	heads, pairs, kerr := pb.look.lookup(&vj.table, &vj.lKeys, left)
	sel, refs := pb.pairs(0, pairs)
	next, p := vj.table.next, 0
	for k, h := range heads {
		for r := h; r != 0; r = next[r-1] {
			sel[p], refs[p] = int32(k), vj.rightRefs[r-1]
			p++
		}
	}
	ch, err := vj.finish(pb, left, 0, len(heads), sel, refs)
	if err == nil {
		err = kerr
	}
	return ch, err
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

	sview *chunk // the worker's view of stored chunks (view)

	left *probeBuf
}

func (pb *probeBuf) bind(vj *vecJoin) {
	if pb.vj == vj {
		return
	}
	*pb = probeBuf{keep: pb.keep, alias: pb.alias, left: pb.left, sview: pb.sview, vj: vj}
	if !vj.hashLeft {
		pb.look = newKeyProbe(&vj.lKeys)
	}
	if vj.res != nil {
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
	if pb.alias {
		for j := range pb.ch.cols {
			if pb.ch.filled.has(j) {
				pb.ch.cols[j] = colVec{}
			}
		}
	}
	pb.ch.filled.clear()
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
	if vj.res != nil && len(sel) > 0 {
		cand = pb.refChunk(left, sel, refs)
		rsel, err := evalFilter(pb.rc, cand, nil, vj.res)
		if err != nil {
			return nil, err
		}
		if rsel != nil {
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
	// buildCols is the table of the build chunks' columns, one entry per
	// column.
	buildCols []buildColumn
}

// buildColumn is one column of every build chunk. Its kind, chunksKind of the
// column, is resolved by the first gather or kind query that reads the column
// (buildKind) — a column no consumer reads is never asked — so gathers pick
// their typed path once per source instead of per chunk. cols[ci] is build
// chunk ci's column, stored by the first gather that reads a row of that
// chunk. A gather that hops chunk at every lane (a hashed-left join's) reads
// the column one pointer away instead of through the chunk, which measured
// faster than calling chunk.col at every switch (ROADMAP item 9).
type buildColumn struct {
	kind atomic.Int32 // a ColType, or -1 until resolved
	cols []atomic.Pointer[colVec]
}

// setBuild makes chunks, of w columns, the build side: an empty column table,
// charged like the gathers it serves, with every kind unresolved.
func (s *gatherSrc) setBuild(chunks []*chunk, w int) {
	s.qc.chargeMem(int64(w*len(chunks)) * bytesPerRef)
	tbl := make([]atomic.Pointer[colVec], w*len(chunks))
	s.buildChunks, s.buildCols = chunks, make([]buildColumn, w)
	for bj := range s.buildCols {
		bc := &s.buildCols[bj]
		bc.kind.Store(-1)
		bc.cols = tbl[bj*len(chunks) : (bj+1)*len(chunks)]
	}
}

// buildKind returns build column bj's kind, resolving it on first use.
// Workers that race to resolve it compute the same kind, so whichever store
// lands is right.
func (s *gatherSrc) buildKind(bj int) ColType {
	bc := &s.buildCols[bj]
	if k := bc.kind.Load(); k >= 0 {
		return ColType(k)
	}
	k := chunksKind(s.buildChunks, bj)
	bc.kind.Store(int32(k))
	return k
}

// buildCol returns build chunk ci's column bj, building it on first use.
func (s *gatherSrc) buildCol(bj int, ci int64) *colVec {
	e := &s.buildCols[bj].cols[ci]
	cv := e.Load()
	if cv == nil {
		cv = s.buildChunks[ci].col(bj)
		e.Store(cv)
	}
	return cv
}

// chunksKind returns the storage kind of column j every chunk shares: TAny
// when chunks disagree (or there are none).
func chunksKind(chunks []*chunk, j int) ColType {
	kind := ColType(-1)
	//verdict:nopoll plan-time lane-type resolution: O(1) colKind read per chunk
	for _, ch := range chunks {
		if ch == nil {
			continue
		}
		if k := ch.colKind(j); kind == -1 {
			kind = k
		} else if kind != k {
			return TAny
		}
	}
	if kind == -1 {
		return TAny
	}
	return kind
}

// refChunk wraps row references into s as a chunk: sel picks each row's probe
// row (unread when the source has no probe columns), refs its build row.
func (s *gatherSrc) refChunk(probe *chunk, sel []int32, refs []int64) *chunk {
	w := s.leftW + len(s.buildCols)
	c := &struct { // the chunk and its filler in one allocation
		chunk
		g joinGather
	}{chunk{cols: make([]colVec, w), n: len(refs)},
		joinGather{j: s, probe: probe, probeSel: sel, refs: refs}}
	c.lazy = &c.g
	c.filled.init(w)
	return &c.chunk
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
	gatherLanes(cv, scv, g.probeSel)
}

// fillBuild gathers build-side column bj through the refs, lane by lane,
// each from its chunk's column in the source's table: a typed load per lane
// while every chunk the refs name holds the column raw without NULLs, and from
// the first lane that names another, a read through each lane's own chunk
// encoding and NULL flags (boxed when chunks disagree on the column's kind,
// rare: schema-on-read mixes). Build chunks can disagree on dictionaries (one
// per chunk), so the build side always materializes strings.
func (g *joinGather) fillBuild(c *chunk, cv *colVec, bj int) {
	s, refs := g.j, g.refs
	kind := s.buildKind(bj)
	cv.reset(s.qc, kind, c.n)
	k := 0
	switch kind {
	case TInt:
		k = loadLanes(s, cv, cv.ints, bj, refs, func(v *colVec) []int64 { return v.ints })
	case TFloat:
		k = loadLanes(s, cv, cv.floats, bj, refs, func(v *colVec) []float64 { return v.floats })
	case TString:
		k = loadLanes(s, cv, cv.strs, bj, refs, func(v *colVec) []string { return v.strs })
	case TBool:
		k = loadLanes(s, cv, cv.bools, bj, refs, func(v *colVec) []bool { return v.bools })
	}
	s.readLanes(cv, bj, refs, k)
}

// loadLanes is fillBuild's typed loop: lane k is row refs[k] of vals of its
// chunk's column bj, which it stores in the table on first use. It returns the
// first lane whose chunk's column is not raw without NULLs with its strings as
// lanes.
func loadLanes[T any](s *gatherSrc, cv *colVec, dst []T, bj int, refs []int64, vals func(*colVec) []T) int {
	var src []T
	last := int64(-1)
	for k, r := range refs {
		switch ci := r >> 32; {
		case r < 0:
			cv.setNull(k, len(dst))
			continue
		case ci != last:
			scv := s.buildCol(bj, ci)
			if scv.enc != encNone || len(scv.nulls) > 0 || scv.inBlock() {
				return k
			}
			src, last = vals(scv), ci
		}
		dst[k] = src[uint32(r)]
	}
	return len(refs)
}

// readLanes is fillBuild's loop over lanes [k0, len(refs)): lane k is row
// refs[k] read through its chunk's encoding — delta integers and decimal
// floats unpacked, dictionary strings materialized — and NULL flags, or boxed
// when the chunks disagree on the column's kind.
func (s *gatherSrc) readLanes(cv *colVec, bj int, refs []int64, k0 int) {
	n := len(refs)
	for k := k0; k < n; k++ {
		r := refs[k]
		if r < 0 {
			cv.setNull(k, n)
			continue
		}
		scv, i := s.buildCol(bj, r>>32), int(uint32(r))
		switch {
		case cv.kind == TAny:
			cv.anys[k] = scv.value(i)
		case len(scv.nulls) > 0 && scv.nulls[i]:
			cv.setNull(k, n)
		case cv.kind == TInt && scv.enc == encDelta:
			cv.ints[k] = scv.deltaAt(i)
		case cv.kind == TInt:
			cv.ints[k] = scv.ints[i]
		case cv.kind == TFloat && scv.enc == encDecimal:
			cv.floats[k] = scv.decAt(i)
		case cv.kind == TFloat:
			cv.floats[k] = scv.floats[i]
		case cv.kind == TBool:
			cv.bools[k] = scv.bools[i]
		case scv.enc == encDict:
			cv.strs[k] = scv.dict[scv.codes[i]]
		default:
			cv.strs[k] = scv.slotStr(i)
		}
	}
}

// Gathers: how lanes are copied out of a column into a reset colVec under a
// selection — a join's probe side, and a kernel reading a column under a
// selection or through an encoding (vnCol). The build side reads through its
// column table instead (fillBuild).

// gatherCodes makes cv rows idx of the dictionary column scv, codes only: the
// dictionary is shared, so the gathered column stays coded and code-comparing
// kernels keep their fast paths. A NULL row's code is 0, a valid one.
func (cv *colVec) gatherCodes(qc *queryCtx, scv *colVec, idx []int32) {
	cv.reset(qc, TString, 0)
	cv.enc, cv.dict = encDict, scv.dict
	cv.codes = lanes(qc, cv.codes, len(idx))
	gatherRaw(cv.codes, scv.codes, idx)
	nullLanes(cv, scv, idx)
}

// gatherRaw copies src's rows idx into dst.
func gatherRaw[T any](dst, src []T, idx []int32) {
	for k, i := range idx {
		dst[k] = src[i]
	}
}

// gatherLanes copies rows idx of scv, a source column of cv's kind, into cv's
// lanes, decoding: dictionary strings are materialized, stored strings viewed
// out of their block, delta integers and decimal floats unpacked. The loop is
// picked once per call; raw vectors without NULLs — every gathered column —
// are flat copies.
func gatherLanes(cv, scv *colVec, idx []int32) {
	switch {
	case cv.kind == TInt && scv.enc == encDelta:
		for k, i := range idx {
			cv.ints[k] = scv.deltaAt(int(i))
		}
	case cv.kind == TInt:
		gatherRaw(cv.ints, scv.ints, idx)
	case cv.kind == TFloat && scv.enc == encDecimal:
		p := pow10[scv.exp]
		for k, i := range idx {
			cv.floats[k] = float64(scv.deltaAt(int(i))) / p
		}
	case cv.kind == TFloat:
		gatherRaw(cv.floats, scv.floats, idx)
	case cv.kind == TString && scv.enc == encDict:
		for k, i := range idx {
			cv.strs[k] = scv.dict[scv.codes[i]]
		}
	case cv.kind == TString && scv.inBlock():
		for k, i := range idx {
			cv.strs[k] = scv.slotStr(int(i))
		}
	case cv.kind == TString:
		gatherRaw(cv.strs, scv.strs, idx)
	case cv.kind == TBool:
		gatherRaw(cv.bools, scv.bools, idx)
	default:
		gatherRaw(cv.anys, scv.anys, idx)
	}
	nullLanes(cv, scv, idx)
}

// kindOf reports a column's storage kind without gathering it.
func (g *joinGather) kindOf(_ *chunk, j int) ColType {
	if j < g.j.leftW {
		if g.probe == nil {
			return TAny
		}
		return g.probe.colKind(j)
	}
	return g.j.buildKind(j - g.j.leftW)
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
