package engine

import (
	"math"
	"runtime/debug"
	"slices"
	"sync"

	"verdictdb/internal/faultpoint"
	"verdictdb/internal/sqlparser"
)

// Morsel-parallel scan execution: the engine's one parallel path. A source's
// chunk sequence is partitioned into contiguous per-worker ranges; each worker
// runs the vector kernels over its chunks with private state (a group set, an
// output slice, a join worker), and the states merge or concatenate in chunk
// order. Because morsels are contiguous and merged in order, the output equals
// a serial scan's — group order is first-seen scan order — so parallel
// execution is deterministic for a fixed parallelism level. Exact float
// aggregates may differ from serial in the last bits (partial sums
// reassociate); approximate sketch aggregates (approx_median's reservoir)
// resample on merge and may differ from serial by up to the sketch's rank
// error.
//
// The row closures (compile.go) are the reference the kernels are held to, and
// never fan out: filterRows reads chunk lanes serially in slot order, and
// scanRowsInto aggregates what it kept. They run a whole block when it is
// impure (rand(), subqueries, enclosing-scope references) — so RNG draws
// happen in one fixed order, sample scrambles stay byte-identical, and
// scope-capturing closures have a single caller — when a pure expression has
// no kernel, and under SetVectorized(false).

const (
	// parallelMinRows is the snapshot size below which scans stay serial;
	// goroutine fan-out costs more than it saves on small tables.
	parallelMinRows = 4096
	// parallelChunkMin bounds how finely a scan is split.
	parallelChunkMin = 2048
)

// scanWorkers returns how many workers a scan of n rows should use (1 =
// serial).
func (e *Engine) scanWorkers(n int) int {
	if n < parallelMinRows {
		return 1
	}
	p := e.Parallelism()
	if byChunk := n / parallelChunkMin; byChunk < p {
		p = byChunk
	}
	if p < 1 {
		return 1
	}
	return p
}

// runChunks runs fn on each non-empty range [bounds[w], bounds[w+1])
// concurrently. The returned error is the one from the earliest range, so
// error identity matches a serial scan. A panicking worker is recovered
// into an *InternalError (its range's error slot) rather than crossing the
// goroutine boundary: sibling workers finish their morsels and the
// WaitGroup always drains, so a crash in one morsel leaks nothing.
func runChunks(bounds []int, fn func(w, lo, hi int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, len(bounds)-1)
	for w := range errs {
		lo, hi := bounds[w], bounds[w+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					errs[w] = &InternalError{Panic: r, Stack: debug.Stack()}
				}
			}()
			errs[w] = fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// morselBounds cuts slots into nw contiguous ranges of about equal rows and
// returns their nw+1 bounds: range w starts at the first slot with w/nw of the
// rows before it. Rows, not slots: a join's output slots are uneven, and the
// worker that drew the fat ones would finish last.
func morselBounds(slots []chunkSlot, nw int) []int {
	total := 0
	// plan-time prefix sum: O(1) per slot
	for _, sl := range slots {
		total += sl.slotRows()
	}
	bounds := make([]int, nw+1)
	w, before := 1, 0
	// plan-time prefix sum: O(1) per slot
	for i, sl := range slots {
		for ; w < nw && before*nw >= w*total; w++ {
			bounds[w] = i
		}
		before += sl.slotRows()
	}
	for ; w <= nw; w++ {
		bounds[w] = len(slots)
	}
	return bounds
}

// scanMorsels loads slots — a snapshot's, or a join's probe slots — and hands
// the chunks that have rows to fn in order: serially, or as contiguous ranges
// on as many workers as scanWorkers allows for nrows rows, each with the
// private state newW builds. It polls before every chunk and returns the
// worker states in range order, so what they collected concatenates (or
// merges) into serial scan order. Anything the workers share is read-only by
// now. Unless keep is set, a probe slot's chunk is the worker's to reuse: fn
// must be done with it, and with everything that points into it, when it
// returns.
func scanMorsels[W any](qc *queryCtx, slots []chunkSlot, nrows int, keep bool, newW func() W,
	fn func(w W, ci int, ch *chunk) error) ([]W, error) {
	nw := max(min(qc.eng.scanWorkers(nrows), len(slots)), 1)
	ws := make([]W, nw)
	for i := range ws {
		ws[i] = newW()
	}
	run := func(w, lo, hi int) error {
		pb := &probeBuf{keep: keep}
		for ci := lo; ci < hi; ci++ {
			if err := qc.pollAbort(); err != nil {
				return err
			}
			ch, err := slots[ci].load(qc, pb)
			if err != nil {
				return err
			}
			if ch.n == 0 {
				continue
			}
			if err := fn(ws[w], ci, ch); err != nil {
				return err
			}
		}
		return nil
	}
	if nw == 1 {
		return ws, run(0, 0, len(slots))
	}
	if err := runChunks(morselBounds(slots, nw), run); err != nil {
		return nil, err
	}
	qc.eng.parallelScans.Add(1)
	return ws, nil
}

// noLimit is the bound of a scan that wants every row.
const noLimit = math.MaxInt

// chunkEmit appends one chunk's output rows to out, at most room of them. On
// an error it returns the rows before the error's row too.
type chunkEmit func(out [][]Value, ch *chunk, room int) ([][]Value, error)

// scanChunks drives a chunk-at-a-time row producer over src: serially, or —
// when vectors is set — as contiguous chunk ranges per worker concatenated in
// chunk order, so the rows equal a serial scan's. newEmit builds one worker's
// producer. A bound below noLimit asks for the first bound rows only: each
// worker stops loading chunks once its own range has produced bound rows, and
// the concatenation ends at the range that completes the bound — later ranges
// are dropped, errors included, because a serial scan would not have reached
// them. Workers never signal each other, and the result is exactly the
// prefix of the unbounded one; a bound of 0 loads nothing. An error whose
// preceding rows complete the bound is dropped too. newEmit gets the slot for
// a worker's projection error (vecSelect), reported if its row, the worker's
// first nil row, is within the bound and no range up to the bound failed.
//
// vectors says emit is the vectorized projection rather than the row closures:
// it may fan out, and the rows it returns alias the chunk's vectors
// (boxcol.go), so the vectors gathered into a probe slot's chunk are the
// result's, not the worker's to reuse (probeBuf.alias).
func scanChunks(qc *queryCtx, src *colSource, bound int, vectors bool, newEmit func(late *error) chunkEmit) ([][]Value, error) {
	type part struct {
		rows    [][]Value
		visited int
		err     error
		late    error
	}
	var slots []chunkSlot
	if bound > 0 {
		slots = src.scanSlots(qc)
	}
	scanRange := func(lo, hi int) (p part) {
		span := 0
		for _, sl := range slots[lo:hi] {
			span += sl.slotRows()
		}
		// Row headers up front: the filter can only shrink the output, and
		// append-doubling over a six-figure result costs more in copies and
		// GC scanning than the slack.
		span = min(span, bound)
		qc.chargeMem(int64(span) * 2 * bytesPerValue)
		p.rows = make([][]Value, 0, span)
		emit := newEmit(&p.late)
		pb := &probeBuf{alias: vectors}
		for _, sl := range slots[lo:hi] {
			if len(p.rows) >= bound {
				break
			}
			if p.err = qc.pollAbort(); p.err != nil {
				return p
			}
			var ch *chunk
			if ch, p.err = sl.load(qc, pb); p.err != nil {
				return p
			}
			if ch.n == 0 {
				continue
			}
			p.visited += ch.n
			if p.rows, p.err = emit(p.rows, ch, bound-len(p.rows)); p.err != nil {
				return p
			}
		}
		return p
	}
	nw := 1
	if vectors {
		nw = max(min(qc.eng.scanWorkers(src.nrows), len(slots)), 1)
	}
	parts := make([]part, nw)
	if nw > 1 {
		err := runChunks(morselBounds(slots, nw), func(w, lo, hi int) error {
			parts[w] = scanRange(lo, hi)
			return nil
		})
		if err != nil {
			return nil, err
		}
		qc.eng.parallelScans.Add(1)
	} else {
		parts[0] = scanRange(0, len(slots))
	}
	visited, total := 0, 0
	for _, p := range parts {
		visited += p.visited
		total += len(p.rows)
	}
	res := parts[0].rows
	if nw > 1 {
		res = make([][]Value, 0, total)
	}
	n, late := 0, error(nil)
	for _, p := range parts {
		if p.err != nil && n+len(p.rows) < bound {
			return nil, p.err
		}
		if late == nil && p.late != nil && n+slices.IndexFunc(p.rows, func(r []Value) bool { return r == nil }) < bound {
			late = p.late
		}
		if nw > 1 {
			res = append(res, p.rows...)
		}
		if n += len(p.rows); n >= bound {
			res = res[:bound]
			break
		}
	}
	if late != nil {
		return nil, late
	}
	if src.counted {
		qc.scanned -= int64(src.nrows - visited)
	}
	return res, nil
}

// aggSpec is one aggregate call with its compiled argument (nil for
// count(*)-style star calls).
type aggSpec struct {
	fc  *sqlparser.FuncCall
	arg compiledExpr
}

// scanPlan is a fully compiled scan→filter→aggregate pipeline for one
// SELECT block. It keeps the source ASTs so the vectorized path can lower
// them to chunk-at-a-time kernels.
type scanPlan struct {
	qc       *queryCtx
	scope    *env
	where    *laneExpr // nil when the block has no WHERE left (buildFrom)
	whereAST sqlparser.Expr
	keyFns   []compiledExpr
	keyASTs  []sqlparser.Expr
	specs    []aggSpec
	pure     bool

	// A group's row is width wide: the relation's columns, of which only the
	// representative cells reprCols names (outputCols) are filled, then one
	// slot per aggregate call and one per window call.
	reprCols []int
	width    int
}

// buildScanPlan compiles GROUP BY keys and aggregate arguments around the
// WHERE buildFrom left, already compiled (wherePred). Accumulators are not
// validated here: newAccumulator errors (unknown aggregate, bad percentile
// fraction) surface from run() when the first group is created, and
// validating up front would allocate sketch state (reservoirs, HLL registers)
// just to throw it away.
func buildScanPlan(scope *env, sel *sqlparser.SelectStmt, aggCalls []*sqlparser.FuncCall, width int, where sqlparser.Expr, wherePred *laneExpr, wherePure bool) *scanPlan {
	p := &scanPlan{qc: scope.qc, scope: scope, where: wherePred, whereAST: where, keyASTs: sel.GroupBy, width: width}
	var keysPure bool
	p.keyFns, keysPure = compileExprs(scope, sel.GroupBy)
	p.pure = wherePure && keysPure
	p.specs = make([]aggSpec, len(aggCalls))
	for i, fc := range aggCalls {
		fn, pure := compileAggArg(scope, fc)
		p.pure = p.pure && pure
		p.specs[i] = aggSpec{fc: fc, arg: fn}
	}
	return p
}

// groupSet is one worker's GROUP BY state. Its key table gives each key tuple
// a dense id in first-seen order, which indexes the group's row and
// accumulators. Row cells and fixed-size accumulators come from slabs, so a
// group costs no allocation of its own.
type groupSet struct {
	keys    keyTable
	kbuf    []byte        // the lane key being encoded
	rows    [][]Value     // per group: its row (scanPlan.newGroup)
	accs    []accumulator // per group: one per aggregate call
	charged int64         // the bytes of rows and accs charged so far
	cells   slab[Value]   // row cells
	slabs   accSlabs
}

func (p *scanPlan) newGroupSet() *groupSet {
	gs := &groupSet{}
	gs.keys.init(p.qc, 0, len(p.keyASTs) == 1, true)
	return gs
}

// group returns the id of the group of lane k of keys. A key not seen before
// gets the next id, and isNew asks the caller to create that group
// (scanPlan.newGroup) before the next lookup.
func (gs *groupSet) group(keys []*colVec, k int) (id int, isNew bool, err error) {
	class, x, kb := gs.keys.laneKey(keys, k, gs.kbuf)
	gs.kbuf = kb
	s, err := gs.keys.claim(class, x, kb)
	if err != nil {
		return 0, false, err
	}
	if s.head == 0 {
		s.head = int32(len(gs.rows)) + 1
		isNew = true
	}
	return int(s.head - 1), isNew, nil
}

// newGroup appends the next group to gs: its row, with the representative
// cells reprCols names read through cell — a lazily filled chunk builds no
// column just to represent a group — and one accumulator per aggregate call.
func (p *scanPlan) newGroup(gs *groupSet, cell func(j int) Value) error {
	row := carve(p.qc, &gs.cells, p.width, bytesPerValue)
	for _, j := range p.reprCols {
		row[j] = cell(j)
	}
	for _, sp := range p.specs {
		q, err := quantileLiteralArg(sp.fc)
		if err != nil {
			return err
		}
		acc, err := newAccumulator(sp.fc, q, p.qc, &gs.slabs)
		if err != nil {
			return err
		}
		gs.accs = append(gs.accs, acc)
	}
	gs.rows = append(gs.rows, row)
	gs.charge()
	return nil
}

// charge charges the growth of the id arrays since the last call.
func (gs *groupSet) charge() {
	b := int64(cap(gs.rows))*groupRowBytes + int64(cap(gs.accs))*groupAccBytes
	gs.keys.qc.chargeMem(b - gs.charged)
	gs.charged = b
}

// scanRowsInto aggregates a block's filtered rows into gs: the row closures'
// aggregation. Each row's key values fill one-lane vectors, so the row
// closures and the kernels find groups through the same key classes. It polls
// on a counter of its own, so a morsel worker may call it too.
func (p *scanPlan) scanRowsInto(gs *groupSet, rows [][]Value) error {
	if err := faultpoint.Hit(faultpoint.SiteEngineScanRows); err != nil {
		return err
	}
	keys := make([]*colVec, len(p.keyFns))
	for i := range keys {
		keys[i] = &colVec{kind: TAny, anys: make([]Value, 1)}
	}
	ns := len(p.specs)
	for r, row := range rows {
		if r&(pollEvery-1) == pollEvery-1 {
			if err := p.qc.pollAbort(); err != nil {
				return err
			}
		}
		for i, fn := range p.keyFns {
			v, err := fn(row)
			if err != nil {
				return err
			}
			keys[i].anys[0] = v
		}
		id, isNew, err := gs.group(keys, 0)
		if err != nil {
			return err
		}
		if isNew {
			if err := p.newGroup(gs, func(j int) Value { return row[j] }); err != nil {
				return err
			}
		}
		accs := gs.accs[id*ns : id*ns+ns]
		for i, sp := range p.specs {
			if sp.arg == nil {
				accs[i].addStar()
				continue
			}
			v, err := sp.arg(row)
			if err != nil {
				return err
			}
			if err := accs[i].add(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// mergeGroups folds src, a later worker's state, into dst in src's id order,
// which reproduces the first-seen group order of a serial scan. A group new to
// dst is moved, not copied; the others merge accumulator by accumulator.
func (p *scanPlan) mergeGroups(dst, src *groupSet) error {
	// Each group's slot in src: i of intSlots[i], or ^i of byteSlots[i].
	t, ns := &src.keys, len(p.specs)
	refs := make([]int, len(src.rows))
	for i, s := range t.intSlots {
		if s.head != 0 {
			refs[s.head-1] = i
		}
	}
	for i, s := range t.byteSlots {
		if s.head != 0 {
			refs[s.head-1] = ^i
		}
	}
	for id, r := range refs {
		class, x, kb := keyInt, int64(0), []byte(nil)
		if r >= 0 {
			x = t.intSlots[r].key
		} else {
			sp := t.spans[^r]
			class, x, kb = keyBytes, t.byteSlots[^r].key, t.arena[sp[0]:sp[1]]
		}
		d, err := dst.keys.claim(class, x, kb)
		if err != nil {
			return err
		}
		accs := src.accs[id*ns : id*ns+ns]
		if d.head == 0 {
			d.head = int32(len(dst.rows)) + 1
			dst.rows = append(dst.rows, src.rows[id])
			dst.accs = append(dst.accs, accs...)
			continue
		}
		for i, acc := range dst.accs[int(d.head-1)*ns : int(d.head)*ns] {
			if err := acc.merge(accs[i]); err != nil {
				return err
			}
		}
	}
	dst.charge()
	return nil
}

// finish writes each group's aggregate results into the slots after its
// relation columns and returns the group rows in order, with the single
// zero-row group a global aggregate requires.
func (p *scanPlan) finish(gs *groupSet) ([][]Value, error) {
	if len(gs.rows) == 0 && len(p.keyFns) == 0 {
		if err := p.newGroup(gs, func(int) Value { return nil }); err != nil {
			return nil, err
		}
	}
	w, ns := p.scope.rel.width(), len(p.specs)
	for id, row := range gs.rows {
		for i, acc := range gs.accs[id*ns : id*ns+ns] {
			row[w+i] = acc.result()
		}
	}
	return gs.rows, nil
}

// run executes the plan: vectorized, chunk-at-a-time morsels (vecexec.go)
// when every expression is pure and has a kernel; otherwise the row closures,
// serially in two phases — filter every row, then aggregate the survivors —
// which fixes the order impure expressions draw from the engine RNG.
func (p *scanPlan) run() ([][]Value, error) {
	src := p.scope.rel.src
	if p.pure && !p.qc.eng.noVec.Load() {
		if vp := buildVecPlan(p); vp != nil {
			return vp.run(src)
		}
	}
	rows, err := filterRows(p.qc, src, p.where, noLimit)
	if err != nil {
		return nil, err
	}
	gs := p.newGroupSet()
	if err := p.scanRowsInto(gs, rows); err != nil {
		return nil, err
	}
	return p.finish(gs)
}

// projCol is one compiled projection column: either a direct copy of a
// source column (fn nil) or a compiled expression.
type projCol struct {
	fn  compiledExpr
	idx int
}

// projectRow computes one output row from a source row.
func projectRow(src []Value, items []projCol) ([]Value, error) {
	row := make([]Value, len(items))
	for j, it := range items {
		if it.fn == nil {
			row[j] = src[it.idx]
			continue
		}
		v, err := it.fn(src)
		if err != nil {
			return nil, err
		}
		row[j] = v
	}
	return row, nil
}
