package engine

import (
	"errors"
	"math"
	"runtime/debug"
	"sync"

	"verdictdb/internal/faultpoint"
	"verdictdb/internal/sqlparser"
)

// Morsel-parallel scan execution: the engine's one parallel path. A source's
// chunk sequence is partitioned into contiguous per-worker ranges; each worker
// runs the vector kernels over its chunks with private state (a group map, an
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
// no kernel, under SetVectorized(false), and when a kernel's evaluation errors
// (errKernel): the vector attempt is discarded and the block starts over.

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
	//verdict:nopoll plan-time prefix sum: O(1) per slot
	for _, sl := range slots {
		total += sl.slotRows()
	}
	bounds := make([]int, nw+1)
	w, before := 1, 0
	//verdict:nopoll plan-time prefix sum: O(1) per slot
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

// chunkEmit appends one chunk's output rows to out, at most room of them.
type chunkEmit func(out [][]Value, ch *chunk, room int) ([][]Value, error)

// scanChunks drives a chunk-at-a-time row producer over src: serially, or —
// when vectors is set — as contiguous chunk ranges per worker concatenated in
// chunk order, so the rows equal a serial scan's. newEmit builds one worker's
// producer. A bound below noLimit asks for the first bound rows only: each
// worker stops loading chunks once its own range has produced bound rows, and
// the concatenation ends at the range that completes the bound — later ranges
// are dropped, errors included, because a serial scan would not have reached
// them. Workers never signal each other, and the result is exactly the
// prefix of the unbounded one; a bound of 0 loads nothing.
//
// vectors says emit is the vectorized projection rather than the row closures:
// it may fan out, and the rows it returns alias the chunk's vectors
// (boxcol.go), so the vectors gathered into a probe slot's chunk are the
// result's, not the worker's to reuse (probeBuf.alias).
func scanChunks(qc *queryCtx, src *colSource, bound int, vectors bool, newEmit func() chunkEmit) ([][]Value, error) {
	type part struct {
		rows    [][]Value
		visited int
		err     error
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
		emit := newEmit()
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
	for _, p := range parts {
		// A failed scan counts nothing: an errKernel caller scans src again.
		if p.err != nil {
			return nil, p.err
		}
		if nw > 1 {
			res = append(res, p.rows...)
		}
		if len(res) >= bound {
			res = res[:bound]
			break
		}
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
	where    *laneExpr // nil when the query has no WHERE
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

	groupBytes int64 // gauge charge per created group
}

// buildScanPlan compiles GROUP BY keys and aggregate arguments around the
// already compiled WHERE. Accumulators are not validated here: newAccumulator
// errors (unknown aggregate, bad percentile fraction) surface from run() when
// the first group is created, and validating up front would allocate sketch
// state (reservoirs, HLL registers) just to throw it away.
func buildScanPlan(scope *env, sel *sqlparser.SelectStmt, aggCalls []*sqlparser.FuncCall, width int, wherePred *laneExpr, wherePure bool) *scanPlan {
	p := &scanPlan{qc: scope.qc, scope: scope, where: wherePred, whereAST: sel.Where, keyASTs: sel.GroupBy, width: width}
	var keysPure bool
	p.keyFns, keysPure = compileExprs(scope, sel.GroupBy)
	p.pure = wherePure && keysPure
	p.specs = make([]aggSpec, len(aggCalls))
	for i, fc := range aggCalls {
		fn, pure := compileAggArg(scope, fc)
		p.pure = p.pure && pure
		p.specs[i] = aggSpec{fc: fc, arg: fn}
	}
	// Each created group costs a map entry, the accumulators, and its row.
	p.groupBytes = bytesPerGroup + int64(len(aggCalls))*bytesPerAcc + int64(width)*bytesPerValue
	return p
}

// newGroup adds the group for key to cg: one accumulator per aggregate call,
// and the group's row with the representative cells reprCols names read
// through cell — a lazily filled chunk builds no column just to represent a
// group.
func (p *scanPlan) newGroup(cg *chunkGroups, key []byte, cell func(j int) Value) (*groupAcc, error) {
	g := &groupAcc{row: make([]Value, p.width), accs: make([]accumulator, len(p.specs))}
	for i, sp := range p.specs {
		q, err := quantileLiteralArg(sp.fc)
		if err != nil {
			return nil, err
		}
		if g.accs[i], err = newAccumulator(sp.fc, q, p.qc); err != nil {
			return nil, err
		}
	}
	p.qc.chargeMem(p.groupBytes)
	for _, j := range p.reprCols {
		g.row[j] = cell(j)
	}
	k := string(key)
	cg.m[k] = g
	cg.order = append(cg.order, k)
	return g, nil
}

// groupAcc is one group's partial state: its row (scanPlan.newGroup) plus one
// accumulator per aggregate call.
type groupAcc struct {
	row  []Value
	accs []accumulator
}

// chunkGroups is one worker's hash-aggregation state, with insertion order
// preserved for deterministic output.
type chunkGroups struct {
	m     map[string]*groupAcc
	order []string
}

func newChunkGroups() *chunkGroups { return &chunkGroups{m: map[string]*groupAcc{}} }

// scanRowsInto aggregates a block's filtered rows into cg: the row closures'
// aggregation.
func (p *scanPlan) scanRowsInto(cg *chunkGroups, rows [][]Value) error {
	if err := faultpoint.Hit(faultpoint.SiteEngineScanRows); err != nil {
		return err
	}
	var buf []byte
	for _, row := range rows {
		err := p.qc.tick()
		if err != nil {
			return err
		}
		if buf, err = appendKey(buf[:0], p.keyFns, row); err != nil {
			return err
		}
		g, ok := cg.m[string(buf)]
		if !ok {
			if g, err = p.newGroup(cg, buf, func(j int) Value { return row[j] }); err != nil {
				return err
			}
		}
		for i, sp := range p.specs {
			if sp.arg == nil {
				g.accs[i].addStar()
				continue
			}
			v, err := sp.arg(row)
			if err != nil {
				return err
			}
			if err := g.accs[i].add(v); err != nil {
				return err
			}
		}
	}
	return nil
}

// mergeChunkGroups folds per-worker states together in chunk order, which
// reproduces the global first-seen group order of a serial scan.
func mergeChunkGroups(results []*chunkGroups) (*chunkGroups, error) {
	dst := results[0]
	if dst == nil {
		dst = newChunkGroups()
	}
	for _, src := range results[1:] {
		if src == nil {
			continue
		}
		for _, key := range src.order {
			sg := src.m[key]
			dg, ok := dst.m[key]
			if !ok {
				// Ownership transfer: sg was charged (p.groupBytes) when its
				// worker created it; moving it between tables adds nothing.
				dst.m[key] = sg                    //verdict:nocharge ownership transfer of an already-charged group
				dst.order = append(dst.order, key) //verdict:nocharge ownership transfer of an already-charged group
				continue
			}
			for i := range dg.accs {
				if err := dg.accs[i].merge(sg.accs[i]); err != nil {
					return nil, err
				}
			}
		}
	}
	return dst, nil
}

// finish writes each group's aggregate results into the slots after its
// relation columns and returns the group rows in order, with the single
// zero-row group a global aggregate requires.
func (p *scanPlan) finish(cg *chunkGroups) ([][]Value, error) {
	if len(cg.order) == 0 && len(p.keyFns) == 0 {
		if _, err := p.newGroup(cg, nil, func(int) Value { return nil }); err != nil {
			return nil, err
		}
	}
	w := p.scope.rel.width()
	rows := make([][]Value, len(cg.order))
	for gi, key := range cg.order {
		g := cg.m[key]
		for i, acc := range g.accs {
			g.row[w+i] = acc.result()
		}
		rows[gi] = g.row
	}
	return rows, nil
}

// run executes the plan: vectorized, chunk-at-a-time morsels (vecexec.go)
// when every expression is pure and has a kernel; otherwise the row closures,
// serially in two phases — filter every row, then aggregate the survivors —
// which fixes the order impure expressions draw from the engine RNG.
func (p *scanPlan) run() ([][]Value, error) {
	src := p.scope.rel.src
	if p.pure && !p.qc.eng.noVec.Load() {
		if vp := buildVecPlan(p); vp != nil {
			refund := p.qc.markMem()
			if rows, err := vp.run(src); !errors.Is(err, errKernel) {
				return rows, err
			}
			refund()
		}
	}
	rows, err := filterRows(p.qc, src, p.where, noLimit)
	if err != nil {
		return nil, err
	}
	cg := newChunkGroups()
	if err := p.scanRowsInto(cg, rows); err != nil {
		return nil, err
	}
	return p.finish(cg)
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
