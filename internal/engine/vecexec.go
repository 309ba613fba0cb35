package engine

import (
	"slices"

	"verdictdb/internal/faultpoint"
	"verdictdb/internal/sqlparser"
)

// Vectorized execution drivers: the chunk-at-a-time scan→filter→aggregate
// pipeline and the chunk-at-a-time filter→project pipeline for
// non-aggregate selects. They read a relation's chunk source whatever
// produced it — a table snapshot, a join's output chunks, the ephemeral
// chunks built over a derived table's rows — and hand out whole chunks as
// morsels (contiguous chunk ranges per worker, merged/concatenated in chunk
// order), so results and group order match the row closures' serial scan.
// Errors follow the closures' phase order too, which filter every row before
// they aggregate or project one: a worker that meets an aggregate or
// projection error keeps it and runs only the WHERE over its later chunks, and
// a WHERE error in any range reached comes first.

// vecPlan is a scanPlan lowered to vector kernels.
type vecPlan struct {
	p     *scanPlan
	where vnode   // nil when the query has no WHERE
	keys  []vnode // GROUP BY keys
	args  []vnode // aggregate arguments; nil for count(*)-style stars
	nbuf  int
}

// buildVecPlan lowers a pure compiled scan plan to vector kernels; nil
// when some expression cannot run on the vectorized path.
func buildVecPlan(p *scanPlan) *vecPlan {
	c := &vecCompiler{scope: p.scope}
	vp := &vecPlan{p: p}
	if p.whereAST != nil {
		if vp.where = c.lower(p.whereAST); vp.where == nil {
			return nil
		}
	}
	for _, ke := range p.keyASTs {
		n := c.lower(ke)
		if n == nil {
			return nil
		}
		vp.keys = append(vp.keys, n) // plan-size: one vnode per GROUP BY expression
	}
	for _, sp := range p.specs {
		if sp.fc.Star {
			vp.args = append(vp.args, nil) // plan-size: one vnode slot per aggregate call
			continue
		}
		n := c.lower(sp.fc.Args[0])
		if n == nil {
			return nil
		}
		vp.args = append(vp.args, n) // plan-size: one vnode slot per aggregate call
	}
	vp.nbuf = c.nbuf
	return vp
}

func (vp *vecPlan) newCtx() *vecCtx {
	return newVecCtx(vp.nbuf, len(vp.keys), len(vp.args), 0)
}

// vecScanWorker is one morsel worker's private state: kernel buffers and the
// groups of its chunk range.
type vecScanWorker struct {
	vc   *vecCtx
	g    *groupSet
	late error // an aggregate error, reported unless some WHERE error is
}

// run executes the vectorized plan over src, morsel-parallel when it has
// enough rows.
func (vp *vecPlan) run(src *colSource) ([][]Value, error) {
	ws, err := scanMorsels(vp.p.qc, src.scanSlots(vp.p.qc), src.nrows, false, func() *vecScanWorker {
		return &vecScanWorker{vc: vp.newCtx(), g: vp.p.newGroupSet()}
	}, vp.scanChunk)
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		if w.late != nil {
			return nil, w.late
		}
	}
	for _, w := range ws[1:] {
		if err := vp.p.mergeGroups(ws[0].g, w.g); err != nil {
			return nil, err
		}
	}
	return vp.p.finish(ws[0].g)
}

// scanChunk filters one chunk and, until the worker meets an aggregate error,
// partially aggregates it into the worker's groups.
func (vp *vecPlan) scanChunk(w *vecScanWorker, _ int, ch *chunk) error {
	if err := faultpoint.Hit(faultpoint.SiteEngineScanChunk); err != nil {
		return err
	}
	var sel []int32
	if vp.where != nil {
		var err error
		if sel, err = evalFilter(w.vc, ch, nil, vp.where); err != nil || sel != nil && len(sel) == 0 {
			return err
		}
	}
	if w.late != nil {
		return nil
	}
	// Written only on an error: the workers' states may share a cache line.
	if err := vp.aggregate(w.g, w.vc, ch, sel); err != nil {
		w.late = err
	}
	return nil
}

// aggregate adds the lanes sel of ch to gs: each lane's group is found in the
// key table, created when the key is new, and each accumulator fed through its
// typed entry point. Global aggregates (no GROUP BY) hit exactly one group: it
// is found once, and bulk-capable accumulators (count(*)) take the whole batch
// in O(1). On a kernel error at row r the lanes before r are added, then row r
// goes through the row closures, which meet its keys, its group and each
// argument and its add in the row path's order.
func (vp *vecPlan) aggregate(gs *groupSet, vc *vecCtx, ch *chunk, sel []int32) error {
	sel, kerr := evalNodes(vc, ch, sel, vp.keys, vc.keys)
	if pre, err := evalNodes(vc, ch, sel, vp.args, vc.args); err != nil {
		sel, kerr = pre, err
	}
	ns, lanes := len(vp.args), laneCount(ch, sel)
	for k := 0; k < lanes; k++ {
		id, isNew, err := gs.group(vc.keys, k)
		if err != nil {
			return err
		}
		if isNew {
			ri := k
			if sel != nil {
				ri = int(sel[k])
			}
			if err := vp.p.newGroup(gs, func(j int) Value { return ch.valueAt(j, ri) }); err != nil {
				return err
			}
		}
		accs := gs.accs[id*ns : id*ns+ns]
		if len(vp.keys) == 0 {
			if err := addBatch(accs, vc.args, lanes); err != nil {
				return err
			}
			break
		}
		for i, av := range vc.args {
			if av == nil {
				accs[i].addStar()
				continue
			}
			if err := addLane(accs[i], av, k); err != nil {
				return err
			}
		}
	}
	if le, ok := kerr.(*laneErr); ok {
		if err := vp.p.scanRowsInto(gs, [][]Value{ch.materializeRow(int(le.row))}); err != nil {
			return err
		}
	}
	return kerr
}

// addBatch feeds every lane of a chunk into the accumulators of its one
// group. After an add error the later accumulators get only the lanes before
// its lane, so the error returned is the row path's: the earliest row's.
func addBatch(accs []accumulator, args []*colVec, lanes int) (err error) {
	for i, av := range args {
		if av == nil {
			if sa, ok := accs[i].(starAdder); ok {
				sa.addStarN(int64(lanes))
				continue
			}
			for k := 0; k < lanes; k++ {
				accs[i].addStar()
			}
			continue
		}
		for k := range lanes {
			if aerr := addLane(accs[i], av, k); aerr != nil {
				err, lanes = aerr, k
				break
			}
		}
	}
	return err
}

// addLane feeds lane k of an argument vector into an accumulator, using
// the typed entry points when the accumulator provides them so numeric
// scans never box.
func addLane(acc accumulator, v *colVec, k int) error {
	if v.isNull(k) {
		return acc.add(nil)
	}
	switch v.kind {
	case TInt:
		if ta, ok := acc.(typedAdder); ok {
			ta.addInt(v.ints[k])
			return nil
		}
	case TFloat:
		if ta, ok := acc.(typedAdder); ok {
			ta.addFloat(v.floats[k])
			return nil
		}
	case TString:
		if sa, ok := acc.(stringAdder); ok {
			sa.addStr(v.strAt(k))
			return nil
		}
	}
	// Dictionary entries are boxed once per dictionary and bool boxes are
	// interned: those lanes add without allocating.
	return acc.add(v.value(k))
}

// vecSelect is a non-aggregate SELECT lowered to a fused vectorized
// filter→project pipeline: the WHERE kernel yields a selection vector and
// every output column is computed over the selected lanes, materializing
// boxed rows only at the ResultSet boundary.
type vecSelect struct {
	qc    *queryCtx
	where vnode
	items []vnode
	// itemCols[j] >= 0 marks output j as a plain column reference: it has no
	// node, and surviving lanes late-materialize straight from chunk storage
	// (boxcol.go) after the filter has shrunk the lane set. -1 means
	// computed expression (eval, then bulk-box the vector).
	itemCols []int
	nbuf     int
}

// buildVecSelect lowers the WHERE and output columns of a pure non-aggregate
// SELECT; nil when any of them cannot run vectorized.
func buildVecSelect(scope *env, outCols []outCol, whereAST sqlparser.Expr) *vecSelect {
	c := &vecCompiler{scope: scope}
	vs := &vecSelect{qc: scope.qc}
	if whereAST != nil {
		if vs.where = c.lower(whereAST); vs.where == nil {
			return nil
		}
	}
	// plan-size: one vnode per projected output column
	for _, oc := range outCols {
		ci, n := oc.idx, vnode(nil)
		if oc.expr != nil {
			if n = c.lower(oc.expr); n == nil {
				return nil
			}
			ci = -1
			if cn, isCol := n.(*vnCol); isCol {
				ci, n = cn.col, nil // explicit column reference: late-materialize too
			}
		}
		vs.items = append(vs.items, n)
		vs.itemCols = append(vs.itemCols, ci)
	}
	vs.nbuf = c.nbuf
	return vs
}

// run scans src through the pipeline, stopping at bound output rows.
func (vs *vecSelect) run(src *colSource, bound int) ([][]Value, error) {
	return scanChunks(vs.qc, src, bound, true, func(late *error) chunkEmit {
		vc := newVecCtx(vs.nbuf, 0, 0, len(vs.items))
		return func(out [][]Value, ch *chunk, room int) ([][]Value, error) {
			return vs.projectChunk(out, vc, ch, room, late)
		}
	})
}

// laneWorker is one morsel worker of runLanes: its kernel buffers and the
// batches of its chunk range.
type laneWorker struct {
	vc      *vecCtx
	batches []laneBatch
	late    error // a projection error, reported unless some WHERE error is
}

// runLanes is run with no bound for a table to seal (Table.appendLanes): the
// surviving lanes stay in their vectors instead of being boxed into rows.
// Errors are run's: a WHERE error in the earliest range that has one, else the
// earliest projection error.
func (vs *vecSelect) runLanes(src *colSource) (*laneSet, error) {
	ws, err := scanMorsels(vs.qc, src.scanSlots(vs.qc), src.nrows, true, func() *laneWorker {
		return &laneWorker{vc: newVecCtx(vs.nbuf, 0, 0, len(vs.items))}
	}, vs.laneChunk)
	if err != nil {
		return nil, err
	}
	ls := &laneSet{}
	for _, w := range ws {
		if w.late != nil {
			return nil, w.late
		}
		for _, b := range w.batches {
			ls.n += b.n
		}
		ls.batches = append(ls.batches, w.batches...) //verdict:nocharge one header per source chunk; laneChunk charged its lanes
	}
	return ls, nil
}

// laneChunk filters and projects one chunk into a batch: a column output
// names the chunk's column under the filter's selection, a computed one a
// snapshot of its kernel's lanes. After a projection error the worker only
// filters.
func (vs *vecSelect) laneChunk(w *laneWorker, _ int, ch *chunk) error {
	var sel []int32
	if vs.where != nil {
		var err error
		if sel, err = evalFilter(w.vc, ch, nil, vs.where); err != nil {
			return err
		}
	}
	n := laneCount(ch, sel)
	if n == 0 || w.late != nil {
		return nil
	}
	if sel, w.late = evalNodes(w.vc, ch, sel, vs.items, w.vc.items); w.late != nil {
		return nil
	}
	vs.qc.chargeMem(int64(n*len(vs.items)) * bytesPerRef)       // like a gathered column per output
	rows, lanes := slices.Clone(sel), w.vc.lanesOf(ch, nil)[:n] // identity lanes are never written
	if sel == nil {
		rows = lanes
	}
	b := laneBatch{n: n, cols: make([]*colVec, len(vs.items)), idx: make([][]int32, len(vs.items))}
	for j := range vs.items {
		if ci := vs.itemCols[j]; ci >= 0 {
			b.cols[j], b.idx[j] = ch.col(ci), rows
		} else {
			b.cols[j], b.idx[j] = w.vc.items[j].snapshot(n), lanes
		}
	}
	w.batches = append(w.batches, b)
	return nil
}

// projectChunk filters and projects one chunk, appending at most room output
// rows. A WHERE error comes back after the rows that pass before its row,
// unless room of them do. A projection error goes to *late, and from its row
// on rows are only counted, as nil placeholders, so the scan can tell whether
// the error's row is within the bound and no WHERE error comes first.
func (vs *vecSelect) projectChunk(out [][]Value, vc *vecCtx, ch *chunk, room int, late *error) ([][]Value, error) {
	var sel []int32
	var err error
	if vs.where != nil {
		if sel, err = evalFilter(vc, ch, nil, vs.where); err != nil && len(sel) >= room {
			err = nil // the bound is met before the error's row
		}
	}
	lanes := min(laneCount(ch, sel), room)
	if lanes == 0 {
		return out, err
	}
	// Kernel evaluation for computed items only, over the lanes wanted;
	// plain column references have no node and late-materialize from chunk
	// storage below, decoding only the lanes the filter kept.
	if lanes < laneCount(ch, sel) {
		sel = vc.lanesOf(ch, sel)[:lanes]
	}
	n := 0
	if *late == nil {
		sel, *late = evalNodes(vc, ch, sel, vs.items, vc.items)
		n = laneCount(ch, sel)
	}
	if n > 0 {
		w := len(vs.items)
		vs.qc.chargeMem(int64(n) * boxedRowBytes(w))
		// One boxed block per chunk, sliced into rows: surviving lanes are
		// boxed in bulk (boxcol.go), collapsing the old per-row make+box loop
		// into a handful of allocations per chunk.
		block := make([]Value, n*w)
		rows := vc.lanesOf(ch, sel)[:n]
		for j := range vs.items {
			if ci := vs.itemCols[j]; ci >= 0 {
				boxColLanes(block[j:], w, ch.col(ci), rows)
			} else {
				boxVecLanes(block[j:], w, vc.items[j], vc.lanesOf(ch, nil)[:n])
			}
		}
		for k := 0; k < n; k++ {
			out = append(out, block[k*w:(k+1)*w:(k+1)*w])
		}
	}
	for ; n < lanes; n++ {
		out = append(out, nil)
	}
	return out, err
}
