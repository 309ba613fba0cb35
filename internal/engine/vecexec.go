package engine

import (
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
// A kernel whose evaluation errors ends the attempt with errKernel, and the
// caller runs the whole block on the closures instead: they are the reference,
// so semantics, including error text and timing, are theirs.

// vecPlan is a scanPlan lowered to vector kernels.
type vecPlan struct {
	p          *scanPlan
	where      vnode   // nil when the query has no WHERE
	whereConjs []vnode // top-level AND conjuncts of where
	keys       []vnode // GROUP BY keys
	args       []vnode // aggregate arguments; nil for count(*)-style stars
	nbuf       int
}

// buildVecPlan lowers a pure compiled scan plan to vector kernels; nil
// when some expression cannot run on the vectorized path.
func buildVecPlan(p *scanPlan) *vecPlan {
	c := &vecCompiler{scope: p.scope}
	vp := &vecPlan{p: p}
	if p.whereAST != nil {
		vp.where, vp.whereConjs = c.lowerWhere(p.whereAST)
		if vp.where == nil {
			return nil
		}
	}
	for _, ke := range p.keyASTs {
		n := c.lower(ke)
		if n == nil {
			return nil
		}
		vp.keys = append(vp.keys, n) //verdict:nocharge plan-size: one vnode per GROUP BY expression
	}
	for _, sp := range p.specs {
		if sp.fc.Star {
			vp.args = append(vp.args, nil) //verdict:nocharge plan-size: one vnode slot per aggregate call
			continue
		}
		n := c.lower(sp.fc.Args[0])
		if n == nil {
			return nil
		}
		vp.args = append(vp.args, n) //verdict:nocharge plan-size: one vnode slot per aggregate call
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
	vc *vecCtx
	g  *groupSet
}

// run executes the vectorized plan over src, morsel-parallel when it has
// enough rows.
func (vp *vecPlan) run(src *colSource) ([][]Value, error) {
	ws, err := scanMorsels(vp.p.qc, src.scanSlots(vp.p.qc), src.nrows, false, func() *vecScanWorker {
		return &vecScanWorker{vc: vp.newCtx(), g: vp.p.newGroupSet()}
	}, func(w *vecScanWorker, _ int, ch *chunk) error {
		return vp.scanChunk(w.g, w.vc, ch)
	})
	if err != nil {
		return nil, err
	}
	for _, w := range ws[1:] {
		if err := vp.p.mergeGroups(ws[0].g, w.g); err != nil {
			return nil, err
		}
	}
	return vp.p.finish(ws[0].g)
}

// scanChunk filters and partially aggregates one chunk into gs.
func (vp *vecPlan) scanChunk(gs *groupSet, vc *vecCtx, ch *chunk) error {
	if err := faultpoint.Hit(faultpoint.SiteEngineScanChunk); err != nil {
		return err
	}
	lanes := ch.n
	var sel []int32
	if vp.where != nil {
		var all bool
		var err error
		sel, all, err = evalFilter(vc, ch, vp.where, vp.whereConjs)
		if err != nil {
			return errKernel
		}
		if all {
			sel = nil
		} else {
			lanes = len(sel)
			if lanes == 0 {
				return nil
			}
		}
	}
	if err := evalNodes(vc, ch, sel, vp.keys, vc.keys); err != nil {
		return err
	}
	if err := evalNodes(vc, ch, sel, vp.args, vc.args); err != nil {
		return err
	}

	// Lane loop: find each lane's group in the key table, creating it when the
	// key is new, and feed each accumulator through its typed entry point.
	// Global aggregates (no GROUP BY) hit exactly one group: it is found once,
	// and bulk-capable accumulators (count(*)) take the whole batch in O(1).
	ns := len(vp.args)
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
			return addBatch(accs, vc.args, lanes)
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
	return nil
}

// addBatch feeds every lane of a chunk into the accumulators of its one
// group.
func addBatch(accs []accumulator, args []*colVec, lanes int) error {
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
		for k := 0; k < lanes; k++ {
			if err := addLane(accs[i], av, k); err != nil {
				return err
			}
		}
	}
	return nil
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
	qc         *queryCtx
	where      vnode
	whereConjs []vnode
	items      []vnode
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
		vs.where, vs.whereConjs = c.lowerWhere(whereAST)
		if vs.where == nil {
			return nil
		}
	}
	//verdict:nocharge plan-size: one vnode per projected output column
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
		vs.items = append(vs.items, n)        //verdict:nocharge plan-size
		vs.itemCols = append(vs.itemCols, ci) //verdict:nocharge plan-size
	}
	vs.nbuf = c.nbuf
	return vs
}

// run scans src through the pipeline, stopping at bound output rows.
func (vs *vecSelect) run(src *colSource, bound int) ([][]Value, error) {
	return scanChunks(vs.qc, src, bound, true, func() chunkEmit {
		vc := newVecCtx(vs.nbuf, 0, 0, len(vs.items))
		return func(out [][]Value, ch *chunk, room int) ([][]Value, error) {
			return vs.projectChunk(out, vc, ch, room)
		}
	})
}

// projectChunk filters and projects one chunk, appending at most room
// output rows.
func (vs *vecSelect) projectChunk(out [][]Value, vc *vecCtx, ch *chunk, room int) ([][]Value, error) {
	lanes := ch.n
	var sel []int32
	if vs.where != nil {
		var all bool
		var err error
		sel, all, err = evalFilter(vc, ch, vs.where, vs.whereConjs)
		if err != nil {
			return nil, errKernel
		}
		if all {
			sel = nil
		} else {
			lanes = len(sel)
			if lanes == 0 {
				return out, nil
			}
		}
	}
	if lanes > room {
		// Only the first room surviving lanes are wanted.
		lanes = room
		if sel != nil {
			sel = sel[:room]
		}
	}
	rows := vc.lanesOf(ch, sel)[:lanes]
	// Kernel evaluation for computed items only; plain column references
	// have no node and late-materialize from chunk storage below, decoding
	// only the lanes the filter kept.
	if err := evalNodes(vc, ch, sel, vs.items, vc.items); err != nil {
		return nil, err
	}
	w := len(vs.items)
	vs.qc.chargeMem(int64(lanes) * boxedRowBytes(w))
	// One boxed block per chunk, sliced into rows: surviving lanes are
	// boxed in bulk (boxcol.go), collapsing the old per-row make+box loop
	// into a handful of allocations per chunk.
	block := make([]Value, lanes*w)
	for j := range vs.items {
		if ci := vs.itemCols[j]; ci >= 0 {
			boxColLanes(block[j:], w, ch.col(ci), rows)
		} else {
			boxVecLanes(block[j:], w, vc.items[j], vc.lanesOf(ch, nil)[:lanes])
		}
	}
	for k := 0; k < lanes; k++ {
		out = append(out, block[k*w:(k+1)*w:(k+1)*w])
	}
	return out, nil
}
