package engine

import (
	"bytes"

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
// A chunk whose vector evaluation errors is re-run through the closures over
// its row view before any state was mutated: the closures are the reference,
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
	g  *chunkGroups
}

// run executes the vectorized plan over src, morsel-parallel when it has
// enough rows.
func (vp *vecPlan) run(src *colSource) ([]*entry, error) {
	ws, err := scanMorsels(vp.p.qc, src.scanSlots(vp.p.qc), src.nrows, func() *vecScanWorker {
		return &vecScanWorker{vc: vp.newCtx(), g: newChunkGroups()}
	}, func(w *vecScanWorker, _ int, ch *chunk) error {
		return vp.scanChunk(w.g, w.vc, ch)
	})
	if err != nil {
		return nil, err
	}
	cg := ws[0].g
	if len(ws) > 1 {
		results := make([]*chunkGroups, len(ws))
		for i, w := range ws {
			results[i] = w.g
		}
		if cg, err = mergeChunkGroups(results); err != nil {
			return nil, err
		}
	}
	return vp.p.finish(cg)
}

// scanChunk filters and partially aggregates one chunk into cg. Vector
// evaluation happens before any accumulator is touched, so an erroring
// kernel can fall back to the row path for the whole chunk.
func (vp *vecPlan) scanChunk(cg *chunkGroups, vc *vecCtx, ch *chunk) error {
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
			return vp.p.scanRowsInto(cg, ch.rows(), true)
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
	for i, kn := range vp.keys {
		v, err := kn.eval(vc, ch, sel)
		if err != nil {
			return vp.p.scanRowsInto(cg, ch.rows(), true)
		}
		vc.keys[i] = v
	}
	for i, an := range vp.args {
		if an == nil {
			vc.args[i] = nil
			continue
		}
		v, err := an.eval(vc, ch, sel)
		if err != nil {
			return vp.p.scanRowsInto(cg, ch.rows(), true)
		}
		vc.args[i] = v
	}

	// Global aggregates (no GROUP BY) hit exactly one group: find or create
	// it once, then let bulk-capable accumulators (count(*)) take the whole
	// batch in O(1) instead of once per lane.
	if len(vp.keys) == 0 && lanes > 0 {
		g, ok := cg.m[""]
		if !ok {
			accs, err := vp.p.newAccs()
			if err != nil {
				return err
			}
			vp.p.qc.chargeMem(vp.p.groupBytes)
			ri := 0
			if sel != nil {
				ri = int(sel[0])
			}
			g = &groupAcc{repr: ch.materializeRow(ri), accs: accs}
			cg.m[""] = g
			cg.order = append(cg.order, "")
		}
		for i := range vp.args {
			av := vc.args[i]
			if av == nil {
				if sa, ok := g.accs[i].(starAdder); ok {
					sa.addStarN(int64(lanes))
					continue
				}
				for k := 0; k < lanes; k++ {
					g.accs[i].addStar()
				}
				continue
			}
			for k := 0; k < lanes; k++ {
				if err := addLane(g.accs[i], av, k); err != nil {
					return err
				}
			}
		}
		return nil
	}

	// Lane loop: render the group key from typed lanes, find or create the
	// group, and feed each accumulator through its typed entry point. The
	// one-element group memo catches the global-aggregate case (one group)
	// and runs of identical keys without a map probe.
	buf := vc.keyBuf
	var lastKey []byte
	var lastG *groupAcc
	for k := 0; k < lanes; k++ {
		buf = buf[:0]
		for _, kv := range vc.keys {
			buf = appendGroupKeyLane(buf, kv, k)
			buf = append(buf, keySep)
		}
		g := lastG
		if g == nil || !bytes.Equal(buf, lastKey) {
			var ok bool
			g, ok = cg.m[string(buf)]
			if !ok {
				accs, err := vp.p.newAccs()
				if err != nil {
					vc.keyBuf = buf
					return err
				}
				vp.p.qc.chargeMem(vp.p.groupBytes)
				ri := k
				if sel != nil {
					ri = int(sel[k])
				}
				g = &groupAcc{repr: ch.materializeRow(ri), accs: accs}
				key := string(buf)
				cg.m[key] = g
				cg.order = append(cg.order, key)
			}
			lastKey = append(lastKey[:0], buf...)
			lastG = g
		}
		for i := range vp.args {
			av := vc.args[i]
			if av == nil {
				g.accs[i].addStar()
				continue
			}
			if err := addLane(g.accs[i], av, k); err != nil {
				vc.keyBuf = buf
				return err
			}
		}
	}
	vc.keyBuf = buf
	return nil
}

// appendGroupKeyLane renders lane k of a key vector with the same encoding
// as appendGroupKey, reading typed storage directly.
func appendGroupKeyLane(dst []byte, v *vec, k int) []byte {
	if v.isNull(k) {
		return appendGroupKeyNull(dst)
	}
	switch v.kind {
	case TInt:
		return appendGroupKeyInt(dst, v.ints[k])
	case TFloat:
		return appendGroupKeyFloat(dst, v.floats[k])
	case TString:
		return appendGroupKeyStr(dst, v.str(k))
	case TBool:
		return appendGroupKeyBool(dst, v.bools[k])
	}
	return appendGroupKey(dst, v.anys[k])
}

// addLane feeds lane k of an argument vector into an accumulator, using
// the typed entry points when the accumulator provides them so numeric
// scans never box.
func addLane(acc accumulator, v *vec, k int) error {
	if v.isNull(k) {
		return acc.add(nil)
	}
	switch v.kind {
	case TInt:
		if ta, ok := acc.(typedAdder); ok {
			ta.addInt(v.ints[k])
			return nil
		}
		return acc.add(v.ints[k])
	case TFloat:
		if ta, ok := acc.(typedAdder); ok {
			ta.addFloat(v.floats[k])
			return nil
		}
		return acc.add(v.floats[k])
	case TString:
		if sa, ok := acc.(stringAdder); ok {
			sa.addStr(v.str(k))
			return nil
		}
		if v.dict != nil {
			return acc.add(v.dictBoxed[v.codes[k]]) // shared box, no allocation
		}
		return acc.add(v.strs[k])
	case TBool:
		return acc.add(v.bools[k]) // bool boxes are interned
	}
	return acc.add(v.anys[k])
}

// vecSelect is a non-aggregate SELECT lowered to a fused vectorized
// filter→project pipeline: the WHERE kernel yields a selection vector and
// every output column is computed over the selected lanes, materializing
// boxed rows only at the ResultSet boundary.
type vecSelect struct {
	qc         *queryCtx
	where      vnode
	whereConjs []vnode
	whereFn    compiledExpr // row-path fallback predicate
	items      []vnode
	itemFns    []projCol // row-path fallback projections
	// itemCols[j] >= 0 marks output j as a plain column reference: the
	// kernel eval is skipped and surviving lanes late-materialize straight
	// from chunk storage (boxcol.go) after the filter has shrunk the lane
	// set. -1 means computed expression (eval, then bulk-box the vector).
	itemCols []int
	nbuf     int
}

// buildVecSelect lowers the WHERE and output columns of a non-aggregate
// SELECT whose compiled projection items (all pure) are itemFns; nil when
// any of them cannot run vectorized.
func buildVecSelect(scope *env, outCols []outCol, itemFns []projCol, wherePred compiledExpr, whereAST sqlparser.Expr) *vecSelect {
	c := &vecCompiler{scope: scope}
	vs := &vecSelect{qc: scope.qc, whereFn: wherePred, itemFns: itemFns}
	if whereAST != nil {
		vs.where, vs.whereConjs = c.lowerWhere(whereAST)
		if vs.where == nil {
			return nil
		}
	}
	//verdict:nocharge plan-size: one vnode per projected output column
	for _, oc := range outCols {
		if oc.expr == nil {
			vs.items = append(vs.items, &vnCol{id: c.newID(), col: oc.idx}) //verdict:nocharge plan-size
			vs.itemCols = append(vs.itemCols, oc.idx)                       //verdict:nocharge plan-size
			continue
		}
		n := c.lower(oc.expr)
		if n == nil {
			return nil
		}
		ci := -1
		if cn, isCol := n.(*vnCol); isCol {
			ci = cn.col // explicit column reference: late-materialize too
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
			return vs.projectChunkRows(out, ch, room)
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
	// Kernel evaluation for computed items only; plain column references
	// skip it and late-materialize from chunk storage below, decoding only
	// the lanes the filter kept.
	for j, it := range vs.items {
		if vs.itemCols[j] >= 0 {
			vc.items[j] = nil
			continue
		}
		v, err := it.eval(vc, ch, sel)
		if err != nil {
			return vs.projectChunkRows(out, ch, room)
		}
		vc.items[j] = v
	}
	w := len(vs.items)
	vs.qc.chargeMem(int64(lanes) * (int64(w) + 2) * bytesPerValue)
	// One boxed block per chunk, sliced into rows: surviving lanes are
	// boxed in bulk (boxcol.go), collapsing the old per-row make+box loop
	// into a handful of allocations per chunk.
	block := make([]Value, lanes*w)
	for j := range vs.items {
		if ci := vs.itemCols[j]; ci >= 0 {
			boxColLanes(block[j:], w, ch.col(ci), sel, lanes)
		} else {
			boxVecLanes(block[j:], w, vc.items[j], lanes)
		}
	}
	for k := 0; k < lanes; k++ {
		out = append(out, block[k*w:(k+1)*w:(k+1)*w])
	}
	return out, nil
}

// projectChunkRows is the per-chunk row-path fallback: filter and project
// through the compiled closures over the cached row view.
func (vs *vecSelect) projectChunkRows(out [][]Value, ch *chunk, room int) ([][]Value, error) {
	for _, r := range ch.rows() {
		if room == 0 {
			break
		}
		if vs.whereFn != nil {
			v, err := vs.whereFn(r)
			if err != nil {
				return nil, err
			}
			if b, ok := ToBool(v); !ok || !b {
				continue
			}
		}
		row, err := projectRow(r, vs.itemFns)
		if err != nil {
			return nil, err
		}
		out = append(out, row)
		room--
	}
	return out, nil
}
