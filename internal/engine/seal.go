package engine

import (
	"slices"
	"strings"
)

// The columnar write path. A CREATE TABLE … AS SELECT or INSERT … SELECT
// whose block runs as a vecSelect keeps its result in the vectors the kernels
// and the scan produced (laneSet) instead of boxing it into rows, and the
// target table gathers whole chunks straight from them (gatherCol) into the
// form packCol gives the same rows boxed. Both then meet in one seal
// (sealChunk), so a table's chunks are the same whichever way its rows came.

// laneSet is a vectorized SELECT's result in typed form, in scan order: for
// each source chunk that kept rows, every output column's vector and the rows
// of it that are the result's lanes.
type laneSet struct {
	batches []laneBatch
	n       int
}

// laneBatch is one source chunk's share of a laneSet: output j's lane k is row
// idx[j][k] of cols[j] — a column of the chunk under the filter's selection,
// or a snapshot of a kernel's output read lane by lane.
type laneBatch struct {
	n    int
	cols []*colVec
	idx  [][]int32
}

// snapshot copies the n lanes of a kernel's output, which the worker's next
// chunk overwrites, into vectors of its own. What no kernel writes — a shared
// dictionary, a stored column's block — is shared.
func (v *colVec) snapshot(n int) *colVec {
	s := &colVec{kind: v.kind, enc: v.enc, dict: v.dict, sbytes: v.sbytes, soffs: v.soffs, sw: v.sw}
	if len(v.nulls) > 0 {
		s.nulls = slices.Clone(v.nulls[:n])
	}
	switch {
	case v.enc == encDict:
		s.codes = slices.Clone(v.codes[:n])
	case v.inBlock():
	case v.kind == TInt:
		s.ints = slices.Clone(v.ints[:n])
	case v.kind == TFloat:
		s.floats = slices.Clone(v.floats[:n])
	case v.kind == TString:
		s.strs = slices.Clone(v.strs[:n])
	case v.kind == TBool:
		s.bools = slices.Clone(v.bools[:n])
	default:
		s.anys = slices.Clone(v.anys[:n])
	}
	return s
}

// colType is ResultSet.colType of output j.
func (ls *laneSet) colType(j int) ColType {
	for _, b := range ls.batches {
		for _, i := range b.idx[j] {
			if cv := b.cols[j]; !cv.isNull(int(i)) {
				return InferType(cv.value(int(i)))
			}
		}
	}
	return TAny
}

// lanePart is lanes [lo, hi) of one batch.
type lanePart struct {
	b      *laneBatch
	lo, hi int
}

// col returns output j of the part: its vector and the rows of it.
func (p lanePart) col(j int) (*colVec, []int32) {
	return p.b.cols[j], p.b.idx[j][p.lo:p.hi]
}

// laneCursor walks a laneSet's rows in order.
type laneCursor struct {
	ls     *laneSet
	b, off int
}

// next returns the parts holding the next n rows, in parts' storage.
func (cur *laneCursor) next(n int, parts []lanePart) []lanePart {
	parts = parts[:0]
	for n > 0 {
		b := &cur.ls.batches[cur.b]
		k := min(n, b.n-cur.off)
		parts = append(parts, lanePart{b, cur.off, cur.off + k})
		n -= k
		if cur.off += k; cur.off == b.n {
			cur.b, cur.off = cur.b+1, 0
		}
	}
	return parts
}

// appendLanes appends a SELECT's typed result to the table, output j to
// column colIdx[j] (a column no output names is NULL). Whole chunks are
// gathered from the lanes and sealed; only the rows that complete the open
// tail or stay in the new one are boxed, so chunk boundaries and every sealed
// column are what appending the rows boxed gives. It polls between chunks: an
// abort leaves the rows before it appended. Callers hold the engine write lock.
func (t *Table) appendLanes(qc *queryCtx, ls *laneSet, colIdx []int) error {
	w := len(t.Cols)
	from := make([]int, w) // the output each column takes, -1 for none
	for tj := range from {
		from[tj] = -1
	}
	for j, tj := range colIdx {
		from[tj] = j
	}
	cur, left := laneCursor{ls: ls}, ls.n
	var parts []lanePart
	box := func(n int) {
		parts = cur.next(n, parts)
		for _, row := range boxParts(parts, w, colIdx) {
			t.appendRow(row, qc)
		}
		left -= n
	}
	if len(t.tail) > 0 {
		box(min(chunkRows-len(t.tail), left))
	}
	for ; left >= chunkRows; left -= chunkRows {
		if err := qc.pollAbort(); err != nil {
			return err
		}
		parts = cur.next(chunkRows, parts)
		ch := &chunk{cols: make([]colVec, w), n: chunkRows}
		for tj, j := range from {
			if j < 0 {
				ch.cols[tj] = colVec{kind: TAny, anys: make([]Value, chunkRows)}
			} else {
				gatherCol(&ch.cols[tj], parts, j, chunkRows)
			}
		}
		t.sealed = append(t.sealed, sealChunk(ch, qc))
		t.nrows += chunkRows
		t.tail = nil
	}
	box(left)
	return nil
}

// boxParts boxes the rows of parts as rows of w cells, output j in cell
// colIdx[j] and NULL in the rest, sliced out of one block.
func boxParts(parts []lanePart, w int, colIdx []int) [][]Value {
	n := 0
	for _, p := range parts {
		n += p.hi - p.lo
	}
	block, rows := make([]Value, n*w), make([][]Value, n)
	k := 0
	for _, p := range parts {
		for j, tj := range colIdx {
			cv, idx := p.col(j)
			boxColLanes(block[k*w+tj:], w, cv, idx)
		}
		k += p.hi - p.lo
	}
	for i := range rows {
		rows[i] = block[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// gatherCol copies output j of parts, n rows, into col in the form packCol
// gives the same rows boxed: the kind their non-NULL values share, NULL slots
// zero and strings copied into one block — or, when the kinds differ or every
// row is NULL, the boxes (TAny), strings cloned.
func gatherCol(col *colVec, parts []lanePart, j, n int) {
	kind, hasNull := ColType(-1), false
	for _, p := range parts {
		cv, idx := p.col(j)
		if cv.kind == TAny {
			for _, i := range idx {
				if v := cv.anys[i]; v == nil {
					hasNull = true
				} else {
					kind = mergeKind(kind, storageKind(v))
				}
			}
			continue
		}
		nulls := 0
		if len(cv.nulls) > 0 {
			for _, i := range idx {
				if cv.isNull(int(i)) {
					nulls++
				}
			}
		}
		hasNull = hasNull || nulls > 0
		if nulls < len(idx) {
			kind = mergeKind(kind, cv.kind)
		}
	}
	if kind == -1 || kind == TAny {
		col.kind, col.anys = TAny, make([]Value, n)
		k := 0
		for _, p := range parts {
			cv, idx := p.col(j)
			for _, i := range idx {
				v := cv.value(int(i))
				if s, ok := v.(string); ok {
					v = strings.Clone(s)
				}
				col.anys[k] = v
				k++
			}
		}
		return
	}
	col.kind = kind
	if hasNull {
		col.nulls = make([]bool, n)
	}
	var strs []string
	switch kind {
	case TInt:
		col.ints = make([]int64, n)
	case TFloat:
		col.floats = make([]float64, n)
	case TString:
		strs = make([]string, n)
	case TBool:
		col.bools = make([]bool, n)
	}
	k := 0
	for _, p := range parts {
		cv, idx := p.col(j)
		m := len(idx)
		win := colVec{kind: kind} // lanes [k, k+m) of col
		switch kind {
		case TInt:
			win.ints = col.ints[k : k+m]
		case TFloat:
			win.floats = col.floats[k : k+m]
		case TString:
			win.strs = strs[k : k+m]
		case TBool:
			win.bools = col.bools[k : k+m]
		}
		switch cv.kind {
		case kind:
			gatherLanes(&win, cv, idx)
			if len(win.nulls) > 0 {
				copy(col.nulls[k:], win.nulls)
			}
		case TAny:
			for x, i := range idx {
				switch v := cv.anys[i].(type) {
				case nil:
					col.nulls[k+x] = true
				case int64:
					win.ints[x] = v
				case float64:
					win.floats[x] = v
				case string:
					win.strs[x] = v
				case bool:
					win.bools[x] = v
				}
			}
		default: // another kind, so none of these lanes has a value
			for x := range m {
				col.nulls[k+x] = true
			}
		}
		k += m
	}
	// NULL slots take a stored column's zero values: a kernel's lanes hold
	// whatever its buffer held.
	for i, null := range col.nulls {
		if null {
			switch kind {
			case TInt:
				col.ints[i] = 0
			case TFloat:
				col.floats[i] = 0
			case TString:
				strs[i] = ""
			case TBool:
				col.bools[i] = false
			}
		}
	}
	if kind == TString {
		col.storeStrs(strs)
	}
}
