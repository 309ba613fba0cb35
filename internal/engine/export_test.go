package engine

import (
	"context"
	"fmt"
	"math/bits"
	"unsafe"

	"verdictdb/internal/sqlparser"
)

// prefilterOutcomes builds sql's FROM the way its SELECT block does and
// returns, per leaf in FROM order, what became of its pre-filter and how many
// WHERE conjuncts left WHERE with it ("applied: hashed input/1"; "/0" for a
// leaf nothing was pushed to), and the WHERE the joined rows still need ("" for
// none).
func prefilterOutcomes(e *Engine, sql string) (leaves []string, where string, err error) {
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, "", err
	}
	p := planFrom(e.newQueryCtx(context.Background(), sql), sel.From, sel.Where)
	if _, err := p.build(sel.From, nil, 0); err != nil {
		return nil, "", err
	}
	if w := p.residual(sel.Where); w != nil {
		where = sqlparser.FormatExpr(w)
	}
	names := [...]string{filterNone: "", filterApplied: "applied", filterHashed: "applied: hashed input",
		filterKeptHalf: "kept: keeps more than half", filterKeptKernel: "kept: kernel error", filterBlocked: "blocked"}
	for _, lf := range p.leaves {
		dropped := 0
		if lf.outcome == filterApplied || lf.outcome == filterHashed {
			dropped = bits.OnesCount32(lf.own)
		}
		leaves = append(leaves, fmt.Sprintf("%s/%d", names[lf.outcome], dropped))
	}
	return leaves, where, nil
}

// ForeignStrings counts the non-empty strings table dst stores — in its open
// tail rows, and in its sealed chunks: string blocks, dictionary entries and
// their boxes, zone bounds and boxed lanes — whose bytes lie inside a string
// block or dictionary of a sealed chunk of one of the src tables. Tables that
// own their strings count 0. A flushed chunk is loaded, so its blocks are the
// ones the chunk cache holds.
func ForeignStrings(e *Engine, dst string, srcs ...string) (int, error) {
	chunks := func(name string) ([]*chunk, error) {
		t, err := e.Lookup(name)
		if err != nil {
			return nil, err
		}
		var out []*chunk
		for _, sl := range t.sealed {
			ch, err := sl.load(nil, nil)
			if err != nil {
				return nil, err
			}
			for j := range ch.cols {
				ch.col(j)
			}
			out = append(out, ch)
		}
		return out, nil
	}
	type span struct{ lo, hi uintptr }
	var blocks []span
	add := func(p unsafe.Pointer, n int) {
		if n > 0 {
			blocks = append(blocks, span{uintptr(p), uintptr(p) + uintptr(n)})
		}
	}
	for _, name := range srcs {
		src, err := chunks(name)
		if err != nil {
			return 0, err
		}
		for _, ch := range src {
			for j := range ch.cols {
				cv := &ch.cols[j]
				add(unsafe.Pointer(unsafe.SliceData(cv.sbytes)), cap(cv.sbytes))
				for _, s := range cv.dict {
					add(unsafe.Pointer(unsafe.StringData(s)), len(s))
				}
			}
		}
	}
	foreign := 0
	check := func(v Value) {
		s, ok := v.(string)
		if !ok || len(s) == 0 {
			return
		}
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for _, b := range blocks {
			if p >= b.lo && p < b.hi {
				foreign++
				return
			}
		}
	}
	t, err := e.Lookup(dst)
	if err != nil {
		return 0, err
	}
	for _, row := range t.tail {
		for _, v := range row {
			check(v)
		}
	}
	stored, err := chunks(dst)
	if err != nil {
		return 0, err
	}
	for _, ch := range stored {
		for j := range ch.cols {
			cv := &ch.cols[j]
			if len(cv.sbytes) > 0 {
				check(unsafe.String(unsafe.SliceData(cv.sbytes), len(cv.sbytes)))
			}
			for _, s := range cv.strs {
				check(s)
			}
			for _, s := range cv.dict {
				check(s)
			}
			for _, v := range cv.dictBoxed {
				check(v)
			}
			for _, v := range cv.anys {
				check(v)
			}
			check(cv.min)
			check(cv.max)
		}
	}
	return foreign, nil
}
