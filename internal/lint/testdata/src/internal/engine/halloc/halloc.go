// Golden cases for the hotalloc analyzer: no per-lane allocation inside
// vector kernels, compiled row closures, or selection-vector loops.
package halloc

type Value any

type colVec struct {
	i64  []int64
	anys []Value
}

type pair struct{ a, b int64 }

// vnAdd is allocation-clean: output presized once, loop writes typed lanes.
type vnAdd struct{ x []int64 }

func (n *vnAdd) eval(sel []int32) (*colVec, error) {
	out := &colVec{i64: make([]int64, len(n.x))}
	for _, k := range sel {
		out.i64[k] = n.x[k] + 1
	}
	return out, nil
}

// vnDirty allocates per lane three different ways.
type vnDirty struct {
	x   []int64
	s   []string
	pfx string
}

func (n *vnDirty) eval(sel []int32) (*colVec, error) {
	out := &colVec{i64: make([]int64, len(n.x)), anys: make([]Value, len(n.x))}
	for _, k := range sel {
		p := pair{a: n.x[k]} // want "composite literal inside a vector kernel loop"
		out.i64[k] = p.a + p.b
		s := n.pfx + n.s[k] // want "string concatenation inside a vector kernel loop"
		_ = s
		out.anys[k] = n.x[k] // want "storing concrete int64 into interface element out.anys\[k\] inside a vector kernel loop"
	}
	return out, nil
}

// vnGrow appends to an unprepared slice: reallocation mid-batch.
type vnGrow struct{ x []int64 }

func (n *vnGrow) eval(sel []int32) (*colVec, error) {
	var hits []int64
	for _, k := range sel {
		hits = append(hits, n.x[k]) // want "append inside a vector kernel loop without make"
	}
	return &colVec{i64: hits}, nil
}

// vnSized presizes its output; the loop appends within prepared capacity.
type vnSized struct{ x []int64 }

func (n *vnSized) eval(sel []int32) (*colVec, error) {
	hits := make([]int64, 0, len(sel))
	for _, k := range sel {
		hits = append(hits, n.x[k])
	}
	return &colVec{i64: hits}, nil
}

// vnBoxAppend boxes every lane into the interface-element output.
type vnBoxAppend struct{ x []int64 }

func (n *vnBoxAppend) eval(sel []int32) (*colVec, error) {
	anys := make([]Value, 0, len(sel))
	for _, k := range sel {
		anys = append(anys, n.x[k]) // want "appending concrete int64 into .*Value inside a vector kernel loop"
	}
	return &colVec{anys: anys}, nil
}

// vnFallback deliberately boxes into the TAny lane: annotated, no finding.
type vnFallback struct{ x []int64 }

func (n *vnFallback) eval(sel []int32) (*colVec, error) {
	out := &colVec{anys: make([]Value, len(n.x))}
	for _, k := range sel {
		out.anys[k] = n.x[k] //verdict:alloc golden fixture: TAny fallback lane
	}
	return out, nil
}

// compileBad builds a fresh composite per row: a compiled closure's whole
// body is lane-hot, loop or not.
func compileBad(base int64) func(row []Value) (Value, error) {
	return func(row []Value) (Value, error) {
		p := pair{a: base} // want "composite literal inside a compiled closure"
		return p.a, nil
	}
}

// compileHoisted allocates once at compile time and closes over the value.
func compileHoisted(base int64) func(row []Value) (Value, error) {
	p := pair{a: base}
	return func(row []Value) (Value, error) {
		return p.a + p.b, nil
	}
}

// gatherTyped keeps lanes typed: clean.
func gatherTyped(sel []int32, src, dst []int64) {
	for _, k := range sel {
		dst[k] = src[k]
	}
}

// gatherBoxed stores concrete lanes into interface elements per lane.
func gatherBoxed(sel []int32, src []int64, out []Value) {
	for _, k := range sel {
		out[k] = src[k] // want "storing concrete int64 into interface element out\[k\] inside a selection loop"
	}
}

// filterPresized appends within capacity prepared in this function.
func filterPresized(sel []int32, src []int64) []int64 {
	keep := make([]int64, 0, len(sel))
	for _, k := range sel {
		if src[k] > 0 {
			keep = append(keep, src[k])
		}
	}
	return keep
}

// filterUnsized grows an unprepared slice per lane.
func filterUnsized(sel []int32, src []int64) []int64 {
	var keep []int64
	for _, k := range sel {
		keep = append(keep, src[k]) // want "append inside a selection loop without make"
	}
	return keep
}

// reuseBuffer reslices retained capacity to zero length: prepared.
func reuseBuffer(buf []int64, sel []int32, src []int64) []int64 {
	buf = buf[:0]
	for _, k := range sel {
		buf = append(buf, src[k])
	}
	return buf
}

// convertExplicit boxes via an explicit conversion per lane.
func convertExplicit(sel []int32, src []int64, out []Value) {
	for _, k := range sel {
		v := Value(src[k]) // want "converting int64 to .*Value inside a selection loop boxes per lane"
		out[k] = v
	}
}
