package engine

import (
	"fmt"
	"strings"
	"testing"
)

// TestLaneReaders pins the one way lanes are read out of a column: every
// reader, over every encoding, NULL pattern and index shape, must see lane k
// as colVec.value of the row it names. The readers are a kernel's column leaf
// (vnCol), a join's probe- and build-side gathers (fillProbe, fillBuild:
// gatherCodes and gatherLanes), the boxing of stored lanes (boxColLanes) and
// of a kernel's output (boxVecLanes, which must survive the next chunk
// overwriting the kernel's buffer). One vecCtx serves every cell, so flags or
// lanes a previous cell left in a reused buffer would show. Build sides whose
// chunks differ follow (laneReadersMixedBuild).
func TestLaneReaders(t *testing.T) {
	const n = 48
	vc := newVecCtx(1, 0, 0, 0)
	leaf := &vnCol{id: 0, col: 0}
	for _, enc := range []string{"raw", "rawstr", "fixedstr", "dict", "rle", "rlestr", "delta", "decimal", "any"} {
		for _, nulls := range []string{"none", "some", "all"} {
			build := []*chunk{laneChunk(enc, nulls, n, 0), laneChunk(enc, nulls, n, 1)}
			src := &gatherSrc{leftW: 1}
			src.setBuild(build, 1)
			stored := build[0].col(0)
			want := func(r int64) Value {
				if r < 0 {
					return nil
				}
				ci, ri := unpackRef(r)
				return build[ci].col(0).value(ri)
			}
			for _, sh := range laneShapes(n) {
				cell := fmt.Sprintf("%s/%s nulls/%s", enc, nulls, sh.name)
				idx := sh.sel
				if idx == nil {
					idx = identitySel(n)
				}
				check := func(reader string, k int, got, want Value) {
					t.Helper()
					if got != want {
						t.Errorf("%s: %s lane %d = %#v, want %#v", cell, reader, k, got, want)
					}
				}

				out, err := leaf.eval(vc, build[0], sh.sel)
				if err != nil {
					t.Fatalf("%s: vnCol: %v", cell, err)
				}
				if out.enc != encNone && out.enc != encDict {
					t.Errorf("%s: vnCol returned encoding %d; kernel outputs are raw or dict", cell, out.enc)
				}
				for k, i := range idx {
					check("vnCol", k, out.value(k), stored.value(int(i)))
				}

				// A kernel output's boxes outlive its buffer: box, then let
				// another chunk's selection overwrite the buffer.
				boxedOut := make([]Value, 2*len(idx))
				boxVecLanes(boxedOut, 2, out, identitySel(len(idx)))
				if _, err := leaf.eval(vc, build[1], laneShapes(n)[2].sel); err != nil {
					t.Fatal(err)
				}
				boxedCol := make([]Value, 2*len(idx))
				boxColLanes(boxedCol, 2, stored, idx)
				for k, i := range idx {
					check("boxVecLanes", k, boxedOut[2*k], stored.value(int(i)))
					check("boxColLanes", k, boxedCol[2*k], stored.value(int(i)))
				}

				refs := sh.refs
				if refs == nil {
					refs = make([]int64, len(idx))
					for k, i := range idx {
						refs[k] = packRef(0, int(i))
					}
				}
				// The first gather fills the build column table, the second
				// reads it.
				for pass := 0; pass < 2; pass++ {
					joined := src.refChunk(build[0], idx, refs)
					probe, bside := joined.col(0), joined.col(1)
					for k, i := range idx {
						check("probe gather", k, probe.value(k), stored.value(int(i)))
					}
					for k, r := range refs {
						check(fmt.Sprintf("build gather %d", pass), k, bside.value(k), want(r))
					}
				}
			}
		}
	}
	laneReadersMixedBuild(t, n)
}

// laneReadersMixedBuild is TestLaneReaders' build gather over build sides
// whose chunks differ: in encoding (so every lane is read through its own
// chunk's), in kind (so lanes are boxed), and in how a chunk is filled — a
// pre-filtered input's reference chunk builds its column when a gather first
// names it. The references hop to another chunk at every lane, and one is
// NULL-extended. A side whose every chunk holds the column raw without NULLs
// takes the typed load throughout; any other hands over to the per-lane read
// at the first lane that names a chunk it cannot load.
func laneReadersMixedBuild(t *testing.T, n int) {
	for _, side := range []struct {
		encs   []string
		direct bool // the typed load applies when there are no NULLs
	}{
		{[]string{"raw", "raw", "lazy:raw"}, true},
		{[]string{"rawint", "lazy:rawint", "rawint"}, true},
		{[]string{"rawint", "delta", "rle", "lazy:delta"}, false},
		{[]string{"rawstr", "dict", "rlestr", "lazy:dict"}, false},
		{[]string{"raw", "delta", "dict"}, false},
		{[]string{"raw", "decimal", "lazy:decimal"}, false},
		{[]string{"rawstr", "fixedstr", "lazy:fixedstr"}, false},
	} {
		for _, nulls := range []string{"none", "some"} {
			build := make([]*chunk, len(side.encs))
			for ci, enc := range side.encs {
				base, lazy := strings.CutPrefix(enc, "lazy:")
				build[ci] = laneChunk(base, nulls, n, ci)
				if lazy {
					// Every row, in reverse: the chunk a filter keeping all
					// of its input would make.
					inner := &gatherSrc{}
					inner.setBuild([]*chunk{build[ci]}, 1)
					refs := make([]int64, n)
					for k := range refs {
						refs[k] = packRef(0, n-1-k)
					}
					build[ci] = inner.refChunk(nil, nil, refs)
				}
			}
			src := &gatherSrc{}
			src.setBuild(build, 1)
			for ci, enc := range side.encs {
				if strings.HasPrefix(enc, "lazy:") && build[ci].filled.has(0) {
					t.Fatalf("%v: lazy chunk %d built before any gather", side.encs, ci)
				}
			}
			// hop(m) hops over the first m chunks, starting NULL-extended.
			hop := func(m int) []int64 {
				refs := []int64{nullRef}
				for k := 0; k < 3*n; k++ {
					refs = append(refs, packRef(k%m, k*7%n))
				}
				return refs
			}
			cell := fmt.Sprintf("%v/%s nulls", side.encs, nulls)
			// The first gather never names the last chunk, so a lazy one
			// stays unbuilt; the second builds it.
			last := build[len(build)-1]
			for pass, refs := range [][]int64{hop(len(build) - 1), hop(len(build))} {
				bside := src.refChunk(nil, nil, refs).col(0)
				if pass == 0 && (last.lazy != nil && last.filled.has(0) || src.buildCols[0].cols[len(build)-1].Load() != nil) {
					t.Errorf("%s: a gather built a chunk it never names", cell)
				}
				for k, r := range refs {
					var want Value
					if r >= 0 {
						ci, ri := unpackRef(r)
						want = build[ci].valueAt(0, ri)
					}
					if got := bside.value(k); got != want {
						t.Errorf("%s: gather %d lane %d = %#v, want %#v", cell, pass, k, got, want)
					}
				}
			}
			// On an empty table too: a chunk the typed load meets first is
			// stored, not handed over.
			fresh := &gatherSrc{}
			fresh.setBuild(build, 1)
			var scratch colVec
			scratch.reset(nil, TAny, 3*n+1)
			typed := loadLanes(fresh, &scratch, scratch.anys, 0, hop(len(build)),
				func(*colVec) []Value { return make([]Value, n) }) == 3*n+1
			if want := side.direct && nulls == "none"; typed != want {
				t.Errorf("%s: typed load %v, want %v", cell, typed, want)
			}
		}
	}
}

// laneChunk is one n-row chunk holding one column in encoding enc (the kind
// follows: raw floats, integers and strings, fixed-width and dictionary
// strings, integers and strings read from the run-length form older segments
// hold (runLength, expanded by storedCol.fromStorage), delta integers,
// decimal floats, mixed boxes), with no, some or all rows NULL. seed varies the values between
// the build chunks.
func laneChunk(enc, nulls string, n, seed int) *chunk {
	rows := make([][]Value, n)
	for i := range rows {
		var v Value
		switch enc {
		case "raw":
			v = float64(i*3%17) + float64(seed)/2
		case "rawint":
			v = int64(i*5%19 - 100*seed)
		case "rawstr":
			v = fmt.Sprintf("r%d.%d", i*3%17, seed)
		case "fixedstr":
			v = fmt.Sprintf("f%02d.%d", i*3%17, seed)
		case "decimal":
			v = float64(i*3%17)/4 - float64(seed)/2
		case "dict":
			v = fmt.Sprintf("s%d.%d", i%5, seed)
		case "rlestr":
			v = fmt.Sprintf("run%d.%d", i/6, seed)
		case "rle":
			v = int64(i/6 + 100*seed)
		case "delta":
			v = int64(1000 + i*7%23 + seed)
		default:
			v = int64(i)
			if i%2 == 1 {
				v = fmt.Sprintf("x%d", i+seed)
			}
		}
		if nulls == "some" && i%7 == 2 || nulls == "all" && enc == "any" {
			v = nil
		}
		rows[i] = []Value{v}
	}
	ch := buildChunk(rows, 1)
	cv := &ch.cols[0]
	z := cv.zone(n)
	switch enc {
	case "dict":
		cv.encodeDict(new(dictProber).probe(cv, n, n))
	case "rle", "rlestr":
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = cv.value(i)
		}
		col, s := runLength(cv.kind, vals, z), new(storedCol)
		s.fromStorage(&col, n)
		s.view(cv, n)
	case "delta":
		cv.encodeDelta(n, deltaWidth(&z), &z)
	case "decimal":
		if _, ok := cv.encodeDecimal(n, 64); !ok {
			panic("laneChunk: decimal values not in the decimal form")
		}
	case "fixedstr":
		if cv.fixWidth(n); cv.sw == 0 {
			panic("laneChunk: same-length strings not of fixed width")
		}
	}
	if nulls == "all" && enc != "any" {
		// A typed column of NULLs (a gathered one can be): every flag set.
		cv.nulls = make([]bool, n)
		for i := range cv.nulls {
			cv.nulls[i] = true
		}
	}
	return ch
}

type laneShape struct {
	name string
	sel  []int32 // rows of build chunk 0; nil = every row
	refs []int64 // build-side references; nil = sel's rows of chunk 0
}

// laneShapes lists the index shapes: every row as nil and as an explicit
// identity, a sparse ascending selection, none, and references that step
// backwards and alternate between the two build chunks (with a NULL-extended
// one), whose chunk-0 rows are also read in that non-ascending order.
func laneShapes(n int) []laneShape {
	var sparse []int32
	for i := 1; i < n; i += 3 {
		sparse = append(sparse, int32(i))
	}
	refs := []int64{packRef(1, 5), packRef(1, 3), packRef(0, n-1), packRef(0, 7), nullRef,
		packRef(1, n-1), packRef(0, 7), packRef(0, 0), packRef(1, 0), packRef(0, 13)}
	back := make([]int32, len(refs))
	for k, r := range refs {
		back[k] = int32(uint32(r)) // nullRef reads chunk 0's last row
		if r < 0 {
			back[k] = int32(n - 1)
		}
	}
	return []laneShape{
		{name: "nil"},
		{name: "identity", sel: identitySel(n)},
		{name: "sparse", sel: sparse},
		{name: "empty", sel: []int32{}},
		{name: "non-ascending refs", sel: back, refs: refs},
	}
}
