package engine

import (
	"fmt"
	"testing"
)

// TestLaneReaders pins the one way lanes are read out of a column: every
// reader, over every encoding, NULL pattern and index shape, must see lane k
// as colVec.value of the row it names. The readers are a kernel's column leaf
// (vnCol), a join's probe- and build-side gathers (fillProbe, fillBuild:
// gatherCodes and gatherLanes), the boxing of stored lanes (boxColLanes) and
// of a kernel's output (boxVecLanes, which must survive the next chunk
// overwriting the kernel's buffer). One vecCtx serves every cell, so flags or
// lanes a previous cell left in a reused buffer would show.
func TestLaneReaders(t *testing.T) {
	const n = 48
	vc := newVecCtx(1, 0, 0, 0)
	leaf := &vnCol{id: 0, col: 0}
	for _, enc := range []string{"raw", "rawstr", "dict", "rle", "rlestr", "delta", "any"} {
		for _, nulls := range []string{"none", "some", "all"} {
			build := []*chunk{laneChunk(enc, nulls, n, 0), laneChunk(enc, nulls, n, 1)}
			src := &gatherSrc{leftW: 1, buildChunks: build, buildKinds: chunkKinds(build, 1)}
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
				joined := src.refChunk(build[0], idx, refs)
				probe, bside := joined.col(0), joined.col(1)
				for k, i := range idx {
					check("probe gather", k, probe.value(k), stored.value(int(i)))
				}
				for k, r := range refs {
					check("build gather", k, bside.value(k), want(r))
				}
			}
		}
	}
}

// laneChunk is one n-row chunk holding one column in encoding enc (the kind
// follows: raw floats and strings, dictionary strings, run-length integers and
// strings, delta integers, mixed boxes), with no, some or all rows NULL. seed varies the values between
// the two build chunks.
func laneChunk(enc, nulls string, n, seed int) *chunk {
	rows := make([][]Value, n)
	for i := range rows {
		var v Value
		switch enc {
		case "raw":
			v = float64(i*3%17) + float64(seed)/2
		case "rawstr":
			v = fmt.Sprintf("r%d.%d", i*3%17, seed)
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
	ch := buildChunk(rows, 1, true)
	cv := &ch.cols[0]
	switch enc {
	case "dict":
		cv.encodeDict(n, cv.sortedDict(n))
	case "rle", "rlestr":
		cv.encodeRLE(n, cv.countRuns(n))
	case "delta":
		cv.encodeDelta(n, cv.deltaWidth())
	}
	if nulls == "all" && enc != "any" {
		// A typed column of NULLs (a gathered one can be): every flag set.
		slots := n
		if cv.enc == encRLE {
			slots = len(cv.runEnds)
		}
		cv.nulls = make([]bool, slots)
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
