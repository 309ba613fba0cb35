package engine

import (
	"fmt"
	"testing"
)

// min and max of integers compare them exactly: 2^53 and 2^53 + 1 are one
// float64, so an accumulator that compares through float64 cannot tell which
// of them is the larger. Checked in the open tail, then once the rows are
// sealed into chunks (several, so parallel scans merge per-worker
// accumulators) — delta-encoded at width 1, as the seal picks and as forced —
// on the kernels and on the row closures, at parallelism 1, 2 and 4.
func TestIntegerExtremesExact(t *testing.T) {
	for _, force := range []bool{false, true} {
		t.Run(fmt.Sprintf("force=%v", force), func(t *testing.T) {
			if force {
				t.Setenv(forceEncodingsEnv, "1")
			}
			testIntegerExtremes(t)
		})
	}
}

func testIntegerExtremes(t *testing.T) {
	const lo, hi = int64(1) << 53, int64(1)<<53 + 1
	pattern := func() [][]Value {
		rows := make([][]Value, 0, 255)
		for i := 0; i < 128; i++ {
			rows = append(rows, []Value{int64(i % 3), lo})
		}
		for i := 0; i < 127; i++ {
			rows = append(rows, []Value{int64(i % 3), hi})
		}
		return rows
	}
	e := NewSeeded(1)
	if err := e.CreateTable("t", []Column{{Name: "g", Type: TInt}, {Name: "v", Type: TInt}}); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		for _, vec := range []bool{true, false} {
			e.SetVectorized(vec)
			for _, par := range []int{1, 2, 4} {
				e.SetParallelism(par)
				label := fmt.Sprintf("%s vectorized=%v parallelism=%d", stage, vec, par)
				rs, err := e.Query("select min(v), max(v) from t")
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if got := rs.Rows[0]; got[0] != lo || got[1] != hi {
					t.Errorf("%s: min, max = %v, %v; want %d, %d", label, got[0], got[1], lo, hi)
				}
				rs, err = e.Query("select g, min(v), max(v) from t group by g order by g")
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				for _, row := range rs.Rows {
					if row[1] != lo || row[2] != hi {
						t.Errorf("%s: group %v: min, max = %v, %v; want %d, %d", label, row[0], row[1], row[2], lo, hi)
					}
				}
			}
		}
		e.SetVectorized(true)
		e.SetParallelism(0)
	}
	if err := e.InsertRows("t", pattern()); err != nil {
		t.Fatal(err)
	}
	check("tail")
	// One more row seals the first chunk; sixteen more chunks of the pattern
	// give the scan enough rows to fan out.
	rows := [][]Value{{int64(0), lo}}
	for k := 0; k < 16; k++ {
		rows = append(append(rows, pattern()...), []Value{int64(1), lo})
	}
	if err := e.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.sealed) != 17 || len(tbl.tail) != 0 {
		t.Fatalf("%d sealed chunks and %d tail rows, want 17 and 0", len(tbl.sealed), len(tbl.tail))
	}
	if cv := &sealedChunk(t, tbl, 0).cols[1]; cv.enc != encDelta || cv.width != 1 {
		t.Fatalf("v: enc %d width %d, want delta at width 1", cv.enc, cv.width)
	}
	check("sealed")
}
