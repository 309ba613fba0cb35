package engine

import (
	"fmt"
	"testing"
	"unsafe"
)

// viewRows is n rows of a dictionary string d, a fixed-width string f, a
// delta int x and a decimal float m.
func viewRows(n int) ([]Column, [][]Value) {
	cols := []Column{{Name: "d", Type: TString}, {Name: "f", Type: TString}, {Name: "x", Type: TInt}, {Name: "m", Type: TFloat}}
	rows := make([][]Value, n)
	for i := range rows {
		d := fmt.Sprintf("%s%d", []string{"lo", "mid", "top"}[i%3], i/chunkRows) // each chunk's dictionary its own
		rows[i] = []Value{d, fmt.Sprintf("%05d", i), int64(i * 37 % 1000), float64(i%997) / 100}
	}
	return cols, rows
}

var valueSink Value

// A view lends out nothing of its own: boxes taken from one chunk's view of a
// dictionary, fixed-width string, delta int and decimal float column are
// unchanged after the worker's view has moved on through 8 more chunks, and
// boxing a dictionary entry allocates nothing.
func TestViewBoxesOutliveView(t *testing.T) {
	ownDataDir(t)
	t.Setenv(forceEncodingsEnv, "")
	cols, rows := viewRows(9 * chunkRows)
	e, _ := twinEngines(t, cols, rows)
	tbl, _ := e.Lookup("t")
	pb := &probeBuf{}
	ch, err := tbl.sealed[0].load(nil, pb)
	if err != nil {
		t.Fatal(err)
	}
	if ch.col(0).enc != encDict || ch.col(1).sw != 5 || ch.col(2).enc != encDelta || ch.col(3).enc != encDecimal {
		t.Fatal("the fixture's columns are not dictionary, fixed-width, delta and decimal")
	}
	idx := make([]int32, 0, ch.n)
	for i := 0; i < ch.n; i += 7 {
		idx = append(idx, int32(i))
	}
	var boxes []Value
	for j := range cols {
		for _, i := range idx {
			boxes = append(boxes, ch.col(j).value(int(i)))
		}
		lanes := make([]Value, len(idx))
		boxColLanes(lanes, 1, ch.col(j), idx)
		boxes = append(boxes, lanes...)
	}
	want := fmt.Sprint(boxes)
	for k := 1; k <= 8; k++ {
		next, err := tbl.sealed[k].load(nil, pb)
		if err != nil {
			t.Fatal(err)
		}
		if next != ch {
			t.Fatal("the worker's view was not reused")
		}
		for j := range cols {
			next.col(j)
		}
	}
	if got := fmt.Sprint(boxes); got != want {
		t.Fatalf("boxes changed under the reused view:\n got %s\nwant %s", got, want)
	}
	if a := testing.AllocsPerRun(100, func() { valueSink = ch.col(0).value(5) }); a != 0 {
		t.Fatalf("boxing a dictionary entry: %v allocations", a)
	}
}

// What keeps the chunks it loads — a CTAS, an INSERT … SELECT, the hashed
// side of a join (resolveAll) — reads views of a resident table of 9 chunks
// as the row path reads its rows, at every parallelism.
func TestViewsFeedWritesAndJoins(t *testing.T) {
	ownDataDir(t)
	cols, rows := viewRows(9*chunkRows + 17)
	vec, row := twinEngines(t, cols, rows)
	for _, par := range []int{1, 2, 4} {
		var results [2]string
		for k, e := range []*Engine{vec, row} {
			e.SetParallelism(par)
			for _, sql := range []string{
				fmt.Sprintf("create table c%d as select d, f, x, m from t where x %% 3 <> 1", par),
				fmt.Sprintf("insert into c%d select d, f, x, m from t where m > 2", par),
			} {
				if _, err := e.Exec(sql); err != nil {
					t.Fatalf("%s: %v", sql, err)
				}
			}
			for _, q := range []string{
				fmt.Sprintf("select * from c%d", par),
				"select t.f, u.d, t.m + u.m from t join t u on t.x = u.x where t.m < 1",
			} {
				results[k] += fmt.Sprint(mustQuery(t, e, q).Rows)
			}
		}
		if results[0] != results[1] {
			t.Fatalf("parallelism %d: views and the row path differ", par)
		}
	}
}

// A cached chunk is charged a pointer per column, and the header and payload
// of each column a view has touched: nothing more, with no column touched as
// well.
func TestChunkCacheChargesHeadersAndPayloads(t *testing.T) {
	disk, _ := newWideDiskEngine(t, 1)
	dt, _ := disk.Lookup("t")
	for k := 0; k <= 3; k++ {
		disk.DropChunkCache()
		ch, err := dt.sealed[0].load(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		sc := ch.lazy.(*storedFill).sc
		want := int64(wideCols) * int64(unsafe.Sizeof(sc.seg.cols[0]))
		for j := 0; j < k; j++ {
			ch.col(3 * j)
			want += int64(unsafe.Sizeof(storedCol{})) + sc.col(3*j).bytes(sc.n)
		}
		if got := disk.ChunkCache().Resident; got != want {
			t.Errorf("%d columns touched: %d B resident, want %d", k, got, want)
		}
	}
}
