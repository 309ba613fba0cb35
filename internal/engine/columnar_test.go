package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// Tests for the columnar chunked storage layer: seal boundaries, seal-time
// zone maps with chunk pruning, row-view materialization, column-name
// ambiguity surfacing, and consistency under concurrent appends.

// sealedChunk resolves table tbl's i-th sealed slot to a chunk holding every
// column's view in cols — resident in memory, or loaded from a segment and
// decoded when ENGINE_SPILL moved it to disk (white-box assertions on cols
// hold either way: the storage layer round-trips chunk layouts byte for byte).
func sealedChunk(t testing.TB, tbl *Table, i int) *chunk {
	t.Helper()
	ch, err := tbl.sealed[i].load(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return denseView(ch)
}

// denseView copies a view's columns into a chunk of its own.
func denseView(v *chunk) *chunk {
	ch := &chunk{n: v.n, cols: make([]colVec, v.width())}
	for j := range ch.cols {
		ch.cols[j] = *v.col(j)
	}
	return ch
}

// boxRows boxes every row of ch, the way the row closures box the ones they keep.
func boxRows(ch *chunk) [][]Value {
	rows := make([][]Value, ch.n)
	for i := range rows {
		rows[i] = ch.materializeRow(i)
	}
	return rows
}

func TestChunkSealBoundaries(t *testing.T) {
	e := NewSeeded(1)
	if err := e.CreateTable("t", []Column{
		{Name: "x", Type: TInt}, {Name: "s", Type: TString},
	}); err != nil {
		t.Fatal(err)
	}
	total := 2*chunkRows + 88
	for i := 0; i < total; i++ {
		if err := e.InsertRows("t", [][]Value{{int64(i), fmt.Sprintf("v%d", i)}}); err != nil {
			t.Fatal(err)
		}
	}
	tbl, err := e.Lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.sealed) != 2 || len(tbl.tail) != 88 {
		t.Fatalf("sealed %d tail %d", len(tbl.sealed), len(tbl.tail))
	}
	if tbl.NumRows() != total || e.RowCount("t") != total {
		t.Fatalf("row count %d / %d", tbl.NumRows(), e.RowCount("t"))
	}
	// Sealed chunks carry typed vectors and seal-time zone summaries.
	z0 := tbl.sealed[0].slotZone(0)
	if c0 := sealedChunk(t, tbl, 0).cols[0]; c0.kind != TInt || z0.Bound(0) != int64(0) || z0.Bound(1) != int64(chunkRows-1) {
		t.Fatalf("chunk 0 zone: kind %v min %v max %v", c0.kind, z0.Bound(0), z0.Bound(1))
	}
	if z1 := tbl.sealed[1].slotZone(0); z1.Bound(0) != int64(chunkRows) || z1.Bound(1) != int64(2*chunkRows-1) {
		t.Fatalf("chunk 1 zone: min %v max %v", z1.Bound(0), z1.Bound(1))
	}
	// Full scan sees every row exactly once.
	rs, err := e.Query("select count(*), sum(x) from t")
	if err != nil {
		t.Fatal(err)
	}
	wantSum := int64(total) * int64(total-1) / 2
	if rs.Rows[0][0].(int64) != int64(total) || rs.Rows[0][1].(int64) != wantSum {
		t.Fatalf("scan over chunks+tail: %v", rs.Rows[0])
	}
}

func TestChunkMixedTypesAndNulls(t *testing.T) {
	e := NewSeeded(1)
	if err := e.CreateTable("m", []Column{{Name: "v", Type: TAny}}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, chunkRows)
	for i := range rows {
		switch i % 4 {
		case 0:
			rows[i] = []Value{int64(i)}
		case 1:
			rows[i] = []Value{float64(i) + 0.5}
		case 2:
			rows[i] = []Value{nil}
		default:
			rows[i] = []Value{fmt.Sprintf("s%d", i)}
		}
	}
	if err := e.InsertRows("m", rows); err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.Lookup("m")
	if len(tbl.sealed) != 1 {
		t.Fatalf("expected 1 sealed chunk, got %d", len(tbl.sealed))
	}
	if sealedChunk(t, tbl, 0).cols[0].kind != TAny {
		t.Fatalf("mixed column should store boxed, got %v", sealedChunk(t, tbl, 0).cols[0].kind)
	}
	// The row view must reproduce the original dynamic types bit for bit.
	got := boxRows(sealedChunk(t, tbl, 0))
	for i := range rows {
		if got[i][0] != rows[i][0] {
			t.Fatalf("row %d: %v (%T) vs %v (%T)", i, got[i][0], got[i][0], rows[i][0], rows[i][0])
		}
	}
	// NULL-aware aggregation over the boxed chunk.
	rs, err := e.Query("select count(*), count(v) from m")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].(int64) != int64(chunkRows) || rs.Rows[0][1].(int64) != int64(chunkRows-chunkRows/4) {
		t.Fatalf("null counting over boxed chunk: %v", rs.Rows[0])
	}
}

func TestZonePruningSkipsChunks(t *testing.T) {
	e := NewSeeded(1)
	if err := e.CreateTable("z", []Column{
		{Name: "blk", Type: TInt}, {Name: "x", Type: TFloat},
	}); err != nil {
		t.Fatal(err)
	}
	// Clustered by blk, 4 sealed chunks + a tail.
	total := 4*chunkRows + 100
	rows := make([][]Value, total)
	for i := range rows {
		rows[i] = []Value{int64(i/chunkRows + 1), float64(i)}
	}
	if err := e.InsertRows("z", rows); err != nil {
		t.Fatal(err)
	}
	// Column-vs-literal conjuncts push into the scan: a blk <= 1 prefix keeps
	// chunk 0 plus the always-scanned tail.
	rs, err := e.Query("select count(*) from z where z.blk <= 1")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].(int64) != chunkRows {
		t.Fatalf("count: %v", rs.Rows[0][0])
	}
	if want := int64(chunkRows + 100); rs.RowsScanned != want {
		t.Fatalf("pruned scan read %d rows, want %d", rs.RowsScanned, want)
	}
	// An unqualified reference prunes the one leaf it resolves in, on either
	// side of a join; one that resolves in two leaves prunes nothing (and is
	// an error once a row reaches WHERE).
	if err := e.CreateTable("z2", []Column{{Name: "blk", Type: TInt}, {Name: "y", Type: TInt}}); err != nil {
		t.Fatal(err)
	}
	if err := e.InsertRows("z2", [][]Value{{int64(1), int64(7)}}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		sql     string
		count   int64
		scanned int64
	}{
		{"select count(*) from z where blk <= 1", chunkRows, chunkRows + 100},
		{"select count(*) from z where 1 >= blk", chunkRows, chunkRows + 100},
		{"select count(*) from z2 inner join z on z.blk = z2.blk where x < 256 and y = 7", chunkRows, 1 + chunkRows + 100},
		{"select count(*) from z inner join z2 on z.blk = z2.blk where 300 > x", chunkRows, 1 + 2*chunkRows + 100},
		// Pruning must not change results, only the scanned count.
		{"select count(*) from z where blk + 0 <= 1", chunkRows, int64(total)},
	} {
		rs, err := e.Query(c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got := rs.Rows[0][0].(int64); got != c.count || rs.RowsScanned != c.scanned {
			t.Errorf("%s: count %d scanned %d, want %d and %d", c.sql, got, rs.RowsScanned, c.count, c.scanned)
		}
	}
	if _, err := e.Query("select count(*) from z inner join z2 on z.x = z2.y where blk <= 1"); !errors.Is(err, ErrAmbiguousColumn) {
		// z.x = 7 joins one row, so WHERE evaluates the ambiguous name.
		t.Fatalf("ambiguous conjunct: %v", err)
	}
}

func TestColIndexAmbiguity(t *testing.T) {
	tbl := &Table{Cols: []Column{
		{Name: "Price"}, {Name: "price"}, {Name: "qty"},
	}}
	tbl.initColIndex()
	if got := tbl.ColIndex("PRICE"); got != AmbiguousColIndex {
		t.Fatalf("duplicate lowercase name resolved to %d, want AmbiguousColIndex", got)
	}
	if got := tbl.ColIndex("qty"); got != 2 {
		t.Fatalf("qty -> %d", got)
	}
	if got := tbl.ColIndex("missing"); got != -1 {
		t.Fatalf("missing -> %d", got)
	}
	// Without the prebuilt index (hand-constructed tables) the linear scan
	// must agree.
	plain := &Table{Cols: tbl.Cols}
	if got := plain.ColIndex("price"); got != AmbiguousColIndex {
		t.Fatalf("linear scan resolved duplicate to %d", got)
	}
	// ResultSet lookups go through the same index.
	rs := &ResultSet{Cols: []string{"a", "A", "b"}}
	if got := rs.ColIndex("a"); got != AmbiguousColIndex {
		t.Fatalf("ResultSet duplicate -> %d", got)
	}
	if got := rs.ColIndex("b"); got != 2 {
		t.Fatalf("ResultSet b -> %d", got)
	}
}

// TestConcurrentAppendsConsistentPrefix hammers a table with concurrent
// single-row appends (which seal chunks as they fill) while readers run
// vectorized aggregates; every reader must observe a consistent append-only
// prefix: count(*) equals sum(x) for x == 1 rows and never decreases.
func TestConcurrentAppendsConsistentPrefix(t *testing.T) {
	e := NewSeeded(9)
	if err := e.CreateTable("s", []Column{
		{Name: "x", Type: TInt}, {Name: "b", Type: TInt},
	}); err != nil {
		t.Fatal(err)
	}
	seed := make([][]Value, parallelMinRows)
	for i := range seed {
		seed[i] = []Value{int64(1), int64(i / 64)}
	}
	if err := e.InsertRows("s", seed); err != nil {
		t.Fatal(err)
	}

	const writers, perWriter, readers = 4, 600, 4
	var wg sync.WaitGroup
	errCh := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				if err := e.InsertRows("s", [][]Value{{int64(1), int64(w*perWriter + i)}}); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := int64(0)
			for i := 0; i < 40; i++ {
				rs, err := e.Query("select count(*) as c, sum(x) as s from s")
				if err != nil {
					errCh <- err
					return
				}
				c := rs.Rows[0][0].(int64)
				s, _ := ToInt(rs.Rows[0][1])
				if c != s {
					errCh <- fmt.Errorf("torn snapshot: count %d != sum %d", c, s)
					return
				}
				if c < last {
					errCh <- fmt.Errorf("row count went backwards: %d -> %d", last, c)
					return
				}
				last = c
				// Grouped + zone-prunable shapes under churn.
				if _, err := e.Query("select b, count(*) from s where s.b <= 10 group by b"); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	want := int64(parallelMinRows + writers*perWriter)
	rs, err := e.Query("select count(*) from s")
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Rows[0][0].(int64); got != want {
		t.Fatalf("final count %d, want %d", got, want)
	}
}

// A stored string column holds no pointer per value: its strings are copied
// into one block per chunk-column, so the strings an insert was given become
// garbage once their rows are sealed. Measured on linux/amd64 (go1.24): 0.036
// live objects per row — every chunk's vectors, zone boxes and bookkeeping,
// and the open tail — so the bound is 1.25× that; a column that kept each
// string alive costs one object per row more.
func TestStoredStringsHeapObjects(t *testing.T) {
	const rows = 20000
	e := NewSeeded(1)
	if err := e.CreateTable("t", []Column{{Name: "s", Type: TString}}); err != nil {
		t.Fatal(err)
	}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapObjects
	}
	before := live()
	func() {
		batch := make([][]Value, rows)
		for i := range batch {
			batch[i] = []Value{fmt.Sprintf("distinct-%06d", i)}
		}
		if err := e.InsertRows("t", batch); err != nil {
			t.Fatal(err)
		}
	}()
	after := live()
	perRow := (float64(after) - float64(before)) / rows
	t.Logf("%.4f live heap objects per stored row", perRow)
	const bound = 1.25 * 0.036
	if perRow > bound {
		t.Errorf("%.4f live heap objects per stored row, want at most %.4f", perRow, bound)
	}
	runtime.KeepAlive(e)
}
