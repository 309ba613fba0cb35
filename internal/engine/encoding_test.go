package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
)

// Tests for the sealed-chunk column encodings: which encoding the seal pass
// picks, transparent read-through, encoding-aware kernels against the row
// path, selection vectors crossing run boundaries, concurrent readers during
// sealing, the kernel-error row fallback, seal-time budget charging, and the
// ENGINE_FORCE_ENCODINGS knob.

// encRowsEqual requires bit-identical result sets: same dynamic types, same
// row order. The serial vectorized pipeline must reproduce the row path
// exactly, encodings included.
func encRowsEqual(t *testing.T, label string, want, got *ResultSet) {
	t.Helper()
	if len(want.Rows) != len(got.Rows) {
		t.Fatalf("%s: row count %d vs %d", label, len(want.Rows), len(got.Rows))
	}
	for r := range want.Rows {
		for c := range want.Rows[r] {
			if want.Rows[r][c] != got.Rows[r][c] {
				t.Fatalf("%s row %d col %d: %v (%T) vs %v (%T)", label, r, c,
					want.Rows[r][c], want.Rows[r][c], got.Rows[r][c], got.Rows[r][c])
			}
		}
	}
}

// twinEngines loads the same rows into a vectorized and a row-path engine.
func twinEngines(t *testing.T, cols []Column, rows [][]Value) (vec, row *Engine) {
	t.Helper()
	vec, row = NewSeeded(7), NewSeeded(7)
	for _, e := range []*Engine{vec, row} {
		if err := e.CreateTable("t", cols); err != nil {
			t.Fatal(err)
		}
		if err := e.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
	}
	row.SetVectorized(false)
	return vec, row
}

func TestSealPicksEncodings(t *testing.T) {
	e := NewSeeded(1)
	if err := e.CreateTable("t", []Column{
		{Name: "s", Type: TString}, // 3 distinct, alternating -> dict
		{Name: "r", Type: TInt},    // constant 64-runs -> RLE
		{Name: "d", Type: TInt},    // range 200 -> delta, width 8
		{Name: "f", Type: TFloat},  // high-entropy floats -> raw
	}); err != nil {
		t.Fatal(err)
	}
	vals := []string{"low", "mid", "top"}
	total := 2 * chunkRows
	rows := make([][]Value, total)
	for i := range rows {
		rows[i] = []Value{vals[i%3], int64(i / 64), int64(i % 200), float64(i) + 0.25}
	}
	if err := e.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	tbl, err := e.Lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	ch := sealedChunk(t, tbl, 0)
	if got := ch.cols[0].enc; got != encDict {
		t.Fatalf("s: enc %d, want dict", got)
	}
	if cv := &ch.cols[0]; len(cv.dict) != 3 || cv.strs != nil || cv.sbytes != nil || cv.soffs != nil {
		t.Fatalf("s: dict %v strs %v block %q %v", cv.dict, cv.strs, cv.sbytes, cv.soffs)
	}
	// Dictionary ends are the string zone map, same values Compare derives.
	if ch.cols[0].min != "low" || ch.cols[0].max != "top" {
		t.Fatalf("s zones: %v..%v", ch.cols[0].min, ch.cols[0].max)
	}
	if got := ch.cols[1].enc; got != encRLE {
		t.Fatalf("r: enc %d, want RLE", got)
	}
	if runs := len(ch.cols[1].runEnds); runs != chunkRows/64 {
		t.Fatalf("r: %d runs", runs)
	}
	if got := ch.cols[2].enc; got != encDelta {
		t.Fatalf("d: enc %d, want delta", got)
	}
	if ch.cols[2].width > 8 || ch.cols[2].ints != nil {
		t.Fatalf("d: width %d ints %v", ch.cols[2].width, ch.cols[2].ints)
	}
	if got := ch.cols[3].enc; got != encNone {
		t.Fatalf("f: enc %d, want raw", got)
	}
	// Read-through must reproduce the original rows bit for bit.
	got := boxRows(ch)
	for i := 0; i < chunkRows; i++ {
		for j := range rows[i] {
			if got[i][j] != rows[i][j] {
				t.Fatalf("row %d col %d: %v vs %v", i, j, got[i][j], rows[i][j])
			}
		}
	}
}

func TestDictHighCardinalityFallback(t *testing.T) {
	e := NewSeeded(1)
	if err := e.CreateTable("t", []Column{{Name: "s", Type: TString}}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, chunkRows)
	for i := range rows {
		rows[i] = []Value{fmt.Sprintf("u%04d", i)} // every value distinct
	}
	if err := e.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.Lookup("t")
	cv := &sealedChunk(t, tbl, 0).cols[0]
	if cv.enc != encNone || cv.dict != nil {
		t.Fatalf("high-cardinality strings should stay raw: enc %d", cv.enc)
	}
	// Raw and stored: one block of every value's bytes, one offset per row
	// plus the leading 0, and no string headers.
	if cv.strs != nil || len(cv.soffs) != chunkRows+1 || cv.soffs[0] != 0 || len(cv.sbytes) != 5*chunkRows {
		t.Fatalf("raw strings not in block form: strs %d, offsets %d, %d bytes", len(cv.strs), len(cv.soffs), len(cv.sbytes))
	}
	for i, r := range rows {
		if got := cv.strAt(i); got != r[0] {
			t.Fatalf("row %d reads %q, want %q", i, got, r[0])
		}
	}
}

func TestBoxedColumnsNeverEncode(t *testing.T) {
	e := NewSeeded(1)
	if err := e.CreateTable("t", []Column{
		{Name: "nn", Type: TAny}, // all NULL
		{Name: "mx", Type: TAny}, // mixed int/string
	}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, chunkRows)
	for i := range rows {
		var mv Value = int64(i)
		if i%2 == 1 {
			mv = fmt.Sprintf("m%d", i)
		}
		rows[i] = []Value{nil, mv}
	}
	if err := e.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.Lookup("t")
	for j, cv := range sealedChunk(t, tbl, 0).cols {
		if cv.kind != TAny || cv.enc != encNone {
			t.Fatalf("col %d: kind %v enc %d, want boxed raw", j, cv.kind, cv.enc)
		}
	}
	rs, err := e.Query("select count(*), count(nn), count(mx) from t")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].(int64) != chunkRows || rs.Rows[0][1].(int64) != 0 || rs.Rows[0][2].(int64) != chunkRows {
		t.Fatalf("boxed counts: %v", rs.Rows[0])
	}
}

// Selection vectors that keep every other lane cut across each 32-row run:
// the run-pointer merge walks in the RLE kernels must resolve each selected
// lane to its run, not its lane index.
func TestRLERunsAcrossSelectionBoundaries(t *testing.T) {
	total := 3*chunkRows + 50
	rows := make([][]Value, total)
	for i := range rows {
		y := 0.25
		if i%2 == 1 {
			y = 0.75
		}
		rows[i] = []Value{int64(i / 32), y}
	}
	vec, row := twinEngines(t, []Column{
		{Name: "r", Type: TInt}, {Name: "y", Type: TFloat},
	}, rows)
	if cv := mustSealed(t, vec, "t").cols[0]; cv.enc != encRLE {
		t.Fatalf("r: enc %d, want RLE", cv.enc)
	}
	for _, q := range []string{
		"select count(*), sum(r), min(r), max(r) from t where t.y < 0.5",
		"select r, count(*), sum(y) from t where t.y < 0.5 group by r order by r",
		"select r, y from t where t.y < 0.5 and t.r >= 5",
		"select count(*) from t where t.r = 3 and t.y > 0.5",
	} {
		rsV, err := vec.Query(q)
		if err != nil {
			t.Fatalf("vec %s: %v", q, err)
		}
		rsR, err := row.Query(q)
		if err != nil {
			t.Fatalf("row %s: %v", q, err)
		}
		encRowsEqual(t, q, rsR, rsV)
	}
}

func mustSealed(t *testing.T, e *Engine, name string) *chunk {
	t.Helper()
	tbl, err := e.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.sealed) == 0 {
		t.Fatalf("%s: no sealed chunks", name)
	}
	return sealedChunk(t, tbl, 0)
}

func TestDeltaNegativesAndNulls(t *testing.T) {
	total := 2 * chunkRows
	rows := make([][]Value, total)
	for i := range rows {
		if i%7 == 3 {
			rows[i] = []Value{nil}
			continue
		}
		rows[i] = []Value{int64(i%201) - 100} // range [-100, 100]
	}
	vec, row := twinEngines(t, []Column{{Name: "x", Type: TInt}}, rows)
	cv := &mustSealed(t, vec, "t").cols[0]
	if cv.enc != encDelta {
		t.Fatalf("x: enc %d, want delta", cv.enc)
	}
	if cv.min != int64(-100) {
		t.Fatalf("x min: %v", cv.min)
	}
	got := boxRows(mustSealed(t, vec, "t"))
	for i := 0; i < chunkRows; i++ {
		if got[i][0] != rows[i][0] {
			t.Fatalf("row %d: %v vs %v", i, got[i][0], rows[i][0])
		}
	}
	for _, q := range []string{
		"select count(*), count(x), sum(x), min(x), max(x) from t",
		"select count(*), sum(x) from t where t.x >= 0",
		"select count(*) from t where t.x < -50",
	} {
		rsV, err := vec.Query(q)
		if err != nil {
			t.Fatalf("vec %s: %v", q, err)
		}
		rsR, err := row.Query(q)
		if err != nil {
			t.Fatalf("row %s: %v", q, err)
		}
		encRowsEqual(t, q, rsR, rsV)
	}
}

// Dictionary comparison/IN kernels against the row path, including literals
// that miss the dictionary and literals outside the zone range.
func TestDictKernelsMatchRowPath(t *testing.T) {
	vals := []string{"apple", "cherry", "mango", "pear"}
	total := 2*chunkRows + 30
	rows := make([][]Value, total)
	for i := range rows {
		if i%11 == 5 {
			rows[i] = []Value{nil, int64(i)}
			continue
		}
		rows[i] = []Value{vals[i%4], int64(i)}
	}
	vec, row := twinEngines(t, []Column{
		{Name: "s", Type: TString}, {Name: "k", Type: TInt},
	}, rows)
	if cv := mustSealed(t, vec, "t").cols[0]; cv.enc != encDict {
		t.Fatalf("s: enc %d, want dict", cv.enc)
	}
	for _, q := range []string{
		"select count(*) from t where t.s = 'cherry'",
		"select count(*) from t where t.s = 'banana'", // in range, not in dict
		"select count(*) from t where t.s <> 'mango'",
		"select count(*) from t where t.s < 'mango'",
		"select count(*) from t where t.s >= 'cherry'",
		"select count(*), sum(k) from t where t.s in ('apple', 'pear', 'banana')",
		"select count(*) from t where t.s not in ('apple', 'pear')",
		"select s, count(*) from t group by s order by s",
		"select s, k from t where t.s = 'pear' and t.k < 100",
	} {
		rsV, err := vec.Query(q)
		if err != nil {
			t.Fatalf("vec %s: %v", q, err)
		}
		rsR, err := row.Query(q)
		if err != nil {
			t.Fatalf("row %s: %v", q, err)
		}
		encRowsEqual(t, q, rsR, rsV)
	}
}

// IN with no match and a NULL among the candidates is unknown, not false —
// so NOT IN filters the row — identically on the row closures and the
// kernels, for a NULL literal, a NULL column value and a subquery yielding
// NULL.
func TestInNullCandidatesMatchRowPath(t *testing.T) {
	total := chunkRows + 40
	rows := make([][]Value, total)
	var oddNotOne int64 // rows with a non-NULL n and k <> 1
	for i := range rows {
		var n Value
		if i%2 == 1 {
			n = int64(-1)
			if i%5 != 1 {
				oddNotOne++
			}
		}
		rows[i] = []Value{[]string{"apple", "cherry", "mango", "pear"}[i%4], int64(i % 5), n}
	}
	vec, row := twinEngines(t, []Column{
		{Name: "s", Type: TString}, {Name: "k", Type: TInt}, {Name: "n", Type: TInt},
	}, rows)
	for _, e := range []*Engine{vec, row} {
		if _, err := e.Exec("create table cand (v int)"); err != nil {
			t.Fatal(err)
		}
		if err := e.InsertRows("cand", [][]Value{{int64(1)}, {nil}}); err != nil {
			t.Fatal(err)
		}
	}
	fifth := int64(total / 5)
	for _, tc := range []struct {
		q    string
		want int64
	}{
		{"select count(*) from t where t.k in (1, null)", fifth},
		{"select count(*) from t where t.k not in (1, null)", 0},
		{"select count(*) from t where t.s not in ('apple', null)", 0},
		{"select count(*) from t where (t.s in ('apple', null)) is null", int64(total) * 3 / 4},
		// n is NULL on even rows, which NOT IN therefore never keeps.
		{"select count(*) from t where t.k not in (1, t.n)", oddNotOne},
		{"select count(*) from t where t.k in (1, t.n)", fifth},
		{"select count(*) from t where t.k in (select v from cand)", fifth},
		{"select count(*) from t where t.k not in (select v from cand)", 0},
		{"select count(*) from t where t.k not in (select v from cand where v is not null)", int64(total) - fifth},
	} {
		rsV, err := vec.Query(tc.q)
		if err != nil {
			t.Fatalf("vec %s: %v", tc.q, err)
		}
		rsR, err := row.Query(tc.q)
		if err != nil {
			t.Fatalf("row %s: %v", tc.q, err)
		}
		encRowsEqual(t, tc.q, rsR, rsV)
		if got := rsR.Rows[0][0]; got != tc.want {
			t.Errorf("%s = %v, want %d", tc.q, got, tc.want)
		}
	}
}

// String zone maps come straight from the sorted dictionary ends, so a
// clustered string column prunes chunks exactly like a numeric one, and an
// equality literal above every dictionary skips all sealed chunks.
func TestStringZonePruningFromDict(t *testing.T) {
	e := NewSeeded(1)
	if err := e.CreateTable("z", []Column{{Name: "s", Type: TString}}); err != nil {
		t.Fatal(err)
	}
	total := 3*chunkRows + 40
	rows := make([][]Value, total)
	for i := range rows {
		// Chunk c cycles 4 values with prefix 'a'+c: clustered and low-card.
		rows[i] = []Value{fmt.Sprintf("%c%d", 'a'+i/chunkRows, i%4)}
	}
	if err := e.InsertRows("z", rows); err != nil {
		t.Fatal(err)
	}
	rs, err := e.Query("select count(*) from z where z.s <= 'a9'")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].(int64) != chunkRows {
		t.Fatalf("count: %v", rs.Rows[0][0])
	}
	// Chunk 0 ['a0','a3'] survives; chunks 1,2 have min 'b0'/'c0' > 'a9';
	// the open tail is always scanned.
	if want := int64(chunkRows + 40); rs.RowsScanned != want {
		t.Fatalf("scanned %d rows, want %d", rs.RowsScanned, want)
	}
	rs2, err := e.Query("select count(*) from z where z.s = 'zzz'")
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Rows[0][0].(int64) != 0 || rs2.RowsScanned != 40 {
		t.Fatalf("miss above all zones: count %v scanned %d", rs2.Rows[0][0], rs2.RowsScanned)
	}
}

// A predicate the row path answers by OR short-circuit but whose vectorized
// form errors lane-wise (NOT over a string) must fall back to the row view
// per chunk — encoded chunks included — and produce identical rows.
func TestKernelErrorFallbackOnEncodedChunk(t *testing.T) {
	flags := []string{"A", "B"}
	total := chunkRows + 20
	rows := make([][]Value, total)
	for i := range rows {
		rows[i] = []Value{flags[i%2], 0.25, fmt.Sprintf("d%d", i%3)}
	}
	vec, row := twinEngines(t, []Column{
		{Name: "flag", Type: TString}, {Name: "y", Type: TFloat}, {Name: "d", Type: TString},
	}, rows)
	if cv := mustSealed(t, vec, "t").cols[0]; cv.enc != encDict {
		t.Fatalf("flag: enc %d, want dict", cv.enc)
	}
	q := "select flag, d from t where flag <> 'N' and (y < 0.5 or not d)"
	rsR, err := row.Query(q)
	if err != nil {
		t.Fatalf("row path: %v", err)
	}
	if len(rsR.Rows) != total {
		t.Fatalf("row path kept %d rows, want %d", len(rsR.Rows), total)
	}
	rsV, err := vec.Query(q)
	if err != nil {
		t.Fatalf("vectorized (should fall back, not fail): %v", err)
	}
	encRowsEqual(t, q, rsR, rsV)
}

// Eight readers issue dictionary-kernel queries while a writer seals dict
// chunks underneath them. Run under -race this checks the publish ordering:
// a reader sees a chunk only after it is fully encoded.
func TestConcurrentReadersDuringDictSeal(t *testing.T) {
	e := NewSeeded(1)
	if err := e.CreateTable("c", []Column{
		{Name: "s", Type: TString}, {Name: "v", Type: TInt},
	}); err != nil {
		t.Fatal(err)
	}
	vals := []string{"aa", "bb", "cc"}
	total := 4 * chunkRows
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rs, err := e.Query("select count(*), sum(v) from c where c.s = 'bb'")
				if err != nil {
					t.Error(err)
					return
				}
				if n := rs.Rows[0][0].(int64); n > int64(total) {
					t.Errorf("reader saw %d matching rows", n)
					return
				}
			}
		}()
	}
	for i := 0; i < total; i++ {
		if err := e.InsertRows("c", [][]Value{{vals[i%3], int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	rs, err := e.Query("select count(*) from c where c.s = 'bb'")
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Rows[0][0].(int64); got != int64(total/3) {
		t.Fatalf("final count: %d, want %d", got, total/3)
	}
}

// Seal-time encoding state (dictionaries, code vectors) is charged to the
// inserting query's gauge: a tiny budget aborts the load with the typed
// budget error, and an aborted CTAS registers nothing.
func TestSealChargesMemoryBudget(t *testing.T) {
	e := NewSeeded(1)
	if err := e.CreateTable("t", []Column{{Name: "s", Type: TString}}); err != nil {
		t.Fatal(err)
	}
	vals := []string{"xx", "yy", "zz"}
	rows := make([][]Value, 10*chunkRows)
	for i := range rows {
		rows[i] = []Value{vals[i%3]}
	}
	ctx := WithMemoryBudget(context.Background(), 1<<10)
	qc := e.newQueryCtx(ctx, "")
	err := e.insertRowsCtx(qc, "t", rows)
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("seal under 1KiB budget: want ErrMemoryBudget, got %v", err)
	}
	// Unbudgeted loads are untouched.
	e2 := NewSeeded(1)
	if err := e2.CreateTable("t", []Column{{Name: "s", Type: TString}}); err != nil {
		t.Fatal(err)
	}
	if err := e2.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	// A CTAS aborted by the budget must not register the target table.
	ctx = WithMemoryBudget(context.Background(), 8<<10)
	if _, err := e2.ExecContext(ctx, "create table c as select * from t"); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("budgeted CTAS: want ErrMemoryBudget, got %v", err)
	}
	if _, err := e2.Lookup("c"); err == nil {
		t.Fatal("aborted CTAS left table c registered")
	}
}

// ENGINE_FORCE_ENCODINGS encodes every sealed column regardless of
// thresholds; results must not move a bit.
func TestForcedEncodingsParity(t *testing.T) {
	t.Setenv(forceEncodingsEnv, "1")
	total := 2*chunkRows + 60
	rows := make([][]Value, total)
	for i := range rows {
		rows[i] = []Value{
			fmt.Sprintf("u%04d", i), // high-card strings: forced dict
			int64(i * 37),           // wide ints: forced delta
			float64(i) * 1.5,        // floats: forced RLE
			i%2 == 0,                // bools: forced RLE
		}
	}
	vec, row := twinEngines(t, []Column{
		{Name: "s", Type: TString}, {Name: "k", Type: TInt},
		{Name: "f", Type: TFloat}, {Name: "b", Type: TBool},
	}, rows)
	ch := mustSealed(t, vec, "t")
	if ch.cols[0].enc != encDict || ch.cols[1].enc != encDelta ||
		ch.cols[2].enc != encRLE || ch.cols[3].enc != encRLE {
		t.Fatalf("forced encodings: %d %d %d %d",
			ch.cols[0].enc, ch.cols[1].enc, ch.cols[2].enc, ch.cols[3].enc)
	}
	for _, q := range []string{
		"select count(*), sum(k), sum(f) from t",
		"select b, count(*), min(s), max(f) from t group by b order by b",
		"select s, k from t where t.s >= 'u0500' and t.b",
		"select count(*) from t where t.f < 100.0 or t.k > 15000",
	} {
		rsV, err := vec.Query(q)
		if err != nil {
			t.Fatalf("vec %s: %v", q, err)
		}
		rsR, err := row.Query(q)
		if err != nil {
			t.Fatalf("row %s: %v", q, err)
		}
		encRowsEqual(t, q, rsR, rsV)
	}
}
