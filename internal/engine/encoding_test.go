package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
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
	if d := encRowsDiff(want, got); d != "" {
		t.Fatalf("%s%s", label, d)
	}
}

// encRowsDiff describes the first difference between two result sets, or
// returns "" when they are bit-identical. Floats compare by bits, so NaN
// matches NaN and -0 does not match +0; every other cell compares as an
// interface, so a cell of another dynamic type never matches.
func encRowsDiff(want, got *ResultSet) string {
	if len(want.Rows) != len(got.Rows) {
		return fmt.Sprintf(": row count %d vs %d", len(want.Rows), len(got.Rows))
	}
	for r := range want.Rows {
		for c := range want.Rows[r] {
			w, g := want.Rows[r][c], got.Rows[r][c]
			wf, isF := w.(float64)
			gf, gIsF := g.(float64)
			if isF != gIsF || isF && math.Float64bits(wf) != math.Float64bits(gf) || !isF && w != g {
				return fmt.Sprintf(" row %d col %d: %v (%T) vs %v (%T)", r, c, w, w, g, g)
			}
		}
	}
	return ""
}

// TestEncRowsDiff pins the comparator the parity tests share: a float cell
// matches only a float of the same bits.
func TestEncRowsDiff(t *testing.T) {
	one := func(v Value) *ResultSet { return &ResultSet{Rows: [][]Value{{v}}} }
	for _, c := range []struct {
		want, got Value
		same      bool
	}{
		{float64(0), float64(0), true},
		{math.NaN(), math.NaN(), true},
		{"a", "a", true},
		{nil, nil, true},
		{float64(0), nil, false},
		{float64(0), int64(0), false},
		{float64(0), "", false},
		{float64(0), false, false},
		{nil, float64(0), false},
		{int64(0), float64(0), false},
		{float64(0), math.Copysign(0, -1), false},
	} {
		if same := encRowsDiff(one(c.want), one(c.got)) == ""; same != c.same {
			t.Errorf("%#v vs %#v: same = %v, want %v", c.want, c.got, same, c.same)
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
		{Name: "r", Type: TInt},    // constant 64-runs -> delta, width 2
		{Name: "d", Type: TInt},    // range 200 -> delta, width 8
		{Name: "f", Type: TFloat},  // two-decimal floats -> decimal, exponent 2
		{Name: "g", Type: TFloat},  // high-entropy floats -> raw
	}); err != nil {
		t.Fatal(err)
	}
	vals := []string{"low", "mid", "top"}
	total := 2 * chunkRows
	rows := make([][]Value, total)
	for i := range rows {
		rows[i] = []Value{vals[i%3], int64(i / 64), int64(i % 200), float64(i) + 0.25, math.Sqrt(float64(i))}
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
	if z := tbl.sealed[0].slotZone(0); z.Bound(0) != "low" || z.Bound(1) != "top" {
		t.Fatalf("s zones: %v..%v", z.Bound(0), z.Bound(1))
	}
	if cv := &ch.cols[1]; cv.enc != encDelta || cv.width != 2 {
		t.Fatalf("r: enc %d width %d, want delta at width 2", cv.enc, cv.width)
	}
	if got := ch.cols[2].enc; got != encDelta {
		t.Fatalf("d: enc %d, want delta", got)
	}
	if ch.cols[2].width > 8 || ch.cols[2].ints != nil {
		t.Fatalf("d: width %d ints %v", ch.cols[2].width, ch.cols[2].ints)
	}
	if cv := &ch.cols[3]; cv.enc != encDecimal || cv.exp != 2 || cv.floats != nil {
		t.Fatalf("f: enc %d exponent %d floats %v, want decimal at exponent 2", cv.enc, cv.exp, cv.floats)
	}
	if got := ch.cols[4].enc; got != encNone {
		t.Fatalf("g: enc %d, want raw", got)
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
	if err := e.CreateTable("t", []Column{{Name: "s", Type: TString}, {Name: "v", Type: TString}}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, chunkRows)
	for i := range rows {
		// Every value distinct: s all 5 bytes long, v of 2 to 4 bytes.
		rows[i] = []Value{fmt.Sprintf("u%04d", i), fmt.Sprintf("v%d", i)}
	}
	if err := e.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.Lookup("t")
	ch := sealedChunk(t, tbl, 0)
	for j := range ch.cols {
		if cv := &ch.cols[j]; cv.enc != encNone || cv.dict != nil {
			t.Fatalf("high-cardinality strings should stay raw: column %d enc %d", j, cv.enc)
		}
	}
	// Raw and stored: one block of every value's bytes and no string headers;
	// one offset per row plus the leading 0, or, where every value has one
	// length, that length and no offsets.
	if cv := &ch.cols[0]; cv.strs != nil || cv.soffs != nil || cv.sw != 5 || len(cv.sbytes) != 5*chunkRows {
		t.Fatalf("same-length strings not a fixed-width block: strs %d, offsets %d, width %d, %d bytes", len(cv.strs), len(cv.soffs), cv.sw, len(cv.sbytes))
	}
	if cv := &ch.cols[1]; cv.strs != nil || len(cv.soffs) != chunkRows+1 || cv.soffs[0] != 0 || cv.sw != 0 {
		t.Fatalf("raw strings not in block form: strs %d, offsets %d, width %d", len(cv.strs), len(cv.soffs), cv.sw)
	}
	for i, r := range rows {
		for j := range ch.cols {
			if got := ch.cols[j].strAt(i); got != r[j] {
				t.Fatalf("row %d column %d reads %q, want %q", i, j, got, r[j])
			}
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
	tbl, err := vec.Lookup("t")
	if err != nil {
		t.Fatal(err)
	}
	if min := tbl.sealed[0].slotZone(0).Bound(0); min != int64(-100) {
		t.Fatalf("x min: %v", min)
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

// TestTypedKernelsMatchRowPath pins the kernels' typed loops — literal
// comparisons, IN, BETWEEN, AND/OR and + - * — to the row closures over raw
// int, raw float, stored string block, dictionary and delta columns (one of
// them in 32-row runs of one value, whole runs NULL), each read by a plain scan, over a join's output (as the probe side
// and as the build side) and as a pre-filtered join input, with and without
// NULLs. The values hold NaN, ±0, ±Inf, 2^53+1 (which equals the float 2^53
// under Compare) and "", and the literals every kind, one of the other kind
// too (a string column against a number takes the generic node).
func TestTypedKernelsMatchRowPath(t *testing.T) {
	const n = 3*chunkRows + 40
	big := int64(1) << 53
	ints := []int64{big + 1, big, big - 1, -big - 1, 0, 1, -1, 5, 1 << 40, -(1 << 40), 3, 2}
	floats := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), float64(big), 2.5, -3.5, 1e300, 5}
	preds := func(c string, lits ...string) []string {
		var ps []string
		for _, lit := range lits {
			for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
				ps = append(ps, fmt.Sprintf("t.%s %s %s", c, op, lit))
			}
		}
		return append(ps, fmt.Sprintf("%s < t.%s", lits[0], c),
			fmt.Sprintf("t.%s in (%s)", c, strings.Join(lits, ", ")),
			fmt.Sprintf("t.%s not in (%s, %s)", c, lits[0], lits[1]),
			fmt.Sprintf("t.%s between %s and %s", c, lits[1], lits[0]),
			fmt.Sprintf("t.%s not between %s and %s", c, lits[1], lits[0]),
			fmt.Sprintf("t.%s between %s and %s", c, lits[0], lits[len(lits)-1]),
			fmt.Sprintf("t.%s >= %s and t.dl < 0", c, lits[0]),
			fmt.Sprintf("t.%s < %s or t.ds = ''", c, lits[1]))
	}
	var all []string
	for _, ps := range [][]string{
		preds("ri", "9007199254740992.0", "5", "-1", "2.5", "'x'"),
		preds("rf", "0", "-0.0", "2.5", "9007199254740992.0", "1e300", "'x'"),
		preds("s", "'v13'", "''", "'v5'", "3"),
		preds("ds", "'b'", "''", "'zz'", "3"),
		preds("rl", "3", "2.5", "'x'"),
		preds("dl", "-3", "0.5", "'x'"),
	} {
		all = append(all, ps...)
	}
	for _, nulls := range []bool{false, true} {
		e := NewSeeded(9)
		mk := func(name string, cols []Column, rows int, row func(i int) []Value) {
			if err := e.CreateTable(name, cols); err != nil {
				t.Fatal(err)
			}
			rs := make([][]Value, rows)
			for i := range rs {
				rs[i] = row(i)
			}
			if err := e.InsertRows(name, rs); err != nil {
				t.Fatal(err)
			}
		}
		mk("t", []Column{{Name: "id", Type: TInt}, {Name: "k", Type: TInt}, {Name: "ri", Type: TInt},
			{Name: "rf", Type: TFloat}, {Name: "s", Type: TString}, {Name: "ds", Type: TString},
			{Name: "rl", Type: TInt}, {Name: "dl", Type: TInt}}, n, func(i int) []Value {
			var s Value = fmt.Sprintf("v%d", i)
			if i%9 == 4 {
				s = ""
			}
			row := []Value{int64(i), int64(i % 200), ints[i%len(ints)] + int64(i/len(ints))*1000003,
				floats[i%len(floats)], s, []string{"", "a", "b", "c", "d"}[i%5], int64(i / 32), int64(i%97 - 48)}
			if i%len(ints) < 4 {
				row[2] = ints[i%len(ints)] // the values around 2^53 exactly
			}
			if nulls {
				for c := 2; c < len(row); c++ {
					if c != 6 && i%7 == 3 || c == 6 && i/32%3 == 1 { // rl: whole runs
						row[c] = nil
					}
				}
			}
			return row
		})
		mk("j", []Column{{Name: "k", Type: TInt}, {Name: "w", Type: TInt}}, 200,
			func(i int) []Value { return []Value{int64(i), int64(i * 3)} })
		mk("b", []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TInt}}, 900,
			func(i int) []Value { return []Value{int64(i % 200), int64(i)} })
		if !forceEncodings() {
			ch := mustSealed(t, e, "t")
			for j, want := range []colEnc{2: encNone, 3: encNone, 4: encNone, 5: encDict, 6: encDelta, 7: encDelta} {
				if j >= 2 && ch.cols[j].enc != want {
					t.Fatalf("column %d: encoding %d, want %d", j, ch.cols[j].enc, want)
				}
			}
			if ch.cols[4].soffs == nil {
				t.Fatal("s is not a stored string block")
			}
		}
		// The last shape's t is the input the join hashes, so it is always
		// pre-filtered.
		if leaves, _, err := prefilterOutcomes(e, "select t.id from b join t on b.k = t.k where t.ri = 5"); err != nil || leaves[1] != "applied: hashed input/1" {
			t.Fatalf("t's pre-filter: %v %v", leaves, err)
		}
		check := func(sql string) { checkAgainstRowPath(t, e, fmt.Sprintf("nulls=%v: %s", nulls, sql), sql) }
		for _, c := range []string{"ri", "rf", "rl", "dl"} {
			arith := fmt.Sprintf("t.%[1]s + 3, t.%[1]s - 2.5, t.%[1]s * t.dl, t.%[1]s * 2, t.dl - t.%[1]s", c)
			check("select t.id, " + arith + " from t")
			check("select t.id, " + arith + " from j join t on j.k = t.k")
		}
		for _, p := range all {
			for _, q := range []string{
				"select t.id, %[1]s from t",
				"select t.id from t where %[1]s",
				"select t.id, j.w, %[1]s from j join t on j.k = t.k",
				"select t.id, j.w from t join j on t.k = j.k where %[1]s or j.w < 0",
				"select t.id, b.v, %[1]s from b join t on b.k = t.k where %[1]s",
			} {
				check(fmt.Sprintf(q, p))
			}
		}
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
			float64(i) * 1.5,        // decimal floats: forced decimal
			i%2 == 0,                // bools: raw, forced or not
			math.Sqrt(float64(i)),   // other floats: no exact decimal, raw
		}
	}
	vec, row := twinEngines(t, []Column{
		{Name: "s", Type: TString}, {Name: "k", Type: TInt},
		{Name: "f", Type: TFloat}, {Name: "b", Type: TBool}, {Name: "g", Type: TFloat},
	}, rows)
	ch := mustSealed(t, vec, "t")
	if ch.cols[0].enc != encDict || ch.cols[1].enc != encDelta ||
		ch.cols[2].enc != encDecimal || ch.cols[3].enc != encNone || ch.cols[4].enc != encNone {
		t.Fatalf("forced encodings: %d %d %d %d %d",
			ch.cols[0].enc, ch.cols[1].enc, ch.cols[2].enc, ch.cols[3].enc, ch.cols[4].enc)
	}
	for _, q := range []string{
		"select count(*), sum(k), sum(f), sum(g) from t",
		"select b, count(*), min(s), max(f), min(g) from t group by b order by b",
		"select k, f, g from t where t.f > 300 and t.g < 20",
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
