package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// Tests for the compiled + morsel-parallel scan path: equivalence with the
// serial row path, deterministic serial fallback for impure queries, and
// accumulator merge correctness.

// bigEngine builds a table large enough (>= parallelMinRows) that pure
// scans fan out when parallelism is enabled.
func bigEngine(t testing.TB, seed int64) *Engine {
	t.Helper()
	e := NewSeeded(seed)
	if err := e.CreateTable("t", []Column{
		{Name: "g", Type: TInt},
		{Name: "s", Type: TString},
		{Name: "x", Type: TFloat},
		{Name: "n", Type: TInt},
	}); err != nil {
		t.Fatal(err)
	}
	rng := newSplitMix(uint64(seed) + 3)
	rows := make([][]Value, 3*parallelMinRows)
	labels := []string{"red", "green", "blue", "cyan"}
	for i := range rows {
		var x Value
		if rng.Int63n(50) == 0 {
			x = nil // sprinkle NULLs through the aggregate column
		} else {
			x = rng.Float64() * 1000
		}
		rows[i] = []Value{
			rng.Int63n(13),
			labels[rng.Int63n(int64(len(labels)))],
			x,
			rng.Int63n(1000),
		}
	}
	if err := e.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	return e
}

func valuesClose(a, b Value) bool {
	af, aok := a.(float64)
	bf, bok := b.(float64)
	if aok && bok {
		if math.IsNaN(af) && math.IsNaN(bf) {
			return true
		}
		return math.Abs(af-bf) <= 1e-9*math.Max(1, math.Max(math.Abs(af), math.Abs(bf)))
	}
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return Compare(a, b) == 0 && fmt.Sprintf("%T", a) == fmt.Sprintf("%T", b)
}

// assertSameResult requires identical columns and rows (same order; float
// cells within tolerance, since parallel partial sums reassociate).
func assertSameResult(t *testing.T, label string, serial, parallel *ResultSet) {
	t.Helper()
	if strings.Join(serial.Cols, ",") != strings.Join(parallel.Cols, ",") {
		t.Fatalf("%s: cols %v vs %v", label, serial.Cols, parallel.Cols)
	}
	if len(serial.Rows) != len(parallel.Rows) {
		t.Fatalf("%s: %d rows serial vs %d parallel", label, len(serial.Rows), len(parallel.Rows))
	}
	for i := range serial.Rows {
		for j := range serial.Rows[i] {
			if !valuesClose(serial.Rows[i][j], parallel.Rows[i][j]) {
				t.Fatalf("%s: row %d col %d: serial %v (%T) vs parallel %v (%T)",
					label, i, j, serial.Rows[i][j], serial.Rows[i][j],
					parallel.Rows[i][j], parallel.Rows[i][j])
			}
		}
	}
}

// TestParallelSerialEquivalence runs a spread of scan shapes on two engines
// with identical data, one forced serial and one forced wide, and requires
// identical results.
func TestParallelSerialEquivalence(t *testing.T) {
	queries := []string{
		`select g, count(*) as c, sum(x) as s, avg(x) as a from t group by g`,
		`select s, min(x) as lo, max(x) as hi, stddev(x) as sd, var(x) as v from t group by s`,
		`select count(*) from t`,
		`select sum(x) from t where g < 4 and s <> 'red'`,
		`select g, s, sum(x * (1 + n)) as wsum from t where x between 10 and 900 group by g, s`,
		`select count(distinct g) as dg, sum(distinct n) as dn, avg(distinct n) as an from t`,
		`select percentile(x, 0.9) as p90, median(x) as med from t group by g`,
		`select ndv(n) as approx from t`,
		`select g, x * 2 as xx, upper(s) as us from t where n % 7 = 0`,
		`select s, case when x > 500 then 'hi' when x > 100 then 'mid' else 'lo' end as band,
		        count(*) as c from t group by s, case when x > 500 then 'hi' when x > 100 then 'mid' else 'lo' end`,
		`select g, count(*) as c from t where s in ('red', 'blue') group by g having count(*) > 10 order by c desc, g`,
		`select sum(x) from t where x is null or x > 999999`,
	}
	serial := bigEngine(t, 11)
	serial.SetParallelism(1)
	parallel := bigEngine(t, 11)
	parallel.SetParallelism(8)
	for _, q := range queries {
		rsS, err := serial.Query(q)
		if err != nil {
			t.Fatalf("serial %s: %v", q, err)
		}
		rsP, err := parallel.Query(q)
		if err != nil {
			t.Fatalf("parallel %s: %v", q, err)
		}
		assertSameResult(t, q, rsS, rsP)
	}
	if serial.ParallelScans() != 0 {
		t.Fatalf("serial engine ran %d parallel scans", serial.ParallelScans())
	}
	if parallel.ParallelScans() == 0 {
		t.Fatal("parallel engine never took the parallel path")
	}

	// approx_median's reservoir resamples on merge, so parallel may differ
	// from serial by up to the sketch's rank error — compare loosely.
	const amq = "select approx_median(x) as am, percentile(x, 0.5) as exact from t"
	rsS, err := serial.Query(amq)
	if err != nil {
		t.Fatal(err)
	}
	rsP, err := parallel.Query(amq)
	if err != nil {
		t.Fatal(err)
	}
	amS, _ := ToFloat(rsS.Rows[0][0])
	amP, _ := ToFloat(rsP.Rows[0][0])
	exact, _ := ToFloat(rsS.Rows[0][1])
	for _, am := range []float64{amS, amP} {
		if math.Abs(am-exact) > 0.05*math.Abs(exact) {
			t.Fatalf("approx_median off: serial %v parallel %v exact %v", amS, amP, exact)
		}
	}
}

// TestImpureQueriesTakeSerialFallback verifies that rand()-dependent and
// subquery-bearing queries never fan out, and that rand() scrambles are
// byte-identical whatever the parallelism setting — the determinism
// contract sample creation depends on.
func TestImpureQueriesTakeSerialFallback(t *testing.T) {
	mk := func(par int) *Engine {
		e := bigEngine(t, 23)
		e.SetParallelism(par)
		return e
	}
	serial, parallel := mk(1), mk(8)

	// CTAS scramble: impure WHERE and an impure projected column.
	ctas := `create table scramble as
		select g, s, x, rand() as r, 1 + floor(rand() * 10) as sid
		from t where rand() < 0.3`
	for _, e := range []*Engine{serial, parallel} {
		if _, err := e.Exec(ctas); err != nil {
			t.Fatal(err)
		}
	}
	if parallel.ParallelScans() != 0 {
		t.Fatalf("impure CTAS took the parallel path (%d scans)", parallel.ParallelScans())
	}
	rsS, err := serial.Query("select * from scramble")
	if err != nil {
		t.Fatal(err)
	}
	rsP, err := parallel.Query("select * from scramble")
	if err != nil {
		t.Fatal(err)
	}
	if len(rsS.Rows) != len(rsP.Rows) {
		t.Fatalf("scramble sizes differ: %d vs %d", len(rsS.Rows), len(rsP.Rows))
	}
	for i := range rsS.Rows {
		for j := range rsS.Rows[i] {
			// Bit-identical, including the rand()-derived cells.
			if rsS.Rows[i][j] != rsP.Rows[i][j] {
				t.Fatalf("scramble row %d col %d: %v vs %v", i, j, rsS.Rows[i][j], rsP.Rows[i][j])
			}
		}
	}

	// Correlated subqueries must also stay serial.
	before := parallel.ParallelScans()
	if _, err := parallel.Query(`select g, count(*) from t a
		where x > (select avg(b.x) from t b where b.g = a.g) group by g`); err != nil {
		t.Fatal(err)
	}
	if parallel.ParallelScans() != before {
		t.Fatal("correlated subquery query took the parallel path")
	}

	// Sanity: a pure aggregate does fan out on the parallel engine.
	if _, err := parallel.Query("select g, sum(x) from t group by g"); err != nil {
		t.Fatal(err)
	}
	if parallel.ParallelScans() == before {
		t.Fatal("pure aggregate did not take the parallel path")
	}
}

// TestGroupOrderMatchesSerial: the merged parallel group order must equal
// the serial first-seen order (no ORDER BY in the query).
func TestGroupOrderMatchesSerial(t *testing.T) {
	serial := bigEngine(t, 31)
	serial.SetParallelism(1)
	parallel := bigEngine(t, 31)
	parallel.SetParallelism(7)
	q := "select g, s, count(*) from t group by g, s"
	rsS, err := serial.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	rsP, err := parallel.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	assertSameResult(t, q, rsS, rsP)
}

func TestAccumulatorMerge(t *testing.T) {
	feed := func(acc accumulator, vals []Value) {
		for _, v := range vals {
			if err := acc.add(v); err != nil {
				t.Fatal(err)
			}
		}
	}
	vals := make([]Value, 0, 1000)
	rng := newSplitMix(5)
	for i := 0; i < 1000; i++ {
		vals = append(vals, rng.Float64()*100)
	}
	mkMoments := func() *momentsAcc { return &momentsAcc{mode: momentVar} }

	whole := mkMoments()
	feed(whole, vals)
	a, b := mkMoments(), mkMoments()
	feed(a, vals[:313])
	feed(b, vals[313:])
	if err := a.merge(b); err != nil {
		t.Fatal(err)
	}
	w, _ := whole.result().(float64)
	m, _ := a.result().(float64)
	if math.Abs(w-m) > 1e-9*w {
		t.Fatalf("moments merge: %v vs %v", w, m)
	}

	// Distinct sum dedups across partials.
	d1 := &distinctSumAcc{name: "sum", seen: map[string]float64{}}
	d2 := &distinctSumAcc{name: "sum", seen: map[string]float64{}}
	feed(d1, []Value{int64(1), int64(2), int64(3)})
	feed(d2, []Value{int64(3), int64(4)})
	if err := d1.merge(d2); err != nil {
		t.Fatal(err)
	}
	if got, _ := d1.result().(float64); got != 10 {
		t.Fatalf("distinct sum merge: %v", got)
	}

	// Extremes and counts.
	e1 := &extremeAcc{min: true}
	e2 := &extremeAcc{min: true}
	feed(e1, []Value{int64(5)})
	feed(e2, []Value{int64(2)})
	if err := e1.merge(e2); err != nil {
		t.Fatal(err)
	}
	if got, _ := e1.result().(int64); got != 2 {
		t.Fatalf("min merge: %v", got)
	}
	c1, c2 := &countAcc{}, &countAcc{}
	c1.addStar()
	c2.addStar()
	c2.addStar()
	if err := c1.merge(c2); err != nil {
		t.Fatal(err)
	}
	if got, _ := c1.result().(int64); got != 3 {
		t.Fatalf("count merge: %v", got)
	}

	// Integer sums keep their int64 result type across merges.
	s1, s2 := &sumAcc{}, &sumAcc{}
	feed(s1, []Value{int64(4)})
	feed(s2, []Value{int64(8)})
	if err := s1.merge(s2); err != nil {
		t.Fatal(err)
	}
	if got, ok := s1.result().(int64); !ok || got != 12 {
		t.Fatalf("int sum merge: %v", s1.result())
	}
}

// TestCompileExprParity cross-checks serial and parallel evaluation of a
// grab-bag of compiled expression shapes.
func TestCompileExprParity(t *testing.T) {
	e := bigEngine(t, 41)
	exprs := []string{
		"g + n * 2",
		"x / (n + 1)",
		"-x",
		"not (g > 5)",
		"g between 3 and 9",
		"s like 'r%'",
		"s is not null",
		"x is null",
		"case g when 1 then 'one' when 2 then 'two' else 'many' end",
		"g in (1, 3, 5, 7)",
		"s in ('red', 'nope')",
		"coalesce(x, -1)",
		"substr(s, 1, 2)",
		"upper(s) || '-' || s",
		"abs(x - 500)",
		"cast(x as int)",
		"x > 250.5",
		"g <= 6",
		"s = 'green'",
		"nullif(g, 3)",
	}
	for _, ex := range exprs {
		sql := "select " + ex + " as v from t"
		rsSerial := mustQueryWithParallelism(t, e, 1, sql)
		rsParallel := mustQueryWithParallelism(t, e, 8, sql)
		assertSameResult(t, ex, rsSerial, rsParallel)
	}
}

func mustQueryWithParallelism(t *testing.T, e *Engine, par int, sql string) *ResultSet {
	t.Helper()
	e.SetParallelism(par)
	rs, err := e.Query(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	return rs
}

// A group costs no allocation of its own: its key lives in the key table, its
// row and accumulators in slabs (groupSet). What remains per group are boxed
// cells — the key, the aggregate results — and the output's projected row.
func TestManyGroupsAllocs(t *testing.T) {
	const groups = 20_000
	e := NewSeeded(1)
	if err := e.CreateTable("t", []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TFloat}}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, 2*groups)
	for i := range rows {
		rows[i] = []Value{int64(i % groups), float64(i)}
	}
	if err := e.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	// Measured per group: 3 on the kernels (the boxed key, the boxed sum and
	// the projected row), 8 on the row closures, which box every row that
	// passes WHERE. The ceilings are 1.25 times that; a map of rendered keys
	// with a heap object per group and accumulator measured 9 and 14.
	for _, tc := range []struct {
		vec      bool
		perGroup float64
	}{{true, 3.75}, {false, 10}} {
		e.SetVectorized(tc.vec)
		got := testing.AllocsPerRun(3, func() {
			rs, err := e.Query("select k, count(*), sum(v) from t group by k")
			if err != nil || len(rs.Rows) != groups {
				t.Fatalf("vectorized=%v: %v, %d rows", tc.vec, err, len(rs.Rows))
			}
		})
		if got > tc.perGroup*groups {
			t.Errorf("vectorized=%v: %.0f allocations (%.2f per group), want at most %.1f per group",
				tc.vec, got, got/groups, tc.perGroup)
		}
	}
}
