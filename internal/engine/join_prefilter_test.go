package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"verdictdb/internal/faultpoint"
	"verdictdb/internal/sqlparser"
)

// A join input is filtered by the WHERE conjuncts that only read it before
// the join runs (zonemap.go). These tests pin that the filter is invisible —
// every result equals the row path's, which plans none — and pin what is not
// pushed.

// prefilterDB loads a fact table whose columns take every storage encoding,
// a dimension it joins to, and a small third table for joins two levels down.
//
//	f(id delta, k join key with NULLs, k3, tag dict with NULLs, grp RLE, amt raw float, note raw string)
//	d(k, name dict, w, region with NULLs)        700 rows, k unique
//	h(hk, hv, hs)                                50 rows, hk unique
func prefilterDB(t testing.TB, nf int) *Engine {
	t.Helper()
	e := NewSeeded(5)
	mk := func(name string, cols []Column, n int, row func(i int) []Value) {
		if err := e.CreateTable(name, cols); err != nil {
			t.Fatal(err)
		}
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = row(i)
		}
		if err := e.InsertRows(name, rows); err != nil {
			t.Fatal(err)
		}
	}
	tags := []string{"a", "b", "c", "d", "e"}
	mk("f", []Column{
		{Name: "id", Type: TInt}, {Name: "k", Type: TInt}, {Name: "k3", Type: TInt},
		{Name: "tag", Type: TString}, {Name: "grp", Type: TString},
		{Name: "amt", Type: TFloat}, {Name: "note", Type: TString},
	}, nf, func(i int) []Value {
		var k, tag Value = int64(i * 7 % 800), tags[i*3%5] // keys 700..799 match nothing
		if i%23 == 22 {
			k = nil
		}
		if i%11 == 10 {
			tag = nil
		}
		return []Value{int64(i), k, int64(i % 60), tag, fmt.Sprintf("g%d", i/64%9),
			float64(i%1000)*0.37 + 0.01*float64(i%7), fmt.Sprintf("n%05d", i*7919%100003)}
	})
	mk("d", []Column{
		{Name: "k", Type: TInt}, {Name: "name", Type: TString}, {Name: "w", Type: TInt}, {Name: "region", Type: TString},
	}, 700, func(i int) []Value {
		var region Value = fmt.Sprintf("r%d", i%4)
		if i%9 == 8 {
			region = nil
		}
		return []Value{int64(i), fmt.Sprintf("name%d", i%13), int64(i % 50), region}
	})
	mk("h", []Column{{Name: "hk", Type: TInt}, {Name: "hv", Type: TInt}, {Name: "hs", Type: TString}},
		50, func(i int) []Value { return []Value{int64(i), int64(i * i % 17), fmt.Sprintf("h%d", i%3)} })
	return e
}

// checkPrefiltered runs sql on the row path at parallelism 1 — the oracle:
// it plans no pre-filter — and requires the same rows in the same order from
// the vectorized path at parallelism 1 (float cells to the last bit) and from
// both paths at parallelism 4 (float cells within the tolerance the workload
// equivalence tests use: partial sums reassociate).
func checkPrefiltered(t *testing.T, e *Engine, sql string) *ResultSet {
	t.Helper()
	defer e.SetVectorized(true)
	defer e.SetParallelism(0)
	e.SetVectorized(false)
	e.SetParallelism(1)
	ref, err := e.Query(sql)
	if err != nil {
		t.Fatalf("%s: row path: %v", sql, err)
	}
	for _, mode := range []struct {
		vec bool
		par int
	}{{true, 1}, {true, 4}, {false, 4}} {
		e.SetVectorized(mode.vec)
		e.SetParallelism(mode.par)
		rs, err := e.Query(sql)
		if err != nil {
			t.Fatalf("%s: vectorized=%v parallelism=%d: %v", sql, mode.vec, mode.par, err)
		}
		if len(rs.Rows) != len(ref.Rows) {
			t.Fatalf("%s: vectorized=%v parallelism=%d: %d rows, row path %d", sql, mode.vec, mode.par, len(rs.Rows), len(ref.Rows))
		}
		for r := range ref.Rows {
			for c, want := range ref.Rows[r] {
				got := rs.Rows[r][c]
				wf, isF := want.(float64)
				gf, _ := got.(float64)
				same := want == got
				if isF && mode.par > 1 {
					same = math.Abs(wf-gf) <= 1e-9*math.Max(1, math.Max(math.Abs(wf), math.Abs(gf)))
				}
				if !same {
					t.Fatalf("%s: vectorized=%v parallelism=%d row %d col %d: %v (%T), row path %v (%T)",
						sql, mode.vec, mode.par, r, c, got, got, want, want)
				}
			}
		}
	}
	return ref
}

func TestJoinPrefilterEquivalence(t *testing.T) {
	// 6000 fact rows: above parallelMinRows, so the pre-filter, the join and
	// the aggregation fan out at parallelism 4 — and stop fanning out when
	// the filter shrinks the input below it.
	e := prefilterDB(t, 6000)

	// Every operator of the pushed class, on every encoding.
	for _, pred := range []string{
		"f.id = 4242", "f.id <> 17", "f.id < 3000", "f.id <= 5", "f.id > 5990", "f.id >= 0", "3000 > f.id",
		"f.id between 100 and 140", "f.id not between 10 and 5990",
		"f.tag = 'c'", "f.tag in ('a', 'e')", "f.tag not in ('a', 'b')", "f.tag not in ('zz')",
		"f.tag is null", "f.tag is not null", "f.tag like 'a%'", "f.tag not like '%c'", "f.tag > 'b' and f.tag <= 'd'",
		"f.grp = 'g3'", "f.grp in ('g1', 'g8')", "f.grp <> 'g0'", "f.grp like 'g_'", "not (f.grp = 'g2' or f.grp = 'g4')",
		"f.amt < 1.5", "f.amt >= 369.5", "f.amt between 100 and 101", "f.amt = f.amt",
		"f.note like 'n0%'", "f.note not like 'n0%'", "f.note = 'n07919'", "f.note in ('n07919', 'n15838')",
		"f.k is null", "f.k in (1, 2, 3)", "f.k not in (1, 2, 3)", "f.k = f.k3", "f.id < 50 or f.tag is null",
		"not f.id > 100", "f.id < 0", "f.tag = 'nope'",
	} {
		checkPrefiltered(t, e, "select f.id, f.tag, f.grp, f.amt, d.name from f inner join d on f.k = d.k where "+pred)
	}

	// Join type × where the conjunct sits × how much it keeps.
	sels := []string{"f.id < 0", "f.id < 6", "f.id < 3000", "f.id >= 0"} // 0, 1e-3, 0.5, 1
	for _, jt := range []string{"inner join", "left join", "right join", "full join"} {
		wheres := []string{
			"d.w < 25 and d.region = 'r1'", // the other leaf
			"d.region is null",             // true of null-extended rows too
		}
		for _, s := range sels {
			wheres = append(wheres,
				s, // one leaf
				s+" and d.region is not null and d.name in ('name1', 'name5', 'name12')", // both
				s+" and (d.w < 10 or f.k3 > 40)",                                         // a conjunct over both, after a pushed one
			)
		}
		for _, where := range wheres {
			checkPrefiltered(t, e, fmt.Sprintf("select f.id, f.note, d.k, d.region from f %s d on f.k = d.k where %s", jt, where))
			checkPrefiltered(t, e, fmt.Sprintf("select d.k, d.region, f.id, f.note from d %s f on f.k = d.k where %s", jt, where))
		}
	}
	for _, s := range sels {
		checkPrefiltered(t, e, "select f.id, h.hs from h cross join f where h.hk < 2 and "+s)
		// Float aggregates over a filtered join.
		checkPrefiltered(t, e, "select d.name, count(*), sum(f.amt), avg(f.amt * d.w) from f inner join d on f.k = d.k where "+
			s+" and d.w <> 3 group by d.name order by d.name")
		// A leaf two joins down, on the preserved and on the null-supplying side.
		for _, jt := range []string{"inner join", "left join", "right join", "full join"} {
			checkPrefiltered(t, e, fmt.Sprintf(
				"select f.id, d.name, h.hs from f inner join d on f.k = d.k %s h on f.k3 = h.hk where %s and h.hv > 3 and d.w < 40", jt, s))
			checkPrefiltered(t, e, fmt.Sprintf(
				"select f.id, d.name, h.hs from h %s f on f.k3 = h.hk inner join d on f.k = d.k where %s and h.hs = 'h1'", jt, s))
		}
		// A derived-table input next to a filtered leaf, and a conjunct on it.
		checkPrefiltered(t, e, "select f.id, x.n from f inner join (select k, count(*) as n from d group by k) x on f.k = x.k where "+
			s+" and n = 1 and x.k < 300")
	}
	checkPrefiltered(t, e, "select x.id, d.region from (select id, k from f where id % 2 = 0) x inner join d on x.k = d.k where d.w = 7 and x.id < 4000")
	// A derived table on either side of every join type, beside a filtered leaf.
	for _, jt := range []string{"inner join", "left join", "right join", "full join"} {
		checkPrefiltered(t, e, fmt.Sprintf(
			"select x.id, x.tag, x.amt, d.name from (select id, k, tag, amt from f where id %% 3 = 0) x %s d on x.k = d.k where d.w < 25", jt))
		checkPrefiltered(t, e, fmt.Sprintf(
			"select f.id, f.note, x.name, x.region from f %s (select k, name, region from d where w > 5) x on f.k = x.k where f.id < 3000", jt))
	}

	// OR of ANDs: an implied predicate for both leaves, for one, for none.
	for _, where := range []string{
		"(f.tag = 'a' and d.w < 5) or (f.tag = 'b' and d.w > 45)",
		"(f.tag = 'a' and d.w < 5 and f.id < 3000) or (f.grp = 'g1' and d.region = 'r2') or (f.id between 5 and 9 and d.k > 2)",
		"(f.tag = 'a' and d.w < 5) or f.id < 100",
		"(f.tag = 'a' and d.w < 5) or (f.id = d.k)",
		"(f.tag = 'a' or d.w < 5) and (f.id < 3000 or d.region is null)",
	} {
		for _, jt := range []string{"inner join", "left join", "full join"} {
			checkPrefiltered(t, e, fmt.Sprintf("select f.id, f.tag, d.w, d.region from f %s d on f.k = d.k where %s", jt, where))
		}
	}

	// Unqualified names: unique ones are attributed to their leaf; USING joins;
	// one table under two aliases.
	checkPrefiltered(t, e, "select id, name from f inner join d on f.k = d.k where tag = 'b' and w in (1, 2, 3) and amt < 200")
	checkPrefiltered(t, e, "select id, name from f inner join d using (k) where tag = 'b' and d.w < 30 and f.k < 650")
	checkPrefiltered(t, e, "select a.id, b.id from f a inner join f b on a.id = b.k where a.tag = 'a' and b.grp = 'g1' and a.id < 500")
	checkPrefiltered(t, e, "select a.k, b.k from d a left join d b on a.w = b.k where a.region = 'r1' and b.region is null")
	// An ambiguous name errors as it always did — for every joined row, on
	// both paths — and does not on an empty join.
	for _, vec := range []bool{true, false} {
		e.SetVectorized(vec)
		if _, err := e.Query("select f.id from f inner join d on f.k = d.k where f.id < 10 and k = 3"); !errors.Is(err, ErrAmbiguousColumn) {
			t.Errorf("vectorized=%v: ambiguous conjunct: %v", vec, err)
		}
		if rs, err := e.Query("select f.id from f inner join d on f.k = d.k where f.id < 0 and k = 3"); err != nil || len(rs.Rows) != 0 {
			t.Errorf("vectorized=%v: ambiguous conjunct behind an empty join: %v", vec, err)
		}
	}
	e.SetVectorized(true)
	// An enclosing scope's column in WHERE: read per outer row, never pushed.
	checkPrefiltered(t, e, `select h.hk, (select count(*) from f inner join d on f.k = d.k where f.tag = 'a' and d.w = hk and f.id < 2000)
		from h where h.hk < 12 order by h.hk`)
}

// leafFilters plans sql's FROM and WHERE and renders what each leaf is
// filtered by before it is joined, in FROM order ("" = nothing). Only a
// base-table leaf may get a filter or a zone list.
func leafFilters(t *testing.T, e *Engine, sql string) []string {
	t.Helper()
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	sel := stmt.(*sqlparser.SelectStmt)
	p := planFrom(e.newQueryCtx(context.Background(), sql), sel.From, sel.Where)
	out := make([]string, len(p.leaves))
	for i, lf := range p.leaves {
		if lf.filter != nil {
			out[i] = sqlparser.FormatExpr(lf.filter)
		}
		if !lf.base && (lf.filter != nil || lf.zone != nil) {
			t.Errorf("%s: leaf %d is not a base table: filter %q, %d zone predicates", sql, i, out[i], len(lf.zone))
		}
	}
	return out
}

func TestJoinPrefilterEligibility(t *testing.T) {
	e := prefilterDB(t, 600)
	const fd = "select count(*) from f inner join d on f.k = d.k where "
	for _, c := range []struct {
		sql  string
		want []string // per leaf, in FROM order
	}{
		// The class, the attribution, the implied predicate.
		{fd + "f.tag = 'a' and d.w < 5 and f.id between 1 and 9", []string{"((f.tag = 'a') AND (f.id BETWEEN 1 AND 9))", "(d.w < 5)"}},
		{fd + "tag = 'a' and w < 5", []string{"(tag = 'a')", "(w < 5)"}},
		{fd + "not (f.tag like 'a%' or f.k is null) and f.tag not in ('b')", []string{"((NOT ((f.tag LIKE 'a%') OR (f.k IS NULL))) AND (f.tag NOT IN ('b')))", ""}},
		{fd + "(f.tag = 'a' and d.w < 5) or (f.tag = 'b' and d.w > 45)", []string{"((f.tag = 'a') OR (f.tag = 'b'))", "((d.w < 5) OR (d.w > 45))"}},
		{fd + "(f.tag = 'a' and d.w < 5) or f.id < 9", []string{"((f.tag = 'a') OR (f.id < 9))", ""}},
		{fd + "f.id = d.w and f.tag = 'a'", []string{"(f.tag = 'a')", ""}},
		{"select count(*) from f inner join (select k from d) x on f.k = x.k where f.tag = 'a' and x.k < 9", []string{"(f.tag = 'a')", ""}},
		// A derived-table leaf is never filtered or zone-pruned, on either side,
		// but its names are attributed: the conjuncts after one of its are still pushed.
		{"select count(*) from (select k, tag, id from f) x inner join d on x.k = d.k where x.tag = 'a' and x.id < 9 and d.w < 5", []string{"", "(d.w < 5)"}},
		{"select count(*) from f inner join (select k as xk, w as xw from d) x on f.k = xk where xw < 5 and tag = 'a' and id < 9", []string{"((tag = 'a') AND (id < 9))", ""}},
		{"select count(*) from (select k as xk from d) x inner join (select k, w from d) y on xk = y.k where w < 5 and xk > 3", []string{"", ""}},
		{"select count(*) from f", []string{""}},
		{"select count(*) from f where f.tag = 'a'", []string{""}}, // not a join: WHERE is the filter

		// A fallible conjunct is never pushed and stops every conjunct after it.
		{fd + "f.tag = 'a' and f.amt + 'q' > 1 and d.w < 5", []string{"(f.tag = 'a')", ""}},
		{fd + "f.amt + 'q' > 1 and f.tag = 'a'", []string{"", ""}},
		{fd + "cast(f.tag as int) = 1 and d.w < 5", []string{"", ""}},
		{fd + "upper(f.tag) = 'A' and d.w < 5", []string{"", ""}},
		{fd + "f.id in (select hk from h) and d.w < 5", []string{"", ""}},
		{fd + "rand() < 2 and d.w < 5", []string{"", ""}},
		{fd + "f.tag = null and d.w < 5", []string{"", ""}},
		{fd + "f.tag in ('a', null) and d.w < 5", []string{"", ""}},
		{fd + "not f.tag and d.w < 5", []string{"", ""}},
		// Names WHERE cannot bind to one leaf: ambiguous, unknown (or outer).
		{fd + "k = 3 and d.w < 5", []string{"", ""}},
		{fd + "nope = 3 and d.w < 5", []string{"", ""}},

		// The null-supplying side of an outer join, and anything under FULL.
		{"select count(*) from f left join d on f.k = d.k where f.tag = 'a' and d.w < 5", []string{"(f.tag = 'a')", ""}},
		{"select count(*) from f right join d on f.k = d.k where f.tag = 'a' and d.w < 5", []string{"", "(d.w < 5)"}},
		{"select count(*) from f full join d on f.k = d.k where f.tag = 'a' and d.w < 5", []string{"", ""}},
		{"select count(*) from f inner join d on f.k = d.k left join h on f.k3 = h.hk where f.tag = 'a' and d.w < 5 and h.hv = 1",
			[]string{"(f.tag = 'a')", "(d.w < 5)", ""}},
		{"select count(*) from h right join f on f.k3 = h.hk inner join d on f.k = d.k where f.tag = 'a' and d.w < 5 and h.hv = 1",
			[]string{"", "(f.tag = 'a')", "(d.w < 5)"}},
		// A fallible ON between the leaf and the root blocks the leaves under it.
		{"select count(*) from f inner join d on f.k = d.k and f.amt + 'q' > d.w where f.tag = 'a' and d.w < 5", []string{"", ""}},
		{"select count(*) from f inner join d on f.k = d.k inner join h on f.k3 = h.hk + 0 where f.tag = 'a' and d.w < 5 and h.hv = 1",
			[]string{"", "", ""}},
		{"select count(*) from f inner join d on f.k = upper(d.k) inner join h on f.k3 = h.hk where f.tag = 'a' and d.w < 5 and h.hv = 1",
			[]string{"", "", "(h.hv = 1)"}},
	} {
		if got := leafFilters(t, e, c.sql); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s:\n filters %q\n want    %q", c.sql, got, c.want)
		}
	}
	e.SetVectorized(false)
	if got := leafFilters(t, e, fd+"f.tag = 'a' and d.w < 5"); fmt.Sprint(got) != "[ ]" {
		t.Errorf("the row path plans pre-filters: %q", got)
	}
	e.SetVectorized(true)

	// What blocking protects: each query's error — or its success on a join
	// no row survives — is the row path's.
	for _, sql := range []string{
		fd + "f.amt + 'q' > 1 and d.w < 0",
		fd + "d.w < 0 and f.amt + 'q' > 1",
		fd + "f.tag = 'a' and f.amt + 'q' > 1",
		fd + "k = 3 and d.w < 0",
		"select count(*) from f inner join d on f.k = d.k and f.amt + 'q' > d.w where d.w < 0",
		"select count(*) from f inner join d on f.k = d.k and f.amt + 'q' > d.w where f.k > 700",
		"select count(*) from d left join f on f.k = d.k where f.tag is null",
		"select count(*) from f full join d on f.k = d.k where f.id < 0",
		"select count(*) from f inner join d using (nope) where f.id < 0",
	} {
		e.SetVectorized(false)
		want, wantErr := e.Query(sql)
		e.SetVectorized(true)
		got, gotErr := e.Query(sql)
		if fmt.Sprint(wantErr) != fmt.Sprint(gotErr) {
			t.Errorf("%s: error %v, row path %v", sql, gotErr, wantErr)
		} else if wantErr == nil && fmt.Sprint(want.Rows) != fmt.Sprint(got.Rows) {
			t.Errorf("%s: rows %v, row path %v", sql, got.Rows, want.Rows)
		}
	}
}

// What became of each leaf's pre-filter, and the WHERE the joined rows still
// need: a conjunct wholly on a leaf whose filter was applied leaves it. f has
// 6 000 rows and d 700, so an inner join of the two hashes d, and d's filter
// runs whatever it keeps. Every case is also compared with the row path.
func TestJoinPrefilterOutcomes(t *testing.T) {
	e := prefilterDB(t, 6000)
	const fd = "select f.id, f.tag, d.name from f inner join d on f.k = d.k where "
	for _, c := range []struct {
		sql    string
		leaves []string // per leaf: outcome/conjuncts dropped from WHERE
		where  string
	}{
		// The hashed input keeps 4/5, on either side of the join.
		{fd + "d.w < 40", []string{"/0", "applied: hashed input/1"}, ""},
		{"select d.name, f.id from d inner join f on f.k = d.k where d.w < 40 and f.tag = 'a'",
			[]string{"applied: hashed input/1", "applied/1"}, ""},
		// The probe input keeps about 3/4: unfiltered, its conjunct stays in WHERE.
		{fd + "f.tag <> 'a' and d.w < 5", []string{"kept: keeps more than half/0", "applied: hashed input/1"}, "(f.tag <> 'a')"},
		// A tq-19-style OR filters each leaf by what it implies, and stays.
		{fd + "(f.tag = 'a' and d.w < 5) or (f.tag = 'b' and d.w > 45)", []string{"applied/0", "applied: hashed input/0"},
			"(((f.tag = 'a') AND (d.w < 5)) OR ((f.tag = 'b') AND (d.w > 45)))"},
		// The null-supplying side of a LEFT JOIN is not filtered.
		{"select f.id, d.name from f left join d on f.k = d.k where f.tag = 'a' and d.w < 5",
			[]string{"applied/1", "blocked/0"}, "(d.w < 5)"},
		// A conjunct over two leaves stays; the one after it still leaves.
		{fd + "f.k3 > d.w and f.tag = 'a'", []string{"applied/1", "/0"}, "(f.k3 > d.w)"},
		// WHERE's only conjunct leaves it.
		{fd + "f.tag = 'a'", []string{"applied/1", "/0"}, ""},
		// Zone pruning leaves f fewer rows than d: f is the input hashed.
		{fd + "f.id < 100 and d.w < 40", []string{"applied: hashed input/1", "kept: keeps more than half/0"}, "(d.w < 40)"},
	} {
		leaves, where, err := prefilterOutcomes(e, c.sql)
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if fmt.Sprint(leaves) != fmt.Sprint(c.leaves) || where != c.where {
			t.Errorf("%s:\n leaves %q, WHERE %q\n want   %q, WHERE %q", c.sql, leaves, where, c.leaves, c.where)
		}
		checkPrefiltered(t, e, c.sql)
	}
}

// A kernel error in a pushed conjunct's chunk keeps the input as it is, and
// the conjunct in WHERE. No conjunct of the pushed class can fail, so the
// error is injected (-tags faultinject).
func TestJoinPrefilterKernelError(t *testing.T) {
	if !faultpoint.Enabled() {
		t.Skip("needs -tags faultinject")
	}
	e := prefilterDB(t, 6000)
	faultpoint.SetError(faultpoint.SiteEngineScanChunk, errKernel)
	t.Cleanup(faultpoint.Reset)
	const sql = "select f.id, d.name from f inner join d on f.k = d.k where f.id < 100 and d.w < 40"
	leaves, where, err := prefilterOutcomes(e, sql)
	if err != nil {
		t.Fatal(err)
	}
	if want := "[kept: kernel error/0 kept: kernel error/0]"; fmt.Sprint(leaves) != want || where != "((f.id < 100) AND (d.w < 40))" {
		t.Errorf("leaves %q, WHERE %q; want %s and WHERE unchanged", leaves, where, want)
	}
	checkPrefiltered(t, e, sql)
}

// The reference vector of a filtered input is reserved at its exact size and
// the join after it is sized by the survivors; an input whose every row
// passes is handed on as it is.
func TestJoinPrefilterBudget(t *testing.T) {
	e := NewSeeded(13)
	sideTable(t, e, "mid", 30_000, 30_000)
	sideTable(t, e, "big", 200_000, 30_000)

	// 1 % of big survives: 2 000 references (16 KB), a 2 000-row table
	// (≈ 100 KB of links, slots and candidate pairs), about 1 900 output rows.
	// Unfiltered, the join's output references alone are 200 000 × 32 B.
	const q = "select count(*), sum(l.v) from mid l inner join big r on l.k = r.k where r.v %s"
	ctx := WithMemoryBudget(context.Background(), 1<<20)
	rs, err := e.QueryContext(ctx, fmt.Sprintf(q, "< 2000"))
	if err != nil {
		t.Fatalf("filtered join under a 1 MiB budget: %v", err)
	}
	if n := rs.Rows[0][0].(int64); n != 1883 {
		t.Fatalf("%d pairs, want 1883", n)
	}
	var be *BudgetError
	if _, err := e.QueryContext(ctx, fmt.Sprintf(q, "+ 0 < 2000")); !errors.As(err, &be) {
		t.Fatalf("the same join, unfiltered, under the same budget: want *BudgetError, got %v", err)
	}

	// Nothing extra for a filter that keeps every row: the gauge ends where it
	// does when the conjunct is one that cannot be pushed.
	charged := func(sql string) int64 {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		qc := e.newQueryCtx(WithMemoryBudget(context.Background(), 1<<40), sql)
		if _, err := execSelectWithOuter(qc, stmt.(*sqlparser.SelectStmt), nil); err != nil {
			t.Fatal(err)
		}
		return qc.mem.used.Load()
	}
	e.SetParallelism(1)
	defer e.SetParallelism(0)
	all, none := charged(fmt.Sprintf(q, ">= 0")), charged(fmt.Sprintf(q, "+ 0 >= 0"))
	if d := all - none; d < 0 || d > 256 { // the plan's own few entries, nothing per row
		t.Errorf("a filter keeping every row charged %d B, the same join with no filter %d B", all, none)
	}
}
