package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/meta"
	"verdictdb/internal/sampling"
	"verdictdb/internal/sqlparser"
	"verdictdb/internal/stats"
)

func mustOpenCatalog(t *testing.T, db drivers.DB) *meta.Catalog {
	t.Helper()
	cat, err := meta.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func mustBuilder(t *testing.T, db drivers.DB, cat *meta.Catalog) *sampling.Builder {
	t.Helper()
	return sampling.NewBuilder(db, cat)
}

func TestRewriteInnerOuterStructure(t *testing.T) {
	sel, err := sqlparser.ParseSelect("select city, count(*) as c, sum(price) as s from orders group by city")
	if err != nil {
		t.Fatal(err)
	}
	occ := map[string]*tableOccurrence{}
	if err := collectAllOccurrences(sel, occ); err != nil {
		t.Fatal(err)
	}
	si := sample("orders", "orders_s", sqlparser.UniformSample, 0.01, 1000, 100_000)
	plan := CandidatePlan{Choices: map[string]TableChoice{
		"orders": {Occurrence: occ["orders"], Sample: &si},
	}}
	ro, err := Rewrite(sel, plan, []int{1, 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if ro.B != 32 {
		t.Errorf("B = %d", ro.B)
	}
	// Column metadata: city(group), c(agg), s(agg), then two error cols.
	kinds := []ColKind{ColGroup, ColAgg, ColAgg, ColErr, ColErr}
	if len(ro.Columns) != len(kinds) {
		t.Fatalf("columns: %+v", ro.Columns)
	}
	for i, k := range kinds {
		if ro.Columns[i].Kind != k {
			t.Errorf("col %d kind %v want %v", i, ro.Columns[i].Kind, k)
		}
	}
	sql := sqlparser.Format(ro.Stmt)
	for _, want := range []string{
		"verdict_sid", "verdict_size", "/ orders.verdict_prob",
		"stddev", "sqrt", "GROUP BY",
	} {
		if !strings.Contains(sql, want) {
			t.Errorf("rewritten SQL missing %q:\n%s", want, sql)
		}
	}
	// Inner group-by must include sid; outer must not.
	inner := ro.Stmt.From.(*sqlparser.DerivedTable).Select
	foundSid := false
	for _, g := range inner.GroupBy {
		if cr, ok := g.(*sqlparser.ColumnRef); ok && cr.Name == "verdict_sid" {
			foundSid = true
		}
	}
	if !foundSid {
		t.Error("inner query does not group by verdict_sid")
	}
	if len(ro.Stmt.GroupBy) != 1 {
		t.Errorf("outer group by: %d terms", len(ro.Stmt.GroupBy))
	}
}

func TestRewriteRejectsNonGroupColumn(t *testing.T) {
	sel, _ := sqlparser.ParseSelect("select city, count(*) from orders group by state")
	occ := map[string]*tableOccurrence{}
	_ = collectAllOccurrences(sel, occ)
	si := sample("orders", "orders_s", sqlparser.UniformSample, 0.01, 1000, 100_000)
	plan := CandidatePlan{Choices: map[string]TableChoice{
		"orders": {Occurrence: occ["orders"], Sample: &si},
	}}
	if _, err := Rewrite(sel, plan, []int{1}, true); err == nil {
		t.Fatal("select item not in GROUP BY must be rejected")
	}
}

func TestVariationalClauseSQL(t *testing.T) {
	// Full partition: no WHERE filter.
	full := VariationalClause("s", 10_000, 100, 100)
	if strings.Contains(full, "where") {
		t.Errorf("full partition should not filter: %s", full)
	}
	// Partial: Query 3's shape with a filter.
	part := VariationalClause("s", 10_000_000, 10_000, 100)
	for _, want := range []string{"rand()", "floor", "verdict_sid", "where"} {
		if !strings.Contains(strings.ToLower(part), want) {
			t.Errorf("clause missing %q: %s", want, part)
		}
	}
}

func TestVariationalClauseExecutes(t *testing.T) {
	// The on-the-fly Query 3/4 pipeline must run on the engine and yield
	// calibrated per-subsample aggregates.
	e := engine.NewSeeded(13)
	if err := e.CreateTable("s", []engine.Column{{Name: "x", Type: engine.TFloat}}); err != nil {
		t.Fatal(err)
	}
	const n = 40_000
	rows := make([][]engine.Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []engine.Value{float64(i % 100)})
	}
	if err := e.InsertRows("s", rows); err != nil {
		t.Fatal(err)
	}
	ns := int64(200)
	b := int64(n) / ns
	sql := VariationalAggregate("s", n, ns, b, "avg(x) as est", "")
	rs, err := e.Query(sql)
	if err != nil {
		t.Fatalf("%v (sql: %s)", err, sql)
	}
	if int64(len(rs.Rows)) < b/2 {
		t.Fatalf("subsample rows: %d (b=%d)", len(rs.Rows), b)
	}
	// Combine like the middleware: weighted mean and subsampling SE.
	var ests, sizes []float64
	estIdx, sizeIdx := rs.ColIndex("est"), rs.ColIndex("verdict_size")
	for _, r := range rs.Rows {
		ev, _ := engine.ToFloat(r[estIdx])
		sv, _ := engine.ToFloat(r[sizeIdx])
		ests = append(ests, ev)
		sizes = append(sizes, sv)
	}
	var num, den float64
	for i := range ests {
		num += ests[i] * sizes[i]
		den += sizes[i]
	}
	point := num / den
	if math.Abs(point-49.5) > 1.0 {
		t.Errorf("on-the-fly point estimate %v want ~49.5", point)
	}
	se := stats.Stddev(ests) * math.Sqrt(stats.Mean(sizes)) / math.Sqrt(den)
	// True SE of the mean of n uniform{0..99} values.
	trueSE := 28.87 / math.Sqrt(float64(n))
	if se < trueSE/3 || se > trueSE*3 {
		t.Errorf("on-the-fly SE %v want ~%v", se, trueSE)
	}
}

func TestStoredAndOnTheFlySidAgree(t *testing.T) {
	// The stored-sid middleware path and the Query-3 on-the-fly path must
	// give comparable error estimates for the same query.
	e := engine.NewSeeded(21)
	if err := e.CreateTable("t", []engine.Column{{Name: "x", Type: engine.TFloat}}); err != nil {
		t.Fatal(err)
	}
	const n = 100_000
	rows := make([][]engine.Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []engine.Value{float64(i % 100)})
	}
	if err := e.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	db := drivers.NewGeneric(e)
	cat := mustOpenCatalog(t, db)
	b := mustBuilder(t, db, cat)
	si, err := b.CreateUniform("t", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Planner.IOBudget = 0.2 // the test sample is 10% of the base
	mw := New(db, cat, opts)
	a, err := query(context.Background(), mw, "select avg(x) as m from t")
	if err != nil {
		t.Fatal(err)
	}
	_, _, ok := a.ConfidenceInterval(0, 0)
	if !a.Approximate || !ok {
		t.Fatalf("stored-sid path: approx=%v", a.Approximate)
	}
	storedSE := a.StdErr[0][0]

	// Query 3 targets sample tables without a precomputed sid; strip it.
	if _, err := e.Exec("create table t_plain as select x from " + si.SampleTable); err != nil {
		t.Fatal(err)
	}
	nsOT := int64(math.Sqrt(float64(si.SampleRows)))
	sqlOT := VariationalAggregate("t_plain", si.SampleRows, nsOT, si.SampleRows/nsOT, "avg(x) as est", "")
	rs, err := e.Query(sqlOT)
	if err != nil {
		t.Fatal(err)
	}
	var ests, sizes []float64
	estIdx, sizeIdx := rs.ColIndex("est"), rs.ColIndex("verdict_size")
	for _, r := range rs.Rows {
		ev, _ := engine.ToFloat(r[estIdx])
		sv, _ := engine.ToFloat(r[sizeIdx])
		ests = append(ests, ev)
		sizes = append(sizes, sv)
	}
	var den float64
	for _, s := range sizes {
		den += s
	}
	otSE := stats.Stddev(ests) * math.Sqrt(stats.Mean(sizes)) / math.Sqrt(den)
	if otSE < storedSE/3 || otSE > storedSE*3 {
		t.Errorf("on-the-fly SE %v vs stored-sid SE %v disagree wildly", otSE, storedSE)
	}
}
