package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/meta"
	"verdictdb/internal/sampling"
	"verdictdb/internal/sqlparser"
)

// testEnv is a loaded database with samples and a middleware.
type testEnv struct {
	db  *drivers.Driver
	m   *Middleware
	cat *meta.Catalog
}

// newEnv builds a 200k-row orders table joined to a small products table,
// with uniform/hashed/stratified samples prepared.
func newEnv(t testing.TB, opts Options) *testEnv {
	t.Helper()
	e := engine.NewSeeded(101)
	if err := e.CreateTable("orders", []engine.Column{
		{Name: "order_id", Type: engine.TInt},
		{Name: "city", Type: engine.TString},
		{Name: "product_id", Type: engine.TInt},
		{Name: "price", Type: engine.TFloat},
		{Name: "quantity", Type: engine.TInt},
	}); err != nil {
		t.Fatal(err)
	}
	const nOrders = 200_000
	cities := []string{"ann arbor", "detroit", "chicago", "columbus", "madison"}
	rows := make([][]engine.Value, 0, nOrders)
	for i := 0; i < nOrders; i++ {
		rows = append(rows, []engine.Value{
			int64(i + 1),
			cities[i%len(cities)],
			int64(i%50 + 1),
			float64(10 + (i*7919)%100),
			int64(1 + i%7),
		})
	}
	if err := e.InsertRows("orders", rows); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable("products", []engine.Column{
		{Name: "product_id", Type: engine.TInt},
		{Name: "category", Type: engine.TString},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 50; i++ {
		cat := "food"
		if i > 25 {
			cat = "tools"
		}
		if err := e.InsertRows("products", [][]engine.Value{{int64(i), cat}}); err != nil {
			t.Fatal(err)
		}
	}
	db := drivers.NewGeneric(e)
	cat, err := meta.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	b := sampling.NewBuilder(db, cat)
	if _, err := b.CreateUniform("orders", 0.01); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateHashed("orders", "order_id", 0.02); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateStratified("orders", []string{"city"}, 0.01); err != nil {
		t.Fatal(err)
	}
	if opts.Confidence == 0 {
		opts = DefaultOptions()
	}
	return &testEnv{db: db, m: New(db, cat, opts), cat: cat}
}

func (env *testEnv) exact(t testing.TB, sql string) *engine.ResultSet {
	t.Helper()
	rs, err := env.db.Query(sql)
	if err != nil {
		t.Fatalf("exact %q: %v", sql, err)
	}
	return rs
}

func (env *testEnv) approx(t testing.TB, sql string) *Answer {
	t.Helper()
	a, err := query(context.Background(), env.m, sql)
	if err != nil {
		t.Fatalf("approx %q: %v", sql, err)
	}
	return a
}

// query runs a SELECT the way verdictdb.Conn does: from the plan cache when
// it holds the shape, through the full pipeline otherwise.
func query(ctx context.Context, m *Middleware, sql string) (*Answer, error) {
	if a, handled, err := m.QueryCached(ctx, sql, nil); handled {
		return a, err
	}
	sel, err := sqlparser.ParseSelect(sql)
	if err != nil {
		return nil, err
	}
	return m.QuerySelect(ctx, sel, sql, nil)
}

func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

func TestAnalyzeSupportMatrix(t *testing.T) {
	// Table 1: the supported-query matrix.
	cases := []struct {
		sql  string
		want SupportStatus
	}{
		{"select count(*) from orders", Supported},
		{"select city, sum(price) from orders group by city", Supported},
		{"select avg(price), stddev(price), var(price) from orders", Supported},
		{"select count(distinct product_id) from orders", Supported},
		{"select percentile(price, 0.5) from orders", Supported},
		{"select count(*) from orders o join products p on o.product_id = p.product_id", Supported},
		{"select count(*) from orders where price > (select avg(price) from orders)", Supported},
		{"select * from orders", PassNoAggregates},
		{"select distinct city from orders", PassDistinctSelect},
		{"select count(*) from orders where exists (select 1 from products)", PassExistsSubquery},
		{"select count(*) from orders where product_id in (select product_id from products)", PassExistsSubquery},
		{"select min(price), max(price) from orders", PassOnlyExtremes},
		{"select city from orders union select city from orders", PassSetOperation},
	}
	for _, c := range cases {
		sel, err := sqlparser.ParseSelect(c.sql)
		if err != nil {
			t.Fatalf("parse %q: %v", c.sql, err)
		}
		if got := Analyze(sel); got != c.want {
			t.Errorf("Analyze(%q) = %v, want %v", c.sql, got, c.want)
		}
	}
}

func TestSimpleCountApprox(t *testing.T) {
	env := newEnv(t, Options{})
	a := env.approx(t, "select count(*) as c from orders")
	if !a.Approximate {
		t.Fatalf("not approximate: %v", a.Status)
	}
	got := a.Float(0, "c")
	if relDiff(got, 200_000) > 0.05 {
		t.Fatalf("count estimate %v (want ~200000)", got)
	}
	// An error estimate exists and covers reality loosely.
	lo, hi, ok := a.ConfidenceInterval(0, 0)
	if !ok {
		t.Fatal("no error estimate")
	}
	if lo > 200_000+15000 || hi < 200_000-15000 {
		t.Errorf("interval [%v, %v] far from truth", lo, hi)
	}
	if a.RowsScanned >= 200_000 {
		t.Errorf("approximate query scanned %d rows (no speedup)", a.RowsScanned)
	}
}

func TestGroupBySumApprox(t *testing.T) {
	env := newEnv(t, Options{})
	sql := "select city, sum(price) as rev, count(*) as c from orders group by city order by city"
	a := env.approx(t, sql)
	ex := env.exact(t, sql)
	if !a.Approximate {
		t.Fatalf("status %v", a.Status)
	}
	if len(a.Rows) != len(ex.Rows) {
		t.Fatalf("groups %d vs %d", len(a.Rows), len(ex.Rows))
	}
	for i := range ex.Rows {
		if a.Rows[i][0] != ex.Rows[i][0] {
			t.Fatalf("group order mismatch: %v vs %v", a.Rows[i][0], ex.Rows[i][0])
		}
		wantRev, _ := engine.ToFloat(ex.Rows[i][1])
		gotRev, _ := engine.ToFloat(a.Rows[i][1])
		if relDiff(gotRev, wantRev) > 0.08 {
			t.Errorf("group %v rev %v want %v", a.Rows[i][0], gotRev, wantRev)
		}
	}
}

func TestAvgApproxUsesRatioEstimator(t *testing.T) {
	env := newEnv(t, Options{})
	a := env.approx(t, "select avg(price) as ap from orders where quantity >= 3")
	ex := env.exact(t, "select avg(price) as ap from orders where quantity >= 3")
	want, _ := engine.ToFloat(ex.Rows[0][0])
	if relDiff(a.Float(0, "ap"), want) > 0.03 {
		t.Fatalf("avg %v want %v", a.Float(0, "ap"), want)
	}
}

func TestCompoundAggExpression(t *testing.T) {
	// Ratio-of-sums (the TPC-H q8/q14 shape) gets a point estimate and an
	// error via per-subsample substitution.
	env := newEnv(t, Options{})
	sql := "select 100.0 * sum(price * quantity) / sum(quantity) as weighted from orders"
	a := env.approx(t, sql)
	ex := env.exact(t, sql)
	want, _ := engine.ToFloat(ex.Rows[0][0])
	if relDiff(a.Float(0, "weighted"), want) > 0.05 {
		t.Fatalf("compound %v want %v", a.Float(0, "weighted"), want)
	}
	if _, _, ok := a.ConfidenceInterval(0, 0); !ok {
		t.Error("compound expression lacks error estimate")
	}
}

func TestCountDistinctUsesHashedSample(t *testing.T) {
	env := newEnv(t, Options{})
	a := env.approx(t, "select count(distinct order_id) as d from orders")
	if !a.Approximate {
		t.Fatalf("status %v", a.Status)
	}
	usedHashed := false
	for _, s := range a.SampleTables {
		if strings.Contains(s, "hashed") {
			usedHashed = true
		}
	}
	if !usedHashed {
		t.Errorf("count-distinct planned on %v (want hashed sample)", a.SampleTables)
	}
	got := a.Float(0, "d")
	if relDiff(got, 200_000) > 0.1 {
		t.Fatalf("distinct estimate %v want ~200000", got)
	}
}

func TestExtremeDecomposition(t *testing.T) {
	env := newEnv(t, Options{})
	sql := "select city, count(*) as c, max(price) as mx from orders group by city order by city"
	a := env.approx(t, sql)
	if !a.Approximate {
		t.Fatalf("status %v", a.Status)
	}
	ex := env.exact(t, sql)
	for i := range ex.Rows {
		wantMax, _ := engine.ToFloat(ex.Rows[i][2])
		gotMax, _ := engine.ToFloat(a.Rows[i][2])
		if gotMax != wantMax {
			t.Errorf("max must be exact: got %v want %v", gotMax, wantMax)
		}
		wantC, _ := engine.ToFloat(ex.Rows[i][1])
		gotC, _ := engine.ToFloat(a.Rows[i][1])
		if relDiff(gotC, wantC) > 0.1 {
			t.Errorf("count approx %v want %v", gotC, wantC)
		}
	}
}

func TestJoinWithDimensionTable(t *testing.T) {
	env := newEnv(t, Options{})
	sql := `select p.category, sum(o.price) as rev from orders o
		inner join products p on o.product_id = p.product_id
		group by p.category order by p.category`
	a := env.approx(t, sql)
	if !a.Approximate {
		t.Fatalf("status %v", a.Status)
	}
	ex := env.exact(t, sql)
	if len(a.Rows) != len(ex.Rows) {
		t.Fatalf("groups %d vs %d", len(a.Rows), len(ex.Rows))
	}
	for i := range ex.Rows {
		want, _ := engine.ToFloat(ex.Rows[i][1])
		got, _ := engine.ToFloat(a.Rows[i][1])
		if relDiff(got, want) > 0.08 {
			t.Errorf("category %v: %v want %v", ex.Rows[i][0], got, want)
		}
	}
}

func TestNestedAggregateQuery(t *testing.T) {
	env := newEnv(t, Options{})
	sql := `select avg(rev) as avg_rev from
		(select city, sum(price) as rev from orders group by city) as t`
	a := env.approx(t, sql)
	if !a.Approximate {
		t.Fatalf("status %v (sql %v)", a.Status, a.RewrittenSQL)
	}
	ex := env.exact(t, sql)
	want, _ := engine.ToFloat(ex.Rows[0][0])
	if relDiff(a.Float(0, "avg_rev"), want) > 0.08 {
		t.Fatalf("nested avg %v want %v", a.Float(0, "avg_rev"), want)
	}
}

func TestComparisonSubqueryFlattening(t *testing.T) {
	env := newEnv(t, Options{})
	sql := `select count(*) as c from orders o
		where o.price > (select avg(i.price) from orders i where i.product_id = o.product_id)`
	a := env.approx(t, sql)
	ex := env.exact(t, sql)
	want, _ := engine.ToFloat(ex.Rows[0][0])
	got := a.Float(0, "c")
	if relDiff(got, want) > 0.15 {
		t.Fatalf("flattened subquery count %v want %v (approx=%v)", got, want, a.Approximate)
	}
}

func TestHavingAndOrderLimit(t *testing.T) {
	env := newEnv(t, Options{})
	sql := `select city, count(*) as c from orders group by city
		having count(*) > 1000 order by c desc limit 3`
	a := env.approx(t, sql)
	if !a.Approximate {
		t.Fatalf("status %v", a.Status)
	}
	if len(a.Rows) != 3 {
		t.Fatalf("limit not applied: %d rows", len(a.Rows))
	}
	prev := math.Inf(1)
	for i := range a.Rows {
		c, _ := engine.ToFloat(a.Rows[i][1])
		if c > prev {
			t.Errorf("not descending: %v after %v", c, prev)
		}
		prev = c
	}
}

func TestPassthroughUnsupported(t *testing.T) {
	env := newEnv(t, Options{})
	a := env.approx(t, "select * from products")
	if a.Approximate {
		t.Fatal("non-aggregate query approximated")
	}
	if len(a.Rows) != 50 {
		t.Fatalf("passthrough rows %d", len(a.Rows))
	}
	a2 := env.approx(t, "select min(price) as mn from orders")
	if a2.Approximate {
		t.Fatal("extreme-only query approximated")
	}
}

func TestHACFallback(t *testing.T) {
	opts := DefaultOptions()
	opts.MinAccuracy = 0.999999 // essentially impossible: force fallback
	env := newEnv(t, opts)
	a := env.approx(t, "select city, avg(price) as ap from orders group by city")
	if !a.HACFallback {
		t.Fatalf("HAC did not trigger (maxRelErr=%v)", a.MaxRelativeError())
	}
	if a.Approximate {
		t.Fatal("fallback answer still marked approximate")
	}
	// Exact answer matches ground truth.
	ex := env.exact(t, "select city, avg(price) as ap from orders group by city")
	if len(a.Rows) != len(ex.Rows) {
		t.Fatalf("rows %d vs %d", len(a.Rows), len(ex.Rows))
	}
}

func TestErrorColumnsOption(t *testing.T) {
	opts := DefaultOptions()
	opts.ErrorColumns = true
	env := newEnv(t, opts)
	a := env.approx(t, "select count(*) as c from orders")
	if a.ColIndex("c_err") < 0 {
		t.Fatalf("c_err column missing: %v", a.Cols)
	}
	if v, ok := engine.ToFloat(a.Value(0, "c_err")); !ok || v <= 0 {
		t.Fatalf("c_err value: %v", a.Value(0, "c_err"))
	}
	// Default: no error columns.
	env2 := newEnv(t, Options{})
	a2 := env2.approx(t, "select count(*) as c from orders")
	if a2.ColIndex("c_err") >= 0 {
		t.Fatal("error columns leaked into default output")
	}
}

func TestGroupCardinalityDecline(t *testing.T) {
	env := newEnv(t, Options{})
	// order_id has 200k distinct values: grouping by it must decline AQP
	// (the paper's tq-3/8/15 behaviour).
	a := env.approx(t, "select order_id, count(*) as c from orders group by order_id")
	if a.Approximate {
		t.Fatal("high-cardinality grouping was approximated")
	}
}

func TestStratifiedAdvantageForGroupedQuery(t *testing.T) {
	env := newEnv(t, Options{})
	a := env.approx(t, "select city, count(*) as c from orders group by city")
	usedStratified := false
	for _, s := range a.SampleTables {
		if strings.Contains(s, "stratified") {
			usedStratified = true
		}
	}
	if !usedStratified {
		t.Errorf("grouped query planned on %v (want stratified sample)", a.SampleTables)
	}
}

func TestErrorEstimateIsCalibrated(t *testing.T) {
	// Run the same count query on many fresh environments; ~95% of the
	// reported intervals should contain the truth. With a handful of trials
	// we only check a loose bound.
	misses := 0
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		e := engine.NewSeeded(int64(500 + trial))
		if err := e.CreateTable("t", []engine.Column{
			{Name: "x", Type: engine.TFloat},
		}); err != nil {
			t.Fatal(err)
		}
		rows := make([][]engine.Value, 0, 100_000)
		for i := 0; i < 100_000; i++ {
			rows = append(rows, []engine.Value{float64(i % 100)})
		}
		if err := e.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
		db := drivers.NewGeneric(e)
		cat, _ := meta.Open(db)
		b := sampling.NewBuilder(db, cat)
		if _, err := b.CreateUniform("t", 0.02); err != nil {
			t.Fatal(err)
		}
		m := New(db, cat, DefaultOptions())
		a, err := query(context.Background(), m, "select sum(x) as s from t")
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, ok := a.ConfidenceInterval(0, 0)
		if !ok {
			t.Fatal("no interval")
		}
		const truth = 4_950_000 // 100k rows, mean 49.5
		if truth < lo || truth > hi {
			misses++
		}
	}
	if misses > 3 {
		t.Errorf("interval missed truth %d/%d times", misses, trials)
	}
}

func TestRewriteShapeMatchesAppendixG(t *testing.T) {
	// The rewritten SQL has the Appendix G structure: an inner derived
	// table grouping by (groups, verdict_sid) with HT partials, an outer
	// group by with stddev-based error expressions.
	env := newEnv(t, Options{})
	a := env.approx(t, "select city, count(*) as c from orders group by city")
	if len(a.RewrittenSQL) != 1 {
		t.Fatalf("rewritten queries: %d", len(a.RewrittenSQL))
	}
	sql := strings.ToLower(a.RewrittenSQL[0])
	for _, want := range []string{"verdict_sid", "verdict_size", "stddev", "sqrt", "vt1", "group by"} {
		if !strings.Contains(sql, want) {
			t.Errorf("rewritten SQL missing %q:\n%s", want, sql)
		}
	}
}

func TestFlattenProducesJoin(t *testing.T) {
	sel, err := sqlparser.ParseSelect(`select count(*) from orders o
		where o.price > (select avg(price) from orders i where i.product_id = o.product_id)`)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := FlattenComparisonSubqueries(sel)
	if err != nil {
		t.Fatal(err)
	}
	join, ok := flat.From.(*sqlparser.JoinExpr)
	if !ok {
		t.Fatalf("FROM not a join after flattening: %T", flat.From)
	}
	dt, ok := join.Right.(*sqlparser.DerivedTable)
	if !ok {
		t.Fatalf("flattened right side: %T", join.Right)
	}
	if len(dt.Select.GroupBy) != 1 {
		t.Errorf("derived table group by: %d", len(dt.Select.GroupBy))
	}
	// The original query must be untouched.
	if _, stillSub := sel.From.(*sqlparser.TableRef); !stillSub {
		t.Error("original AST mutated")
	}
}

func TestFoldSidRange(t *testing.T) {
	// h(i,j) must land in [1, r1*r2] for all sid combinations.
	for _, b1 := range []int64{4, 9, 16, 45} {
		for _, b2 := range []int64{4, 25, 100} {
			expr, bOut := foldSid(
				&sqlparser.ColumnRef{Name: "s1"}, b1,
				&sqlparser.ColumnRef{Name: "s2"}, b2)
			e := engine.NewSeeded(1)
			if err := e.CreateTable("t", []engine.Column{
				{Name: "s1", Type: engine.TInt}, {Name: "s2", Type: engine.TInt},
			}); err != nil {
				t.Fatal(err)
			}
			var rows [][]engine.Value
			for i := int64(1); i <= b1; i++ {
				for j := int64(1); j <= b2; j++ {
					rows = append(rows, []engine.Value{i, j})
				}
			}
			if err := e.InsertRows("t", rows); err != nil {
				t.Fatal(err)
			}
			sql := fmt.Sprintf("select min(%s), max(%s) from t",
				sqlparser.FormatExpr(expr), sqlparser.FormatExpr(expr))
			rs, err := e.Query(sql)
			if err != nil {
				t.Fatalf("fold sid b1=%d b2=%d: %v", b1, b2, err)
			}
			lo, _ := engine.ToFloat(rs.Rows[0][0])
			hi, _ := engine.ToFloat(rs.Rows[0][1])
			if lo < 1 || int64(hi) > bOut {
				t.Errorf("b1=%d b2=%d: sid range [%v,%v] out of [1,%d]", b1, b2, lo, hi, bOut)
			}
		}
	}
}

func TestTraditionalSubsamplingBaseline(t *testing.T) {
	opts := DefaultOptions()
	opts.Method = MethodTraditionalSubsampling
	env := newEnv(t, opts)
	a := env.approx(t, "select city, count(*) as c, avg(price) as ap from orders group by city")
	if !a.Approximate {
		t.Fatalf("status %v", a.Status)
	}
	ex := env.exact(t, "select city, count(*) as c from orders group by city order by city")
	if len(a.Rows) != len(ex.Rows) {
		t.Fatalf("groups %d vs %d", len(a.Rows), len(ex.Rows))
	}
	for r := range a.Rows {
		c, _ := engine.ToFloat(a.Rows[r][1])
		if relDiff(c, 40_000) > 0.15 {
			t.Errorf("trad subsampling count %v want ~40000", c)
		}
		if math.IsNaN(a.StdErr[r][1]) {
			t.Error("missing error estimate")
		}
	}
}

func TestConsolidatedBootstrapBaseline(t *testing.T) {
	opts := DefaultOptions()
	opts.Method = MethodConsolidatedBootstrap
	env := newEnv(t, opts)
	a := env.approx(t, "select count(*) as c, avg(price) as ap from orders")
	if !a.Approximate {
		t.Fatalf("status %v", a.Status)
	}
	c := a.Float(0, "c")
	if relDiff(c, 200_000) > 0.1 {
		t.Fatalf("bootstrap count %v", c)
	}
	if math.IsNaN(a.StdErr[0][0]) {
		t.Error("missing bootstrap error estimate")
	}
}

func TestMethodNoneSkipsErrors(t *testing.T) {
	opts := DefaultOptions()
	opts.Method = MethodNone
	env := newEnv(t, opts)
	a := env.approx(t, "select count(*) as c from orders")
	if !a.Approximate {
		t.Fatalf("status %v", a.Status)
	}
	if _, _, ok := a.ConfidenceInterval(0, 0); ok {
		t.Fatal("MethodNone produced an error estimate")
	}
	if strings.Contains(strings.ToLower(a.RewrittenSQL[0]), "stddev") {
		t.Fatal("MethodNone rewrite still computes stddev")
	}
}

func TestQuantileApprox(t *testing.T) {
	env := newEnv(t, Options{})
	a := env.approx(t, "select percentile(price, 0.5) as med from orders")
	ex := env.exact(t, "select percentile(price, 0.5) as med from orders")
	want, _ := engine.ToFloat(ex.Rows[0][0])
	if relDiff(a.Float(0, "med"), want) > 0.1 {
		t.Fatalf("median %v want %v", a.Float(0, "med"), want)
	}
	if !a.Approximate {
		t.Fatalf("status %v", a.Status)
	}
}

func TestVarStddevApprox(t *testing.T) {
	env := newEnv(t, Options{})
	a := env.approx(t, "select stddev(price) as sd, var(price) as v from orders")
	ex := env.exact(t, "select stddev(price) as sd, var(price) as v from orders")
	wantSD, _ := engine.ToFloat(ex.Rows[0][0])
	wantV, _ := engine.ToFloat(ex.Rows[0][1])
	if relDiff(a.Float(0, "sd"), wantSD) > 0.05 {
		t.Errorf("stddev %v want %v", a.Float(0, "sd"), wantSD)
	}
	if relDiff(a.Float(0, "v"), wantV) > 0.1 {
		t.Errorf("var %v want %v", a.Float(0, "v"), wantV)
	}
}

func TestNestedSumUsesMeanCombination(t *testing.T) {
	// The tq-9 shape: an outer SUM over a Bernoulli-nested aggregate block.
	// Per-subsample estimates must be combined by mean, not summed b times.
	env := newEnv(t, Options{})
	sql := `select city, sum(rev) as total from
		(select city, product_id, sum(price) as rev from orders
		 group by city, product_id) as t
		group by city order by city`
	a := env.approx(t, sql)
	if !a.Approximate {
		t.Fatalf("status %v", a.Status)
	}
	ex := env.exact(t, sql)
	if len(a.Rows) != len(ex.Rows) {
		t.Fatalf("groups %d vs %d", len(a.Rows), len(ex.Rows))
	}
	for i := range ex.Rows {
		want, _ := engine.ToFloat(ex.Rows[i][1])
		got, _ := engine.ToFloat(a.Rows[i][1])
		if relDiff(got, want) > 0.15 {
			t.Errorf("group %v: nested sum %v want %v (ratio %.2f)",
				ex.Rows[i][0], got, want, got/want)
		}
	}
}

func TestNestedCountReplicated(t *testing.T) {
	// Outer COUNT over a nested block: counts inner groups, combined by
	// mean across subsamples.
	env := newEnv(t, Options{})
	sql := `select count(*) as c from
		(select city, sum(price) as rev from orders group by city) as t`
	a := env.approx(t, sql)
	ex := env.exact(t, sql)
	want, _ := engine.ToFloat(ex.Rows[0][0])
	got := a.Float(0, "c")
	if !a.Approximate {
		t.Fatalf("status %v", a.Status)
	}
	if relDiff(got, want) > 0.25 {
		t.Fatalf("nested count %v want %v", got, want)
	}
}
