package core

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/meta"
	"verdictdb/internal/sampling"
	"verdictdb/internal/sqlparser"
)

// smallEnv is a lighter fixture than newEnv for cache and guard-rail tests:
// 30k orders with a 1% uniform sample (≈300 sample rows).
func smallEnv(t testing.TB, opts Options) *testEnv {
	t.Helper()
	e := engine.NewSeeded(77)
	if err := e.CreateTable("orders", []engine.Column{
		{Name: "order_id", Type: engine.TInt},
		{Name: "city", Type: engine.TString},
		{Name: "product_id", Type: engine.TInt},
		{Name: "price", Type: engine.TFloat},
		{Name: "quantity", Type: engine.TInt},
	}); err != nil {
		t.Fatal(err)
	}
	const n = 30_000
	cities := []string{"ann arbor", "detroit", "chicago", "columbus", "madison"}
	rows := make([][]engine.Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []engine.Value{
			int64(i + 1), cities[i%len(cities)], int64(i%50 + 1),
			float64(10 + (i*7919)%100), int64(1 + i%7),
		})
	}
	if err := e.InsertRows("orders", rows); err != nil {
		t.Fatal(err)
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
	if opts.Confidence == 0 {
		opts = DefaultOptions()
	}
	return &testEnv{db: db, m: New(db, cat, opts), cat: cat}
}

func TestNormalizeSQL(t *testing.T) {
	cases := []struct {
		a, b string
		same bool
	}{
		{"select count(*) from orders", "SELECT  COUNT(*)\n FROM Orders ;", true},
		{"select count(*) from orders", "select count(*) from orders where city = 'x'", false},
		{"select 'ABC' from orders", "select 'abc' from orders", false}, // literals preserved
		{"select 'it''s' from t", "select   'it''s'  from T", true},
	}
	for _, c := range cases {
		na, nb := normalizeSQL(c.a), normalizeSQL(c.b)
		if (na == nb) != c.same {
			t.Errorf("normalizeSQL(%q)=%q vs normalizeSQL(%q)=%q, want same=%v",
				c.a, na, c.b, nb, c.same)
		}
	}
}

func TestPlanCacheHitsAndVersionInvalidation(t *testing.T) {
	env := smallEnv(t, DefaultOptions())
	q := "select city, count(*) as c from orders group by city"

	a1 := env.approx(t, q)
	h0, m0 := env.m.CacheStats()
	if h0 != 0 || m0 == 0 {
		t.Fatalf("first run: hits=%d misses=%d, want miss-only", h0, m0)
	}
	// Differently-formatted same shape must hit.
	a2 := env.approx(t, "SELECT city,  COUNT(*) AS c FROM orders GROUP BY city;")
	h1, _ := env.m.CacheStats()
	if h1 != h0+1 {
		t.Fatalf("reformatted repeat did not hit the cache (hits %d -> %d)", h0, h1)
	}
	if len(a1.Rows) != len(a2.Rows) {
		t.Fatalf("cached answer shape differs: %d vs %d rows", len(a1.Rows), len(a2.Rows))
	}
	for r := range a1.Rows {
		for c := range a1.Rows[r] {
			if engine.GroupKey(a1.Rows[r][c]) != engine.GroupKey(a2.Rows[r][c]) {
				t.Fatalf("cached answer differs at [%d][%d]: %v vs %v", r, c, a1.Rows[r][c], a2.Rows[r][c])
			}
		}
	}

	// Sample DDL bumps the catalog version; the next run must miss and
	// replan against the new catalog.
	ver := env.cat.Version()
	b := sampling.NewBuilder(env.db, env.cat)
	if _, err := b.CreateStratified("orders", []string{"city"}, 0.02); err != nil {
		t.Fatal(err)
	}
	if env.cat.Version() <= ver {
		t.Fatalf("catalog version did not bump: %d -> %d", ver, env.cat.Version())
	}
	_, mBefore := env.m.CacheStats()
	a3 := env.approx(t, q)
	_, mAfter := env.m.CacheStats()
	if mAfter != mBefore+1 {
		t.Fatalf("post-DDL run should miss (misses %d -> %d)", mBefore, mAfter)
	}
	// The replanned query should now pick the stratified sample (it covers
	// the grouping column and scores higher).
	foundStratified := false
	for _, st := range a3.SampleTables {
		if strings.Contains(st, "stratified") {
			foundStratified = true
		}
	}
	if !foundStratified {
		t.Fatalf("replanned query ignored the new stratified sample: %v", a3.SampleTables)
	}
}

func TestPlanCachePassthroughEntries(t *testing.T) {
	env := smallEnv(t, DefaultOptions())
	// No aggregates: deterministic passthrough, cached as such.
	q := "select city from orders limit 3"
	if a := env.approx(t, q); a.Approximate {
		t.Fatal("non-aggregate query approximated")
	}
	a2, handled, err := env.m.QueryCached(context.Background(), q, nil)
	if err != nil || !handled {
		t.Fatalf("passthrough shape not cached: handled=%v err=%v", handled, err)
	}
	if a2.Approximate || len(a2.Rows) != 3 {
		t.Fatalf("cached passthrough wrong: approx=%v rows=%d", a2.Approximate, len(a2.Rows))
	}
}

func TestInvalidateStatsOnDML(t *testing.T) {
	env := smallEnv(t, DefaultOptions())
	q := "select count(*) from orders"
	env.approx(t, q)
	env.approx(t, q)
	if h, _ := env.m.CacheStats(); h != 1 {
		t.Fatalf("expected one hit, got %d", h)
	}
	// DML flushes the plan cache (base data moved): verdictdb.Conn calls
	// InvalidateStats after every statement it passes through.
	if err := env.db.Exec("insert into orders values (990001, 'flint', 1, 10.0, 1)"); err != nil {
		t.Fatal(err)
	}
	env.m.InvalidateStats()
	_, m0 := env.m.CacheStats()
	env.approx(t, q)
	if _, m1 := env.m.CacheStats(); m1 != m0+1 {
		t.Fatalf("post-DML run should miss (misses %d -> %d)", m0, m1)
	}
}

// TestPostExecGuardCountsPlanSampleRows is the regression test for the
// guard-rail fix: the post-execution high-cardinality guard must compare
// group counts against the chosen plan's sample rows. The old code divided
// by cumulative RowsScanned, which included the extreme (min/max) item's
// full base-table scan — 30k rows here against ~350 groups, so the guard
// could never fire for extreme-bearing queries even though the ~300-row
// sample spreads absurdly thin.
func TestPostExecGuardCountsPlanSampleRows(t *testing.T) {
	env := smallEnv(t, DefaultOptions())
	// quantity*1000+product_id has ~350 distinct values — a non-column
	// grouping expression the ndv pre-probe skips.
	q := `select quantity * 1000 + product_id as g, sum(price) as s, max(price) as mx
	      from orders group by quantity * 1000 + product_id`
	a := env.approx(t, q)
	if a.Approximate {
		t.Fatalf("high-cardinality extreme query was approximated: %d groups over ~300 sample rows",
			len(a.Rows))
	}
	// Sanity check: a low-cardinality grouping through the same path stays
	// approximate (the guard must not over-fire).
	a2 := env.approx(t, `select city, sum(price) as s, max(price) as mx from orders group by city`)
	if !a2.Approximate {
		t.Fatal("low-cardinality extreme query was not approximated")
	}
}

// TestGroupCardinalityProbeResolvesOccurrence is the regression test for
// the ndv-probe fix: a qualified GROUP BY t.col must probe the table chosen
// for t's occurrence, never a same-named column on another occurrence.
func TestGroupCardinalityProbeResolvesOccurrence(t *testing.T) {
	env := smallEnv(t, DefaultOptions())
	// A dimension table whose "city" column has far more distinct values
	// than orders.city (5): probing the wrong occurrence flips the verdict.
	e := env.db.Engine()
	if err := e.CreateTable("cities", []engine.Column{
		{Name: "city", Type: engine.TString},
		{Name: "zip", Type: engine.TInt},
	}); err != nil {
		t.Fatal(err)
	}
	var rows [][]engine.Value
	for i := 0; i < 5000; i++ {
		rows = append(rows, []engine.Value{fmt.Sprintf("city-%d", i), int64(i)})
	}
	if err := e.InsertRows("cities", rows); err != nil {
		t.Fatal(err)
	}

	infos, _ := env.cat.Snapshot()
	var uniform *meta.SampleInfo
	for i := range infos {
		if infos[i].Type == sqlparser.UniformSample {
			uniform = &infos[i]
		}
	}
	if uniform == nil {
		t.Fatal("no uniform sample registered")
	}
	ordersOcc := &tableOccurrence{Alias: "o", Base: "orders", JoinCols: map[string][]joinPeer{}}
	citiesOcc := &tableOccurrence{Alias: "c", Base: "cities", JoinCols: map[string][]joinPeer{}}
	plan := CandidatePlan{Choices: map[string]TableChoice{
		"o": {Occurrence: ordersOcc, Sample: uniform},
		"c": {Occurrence: citiesOcc},
	}}

	parse := func(sql string) *sqlparser.SelectStmt {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		return stmt.(*sqlparser.SelectStmt)
	}
	// Qualified c.city: must probe the cities base table (ndv 5000 ≫
	// 8% of ~300 sample rows) and decline.
	selHigh := parse("select c.city, count(*) from orders o inner join cities c on o.city = c.city group by c.city")
	decline, err := env.m.groupCardinalityTooHigh(context.Background(), selHigh, plan)
	if err != nil || !decline {
		t.Fatalf("qualified c.city: decline=%v err=%v, want decline=true", decline, err)
	}
	// Qualified o.city: must probe o's chosen table — the uniform sample,
	// whose city column has 5 distinct values — and accept. Before the fix
	// the unqualified probe could land on cities first ("c" sorts before
	// "o") and wrongly decline.
	selLow := parse("select o.city, count(*) from orders o inner join cities c on o.city = c.city group by o.city")
	decline, err = env.m.groupCardinalityTooHigh(context.Background(), selLow, plan)
	if err != nil || decline {
		t.Fatalf("qualified o.city: decline=%v err=%v, want decline=false", decline, err)
	}
}

// TestAppendErrorColumnsDedup is the regression test for the error-column
// collision fix: a user alias already named <agg>_err must not be shadowed
// by the appended error column.
func TestAppendErrorColumnsDedup(t *testing.T) {
	a := &Answer{
		Cols: []string{"c", "c_err"},
		Rows: [][]engine.Value{{10.0, "user-value"}},
		StdErr: [][]float64{
			{2.0, math.NaN()},
		},
		Confidence: 0.95,
	}
	appendErrorColumns(a)
	if len(a.Cols) != 3 {
		t.Fatalf("cols after append: %v", a.Cols)
	}
	if a.Cols[2] == "c_err" {
		t.Fatalf("appended error column collides with user alias: %v", a.Cols)
	}
	if a.Cols[2] != "c_err2" {
		t.Fatalf("expected de-duplicated name c_err2, got %q", a.Cols[2])
	}
	if a.Rows[0][1] != "user-value" {
		t.Fatalf("user column clobbered: %v", a.Rows[0])
	}

	// End-to-end: aliases chosen to collide with both generated names.
	env := smallEnv(t, func() Options { o := DefaultOptions(); o.ErrorColumns = true; return o }())
	ans := env.approx(t, "select count(*) as c, sum(price) as c_err from orders")
	seen := map[string]bool{}
	for _, col := range ans.Cols {
		if seen[strings.ToLower(col)] {
			t.Fatalf("duplicate output column %q in %v", col, ans.Cols)
		}
		seen[strings.ToLower(col)] = true
	}
	if len(ans.Cols) != 4 {
		t.Fatalf("expected 2 value + 2 error columns, got %v", ans.Cols)
	}
}

// TestConcurrentMiddlewareQueriesMatchSerial runs the same shapes serially
// and from many goroutines; answers must be byte-identical (samples are
// fixed, the rewritten queries are deterministic, and cached plans are
// cloned on hit). Run under -race this also exercises the cache's locking.
func TestConcurrentMiddlewareQueriesMatchSerial(t *testing.T) {
	env := smallEnv(t, DefaultOptions())
	queries := []string{
		"select count(*) as c from orders",
		"select city, sum(price) as s from orders group by city",
		"select city, avg(price) as a, count(*) as c from orders group by city",
		"select quantity, sum(price * quantity) as v from orders where price > 50 group by quantity",
		"select city from orders limit 5",
	}
	serial := make([]string, len(queries))
	for i, q := range queries {
		serial[i] = answerFingerprint(t, env, q)
	}
	const clients = 8
	var wg sync.WaitGroup
	errs := make(chan error, clients*len(queries)*3)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, q := range queries {
					got := answerFingerprint(t, env, q)
					if got != serial[i] {
						errs <- fmt.Errorf("query %d diverged under concurrency", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if h, _ := env.m.CacheStats(); h == 0 {
		t.Fatal("concurrent repeats never hit the plan cache")
	}
}

// TestInvalidateStatsDuringQueries flushes the row-count cache and the plan
// cache from one goroutine while others run queries that re-plan and re-read
// row counts: answers stay byte-identical, and under -race this checks the
// stats cache's locking.
func TestInvalidateStatsDuringQueries(t *testing.T) {
	env := smallEnv(t, DefaultOptions())
	queries := []string{
		"select count(*) as c from orders",
		"select city, sum(price) as s from orders group by city",
	}
	serial := make([]string, len(queries))
	for i, q := range queries {
		serial[i] = answerFingerprint(t, env, q)
	}
	done := make(chan struct{})
	var flusher sync.WaitGroup
	flusher.Add(1)
	go func() {
		defer flusher.Done()
		for {
			select {
			case <-done:
				return
			default:
				env.m.InvalidateStats()
			}
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				for i, q := range queries {
					if got := answerFingerprint(t, env, q); got != serial[i] {
						t.Errorf("query %d diverged while stats were invalidated", i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	flusher.Wait()
}

func answerFingerprint(t testing.TB, env *testEnv, q string) string {
	t.Helper()
	a, err := query(context.Background(), env.m, q)
	if err != nil {
		t.Errorf("query %q: %v", q, err)
		return "error"
	}
	var sb strings.Builder
	sb.WriteString(strings.Join(a.Cols, ","))
	sb.WriteByte('|')
	for _, row := range a.Rows {
		for _, v := range row {
			sb.WriteString(engine.GroupKey(v))
			sb.WriteByte(',')
		}
		sb.WriteByte(';')
	}
	return sb.String()
}
