package core

import (
	"context"
	"errors"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/meta"
	"verdictdb/internal/sampling"
	"verdictdb/internal/sqlparser"
	"verdictdb/internal/workload"
)

func TestExplainSupportedQuery(t *testing.T) {
	env := newEnv(t, Options{})
	sel, err := sqlparser.ParseSelect("select city, count(*) as c from orders group by city")
	if err != nil {
		t.Fatal(err)
	}
	a, err := env.m.Explain(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	steps := map[string]string{}
	for _, r := range a.Rows {
		steps[engine.ToStr(r[0])] = engine.ToStr(r[1])
	}
	if steps["support"] != "supported" {
		t.Fatalf("support: %q", steps["support"])
	}
	if !strings.Contains(steps["plan 1"], "orders->") {
		t.Errorf("plan row: %q", steps["plan 1"])
	}
	if !strings.Contains(strings.ToLower(steps["rewritten 1"]), "verdict_sid") {
		t.Errorf("rewritten SQL missing sid: %q", steps["rewritten 1"])
	}
	if !strings.Contains(steps["error estimation"], "variational") {
		t.Errorf("method: %q", steps["error estimation"])
	}
}

func TestExplainDeclinedQuery(t *testing.T) {
	env := newEnv(t, Options{})
	// High-cardinality grouping declines AQP.
	sel, err := sqlparser.ParseSelect("select order_id, count(*) from orders group by order_id")
	if err != nil {
		t.Fatal(err)
	}
	a, err := env.m.Explain(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	joined := ""
	for _, r := range a.Rows {
		joined += engine.ToStr(r[0]) + "=" + engine.ToStr(r[1]) + ";"
	}
	if !strings.Contains(joined, "passthrough") {
		t.Fatalf("declined explain lacks passthrough: %s", joined)
	}
}

func TestExplainDoesNotExecute(t *testing.T) {
	env := newEnv(t, Options{})
	sel, _ := sqlparser.ParseSelect("select count(*) from orders")
	a, err := env.m.Explain(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	// Explain must not report engine time from running the rewritten query.
	if a.ElapsedNanos != 0 {
		t.Fatalf("explain spent %dns executing", a.ElapsedNanos)
	}
	if a.Approximate {
		t.Fatal("explain output marked approximate")
	}
}

func TestExplainExtremeDecomposition(t *testing.T) {
	env := newEnv(t, Options{})
	sel, _ := sqlparser.ParseSelect("select count(*) as c, max(price) as m from orders")
	a, err := env.m.Explain(context.Background(), sel)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range a.Rows {
		if engine.ToStr(r[0]) == "extreme" {
			found = true
		}
	}
	if !found {
		t.Fatal("extreme decomposition not explained")
	}
}

// workloadMiddleware loads one workload dataset with the benchmark's 2 %
// sample set (internal/bench/harness.go).
func workloadMiddleware(t *testing.T, dataset string) *Middleware {
	t.Helper()
	db, cat := loadWorkload(t, dataset, 0.1, 0)
	return New(db, cat, DefaultOptions())
}

// loadWorkload loads one workload dataset at scale and builds the 2 % sample
// set, in scramble blocks of blockRows rows when it is positive.
func loadWorkload(t *testing.T, dataset string, scale float64, blockRows int64) (*drivers.Driver, *meta.Catalog) {
	t.Helper()
	e := engine.NewSeeded(42)
	db := drivers.NewGeneric(e)
	cat, err := meta.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	b := sampling.NewBuilder(db, cat)
	if blockRows > 0 {
		b.BlockRows = blockRows
	}
	type sample struct {
		table string
		on    []string // nil = uniform
		strat bool
	}
	var samples []sample
	if dataset == "tpch" {
		err = workload.LoadTPCH(e, scale, 42)
		samples = []sample{
			{table: "lineitem"}, {table: "lineitem", on: []string{"l_returnflag", "l_linestatus"}, strat: true},
			{table: "lineitem", on: []string{"l_orderkey"}}, {table: "orders"}, {table: "orders", on: []string{"o_orderkey"}},
			{table: "partsupp"}, {table: "partsupp", on: []string{"ps_suppkey"}},
		}
	} else {
		err = workload.LoadInsta(e, scale, 43)
		samples = []sample{
			{table: "order_products"}, {table: "order_products", on: []string{"order_id"}}, {table: "orders"},
			{table: "orders", on: []string{"user_id"}}, {table: "orders", on: []string{"order_id"}},
			{table: "orders", on: []string{"order_dow"}, strat: true}, {table: "orders", on: []string{"order_hour"}, strat: true},
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range samples {
		switch {
		case s.on == nil:
			_, err = b.CreateUniform(s.table, 0.02)
		case s.strat:
			_, err = b.CreateStratified(s.table, s.on, 0.02)
		default:
			_, err = b.CreateHashed(s.table, s.on[0], 0.02)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return db, cat
}

// probeDB records the backend queries that fail, and can fail the planner's
// ndv probes itself.
type probeDB struct {
	drivers.DB
	failed []string
	ndvErr error
}

func (p *probeDB) QueryContext(ctx context.Context, sql string) (*engine.ResultSet, error) {
	if p.ndvErr != nil && strings.HasPrefix(sql, "select ndv(") {
		return nil, p.ndvErr
	}
	rs, err := p.DB.QueryContext(ctx, sql)
	if err != nil {
		p.failed = append(p.failed, sql)
	}
	return rs, err
}

// The grouping-cardinality guard finds a column's table from the schema, not by
// probing tables until one does not fail (tq-9 groups by two output aliases no
// table has: every probe used to be a failing full scan), and a probe's error
// is the query's — a cancellation must not read as "guard passed".
func TestGroupCardinalityProbe(t *testing.T) {
	m := workloadMiddleware(t, "tpch")
	db := &probeDB{DB: m.db}
	m.db = db
	ctx := context.Background()
	for _, q := range workload.TPCHQueries {
		if q.ID != "tq-9" {
			continue
		}
		sel, err := sqlparser.ParseSelect(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Explain(ctx, sel); err != nil {
			t.Fatal(err)
		}
	}
	if len(db.failed) > 0 {
		t.Errorf("planning tq-9 issued failing backend queries: %q", db.failed)
	}
	db.ndvErr = context.Canceled
	const grouped = "select l_returnflag, count(*) from lineitem group by l_returnflag"
	if _, err := query(ctx, m, grouped); !errors.Is(err, context.Canceled) {
		t.Errorf("query whose ndv probe was cancelled: error = %v, want context.Canceled", err)
	}
	sel, _ := sqlparser.ParseSelect(grouped)
	if _, err := m.Explain(ctx, sel); !errors.Is(err, context.Canceled) {
		t.Errorf("explain whose ndv probe was cancelled: error = %v, want context.Canceled", err)
	}
}

var explainPlanRow = regexp.MustCompile(`via (.*) \(score [^,]*, cost (\d+) rows\)`)

// EXPLAIN must describe the plan the query runs: for all 33 workload shapes
// the sample tables and the cost of its "plan N" rows are those of the
// cached plan entry, and it reports a passthrough exactly when the entry is
// one.
func TestExplainMatchesExecutedPlan(t *testing.T) {
	for _, ds := range []struct {
		name    string
		queries []workload.Query
	}{{"tpch", workload.TPCHQueries}, {"insta", workload.InstaQueries}} {
		m := workloadMiddleware(t, ds.name)
		for _, q := range ds.queries {
			ctx := context.Background()
			if _, err := query(ctx, m, q.SQL); err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			entry := m.plans.lookup(normalizeSQL(q.SQL), m.cat.Version())
			if entry == nil {
				t.Fatalf("%s: no cached plan entry", q.ID)
			}
			sel, err := sqlparser.ParseSelect(q.SQL)
			if err != nil {
				t.Fatal(err)
			}
			a, err := m.Explain(ctx, sel)
			if err != nil {
				t.Fatalf("%s: explain: %v", q.ID, err)
			}
			passthrough := false
			var samples [][]string
			var minCost int64
			for _, r := range a.Rows {
				step, detail := engine.ToStr(r[0]), engine.ToStr(r[1])
				if step == "execution" && strings.Contains(detail, "passthrough") {
					passthrough = true
				}
				if !strings.HasPrefix(step, "plan ") {
					continue
				}
				mt := explainPlanRow.FindStringSubmatch(detail)
				if mt == nil {
					t.Fatalf("%s: unparsable plan row %q", q.ID, detail)
				}
				var tables []string
				for _, choice := range strings.Split(mt[1], ", ") {
					if _, tbl, _ := strings.Cut(choice, "->"); tbl != "base" {
						tables = append(tables, tbl)
					}
				}
				sort.Strings(tables)
				samples = append(samples, tables)
				if cost, _ := strconv.ParseInt(mt[2], 10, 64); cost > 0 && (minCost == 0 || cost < minCost) {
					minCost = cost
				}
			}
			if passthrough != entry.passthrough {
				t.Errorf("%s: explain passthrough=%v, executed entry passthrough=%v", q.ID, passthrough, entry.passthrough)
				continue
			}
			var ran [][]string
			for _, st := range entry.steps {
				tables := append([]string(nil), st.sampleTables...)
				sort.Strings(tables)
				ran = append(ran, tables)
			}
			if !reflect.DeepEqual(samples, ran) {
				t.Errorf("%s: explain plans read %v, the executed entry reads %v", q.ID, samples, ran)
			}
			if minCost != entry.planSampleRows {
				t.Errorf("%s: explain's smallest plan costs %d rows, the executed entry's %d", q.ID, minCost, entry.planSampleRows)
			}
		}
	}
}
