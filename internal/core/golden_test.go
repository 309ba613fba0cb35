package core

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"verdictdb/internal/engine"
	"verdictdb/internal/sqlparser"
	"verdictdb/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/middleware.golden from the current output")

// goldenNested are the nested-aggregate shapes of this package's tests, plus
// one per aggregate kind inside a derived block, over newEnv's tables.
var goldenNested = []workload.Query{
	{ID: "nested-avg", SQL: "select avg(rev) as avg_rev from (select city, sum(price) as rev from orders group by city) as t"},
	{ID: "nested-flatten", SQL: "select count(*) as c from orders o where o.price > (select avg(i.price) from orders i where i.product_id = o.product_id)"},
	{ID: "nested-sum-mean", SQL: "select city, sum(rev) as total from (select city, product_id, sum(price) as rev from orders group by city, product_id) as t group by city order by city"},
	{ID: "nested-count", SQL: "select count(*) as c from (select city, sum(price) as rev from orders group by city) as t"},
	{ID: "nested-kinds", SQL: "select avg(a) as a, avg(v) as v, avg(sd) as sd, avg(p) as p, avg(d) as d, avg(c) as c from (select city, avg(price) as a, var(price) as v, stddev(price) as sd, percentile(price, 0.5) as p, count(distinct product_id) as d, count(*) as c from orders group by city) as t"},
	{ID: "nested-extreme", SQL: "select avg(m) as m from (select city, max(price) as m from orders group by city) as t"},
	{ID: "nested-distinct-replicated", SQL: "select avg(d) as d from (select city, count(distinct product_id) as d from (select city, product_id, sum(price) as s from orders group by city, product_id) as a group by city) as b"},
	{ID: "nested-complete", SQL: "select avg(s) as s from (select order_id, sum(price) as s from orders group by order_id) as t"},
}

// TestMiddlewareGolden pins what the middleware sends to the engine and what
// EXPLAIN says about it, for the 33 workload shapes (2 % samples in 64-row
// scramble blocks) and the nested-aggregate shapes: the rewritten SQL of a
// single-shot query, of a progressive one (first and full prefix), of one
// under MethodNone, and the EXPLAIN text under the default method, MethodNone
// and traditional subsampling. Run with -update to rewrite the golden file.
func TestMiddlewareGolden(t *testing.T) {
	var got []goldenRecord
	for _, ds := range []struct {
		name    string
		queries []workload.Query
	}{{"tpch", workload.TPCHQueries}, {"insta", workload.InstaQueries}} {
		db, cat := loadWorkload(t, ds.name, 0.05, 64)
		got = append(got, goldenRecords(t, func(o Options) *Middleware { return New(db, cat, o) }, ds.queries)...)
	}
	env := newEnv(t, Options{})
	got = append(got, goldenRecords(t, func(o Options) *Middleware { return New(env.db, env.cat, o) }, goldenNested)...)

	path := filepath.Join("testdata", "middleware.golden")
	if *updateGolden {
		var b strings.Builder
		for _, r := range got {
			fmt.Fprintf(&b, "=== %s\n%s\n", r.name, r.text)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var want []goldenRecord
	for _, chunk := range strings.Split(string(data), "=== ")[1:] {
		name, text, _ := strings.Cut(chunk, "\n")
		want = append(want, goldenRecord{name: name, text: strings.TrimSuffix(text, "\n")})
	}
	for i := 0; i < len(got) || i < len(want); i++ {
		switch {
		case i >= len(want):
			t.Fatalf("record %s is not in the golden file", got[i].name)
		case i >= len(got):
			t.Fatalf("golden record %s was not produced", want[i].name)
		case got[i] != want[i]:
			w, g := strings.Split(want[i].text, "\n"), strings.Split(got[i].text, "\n")
			for j := 0; ; j++ {
				if j >= len(w) || j >= len(g) || w[j] != g[j] {
					t.Fatalf("%s: statement %d differs from the golden file\nwant: %s\ngot:  %s",
						want[i].name, j+1, lineAt(w, j), lineAt(g, j))
				}
			}
		}
	}
}

func lineAt(lines []string, j int) string {
	if j < len(lines) {
		return lines[j]
	}
	return "(none)"
}

type goldenRecord struct{ name, text string }

// goldenRecords runs every query through middlewares built by mw and
// returns what each sent and explained.
func goldenRecords(t *testing.T, mw func(Options) *Middleware, queries []workload.Query) []goldenRecord {
	t.Helper()
	ctx := context.Background()
	opts := func(method ErrorMethod) Options {
		o := DefaultOptions()
		o.Method = method
		return o
	}
	def, none, trad := mw(opts(MethodVariational)), mw(opts(MethodNone)), mw(opts(MethodTraditionalSubsampling))
	run := func(m *Middleware, sql string, prog *Progressive) string {
		if a, handled, err := m.QueryCached(ctx, sql, prog); handled {
			return sentText(t, a, err)
		}
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		a, err := m.QuerySelect(ctx, sel, sql, prog)
		return sentText(t, a, err)
	}
	explain := func(m *Middleware, sql string) string {
		sel, err := sqlparser.ParseSelect(sql)
		if err != nil {
			t.Fatal(err)
		}
		a, err := m.Explain(ctx, sel)
		if err != nil {
			return "error: " + err.Error()
		}
		var b strings.Builder
		for _, r := range a.Rows {
			fmt.Fprintf(&b, "%s: %s\n", engine.ToStr(r[0]), engine.ToStr(r[1]))
		}
		return strings.TrimSuffix(b.String(), "\n")
	}
	var out []goldenRecord
	for _, q := range queries {
		add := func(what, text string) {
			out = append(out, goldenRecord{name: q.ID + " " + what, text: text})
		}
		add("query", run(def, q.SQL, nil))
		add("progressive", run(def, q.SQL, &Progressive{Target: 1e-9}))
		add("query none", run(none, q.SQL, nil))
		add("explain", explain(def, q.SQL))
		add("explain none", explain(none, q.SQL))
		add("explain traditional", explain(trad, q.SQL))
	}
	return out
}

// sentText renders the statements an answer reports it sent.
func sentText(t *testing.T, a *Answer, err error) string {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.RewrittenSQL) == 0 {
		return "(passthrough)"
	}
	return strings.Join(a.RewrittenSQL, "\n")
}
