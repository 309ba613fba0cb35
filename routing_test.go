package verdictdb

import (
	"fmt"
	"testing"
	"time"

	"verdictdb/internal/core"
	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/workload"
)

// Answer.ElapsedNanos is measured, not modelled: over the Spark SQL dialect
// no answer reports more time than the caller's wall clock around the call
// that produced it, and every executed statement reports some.
func TestElapsedNanosIsMeasured(t *testing.T) {
	eng := engine.NewSeeded(7)
	if err := workload.LoadInsta(eng, 0.05, 7); err != nil {
		t.Fatal(err)
	}
	db := drivers.NewSparkSQL(eng)
	conn, err := Open(db, Defaults())
	if err != nil {
		t.Fatal(err)
	}
	conn.Builder().BlockRows = 64 // several blocks, so progressive runs prefixes
	if err := conn.Exec("create uniform sample of order_products ratio 0.02"); err != nil {
		t.Fatal(err)
	}
	opts := Defaults()
	opts.Method = core.MethodTraditionalSubsampling
	trad, err := Open(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	const agg = "select count(*) as c, avg(price) as p from order_products"
	cases := []struct {
		name   string
		run    func() (*Answer, error)
		approx bool
	}{
		{"approximate", func() (*Answer, error) { return conn.Query(agg) }, true},
		{"declined passthrough", func() (*Answer, error) {
			return conn.Query("select order_id, count(*) as c from order_products group by order_id")
		}, false},
		{"progressive", func() (*Answer, error) { return conn.QueryWithAccuracy(agg, 0.5) }, true},
		{"bypass", func() (*Answer, error) { return conn.Query("bypass " + agg) }, false},
		{"traditional subsampling", func() (*Answer, error) { return trad.Query(agg) }, true},
	}
	for _, c := range cases {
		start := time.Now()
		a, err := c.run()
		wall := time.Since(start).Nanoseconds()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if a.Approximate != c.approx {
			t.Errorf("%s: Approximate = %v, want %v", c.name, a.Approximate, c.approx)
		}
		if a.ElapsedNanos <= 0 || a.ElapsedNanos > wall {
			t.Errorf("%s: ElapsedNanos %d outside (0, %d], the wall clock around the call", c.name, a.ElapsedNanos, wall)
		}
	}
}

// Every Conn query method goes through one dispatcher: the VerdictDB
// extension statements, EXPLAIN, BYPASS, DDL and a SELECT give the same
// answer and move the plan cache alike through Query,
// QueryWithAccuracy(sql, 0) and QueryProgressive, and a plan cached by
// Query serves the other two.
func TestQueryRoutingParity(t *testing.T) {
	routes := []struct {
		name string
		run  func(*Conn, string) (*Answer, error)
	}{
		{"Query", (*Conn).Query},
		{"QueryWithAccuracy", func(c *Conn, sql string) (*Answer, error) { return c.QueryWithAccuracy(sql, 0) }},
		{"QueryProgressive", func(c *Conn, sql string) (*Answer, error) {
			return c.QueryProgressive(sql, 0, func(ProgressiveUpdate) bool { return true })
		}},
	}
	const sel = "select order_dow, count(*) as c from orders group by order_dow"
	stmts := []string{
		"create uniform sample of orders ratio 0.05",
		"show samples",
		"explain " + sel,
		"bypass " + sel,
		"create table note (id int)",
		sel,
		sel, // a plan-cache hit
	}
	var want []string
	for _, r := range routes {
		conn, _ := newConn(t)
		for i, sql := range stmts {
			h0, m0 := conn.CacheStats()
			a, err := r.run(conn, sql)
			if err != nil {
				t.Fatalf("%s(%q): %v", r.name, sql, err)
			}
			h1, m1 := conn.CacheStats()
			got := fmt.Sprintf("cols %v rows %v status %v, cache hits +%d misses +%d", a.Cols, a.Rows, a.Status, h1-h0, m1-m0)
			if r.name == "Query" {
				want = append(want, got)
			} else if got != want[i] {
				t.Errorf("%s(%q): %s\nQuery gives: %s", r.name, sql, got, want[i])
			}
		}
	}

	conn, _ := newConn(t)
	if err := conn.Exec(stmts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Query(sel); err != nil {
		t.Fatal(err)
	}
	for _, r := range routes[1:] {
		h0, m0 := conn.CacheStats()
		if _, err := r.run(conn, sel); err != nil {
			t.Fatal(err)
		}
		if h1, m1 := conn.CacheStats(); h1 != h0+1 || m1 != m0 {
			t.Errorf("%s after Query: cache hits +%d misses +%d, want +1 +0", r.name, h1-h0, m1-m0)
		}
	}
}
