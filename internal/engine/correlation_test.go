package engine

import (
	"fmt"
	"testing"
)

// A subquery may be answered once per query only if nothing in it reads an
// enclosing scope — wherever the reference sits and whether or not it is
// qualified. Each correlated shape below returned the first row's value for
// every row while correlation was decided from qualified names in four clauses.
func TestCorrelationDetection(t *testing.T) {
	e := NewSeeded(1)
	for _, ddl := range []string{
		"create table t (k int)",
		"create table u (uk int, y int)",
		"create table one (z int)",
	} {
		if _, err := e.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.InsertRows("t", [][]Value{{int64(1)}, {int64(2)}, {int64(3)}}); err != nil {
		t.Fatal(err)
	}
	if err := e.InsertRows("u", [][]Value{{int64(1), int64(100)}, {int64(2), int64(200)}, {int64(3), int64(300)}}); err != nil {
		t.Fatal(err)
	}
	if err := e.InsertRows("one", [][]Value{{int64(0)}}); err != nil {
		t.Fatal(err)
	}
	const perRow = "[[1 100] [2 200] [3 300]]"
	cases := []struct{ name, sql, want string }{
		{"unqualified outer column in WHERE",
			"select k, (select sum(y) from u where uk = k) from t", perRow},
		{"outer column in a join condition",
			"select k, (select sum(y) from one inner join u on u.uk = t.k) from t", perRow},
		{"outer column in a nested subquery",
			"select k, (select sum(y) from u where u.uk = (select max(z) + t.k from one)) from t", perRow},
		{"outer column in ORDER BY",
			"select k, (select y from u order by abs(uk - k), uk limit 1) from t", perRow},
		{"outer column in a UNION branch",
			"select k, (select y from u where uk = 0 union all select y from u where uk = t.k) from t", perRow},
		{"IN subquery with an unqualified outer column",
			"select k, k in (select uk from u where y = k * 100 and uk < 3) from t", "[[1 true] [2 true] [3 false]]"},
		{"uncorrelated: a local alias in ORDER BY and a derived table",
			"select k, (select m from (select max(y) as m, 1 as j from u) d inner join one on d.j = one.z + 1 order by m) from t",
			"[[1 300] [2 300] [3 300]]"},
	}
	for _, c := range cases {
		for _, vec := range []bool{false, true} {
			e.SetVectorized(vec)
			rs, err := e.Query(c.sql)
			if err != nil {
				t.Fatalf("%s (vectorized=%v): %v", c.name, vec, err)
			}
			if got := fmt.Sprint(rs.Rows); got != c.want {
				t.Errorf("%s (vectorized=%v): got %s, want %s", c.name, vec, got, c.want)
			}
		}
	}
	e.SetVectorized(true)

	// The uncorrelated control must still run once: its scan of u is counted
	// once, not once per row of t.
	rs, err := e.Query("select k, (select sum(y) from u where uk > 0) from t")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rs.Rows); got != "[[1 600] [2 600] [3 600]]" || rs.RowsScanned != 3+3 {
		t.Errorf("uncorrelated control: rows %s scanned %d, want one scan of u (6 rows in all)", got, rs.RowsScanned)
	}
	rs, err = e.Query(cases[0].sql)
	if err != nil {
		t.Fatal(err)
	}
	if rs.RowsScanned != 3+3*3 {
		t.Errorf("correlated subquery scanned %d rows, want one scan of u per distinct key", rs.RowsScanned)
	}
}
