package engine

import (
	"fmt"
	"math"
	"testing"
)

// testDB builds a small engine with orders and products tables.
func testDB(t testing.TB) *Engine {
	t.Helper()
	e := NewSeeded(42)
	if err := e.CreateTable("orders", []Column{
		{Name: "order_id", Type: TInt},
		{Name: "city", Type: TString},
		{Name: "product_id", Type: TInt},
		{Name: "price", Type: TFloat},
		{Name: "quantity", Type: TInt},
		{Name: "order_date", Type: TString},
	}); err != nil {
		t.Fatal(err)
	}
	cities := []string{"ann arbor", "detroit", "chicago"}
	rows := make([][]Value, 0, 300)
	for i := 0; i < 300; i++ {
		rows = append(rows, []Value{
			int64(i + 1),
			cities[i%3],
			int64(i%10 + 1),
			float64(10 + i%50),
			int64(1 + i%5),
			fmt.Sprintf("1994-%02d-%02d", i%12+1, i%28+1),
		})
	}
	if err := e.InsertRows("orders", rows); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable("products", []Column{
		{Name: "product_id", Type: TInt},
		{Name: "name", Type: TString},
		{Name: "category", Type: TString},
	}); err != nil {
		t.Fatal(err)
	}
	var prows [][]Value
	for i := 1; i <= 10; i++ {
		cat := "food"
		if i > 5 {
			cat = "tools"
		}
		prows = append(prows, []Value{int64(i), fmt.Sprintf("product-%d", i), cat})
	}
	if err := e.InsertRows("products", prows); err != nil {
		t.Fatal(err)
	}
	return e
}

func mustQuery(t testing.TB, e *Engine, sql string) *ResultSet {
	t.Helper()
	rs, err := e.Query(sql)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rs
}

func asFloat(t testing.TB, v Value) float64 {
	t.Helper()
	f, ok := ToFloat(v)
	if !ok {
		t.Fatalf("not numeric: %#v", v)
	}
	return f
}

func TestSelectStar(t *testing.T) {
	e := testDB(t)
	rs := mustQuery(t, e, "select * from orders")
	if len(rs.Rows) != 300 || len(rs.Cols) != 6 {
		t.Fatalf("got %dx%d", len(rs.Rows), len(rs.Cols))
	}
	if rs.RowsScanned != 300 {
		t.Errorf("RowsScanned = %d", rs.RowsScanned)
	}
}

func TestWhereFilter(t *testing.T) {
	e := testDB(t)
	rs := mustQuery(t, e, "select order_id from orders where city = 'detroit' and price >= 20")
	for _, r := range rs.Rows {
		id := r[0].(int64)
		if (id-1)%3 != 1 {
			t.Fatalf("wrong city row %d", id)
		}
	}
	if len(rs.Rows) == 0 {
		t.Fatal("no rows")
	}
}

func TestAggregatesGlobal(t *testing.T) {
	e := testDB(t)
	rs := mustQuery(t, e, "select count(*) as c, sum(quantity) as s, avg(price) as a, min(price) as lo, max(price) as hi from orders")
	if len(rs.Rows) != 1 {
		t.Fatalf("rows: %d", len(rs.Rows))
	}
	if c := rs.Rows[0][0].(int64); c != 300 {
		t.Errorf("count = %d", c)
	}
	var wantSum, wantAvg float64
	for i := 0; i < 300; i++ {
		wantSum += float64(1 + i%5)
		wantAvg += float64(10 + i%50)
	}
	wantAvg /= 300
	if s := asFloat(t, rs.Rows[0][1]); s != wantSum {
		t.Errorf("sum = %v want %v", s, wantSum)
	}
	if a := asFloat(t, rs.Rows[0][2]); math.Abs(a-wantAvg) > 1e-9 {
		t.Errorf("avg = %v want %v", a, wantAvg)
	}
	if lo := asFloat(t, rs.Rows[0][3]); lo != 10 {
		t.Errorf("min = %v", lo)
	}
	if hi := asFloat(t, rs.Rows[0][4]); hi != 59 {
		t.Errorf("max = %v", hi)
	}
}

func TestGroupByHavingOrder(t *testing.T) {
	e := testDB(t)
	rs := mustQuery(t, e, `select city, count(*) as c from orders group by city having count(*) > 0 order by c desc, city`)
	if len(rs.Rows) != 3 {
		t.Fatalf("groups: %d", len(rs.Rows))
	}
	for _, r := range rs.Rows {
		if r[1].(int64) != 100 {
			t.Errorf("group %v count %v", r[0], r[1])
		}
	}
	// Tie on count: city ascending.
	if rs.Rows[0][0].(string) != "ann arbor" {
		t.Errorf("order: %v", rs.Rows[0][0])
	}
}

func TestAggregateOverEmptyInput(t *testing.T) {
	e := testDB(t)
	rs := mustQuery(t, e, "select count(*), sum(price) from orders where price < 0")
	if len(rs.Rows) != 1 {
		t.Fatalf("rows: %d", len(rs.Rows))
	}
	if rs.Rows[0][0].(int64) != 0 {
		t.Errorf("count = %v", rs.Rows[0][0])
	}
	if rs.Rows[0][1] != nil {
		t.Errorf("sum should be NULL, got %v", rs.Rows[0][1])
	}
	// But a grouped query over no rows yields no rows.
	rs2 := mustQuery(t, e, "select city, count(*) from orders where price < 0 group by city")
	if len(rs2.Rows) != 0 {
		t.Errorf("grouped rows: %d", len(rs2.Rows))
	}
}

func TestInnerJoin(t *testing.T) {
	e := testDB(t)
	rs := mustQuery(t, e, `select p.category, sum(o.price) as rev
		from orders o inner join products p on o.product_id = p.product_id
		group by p.category order by p.category`)
	if len(rs.Rows) != 2 {
		t.Fatalf("rows: %d", len(rs.Rows))
	}
	if rs.Rows[0][0].(string) != "food" || rs.Rows[1][0].(string) != "tools" {
		t.Fatalf("categories: %v %v", rs.Rows[0][0], rs.Rows[1][0])
	}
	total := asFloat(t, rs.Rows[0][1]) + asFloat(t, rs.Rows[1][1])
	exact := mustQuery(t, e, "select sum(price) from orders")
	if math.Abs(total-asFloat(t, exact.Rows[0][0])) > 1e-9 {
		t.Errorf("join loses rows: %v vs %v", total, exact.Rows[0][0])
	}
}

func TestLeftJoin(t *testing.T) {
	e := NewSeeded(1)
	e.CreateTable("a", []Column{{Name: "id", Type: TInt}})
	e.CreateTable("b", []Column{{Name: "id", Type: TInt}, {Name: "v", Type: TString}})
	e.InsertRows("a", [][]Value{{int64(1)}, {int64(2)}, {int64(3)}})
	e.InsertRows("b", [][]Value{{int64(1), "x"}, {int64(1), "y"}})
	rs := mustQuery(t, e, "select a.id, b.v from a left join b on a.id = b.id order by a.id, b.v")
	if len(rs.Rows) != 4 {
		t.Fatalf("rows: %d (%v)", len(rs.Rows), rs.Rows)
	}
	if rs.Rows[2][1] != nil || rs.Rows[3][1] != nil {
		t.Errorf("unmatched rows should have NULL v: %v", rs.Rows)
	}
}

func TestNonEquiJoinResidual(t *testing.T) {
	e := NewSeeded(1)
	e.CreateTable("a", []Column{{Name: "x", Type: TInt}})
	e.CreateTable("b", []Column{{Name: "y", Type: TInt}})
	e.InsertRows("a", [][]Value{{int64(1)}, {int64(5)}})
	e.InsertRows("b", [][]Value{{int64(2)}, {int64(4)}})
	rs := mustQuery(t, e, "select a.x, b.y from a inner join b on a.x < b.y order by a.x, b.y")
	if len(rs.Rows) != 2 {
		t.Fatalf("rows: %v", rs.Rows)
	}
}

func TestDerivedTable(t *testing.T) {
	e := testDB(t)
	rs := mustQuery(t, e, `select avg(rev) as a from
		(select city, sum(price) as rev from orders group by city) as t`)
	if len(rs.Rows) != 1 {
		t.Fatalf("rows: %d", len(rs.Rows))
	}
	exact := mustQuery(t, e, "select sum(price) from orders")
	want := asFloat(t, exact.Rows[0][0]) / 3
	if got := asFloat(t, rs.Rows[0][0]); math.Abs(got-want) > 1e-9 {
		t.Errorf("avg rev = %v want %v", got, want)
	}
}

func TestWindowPartition(t *testing.T) {
	e := testDB(t)
	// Total count over all groups, attached to each group row.
	rs := mustQuery(t, e, `select city, count(*) as c, sum(count(*)) over () as total
		from orders group by city`)
	for _, r := range rs.Rows {
		if r[2].(int64) != 300 {
			t.Errorf("window total = %v", r[2])
		}
	}
	// Partitioned window.
	rs2 := mustQuery(t, e, `select city, product_id, count(*) as c,
		sum(count(*)) over (partition by city) as city_total
		from orders group by city, product_id`)
	for _, r := range rs2.Rows {
		if r[3].(int64) != 100 {
			t.Errorf("city_total = %v", r[3])
		}
	}
}

func TestScalarSubquery(t *testing.T) {
	e := testDB(t)
	rs := mustQuery(t, e, "select count(*) from orders where price > (select avg(price) from orders)")
	n := rs.Rows[0][0].(int64)
	if n <= 0 || n >= 300 {
		t.Fatalf("suspicious count %d", n)
	}
}

func TestCorrelatedSubquery(t *testing.T) {
	e := testDB(t)
	// Orders priced above their product's average price.
	rs := mustQuery(t, e, `select count(*) from orders o
		where o.price > (select avg(price) from orders i where i.product_id = o.product_id)`)
	n := rs.Rows[0][0].(int64)
	if n <= 0 || n >= 300 {
		t.Fatalf("suspicious count %d", n)
	}
}

func TestInSubquery(t *testing.T) {
	e := testDB(t)
	rs := mustQuery(t, e, `select count(*) from orders where product_id in
		(select product_id from products where category = 'food')`)
	if rs.Rows[0][0].(int64) != 150 {
		t.Fatalf("count = %v", rs.Rows[0][0])
	}
}

func TestExists(t *testing.T) {
	e := testDB(t)
	rs := mustQuery(t, e, `select count(*) from products p where exists
		(select 1 from orders o where o.product_id = p.product_id and o.price > 55)`)
	n := rs.Rows[0][0].(int64)
	if n <= 0 || n > 10 {
		t.Fatalf("exists count %d", n)
	}
}

func TestCaseExpr(t *testing.T) {
	e := testDB(t)
	rs := mustQuery(t, e, `select sum(case when city = 'detroit' then 1 else 0 end) from orders`)
	if asFloat(t, rs.Rows[0][0]) != 100 {
		t.Fatalf("case sum = %v", rs.Rows[0][0])
	}
}

func TestDistinct(t *testing.T) {
	e := testDB(t)
	rs := mustQuery(t, e, "select distinct city from orders")
	if len(rs.Rows) != 3 {
		t.Fatalf("distinct rows: %d", len(rs.Rows))
	}
	rs2 := mustQuery(t, e, "select count(distinct product_id) from orders")
	if rs2.Rows[0][0].(int64) != 10 {
		t.Fatalf("count distinct = %v", rs2.Rows[0][0])
	}
}

func TestLimitAndOrderByPosition(t *testing.T) {
	e := testDB(t)
	rs := mustQuery(t, e, "select order_id, price from orders order by 2 desc, 1 limit 5")
	if len(rs.Rows) != 5 {
		t.Fatalf("limit: %d", len(rs.Rows))
	}
	if asFloat(t, rs.Rows[0][1]) != 59 {
		t.Errorf("top price: %v", rs.Rows[0][1])
	}
}

func TestUnionAll(t *testing.T) {
	e := testDB(t)
	rs := mustQuery(t, e, "select city from orders where order_id = 1 union all select city from orders where order_id = 2")
	if len(rs.Rows) != 2 {
		t.Fatalf("union all rows: %d", len(rs.Rows))
	}
	rs2 := mustQuery(t, e, "select city from orders union select city from orders")
	if len(rs2.Rows) != 3 {
		t.Fatalf("union dedup rows: %d", len(rs2.Rows))
	}
}

func TestCTASAndInsertSelect(t *testing.T) {
	e := testDB(t)
	if _, err := e.Exec("create table sample as select * from orders where rand() < 0.5"); err != nil {
		t.Fatal(err)
	}
	n := e.RowCount("sample")
	if n < 100 || n > 200 {
		t.Fatalf("Bernoulli half-sample has %d rows", n)
	}
	if _, err := e.Exec("insert into sample select * from orders where order_id <= 3"); err != nil {
		t.Fatal(err)
	}
	if got := e.RowCount("sample"); got != n+3 {
		t.Fatalf("insert-select: %d want %d", got, n+3)
	}
}

func TestInsertValuesAndNulls(t *testing.T) {
	e := NewSeeded(1)
	e.CreateTable("t", []Column{{Name: "a", Type: TInt}, {Name: "b", Type: TString}})
	if _, err := e.Exec("insert into t (a, b) values (1, 'x'), (2, null)"); err != nil {
		t.Fatal(err)
	}
	rs := mustQuery(t, e, "select count(*), count(b) from t")
	if rs.Rows[0][0].(int64) != 2 || rs.Rows[0][1].(int64) != 1 {
		t.Fatalf("null counting: %v", rs.Rows[0])
	}
	rs2 := mustQuery(t, e, "select count(*) from t where b is null")
	if rs2.Rows[0][0].(int64) != 1 {
		t.Fatalf("is null: %v", rs2.Rows[0][0])
	}
}

func TestStddevVariance(t *testing.T) {
	e := NewSeeded(1)
	e.CreateTable("t", []Column{{Name: "x", Type: TFloat}})
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		e.InsertRows("t", [][]Value{{v}})
	}
	rs := mustQuery(t, e, "select var(x), stddev(x) from t")
	// Sample variance of this classic dataset is 32/7.
	if v := asFloat(t, rs.Rows[0][0]); math.Abs(v-32.0/7.0) > 1e-9 {
		t.Errorf("var = %v", v)
	}
	if s := asFloat(t, rs.Rows[0][1]); math.Abs(s-math.Sqrt(32.0/7.0)) > 1e-9 {
		t.Errorf("stddev = %v", s)
	}
}

func TestPercentile(t *testing.T) {
	e := NewSeeded(1)
	e.CreateTable("t", []Column{{Name: "x", Type: TFloat}})
	for i := 1; i <= 100; i++ {
		e.InsertRows("t", [][]Value{{float64(i)}})
	}
	rs := mustQuery(t, e, "select percentile(x, 0.5), percentile(x, 0.9) from t")
	if m := asFloat(t, rs.Rows[0][0]); math.Abs(m-50.5) > 1e-9 {
		t.Errorf("median = %v", m)
	}
	if p90 := asFloat(t, rs.Rows[0][1]); math.Abs(p90-90.1) > 0.2 {
		t.Errorf("p90 = %v", p90)
	}
}

func TestNDVApproximation(t *testing.T) {
	e := NewSeeded(1)
	e.CreateTable("t", []Column{{Name: "x", Type: TInt}})
	rows := make([][]Value, 0, 20000)
	for i := 0; i < 20000; i++ {
		rows = append(rows, []Value{int64(i % 5000)})
	}
	e.InsertRows("t", rows)
	rs := mustQuery(t, e, "select ndv(x) from t")
	got := float64(rs.Rows[0][0].(int64))
	if math.Abs(got-5000)/5000 > 0.05 {
		t.Fatalf("ndv = %v want ~5000", got)
	}
}

func TestDateArithmetic(t *testing.T) {
	e := testDB(t)
	rs := mustQuery(t, e, `select count(*) from orders
		where order_date >= date '1994-03-01' and order_date < date '1994-03-01' + interval '1' month`)
	want := mustQuery(t, e, `select count(*) from orders where order_date >= '1994-03-01' and order_date < '1994-04-01'`)
	if rs.Rows[0][0] != want.Rows[0][0] {
		t.Fatalf("interval arithmetic: %v vs %v", rs.Rows[0][0], want.Rows[0][0])
	}
}

func TestLikeAndIn(t *testing.T) {
	e := testDB(t)
	rs := mustQuery(t, e, "select count(*) from orders where city like 'ann%'")
	if rs.Rows[0][0].(int64) != 100 {
		t.Fatalf("like: %v", rs.Rows[0][0])
	}
	rs2 := mustQuery(t, e, "select count(*) from orders where city in ('detroit', 'chicago')")
	if rs2.Rows[0][0].(int64) != 200 {
		t.Fatalf("in: %v", rs2.Rows[0][0])
	}
	rs3 := mustQuery(t, e, "select count(*) from orders where city not like '%o%'")
	if rs3.Rows[0][0].(int64) != 0 {
		t.Fatalf("not like: %v", rs3.Rows[0][0])
	}
}

func TestScalarFunctions(t *testing.T) {
	e := NewSeeded(1)
	cases := []struct {
		sql  string
		want float64
	}{
		{"select floor(2.7)", 2},
		{"select ceil(2.1)", 3},
		{"select abs(-4.5)", 4.5},
		{"select round(2.456, 2)", 2.46},
		{"select sqrt(16)", 4},
		{"select pow(2, 10)", 1024},
		{"select mod(17, 5)", 2},
		{"select greatest(1, 9, 3)", 9},
		{"select least(5, 2, 8)", 2},
		{"select coalesce(null, 7)", 7},
		{"select if(1 > 0, 10, 20)", 10},
		{"select length('hello')", 5},
	}
	for _, c := range cases {
		rs := mustQuery(t, e, c.sql)
		if got := asFloat(t, rs.Rows[0][0]); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("%s = %v want %v", c.sql, got, c.want)
		}
	}
	rs := mustQuery(t, e, "select substr('abcdef', 2, 3), upper('ab'), concat('x', 1)")
	if rs.Rows[0][0] != "bcd" || rs.Rows[0][1] != "AB" || rs.Rows[0][2] != "x1" {
		t.Errorf("string funcs: %v", rs.Rows[0])
	}
}

func TestHash01Deterministic(t *testing.T) {
	e := NewSeeded(1)
	rs1 := mustQuery(t, e, "select hash01('abc')")
	rs2 := mustQuery(t, e, "select hash01('abc')")
	v1, v2 := asFloat(t, rs1.Rows[0][0]), asFloat(t, rs2.Rows[0][0])
	if v1 != v2 {
		t.Fatal("hash01 not deterministic")
	}
	if v1 < 0 || v1 >= 1 {
		t.Fatalf("hash01 out of range: %v", v1)
	}
}

func TestRandSeedReproducible(t *testing.T) {
	a := NewSeeded(7)
	b := NewSeeded(7)
	a.CreateTable("t", []Column{{Name: "x", Type: TInt}})
	b.CreateTable("t", []Column{{Name: "x", Type: TInt}})
	for i := 0; i < 1000; i++ {
		a.InsertRows("t", [][]Value{{int64(i)}})
		b.InsertRows("t", [][]Value{{int64(i)}})
	}
	ra := mustQuery(t, a, "select count(*) from t where rand() < 0.3")
	rb := mustQuery(t, b, "select count(*) from t where rand() < 0.3")
	if ra.Rows[0][0] != rb.Rows[0][0] {
		t.Fatal("same seed should give same sample size")
	}
	n := ra.Rows[0][0].(int64)
	if n < 200 || n > 400 {
		t.Fatalf("Bernoulli(0.3) of 1000 gave %d", n)
	}
}

func TestDivisionSemantics(t *testing.T) {
	e := NewSeeded(1)
	rs := mustQuery(t, e, "select 7 / 2, 7 % 3, 7.0 * 2")
	if asFloat(t, rs.Rows[0][0]) != 3.5 {
		t.Errorf("7/2 = %v", rs.Rows[0][0])
	}
	if rs.Rows[0][1].(int64) != 1 {
		t.Errorf("7%%3 = %v", rs.Rows[0][1])
	}
	// Division by zero yields NULL, not an error.
	rs2 := mustQuery(t, e, "select 1 / 0")
	if rs2.Rows[0][0] != nil {
		t.Errorf("1/0 = %v", rs2.Rows[0][0])
	}
}

func TestErrorCases(t *testing.T) {
	e := testDB(t)
	bad := []string{
		"select * from nope",
		"select nope from orders",
		"select o.x from orders o",
		"select sum(city) from orders", // non-numeric sum
		"select count(*) from orders o1, orders o2 where nope = 1",
		"select unknown_func(1) from orders",
	}
	for _, q := range bad {
		if _, err := e.Query(q); err == nil {
			t.Errorf("expected error for %q", q)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	e := testDB(t)
	_, err := e.Query("select product_id from orders o inner join products p on o.product_id = p.product_id")
	if err == nil {
		t.Fatal("ambiguous column should error")
	}
}

func TestDropTable(t *testing.T) {
	e := testDB(t)
	if _, err := e.Exec("drop table products"); err != nil {
		t.Fatal(err)
	}
	if e.HasTable("products") {
		t.Fatal("still present")
	}
	if _, err := e.Exec("drop table products"); err == nil {
		t.Fatal("double drop should error")
	}
	if _, err := e.Exec("drop table if exists products"); err != nil {
		t.Fatal(err)
	}
}

func TestQualifiedStar(t *testing.T) {
	e := testDB(t)
	rs := mustQuery(t, e, "select o.* from orders o inner join products p on o.product_id = p.product_id limit 1")
	if len(rs.Cols) != 6 {
		t.Fatalf("o.* cols: %v", rs.Cols)
	}
}

func TestGroupByExpression(t *testing.T) {
	e := testDB(t)
	rs := mustQuery(t, e, "select substr(order_date, 1, 7) as ym, count(*) from orders group by substr(order_date, 1, 7) order by ym")
	if len(rs.Rows) != 12 {
		t.Fatalf("months: %d", len(rs.Rows))
	}
}

// TestConcurrentDDLAndLookup creates and drops tables from one goroutine
// while others resolve table names and run queries. Under -race this checks
// the table map's locking.
func TestConcurrentDDLAndLookup(t *testing.T) {
	e := testDB(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			name := fmt.Sprintf("tmp_%d", i%4)
			if err := e.CreateTable(name, []Column{{Name: "x", Type: TInt}}); err != nil {
				t.Error(err)
				return
			}
			if err := e.DropTable(name, false); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for {
		select {
		case <-done:
			return
		default:
		}
		_, err := e.Lookup("orders")
		if err == nil {
			_, err = e.Query("select count(*) from orders")
		}
		if err != nil {
			t.Error(err)
			<-done
			return
		}
	}
}
