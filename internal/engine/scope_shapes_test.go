package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"verdictdb/internal/sqlparser"
)

// Pins the expression shapes that need scope state beyond the current row —
// subqueries, enclosing-scope columns, aggregate and window references — and
// the per-row timing of their errors: a query whose failing expression is
// never evaluated (zero rows, short-circuit, a row past a pushed-down LIMIT)
// succeeds.

func shapeDB(t *testing.T) *Engine {
	t.Helper()
	e := testDB(t)
	if _, err := e.Exec("create table empty_orders (order_id int, city varchar, price double)"); err != nil {
		t.Fatal(err)
	}
	// big spans 36 chunks, enough rows for four scan workers.
	if err := e.CreateTable("big", []Column{{Name: "id", Type: TInt}}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, 9000)
	for i := range rows {
		rows[i] = []Value{int64(i)}
	}
	if err := e.InsertRows("big", rows); err != nil {
		t.Fatal(err)
	}
	return e
}

func renderRows(rs *ResultSet) string {
	parts := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		cells := make([]string, len(r))
		for j, v := range r {
			cells[j] = fmt.Sprint(v)
		}
		parts[i] = strings.Join(cells, ",")
	}
	return strings.Join(parts, "; ")
}

func TestScopeShapes(t *testing.T) {
	cases := []struct {
		name, sql string
		want      string // rendered rows
		wantErr   string // exact error text; "" means success
		// exec, when set, is a statement run before sql under a memory budget
		// (0: none) that must fail with execErr, or ErrMemoryBudget when
		// budget is set; sql then checks that it changed nothing.
		exec, execErr string
		budget        int64
	}{
		{name: "correlated scalar, two scope levels",
			sql: `select p.product_id,
				(select count(*) from orders o where o.product_id = p.product_id and o.price >
					(select avg(i.price) from orders i where i.product_id = p.product_id and i.city = o.city))
				from products p where p.product_id <= 3 order by p.product_id`,
			want: "1,12; 2,12; 3,12"},
		{name: "correlated scalar in WHERE feeding an aggregate",
			sql: `select city, count(*) from orders o
				where o.price > (select avg(price) from orders i where i.product_id = o.product_id)
				group by city order by city`,
			want: "ann arbor,40; chicago,40; detroit,40"},
		{name: "IN subquery in WHERE",
			sql:  `select count(*) from orders where product_id in (select product_id from products where category = 'food')`,
			want: "150"},
		{name: "NOT IN subquery in WHERE",
			sql:  `select count(*) from orders where product_id not in (select product_id from products where category = 'food')`,
			want: "150"},
		{name: "correlated EXISTS and NOT EXISTS in WHERE",
			sql: `select p.product_id from products p
				where exists (select 1 from orders o where o.product_id = p.product_id and o.price > 58)
				and not exists (select 1 from orders o where o.product_id = p.product_id and o.price < 11)
				order by p.product_id`,
			want: "10"},
		{name: "IN subquery in join ON",
			sql: `select count(*) from orders o inner join products p
				on o.product_id = p.product_id and o.product_id in (select product_id from products where category = 'tools')`,
			want: "150"},
		{name: "correlated EXISTS in join ON",
			sql: `select p.product_id, count(o.order_id) from products p left join orders o
				on o.product_id = p.product_id and exists
					(select 1 from orders x where x.product_id = p.product_id and x.price > 58)
				group by p.product_id order by p.product_id limit 3`,
			want: "1,0; 2,0; 3,0"},
		{name: "subquery as a hash-join key expression",
			sql: `select count(*) from orders o inner join products p
				on (o.product_id in (select product_id from products where category = 'food')) = (p.category = 'food')
				and o.product_id = p.product_id`,
			want: "300"},
		{name: "expression join keys under an enclosing-scope reference",
			sql: `select p.product_id,
				(select sum(o.quantity) from orders o inner join products q
					on o.product_id + 0 = q.product_id * 1 and q.product_id = p.product_id
					where p.product_id > 0)
				from products p where p.product_id in (1, 10) order by p.product_id`,
			want: "1,30; 10,150"},
		{name: "HAVING and ORDER BY over aggregate references",
			sql: `select city, count(*) from orders group by city
				having sum(price) > min(price) * 100 and count(*) = 100 order by sum(order_id) desc`,
			want: "chicago,100; detroit,100; ann arbor,100"},
		{name: "ORDER BY a pre-projection expression",
			sql:  `select order_id from orders where order_id <= 4 order by price * -1`,
			want: "4; 3; 2; 1"},
		{name: "subquery in GROUP BY key and aggregate argument",
			sql: `select (select category from products p where p.product_id = o.product_id),
				sum(price - (select min(price) from orders)) from orders o
				group by (select category from products p where p.product_id = o.product_id) order by 1`,
			want: "food,3300; tools,4050"},
		{name: "window reference inside arithmetic",
			sql: `select order_id, 100 * price / sum(price) over (partition by city) from orders
				where order_id <= 4 order by order_id`,
			want: "1,43.47826086956522; 2,100; 3,100; 4,56.52173913043478"},
		{name: "window over aggregates inside arithmetic",
			sql: `select city, sum(quantity) - sum(sum(quantity)) over (partition by 1) / 3 from orders
				group by city order by city`,
			want: "ann arbor,0; chicago,0; detroit,0"},
		{name: "HAVING with a correlated scalar subquery on a GROUP BY column",
			sql: `select product_id, count(*) from orders o group by product_id
				having count(*) > 5 * (select count(*) from orders i where i.product_id = o.product_id and i.price > 52)
				order by product_id`,
			want: "1,30; 2,30; 3,30"},
		{name: "select-list subquery in an aggregated block",
			sql: `select city, sum(quantity), (select count(*) from products p where p.product_id <= length(o.city))
				from orders o group by city order by city`,
			want: "ann arbor,300,9; chicago,300,7; detroit,300,7"},
		{name: "DISTINCT over groups, ordered by an aggregate outside the select list",
			sql:  `select distinct product_id % 2 from orders group by product_id order by sum(price) desc`,
			want: "0; 1"},
		{name: "window over an aggregate only ORDER BY reads",
			sql: `select city, count(*) from orders group by city
				order by max(sum(order_id)) over (partition by city) desc`,
			want: "chicago,100; detroit,100; ann arbor,100"},
		{name: "global aggregate whose HAVING is false",
			sql: `select count(*), sum(price) from orders having count(*) > 1000`, want: ""},
		{name: "LIMIT expression",
			sql:  `select order_id from orders order by order_id limit 1 + 1`,
			want: "1; 2"},
		{name: "LIMIT scalar subquery",
			sql:  `select order_id from orders order by order_id limit (select count(*) from products where product_id < 4)`,
			want: "1; 2; 3"},

		// The row closures read lanes through a scratch row that holds only the
		// columns an expression names — or a subquery reads through its scope.
		{name: "predicate that reads no column",
			sql: `select count(*), sum(quantity) from orders where rand() < 2`, want: "300,900"},
		{name: "literal predicate", sql: `select count(*) from orders where 1 = 1`, want: "300"},
		{name: "predicate that reads every column",
			sql: `select count(*) from orders where rand() < 2 and order_id > 150 and city <> 'detroit' and product_id > 2
				and price < 50 and quantity <> 3 and order_date > '1994-03'`,
			want: "40"},
		{name: "EXISTS correlated on a column the outer predicate never mentions",
			sql: `select count(*), sum(o.quantity) from orders o where o.price > 20 and exists
				(select 1 from products p where p.product_id = o.product_id and p.category = 'tools')`,
			want: "120,360"},
		{name: "IN correlated on a column the outer predicate never mentions",
			sql: `select count(*), sum(o.quantity) from orders o where o.order_id in
				(select o.order_id from products p where p.product_id = o.product_id and p.category = 'food')`,
			want: "150,450"},
		{name: "scalar subquery correlated two scopes down on a column no scope between mentions",
			sql: `select count(*), sum(o.order_id) from orders o where o.price > 10 *
				(select min(p.product_id) from products p where exists
					(select 1 from products q where q.product_id = o.quantity and q.product_id = p.product_id))`,
			want: "174,27414"},
		{name: "EXISTS two scopes down, IN one scope down, each on its own outer column",
			sql: `select count(*) from orders o where o.order_id > 100 and exists
				(select 1 from products p where p.product_id = o.product_id and p.product_id in
					(select q.product_id from products q where q.category = 'food' and length(o.city) > 7))`,
			want: "33"},
		{name: "subquery whose schema the walk cannot tell reads the whole outer row",
			sql: `select count(*) from orders o where exists
				(select (select 1 from nosuch) from products p where 0 - o.city > 0)`,
			wantErr: `engine: non-numeric operand for "-" (int64, string)`},
		{name: "subquery whose schema the walk cannot tell, no row reaching the unknown table",
			sql: `select count(*) from orders o where exists
				(select (select 1 from nosuch) from products p where o.product_id is null)`,
			want: "0"},

		{name: "unknown column", sql: `select nope from orders`,
			wantErr: "engine: unknown column nope"},
		{name: "unknown column, zero rows", sql: `select nope from empty_orders`, want: ""},
		{name: "unknown column behind a short-circuit",
			sql: `select count(*) from orders where 1 = 0 and nope = 1`, want: "0"},
		{name: "unknown qualified column in a subquery",
			sql:     `select (select max(i.price) from orders i where i.city = z.city) from orders o`,
			wantErr: "engine: unknown column z.city"},
		{name: "ambiguous column",
			sql:     `select product_id from orders o inner join products p on o.product_id = p.product_id`,
			wantErr: "engine: ambiguous column product_id"},
		{name: "ambiguous column, zero rows",
			sql:  `select product_id from orders o inner join products p on o.product_id = p.product_id where 1 = 0`,
			want: ""},
		{name: "ambiguous inner column does not fall through to the enclosing scope",
			sql: `select (select count(*) from orders a inner join orders b on a.order_id = b.order_id where city = p.name)
				from products p`,
			wantErr: "engine: ambiguous column city"},
		{name: "aggregate in WHERE", sql: `select city from orders where sum(price) > 1`,
			wantErr: "engine: aggregate sum not allowed here"},
		{name: "aggregate in WHERE, zero rows",
			sql: `select city from empty_orders where sum(price) > 1`, want: ""},
		{name: "aggregate in GROUP BY", sql: `select count(*) from orders group by sum(price)`,
			wantErr: "engine: aggregate sum not allowed here"},
		{name: "aggregate in GROUP BY, zero rows",
			sql: `select count(*) from empty_orders group by sum(price)`, want: ""},
		{name: "window in WHERE", sql: `select city from orders where sum(price) over (partition by city) > 1`,
			wantErr: "engine: window function sum not available in this context"},
		{name: "bare INTERVAL", sql: `select interval '1' day from orders`,
			wantErr: "engine: INTERVAL outside date arithmetic"},
		{name: "bare INTERVAL, zero rows", sql: `select interval '1' day from empty_orders`, want: ""},
		{name: "bare INTERVAL as aggregate argument, zero rows",
			sql: `select count(interval '1' day) from empty_orders`, want: "0"},
		{name: "scalar subquery with several rows", sql: `select (select product_id from products) from orders`,
			wantErr: "engine: scalar subquery returned 10 rows"},
		{name: "scalar subquery with several rows, zero rows",
			sql: `select (select product_id from products) from empty_orders`, want: ""},
		{name: "IN subquery with several columns",
			sql:     `select count(*) from orders where product_id in (select product_id, name from products)`,
			wantErr: "engine: IN subquery must return one column"},
		{name: "per-row error", sql: `select order_id, 0 - (case when order_id > 2 then city else '1' end) from orders`,
			wantErr: `engine: non-numeric operand for "-" (int64, string)`},
		{name: "per-row error on a row the LIMIT bound never reaches",
			sql:  `select order_id, 0 - (case when order_id > 2 then city else '1' end) from orders limit 2`,
			want: "1,-1; 2,-1"},
		{name: "per-row error after a conjunct that filters a join input",
			sql: `select count(*) from orders o inner join products p on o.product_id = p.product_id
				where p.category = 'food' and 0 - o.city > 0`,
			wantErr: `engine: non-numeric operand for "-" (int64, string)`},
		{name: "per-row error after a conjunct that empties a join input",
			sql: `select count(*) from orders o inner join products p on o.product_id = p.product_id
				where p.category = 'none' and 0 - o.city > 0`,
			want: "0"},
		{name: "per-row error before a conjunct that would empty a join input",
			sql: `select count(*) from orders o inner join products p on o.product_id = p.product_id
				where 0 - o.city > 0 and p.category = 'none'`,
			wantErr: `engine: non-numeric operand for "-" (int64, string)`},
		{name: "per-row error in ON under a conjunct that would empty a join input",
			sql: `select count(*) from orders o inner join products p on o.product_id = p.product_id and 0 - o.city > 0
				where p.category = 'none'`,
			wantErr: `engine: non-numeric operand for "-" (int64, string)`},
		{name: "kernel error on a derived table's column",
			sql:     `select order_id, -c from (select order_id, city as c from orders) d where order_id > 2`,
			wantErr: "engine: cannot negate string"},
		{name: "kernel error on a derived table's column, on a row the LIMIT bound never reaches",
			sql: `select order_id, -(case when order_id > 2 then c else 1 end)
				from (select order_id, city as c from orders) d limit 2`,
			want: "1,-1; 2,-1"},
		{name: "erroring aggregate argument over a derived table",
			sql:     `select count(order_id > 2 and 0 - c > 0) from (select order_id, city as c from orders) d`,
			wantErr: `engine: non-numeric operand for "-" (int64, string)`},
		{name: "erroring aggregate argument over a derived table, behind a short-circuit",
			sql:  `select count(order_id > 1000 and 0 - c > 0) from (select order_id, city as c from orders) d`,
			want: "300"},
		{name: "bad LIMIT", sql: `select order_id from orders limit 0 - 1`,
			wantErr: "engine: LIMIT must be a constant non-negative integer, got -1"},
		{name: "unknown function evaluates its arguments first", sql: `select nofn(nope) from orders`,
			wantErr: "engine: unknown column nope"},
		{name: "unknown function", sql: `select nofn(1) from orders`,
			wantErr: "engine: unknown function nofn"},
		{name: "unknown function, zero rows", sql: `select nofn(1) from empty_orders`, want: ""},

		// Error order over many chunks and workers: the row path filters every
		// row before it aggregates or projects, evaluates a row's expressions
		// before the next row's, and joins right keys first, then per left row
		// its key and its pairs' residuals.
		{name: "aggregate-argument error in the first chunk, WHERE error in the last",
			sql: `select sum(0 - (case when id = 3 then 'x' else '0' end)) from big
				where 0 * (case when id = 8990 then 'x' else '1' end) = 0`,
			wantErr: `engine: non-numeric operand for "*" (int64, string)`},
		{name: "two select items failing on different rows of one chunk",
			sql: `select 0 * (case when id = 1029 then 'x' else '0' end),
				0 - (case when id = 1027 then 'x' else '0' end) from big`,
			wantErr: `engine: non-numeric operand for "-" (int64, string)`},
		{name: "OR whose right operand fails only where the left decided",
			sql:  `select count(*) from big where id % 100 <> 7 or 0 - (case when id % 100 = 7 then '1' else 'x' end) > 0`,
			want: "8910"},
		{name: "AND in an aggregate argument whose right operand fails only where the left decided",
			sql:  `select count(*), sum(id % 100 = 7 and 0 - (case when id % 100 = 7 then '1' else 'x' end) < 0) from big`,
			want: "9000,90"},
		{name: "projection error past the LIMIT bound in the bound's own chunk",
			sql:  `select id, 0 - (case when id = 1100 then 'x' else '0' end) from big where id >= 1030 limit 3`,
			want: "1030,0; 1031,0; 1032,0"},
		{name: "WHERE error past the LIMIT bound in the bound's own chunk",
			sql:  `select id from big where id >= 1030 and 0 * (case when id = 1100 then 'x' else '1' end) = 0 limit 3`,
			want: "1030; 1031; 1032"},
		{name: "join with a fallible left key and a fallible right key",
			sql: `select count(*) from orders o inner join big b
				on 0 * (case when o.order_id = 5 then 'x' else '0' end) = 0 - (case when b.id = 7 then 'x' else '0' end)`,
			wantErr: `engine: non-numeric operand for "-" (int64, string)`},
		{name: "NULL conjunct before a conjunct that fails",
			sql:     `select count(*) from orders where nullif(order_id, order_id) > 0 and 0 - city > 0`,
			wantErr: `engine: non-numeric operand for "-" (int64, string)`},
		{name: "IN list that fails only after a match or on a NULL operand",
			sql:  `select count(*) from orders where (case when order_id <= 3 then order_id end) in (order_id, 0 - city)`,
			want: "3"},
		{name: "an add error and an argument error on the same row",
			sql:     `select sum(city), sum(0 - city) from orders`,
			wantErr: "engine: sum of non-numeric string"},
		{name: "add errors of two global aggregates on different rows",
			sql: `select sum(case when order_id = 6 then 'a' else 1 end),
				avg(case when order_id = 3 then 'b' else 1 end) from orders`,
			wantErr: "engine: avg of non-numeric string"},
		{name: "a group's accumulator error and an argument error on its first row",
			sql:     `select percentile(price, 2), sum(0 - city) from orders`,
			wantErr: "engine: percentile fraction must be in [0,1]"},
		{name: "join key past a NULL key component",
			sql: `select count(*) from orders o inner join products p
				on nullif(p.product_id, p.product_id) = o.product_id and 0 - p.name = o.order_id`,
			want: "0"},
		{name: "INSERT … SELECT whose projection fails on the last source row",
			exec:    `insert into big select id + 0 * (case when id = 8999 then 'x' else '0' end) from big`,
			execErr: `engine: non-numeric operand for "*" (int64, string)`,
			sql:     `select count(*), max(id) from big`,
			want:    "9000,8999"},
		{name: "CTAS over its memory budget while sealing",
			// The SELECT's lanes are charged about 290 kB, the chunks sealed
			// from them about 590 kB more; the row closures' boxed rows alone
			// overrun.
			exec: `create table c as select id, 'padding-padding-padding-padding-padding-padding-padding-padding-' ||
				cast(id % 128 as varchar) as s from big`,
			budget:  512 << 10,
			sql:     `select count(*) from c`,
			wantErr: `engine: unknown table "c"`},
		{name: "join residual error on left row 3, left-key error on left row 9",
			sql: `select count(*) from big b inner join orders o
				on b.id + 0 * (case when b.id = 9 then 'x' else '0' end) = o.order_id
				and 0 - (case when b.id = 3 then 'x' else '0' end) = 0`,
			wantErr: `engine: non-numeric operand for "-" (int64, string)`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := shapeDB(t)
			// The kernels, then the row closures they are held to, at each
			// parallelism.
			for _, par := range []int{1, 2, 4} {
				e.SetParallelism(par)
				for _, vec := range []bool{true, false} {
					e.SetVectorized(vec)
					if tc.exec != "" {
						ctx := context.Background()
						if tc.budget > 0 {
							ctx = WithMemoryBudget(ctx, tc.budget)
						}
						_, err := e.ExecContext(ctx, tc.exec)
						if tc.budget > 0 && !errors.Is(err, ErrMemoryBudget) || tc.budget == 0 && (err == nil || err.Error() != tc.execErr) {
							t.Fatalf("parallelism=%d vectorized=%v: %s: error = %v", par, vec, tc.exec, err)
						}
					}
					rs, err := e.Query(tc.sql)
					if tc.wantErr != "" {
						if err == nil || err.Error() != tc.wantErr {
							t.Fatalf("parallelism=%d vectorized=%v: error = %v, want %q", par, vec, err, tc.wantErr)
						}
						continue
					}
					if err != nil {
						t.Fatalf("parallelism=%d vectorized=%v: %v", par, vec, err)
					}
					if got := renderRows(rs); got != tc.want {
						t.Fatalf("parallelism=%d vectorized=%v: rows = %q, want %q", par, vec, got, tc.want)
					}
				}
			}
		})
	}
}

// An operator the parser never produces still fails per row, after both
// operands were evaluated.
func TestScopeShapesUnknownOperator(t *testing.T) {
	e := shapeDB(t)
	sel := func(table string, l sqlparser.Expr) *sqlparser.SelectStmt {
		return &sqlparser.SelectStmt{
			Items: []sqlparser.SelectItem{{Expr: &sqlparser.BinaryExpr{Op: "^", L: l, R: &sqlparser.Literal{Val: int64(2)}}}},
			From:  &sqlparser.TableRef{Name: table},
		}
	}
	price := &sqlparser.ColumnRef{Name: "price"}
	if _, err := e.ExecStmt(sel("orders", price)); err == nil || err.Error() != `engine: unknown operator "^"` {
		t.Fatalf("error = %v", err)
	}
	if _, err := e.ExecStmt(sel("orders", &sqlparser.ColumnRef{Name: "nope"})); err == nil || err.Error() != "engine: unknown column nope" {
		t.Fatalf("operand error should win: %v", err)
	}
	if rs, err := e.ExecStmt(sel("empty_orders", price)); err != nil || len(rs.Rows) != 0 {
		t.Fatalf("zero rows: %v, %v", rs, err)
	}
	neg := &sqlparser.SelectStmt{
		Items: []sqlparser.SelectItem{{Expr: &sqlparser.UnaryExpr{Op: "~", X: price}}},
		From:  &sqlparser.TableRef{Name: "orders"},
	}
	if _, err := e.ExecStmt(neg); err == nil || err.Error() != `engine: unknown unary op "~"` {
		t.Fatalf("error = %v", err)
	}
}

func TestScopeShapesInsertValues(t *testing.T) {
	e := shapeDB(t)
	if _, err := e.Exec(`insert into products values
		(10 + 1, upper('wrench') || '-' || cast(2 * 3 as varchar), case when 1 = 1 then 'tools' else 'food' end),
		((select max(product_id) + 2 from products), coalesce(null, 'saw'), null)`); err != nil {
		t.Fatal(err)
	}
	rs := mustQuery(t, e, "select product_id, name, category from products where product_id > 10 order by product_id")
	if got, want := renderRows(rs), "11,WRENCH-6,tools; 12,saw,<nil>"; got != want {
		t.Fatalf("rows = %q, want %q", got, want)
	}
	for sql, wantErr := range map[string]string{
		"insert into products values (product_id, 'x', 'y')":   "engine: unknown column product_id",
		"insert into products values (sum(1), 'x', 'y')":       "engine: aggregate sum not allowed here",
		"insert into products values (1, interval '1' day, 1)": "engine: INTERVAL outside date arithmetic",
	} {
		if _, err := e.Exec(sql); err == nil || err.Error() != wantErr {
			t.Errorf("%s: error = %v, want %q", sql, err, wantErr)
		}
	}
}
