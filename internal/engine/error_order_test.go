package engine

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestGeneratedErrorOrder runs generated queries whose expressions fail on
// chosen rows — each failing site with its own error text — vectorized and
// row-only at parallelism 1, 2 and 4, and requires the row path's rows or
// exact error from every run: the kernels evaluate only the lanes the row
// closures would, and report the error the closures meet first.
func TestGeneratedErrorOrder(t *testing.T) {
	e := NewSeeded(3)
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
	mk("t", []Column{{Name: "id", Type: TInt}, {Name: "a", Type: TInt}, {Name: "f", Type: TFloat}, {Name: "s", Type: TString}},
		9000, func(i int) []Value {
			var a Value = int64(i % 17)
			if i%13 == 5 {
				a = nil
			}
			s := fmt.Sprint(i % 9)
			if i%997 == 500 || i == 3 {
				s = "w"
			}
			return []Value{int64(i), a, float64(i%31) / 4, s}
		})
	mk("u", []Column{{Name: "k", Type: TInt}, {Name: "v", Type: TString}}, 400, func(i int) []Value {
		v := fmt.Sprint(i % 5)
		if i == 77 || i == 301 {
			v = "z"
		}
		return []Value{int64(i * 3), v}
	})

	g := exprGen{rand.New(rand.NewSource(1))}
	for i := 0; i < 400; i++ {
		q := g.query()
		var want string
		for _, par := range []int{1, 2, 4} {
			for _, vec := range []bool{false, true} {
				e.SetParallelism(par)
				e.SetVectorized(vec)
				got := "error: "
				if rs, err := e.Query(q); err != nil {
					got += err.Error()
				} else {
					got = renderRows(rs)
				}
				if par == 1 && !vec {
					want = got
				} else if got != want {
					t.Fatalf("%s\nparallelism=%d vectorized=%v:\n got  %.300s\n want %.300s", q, par, vec, got, want)
				}
			}
		}
	}
}

// exprGen draws expressions over t(id, a, f, s). A failing leaf fails on the
// rows a random modulus picks, with an error text of its own operator. WHERE
// chains AND and OR without parentheses, so the kernels' right-nested
// chains meet the row path's left-nested ones.
type exprGen struct{ r *rand.Rand }

func (g exprGen) num(depth int) string {
	if depth > 0 {
		switch g.r.Intn(5) {
		case 0:
			return "(" + g.num(depth-1) + " + " + g.num(depth-1) + ")"
		case 1:
			return "(" + g.num(depth-1) + " * " + g.num(depth-1) + ")"
		case 2:
			return "(-" + g.num(depth-1) + ")"
		case 3:
			return "(" + g.num(depth-1) + " % 7)"
		}
	}
	switch g.r.Intn(6) {
	case 0:
		return "id"
	case 1:
		return "a"
	case 2:
		return "f"
	case 3:
		return fmt.Sprint(g.r.Intn(10))
	case 4:
		return "(0 - s)"
	}
	str := fmt.Sprintf("(case when id %% %d = %d then 'w' else '1' end)", 50+g.r.Intn(900), g.r.Intn(50))
	return []string{"(0 - " + str + ")", "(" + str + " * 2)", "(0 + " + str + ")", "(" + str + " % 3)", "(-" + str + ")"}[g.r.Intn(5)]
}

func (g exprGen) pred(depth int) string {
	if depth > 0 {
		switch g.r.Intn(4) {
		case 0:
			return "(" + g.pred(depth-1) + " and " + g.pred(depth-1) + ")"
		case 1:
			return "(" + g.pred(depth-1) + " or " + g.pred(depth-1) + ")"
		case 2:
			return "(not " + g.pred(depth-1) + ")"
		}
	}
	switch g.r.Intn(6) {
	case 0:
		return g.num(1) + " " + []string{"=", "<>", "<", ">", "<=", ">="}[g.r.Intn(6)] + " " + g.num(1)
	case 5: // a number, NULL or a string as a truth value
		return []string{"a", "(a % 3)", "s", "nullif(s, '4')"}[g.r.Intn(4)]
	case 1:
		return g.num(1) + " is null"
	case 2:
		return g.num(0) + " in (1, 2, " + g.num(0) + ")"
	case 3:
		return fmt.Sprintf("(not (case when id %% %d = %d then 'w' else id > 9 end))", 50+g.r.Intn(900), g.r.Intn(50))
	}
	return g.num(0) + " between 1 and " + g.num(0)
}

func (g exprGen) query() string {
	where := ""
	if g.r.Intn(4) > 0 {
		where = " where " + g.pred(2)
		for g.r.Intn(2) == 0 {
			where += []string{" and ", " or "}[g.r.Intn(2)] + g.pred(1)
		}
	}
	switch g.r.Intn(8) {
	case 0:
		return "select count(*), sum(" + g.num(2) + "), min(" + g.num(1) + ") from t" + where
	case 1:
		return "select " + g.num(1) + " % 5, count(*), sum(" + g.num(1) + ") from t" + where +
			" group by " + g.num(1) + " % 5, " + g.num(0) + " % 3 order by 1, 2, 3"
	case 2:
		return fmt.Sprintf("select id, %s, %s from t%s limit %d", g.num(1), g.pred(0), where, 1+g.r.Intn(3000))
	case 3:
		return "select id, " + g.num(1) + " from t" + where
	case 4:
		return fmt.Sprintf("select count(*), sum(case when id %% %d = %d then 'w' else '1' end), sum(%s) from t%s",
			50+g.r.Intn(900), g.r.Intn(50), g.num(1), where)
	case 5:
		return "select count(*), sum(d.id) from (select id, a, f, s from t" + where + ") d where " + g.pred(1)
	case 6:
		return "select count(*), sum(t.id), count(u.k) from t left join u on t.id = u.k and nullif(t.a, 3) = u.k % 17 and " +
			g.pred(0) + where
	}
	key, ukey := "t.id", "u.k"
	if g.r.Intn(2) == 0 {
		key = "t.id + 0 * " + g.num(0)
	}
	if g.r.Intn(2) == 0 {
		ukey = "u.k - (0 - u.v)"
	}
	on := key + " = " + ukey
	if g.r.Intn(2) == 0 {
		on += " and " + g.pred(1)
	}
	if g.r.Intn(2) == 0 {
		return "select count(*), sum(t.a) from t inner join u on " + on + where
	}
	return "select count(*), sum(t.a) from u inner join t on " + on + where
}
