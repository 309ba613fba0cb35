package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
)

// The vectorized join hashes whichever input has fewer rows. These tests pin
// that the choice is invisible: every result equals the row-path join
// (SetVectorized(false), parallelism 1) row for row, in order, with the same
// dynamic types — for all four join types, both hash directions, every key
// class, and the row fallbacks.

// checkAgainstRowPath runs sql on the row path at parallelism 1 and requires
// the other three SetVectorized × SetParallelism modes to return the same
// rows in the same order. It returns the reference result.
func checkAgainstRowPath(t *testing.T, e *Engine, label, sql string) *ResultSet {
	t.Helper()
	defer e.SetVectorized(true)
	defer e.SetParallelism(0)
	e.SetVectorized(false)
	e.SetParallelism(1)
	ref, err := e.Query(sql)
	if err != nil {
		t.Fatalf("%s: row path: %v", label, err)
	}
	for _, vec := range []bool{true, false} {
		for _, par := range []int{1, 4} {
			e.SetVectorized(vec)
			e.SetParallelism(par)
			rs, err := e.Query(sql)
			if err != nil {
				t.Fatalf("%s: vectorized=%v parallelism=%d: %v", label, vec, par, err)
			}
			encRowsEqual(t, fmt.Sprintf("%s: vectorized=%v parallelism=%d vs the row path", label, vec, par), ref, rs)
		}
	}
	return ref
}

var joinTypes = []string{"inner join", "left join", "right join", "full join"}

// sideTable creates table name(k int, v int, s varchar) with n rows: k cycles
// through mod values, every 17th key is NULL, v is the row number.
func sideTable(t *testing.T, e *Engine, name string, n, mod int) {
	t.Helper()
	if err := e.CreateTable(name, []Column{
		{Name: "k", Type: TInt}, {Name: "v", Type: TInt}, {Name: "s", Type: TString},
	}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, n)
	for i := range rows {
		var k Value = int64(i % mod)
		if i%17 == 16 {
			k = nil
		}
		rows[i] = []Value{k, int64(i), fmt.Sprintf("s%d", i%7)}
	}
	if err := e.InsertRows(name, rows); err != nil {
		t.Fatal(err)
	}
}

func TestJoinBuildSideEquivalence(t *testing.T) {
	e := NewSeeded(3)
	// Sizes straddle parallelMinRows so the scanned side fans out at
	// parallelism 4; u* have unique keys, d* repeat each key 6 times.
	const small, big = 500, 4200
	sideTable(t, e, "us", small, small)
	sideTable(t, e, "ds", small, small/6)
	sideTable(t, e, "ub", big, big)
	sideTable(t, e, "db", big, big/6)
	sideTable(t, e, "ub2", big, big)
	sideTable(t, e, "db2", big, big/6)
	sideTable(t, e, "none", 0, 1)

	pairs := []struct{ name, l, r string }{
		// left smaller: the left input is hashed
		{"small-left dup-scanned", "us", "db"},
		{"small-left dup-hashed", "ds", "ub"},
		{"small-left dup-both", "ds", "db"},
		// equal sizes: ties hash the right input
		{"equal dup-scanned", "db", "ub2"},
		{"equal dup-hashed", "ub", "db2"},
		{"equal dup-both", "db", "db2"},
		// left larger: the right input is hashed
		{"small-right dup-scanned", "db", "us"},
		{"small-right dup-hashed", "ub", "ds"},
		{"small-right dup-both", "db", "ds"},
		{"empty left", "none", "ub"},
		{"empty right", "ub", "none"},
		{"both empty", "none", "none"},
	}
	for _, p := range pairs {
		for _, jt := range joinTypes {
			for _, res := range []string{"", " and l.v % 3 <> r.v % 5"} {
				sql := fmt.Sprintf("select l.k, l.v, r.k, r.v, r.s from %s l %s %s r on l.k = r.k%s", p.l, jt, p.r, res)
				checkAgainstRowPath(t, e, p.name+" "+jt+res, sql)
			}
		}
	}

	// The left input is itself a join output (its chunks hold one-to-many
	// rows) or a derived table (row-major, chunkified in place), smaller and
	// larger than the right input.
	for _, jt := range joinTypes {
		for _, q := range []string{
			"select a.v, b.v, c.v from us a inner join ds b on a.k = b.k %s ub c on b.v = c.k",
			"select a.v, b.v, c.v from db a inner join us b on a.k = b.k %s ds c on a.k = c.k and b.v <> c.v",
			"select d.k, d.n, r.v from (select k, count(*) as n from ds group by k) d %s ub r on d.k = r.k",
			"select d.v, r.v from (select k, v from ub where v %% 2 = 0) d %s us r on d.k = r.k and d.v > r.v",
			// Shapes with no kernel (vnScalar) read a join-output chunk's lanes
			// through its row references.
			"select case when a.v %% 2 = 0 then a.s else c.s end, coalesce(c.k, a.k, -1), a.s || '-' || coalesce(c.s, '?') " +
				"from us a inner join ds b on a.k = b.k %s ub c on b.v = c.k where coalesce(c.v, 0) + a.v >= 0",
			"select coalesce(c.s, 'none'), count(*), sum(case when a.v %% 2 = 0 then a.v else c.v end) " +
				"from us a inner join ds b on a.k = b.k %s ub c on b.v = c.k group by coalesce(c.s, 'none')",
		} {
			sql := fmt.Sprintf(q, jt)
			checkAgainstRowPath(t, e, sql, sql)
		}
	}
}

// keyCase is one pair of key columns. Every case runs in both hash
// directions: NULL-key padding rows (which match nothing and keep the
// column's storage kind) make first the right and then the left input the
// larger one.
type keyCase struct {
	name        string
	left, right []Value
	inner       int // matching pairs, pinned
	// groups and groupsWithS: distinct keys of left ++ right, alone and
	// paired with s (TestGroupKeyClasses), pinned.
	groups, groupsWithS int
}

func loadKeyCase(t *testing.T, c keyCase, padLeft, padRight int) *Engine {
	t.Helper()
	e := NewSeeded(5)
	for _, side := range []struct {
		name string
		keys []Value
		pad  int
	}{{"l", c.left, padLeft}, {"r", c.right, padRight}} {
		if err := e.CreateTable(side.name, []Column{{Name: "k", Type: TAny}, {Name: "tag", Type: TInt}}); err != nil {
			t.Fatal(err)
		}
		rows := make([][]Value, 0, len(side.keys)+side.pad)
		for i, k := range side.keys {
			rows = append(rows, []Value{k, int64(i)})
		}
		for i := 0; i < side.pad; i++ {
			rows = append(rows, []Value{nil, int64(-1 - i)})
		}
		if err := e.InsertRows(side.name, rows); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// keyCases is every key class a join or a GROUP BY must keep apart or
// together.
func keyCases() []keyCase {
	// Per-chunk dictionaries: each sealed chunk of the right column holds
	// five distinct strings, a different five per chunk.
	var rawStrs, dictStrs []Value
	for i := 0; i < 3*chunkRows; i++ {
		dictStrs = append(dictStrs, fmt.Sprintf("k%d", i%5+5*(i/chunkRows)))
	}
	for i := 0; i < 20; i++ {
		rawStrs = append(rawStrs, fmt.Sprintf("k%d", i))
	}
	two53 := int64(1) << 53
	return []keyCase{
		{"int = integral float", []Value{int64(1), int64(2), int64(3)}, []Value{1.0, 2.5, 3.0, 1.0}, 3, 4, 6},
		{"negative zero = zero", []Value{math.Copysign(0, -1), 0.0}, []Value{int64(0)}, 2, 1, 2},
		{"non-integral floats", []Value{0.5, 1.25, 0.5}, []Value{0.5, 2.25}, 2, 3, 4},
		{"NaN = NaN, whatever its bits", []Value{math.NaN(), 1.5}, []Value{math.NaN(), math.Copysign(math.NaN(), -1)}, 2, 2, 3},
		{"int64 extremes", []Value{int64(math.MinInt64), int64(math.MaxInt64)},
			[]Value{int64(math.MaxInt64), int64(math.MinInt64), -9223372036854775808.0}, 3, 2, 4},
		{"2^53+1 vs its float neighbour", []Value{two53 + 1, two53}, []Value{float64(two53)}, 1, 2, 3},
		{"floats outside int64 never fold", []Value{9223372036854775808.0, math.Inf(1), math.Inf(-1), 1e300},
			[]Value{int64(math.MaxInt64), int64(math.MinInt64), math.Inf(1), 9223372036854775808.0}, 2, 6, 8},
		{"raw strings = dict-coded strings", rawStrs, dictStrs, 3 * chunkRows, 20, 35},
		{"bools", []Value{true, false, true}, []Value{true, true}, 4, 2, 3},
		{"ints and strings in one column", []Value{int64(1), "1", "x", int64(2), 2.0}, []Value{"x", int64(1), "2", 2.0, "1"}, 5, 5, 7},
		{"bool never equals int", []Value{true, int64(1)}, []Value{int64(1), "true"}, 1, 3, 4},
		{"NULL keys on both sides", []Value{nil, int64(1), nil}, []Value{int64(1), nil, nil, int64(1)}, 2, 2, 4},
	}
}

func TestJoinKeyClasses(t *testing.T) {
	cases := keyCases()
	for _, c := range cases {
		for _, dir := range []struct {
			name              string
			padLeft, padRight int
		}{{"hash left", 0, len(c.left) + len(c.right)}, {"hash right", len(c.left) + len(c.right), 0}} {
			e := loadKeyCase(t, c, dir.padLeft, dir.padRight)
			for _, jt := range joinTypes {
				label := c.name + ", " + dir.name + ", " + jt
				ref := checkAgainstRowPath(t, e, label, "select l.tag, r.tag from l "+jt+" r on l.k = r.k")
				if jt == "inner join" && len(ref.Rows) != c.inner {
					t.Fatalf("%s: %d matching pairs, want %d", label, len(ref.Rows), c.inner)
				}
			}
		}
	}
}

// TestGroupKeyClasses runs keyCases through GROUP BY: the keys alone, and
// paired with s, a dictionary-coded string. The row closures and the kernels
// find groups in the same key table, so their agreement alone proves nothing:
// each case pins its number of groups. The keys repeat in four regions of
// 2 048 rows (the first holds half of them), so at parallelism 4 each worker
// sees them and the merge both adds groups and folds into existing ones. A
// group is named by its first tag, since NaN keys never compare equal.
func TestGroupKeyClasses(t *testing.T) {
	const region = 2048
	for _, c := range keyCases() {
		keys := append(append([]Value{}, c.left...), c.right...)
		e := NewSeeded(5)
		if err := e.CreateTable("g", []Column{{Name: "k", Type: TAny}, {Name: "tag", Type: TInt}, {Name: "s", Type: TString}}); err != nil {
			t.Fatal(err)
		}
		var rows [][]Value
		for r := 0; r < 4; r++ {
			part := keys
			if r == 0 {
				part = keys[:len(keys)/2]
			}
			for i, k := range part {
				rows = append(rows, []Value{k, int64(r*len(keys) + i), fmt.Sprintf("s%d", i%2)})
			}
			// Padding rows keep the key column's storage kind and fail WHERE.
			for len(rows) < (r+1)*region {
				rows = append(rows, []Value{nil, int64(-len(rows)), fmt.Sprintf("s%d", len(rows)%2)})
			}
		}
		if err := e.InsertRows("g", rows); err != nil {
			t.Fatal(err)
		}
		if enc := mustSealed(t, e, "g").cols[2].enc; enc != encDict {
			t.Fatalf("%s: s is stored with encoding %d, want a dictionary", c.name, enc)
		}
		for _, q := range []struct {
			sql    string
			groups int
		}{
			{"select min(tag), count(*), sum(tag) from g where tag >= 0 group by k", c.groups},
			{"select s, min(tag), count(*), sum(tag) from g where tag >= 0 group by k, s", c.groupsWithS},
		} {
			ref := checkAgainstRowPath(t, e, c.name+": "+q.sql, q.sql)
			if len(ref.Rows) != q.groups {
				t.Errorf("%s: %s: %d groups, want %d", c.name, q.sql, len(ref.Rows), q.groups)
			}
		}
	}
}

// Composite keys always hash as encoded bytes. A key or residual whose kernel
// errors (NOT over a string, which the row closures short-circuit past) goes
// through its row fallback: keys are encoded into the same table, candidate
// pairs are re-checked in order.
func TestJoinCompositeAndFallbackKeys(t *testing.T) {
	e := NewSeeded(9)
	sideTable(t, e, "a", 300, 40)
	sideTable(t, e, "b", 900, 40)
	for _, jt := range joinTypes {
		for _, q := range []string{
			"select l.v, r.v from a l %s b r on l.k = r.k and l.s = r.s",
			"select l.v, r.v from b l %s a r on l.k = r.k and l.s = r.s and l.v < r.v * 4",
			// fallback on the scanned side, then on the hashed side
			"select l.v, r.v from a l %s b r on l.k = r.k and (l.v >= 0 or not l.s) = (r.v >= 0)",
			"select l.v, r.v from b l %s a r on l.k = r.k and (l.v >= 0 or not l.s) = (r.v >= 0)",
			// fallback in the residual
			"select l.v, r.v from a l %s b r on l.k = r.k and (r.v >= 0 or not l.s)",
			"select l.v, r.v from b l %s a r on l.k = r.k and (r.v >= 0 or not l.s)",
		} {
			sql := fmt.Sprintf(q, jt)
			checkAgainstRowPath(t, e, sql, sql)
		}
	}
}

// Errors surface in the row path's order whichever side is hashed: right
// keys first, then per left row its key and its pairs' residuals.
func TestJoinErrorOrderBothSides(t *testing.T) {
	e := NewSeeded(11)
	sideTable(t, e, "a", 300, 40)
	sideTable(t, e, "b", 900, 40)
	for _, q := range []string{
		"select count(*) from %s l inner join %s r on l.k + (not l.s) = r.k",
		"select count(*) from %s l inner join %s r on l.k = r.k + (not r.s)",
		"select count(*) from %s l inner join %s r on l.k + (not l.s) = r.k + (not r.s)",
		"select count(*) from %s l inner join %s r on l.k = r.k and not r.s",
		"select count(*) from %s l inner join %s r on l.k + (case when l.v > 200 then not l.s else 0 end) = r.k and (l.v < 100 or not r.s)",
	} {
		for _, sides := range [][2]string{{"a", "b"}, {"b", "a"}} {
			sql := fmt.Sprintf(q, sides[0], sides[1])
			e.SetVectorized(false)
			_, want := e.Query(sql)
			e.SetVectorized(true)
			_, got := e.Query(sql)
			if want == nil || got == nil || want.Error() != got.Error() {
				t.Fatalf("%s:\nrow path:   %v\nvectorized: %v", sql, want, got)
			}
		}
	}
}

// A build over the budget fails with a typed BudgetError before the table is
// allocated; a small input joined to a large one needs a budget proportional
// to the small one.
func TestJoinBudgetChargesTheHashedSide(t *testing.T) {
	e := NewSeeded(13)
	sideTable(t, e, "sample", 500, 500)
	sideTable(t, e, "base", 200_000, 200_000)

	const q = "select count(*), sum(r.v) from %s l inner join %s r on l.k = r.k"
	// 500 hashed rows: 2 KB of links + 16 KB of slots, about 500 candidate
	// pairs and output references. 200 000 × 16 B would be 3.2 MB.
	ctx := WithMemoryBudget(context.Background(), 256<<10)
	for _, sides := range [][2]string{{"sample", "base"}, {"base", "sample"}} {
		rs, err := e.QueryContext(ctx, fmt.Sprintf(q, sides[0], sides[1]))
		if err != nil {
			t.Fatalf("%v under a 256 KiB budget: %v", sides, err)
		}
		if n := rs.Rows[0][0].(int64); n != 471 {
			t.Fatalf("%v: %d pairs, want 471", sides, n)
		}
	}

	// base ⋈ base hashes 200 000 rows: 800 KB of links alone.
	_, err := e.QueryContext(ctx, fmt.Sprintf(q, "base", "base"))
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("want *BudgetError, got %v", err)
	}
	if be.Used <= be.Limit || be.Used > 4<<20 {
		t.Fatalf("budget error should report the refused reservation: %+v", be)
	}
}
