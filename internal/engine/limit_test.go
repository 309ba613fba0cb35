package engine

import (
	"errors"
	"fmt"
	"testing"
)

// Bounded scans: a streamable block hands its LIMIT to the scan. These
// tests pin the answers (the first n rows of the unbounded result, in every
// execution mode), the validation that now precedes the scan, and the work
// the bound saves: chunk loads, budget charges, RowsScanned.

const limitTotal = 3*parallelMinRows + 77 // 48 sealed chunks plus a tail

// limitModes is SetVectorized on/off × SetParallelism 1/4.
var limitModes = []struct {
	vec bool
	par int
}{{true, 1}, {true, 4}, {false, 1}, {false, 4}}

func forEachLimitMode(t *testing.T, e *Engine, fn func(label string)) {
	t.Helper()
	for _, m := range limitModes {
		e.SetVectorized(m.vec)
		e.SetParallelism(m.par)
		fn(fmt.Sprintf("vec=%v par=%d", m.vec, m.par))
	}
	e.SetVectorized(true)
	e.SetParallelism(0)
}

// rowReference answers sql on the serial row path — the evaluator the
// kernels are tested against — with no LIMIT anywhere in it.
func rowReference(t *testing.T, e *Engine, sql string) *ResultSet {
	t.Helper()
	e.SetVectorized(false)
	e.SetParallelism(1)
	rs := mustQuery(t, e, sql)
	e.SetVectorized(true)
	e.SetParallelism(0)
	return rs
}

func firstRows(rs *ResultSet, n int) *ResultSet {
	return &ResultSet{Cols: rs.Cols, Rows: rs.Rows[:min(n, len(rs.Rows))]}
}

func TestLimitPushdownEquivalence(t *testing.T) {
	e := newPersistEngine(t, limitTotal)
	if err := e.CreateTable("dim", []Column{{Name: "k", Type: TInt}, {Name: "label", Type: TString}}); err != nil {
		t.Fatal(err)
	}
	dim := make([][]Value, 200)
	for k := range dim {
		dim[k] = []Value{int64(k), fmt.Sprintf("k%03d", k)}
	}
	if err := e.InsertRows("dim", dim); err != nil {
		t.Fatal(err)
	}

	filters := []struct{ name, where string }{
		{"none", ""},
		{"selectivity 0", " where d < 0"},
		{"selectivity 1e-4", " where f = 7777.25"},
		{"selectivity 0.5", " where d % 2 = 0"},
		{"selectivity 1", " where d >= 0"},
		{"zone-pruned", " where t.r >= 100"},
		// Impure, so every mode runs the row closures: over a scratch row with
		// no lane filled, then with every lane filled.
		{"reads no column", " where rand() < 2"},
		{"reads every column", " where rand() < 2 and s <> '' and r >= 0 and d % 5 > 0 and f >= 0 and (n is null or n >= 0) and (m is null or m <> 'm1')"},
	}
	selects := []string{"select * from t", "select s, r, d * 2 as d2, f + n as fn, m from t",
		// Shapes with no kernel (vnScalar) over dict, RLE, delta, raw and TAny lanes.
		"select case when r % 2 = 0 then s else m end as c, coalesce(n, d) as nd, s || '-' || r as sr, upper(s) as us, " +
			"abs(d - 100) + f as a, coalesce(m, 'none') as cm, length(s) * n as ln from t"}
	bounds := []int{0, 1, chunkRows - 1, chunkRows, chunkRows + 1, limitTotal, limitTotal + 1}
	for _, f := range filters {
		for _, sel := range selects {
			ref := rowReference(t, e, sel+f.where)
			forEachLimitMode(t, e, func(mode string) {
				for _, n := range bounds {
					sql := fmt.Sprintf("%s%s limit %d", sel, f.where, n)
					encRowsEqual(t, mode+" "+sql, firstRows(ref, n), mustQuery(t, e, sql))
				}
			})
		}
	}

	// Blocks inside larger statements keep their own bound.
	evens := rowReference(t, e, "select d, f from t where d % 2 = 0")
	low := rowReference(t, e, "select d, f from t where d < 100")
	high := rowReference(t, e, "select d, f from t where d >= 100")
	union := &ResultSet{Rows: append(append([][]Value{}, low.Rows[:3]...), high.Rows[:4]...)}
	joined := rowReference(t, e, "select a.f, b.label from t a inner join dim b on a.d = b.k where a.d % 2 = 0")
	forEachLimitMode(t, e, func(mode string) {
		encRowsEqual(t, mode+" derived table", firstRows(evens, 300),
			mustQuery(t, e, "select d, f from (select d, f from t where d % 2 = 0 limit 300) x"))
		encRowsEqual(t, mode+" bounded over a derived table", firstRows(evens, 5),
			mustQuery(t, e, "select d, f from (select d, f from t where d % 2 = 0) x limit 5"))
		encRowsEqual(t, mode+" union all", union, mustQuery(t, e,
			"select d, f from t where d < 100 limit 3 union all select d, f from t where d >= 100 limit 4"))
		encRowsEqual(t, mode+" join", firstRows(joined, 300), mustQuery(t, e,
			"select a.f, b.label from t a inner join dim b on a.d = b.k where a.d % 2 = 0 limit 300"))

		for _, stmt := range []string{
			"drop table if exists dst", "drop table if exists ctas",
			"create table dst (d int, f double)",
			"insert into dst select d, f from t where d % 2 = 0 limit 300",
			"create table ctas as select d, f from t where d % 2 = 0 limit 300",
		} {
			if _, err := e.Exec(stmt); err != nil {
				t.Fatalf("%s %s: %v", mode, stmt, err)
			}
		}
		encRowsEqual(t, mode+" insert select", firstRows(evens, 300), mustQuery(t, e, "select d, f from dst"))
		encRowsEqual(t, mode+" create table as", firstRows(evens, 300), mustQuery(t, e, "select d, f from ctas"))
	})

	derivedSourceMatrix(t, e)

	// An impure block is not bounded: it draws for every source row, so the
	// engine RNG ends where it does without the LIMIT and later scrambles
	// are unchanged.
	for _, m := range limitModes {
		with, without := newPersistEngine(t, limitTotal), newPersistEngine(t, limitTotal)
		for _, x := range []*Engine{with, without} {
			x.SetVectorized(m.vec)
			x.SetParallelism(m.par)
		}
		all := mustQuery(t, without, "select d, f from t where rand() < 0.5")
		encRowsEqual(t, "impure block", firstRows(all, 3), mustQuery(t, with, "select d, f from t where rand() < 0.5 limit 3"))
		encRowsEqual(t, "next rand() after an impure block",
			mustQuery(t, without, "select rand()"), mustQuery(t, with, "select rand()"))
	}
}

// derivedSourceMatrix reads a derived table — boxed rows wrapped as a chunk
// source — through every block shape, at sizes around the chunk boundaries and
// above parallelMinRows, with columns of every storage kind: int d and n
// (NULLs), float f, string s, mixed-type m (stored TAny), bool b, all-NULL z.
// Each result must equal the serial row closures' row for row, in order.
func derivedSourceMatrix(t *testing.T, e *Engine) {
	t.Helper()
	for _, n := range []int{0, 1, chunkRows - 1, chunkRows, chunkRows + 1, 5000} {
		x := fmt.Sprintf("(select d, f, s, m, n, d %% 2 = 0 as b, null as z from t limit %d) x", n)
		sqls := []string{
			"select count(*), count(z), count(m), count(b), sum(d), sum(f), avg(n), min(s), max(s) from " + x,
			"select s, b, count(*), sum(f), count(m), count(z), max(n) from " + x + " group by s, b",
			"select z, m is null, count(*) from " + x + " where f > 3 group by z, m is null",
			"select d, f, s, m, n, b, z from " + x + " where d % 3 = 0",
			"select d + 1, f * 2, s || '-', not b, z is null, coalesce(m, 'none') from " + x,
			"select s, d from " + x + " order by f * -1, d",
			"select distinct s, b, z from " + x,
			"select d, sum(f) over (partition by s), count(m) over (partition by b) from " + x + " where d < 50",
			"select d, m from " + x + " where b limit 7",
			"select x.d, x.s, x.m, dim.label from " + x + " inner join dim on x.d = dim.k where x.f < 4000",
			"select dim.label, x.f, x.b, x.z from dim left join " + x + " on dim.k = x.d and x.f < 300",
			"select a.d, b.m from " + x + " inner join (select d, m from t limit 300) b on x.f = b.d + 0.25 inner join " +
				"(select d from t limit 1) a on a.d <= x.d",
			"select s, count(*), sum(f), count(z) from (select s, f, z from " + x + " where d % 2 = 0) y group by s",
			fmt.Sprintf("select s, count(*), sum(d) from (select d, s from t limit %d union all select d, s from t where d > 100 limit %d) u group by s", n, n),
		}
		for _, sql := range sqls {
			ref := rowReference(t, e, sql)
			for _, m := range limitModes {
				e.SetVectorized(m.vec)
				e.SetParallelism(m.par)
				label := fmt.Sprintf("vec=%v par=%d %s", m.vec, m.par, sql)
				if got := mustQuery(t, e, sql); m.par == 1 {
					encRowsEqual(t, label, ref, got)
				} else {
					assertSameResult(t, label, ref, got) // float sums reassociate across workers
				}
			}
		}
	}
	// No FROM at all: the single empty row is a source too.
	for _, sql := range []string{"select 1 + 1, 'a' || 'b', 2 > 1", "select (select max(d) from t), 1 where 1 = 1", "select 1 where 1 = 0"} {
		ref := rowReference(t, e, sql)
		forEachLimitMode(t, e, func(mode string) { encRowsEqual(t, mode+" "+sql, ref, mustQuery(t, e, sql)) })
	}
	e.SetVectorized(true)
	e.SetParallelism(0)
}

func TestLimitValidation(t *testing.T) {
	e := shapeDB(t)
	for _, tc := range []struct {
		limit string
		rows  int // -1: ErrBadLimit
	}{
		{"1.5", 1}, {"'3'", 3}, {"(select 2)", 2}, {"1 + 1", 2}, {"0", 0},
		{"order_id", -1}, {"orders.order_id + 1", -1}, {"-1", -1}, {"null", -1}, {"'many'", -1},
	} {
		rs, err := e.Query("select order_id from orders limit " + tc.limit)
		switch {
		case tc.rows < 0 && !errors.Is(err, ErrBadLimit):
			t.Errorf("limit %s: error = %v, want ErrBadLimit", tc.limit, err)
		case tc.rows >= 0 && (err != nil || len(rs.Rows) != tc.rows):
			t.Errorf("limit %s: %d rows, error %v; want %d rows", tc.limit, len(rs.Rows), err, tc.rows)
		}
	}
	_, err := e.Query("select * from orders limit order_id")
	if err == nil || err.Error() != "engine: LIMIT must be a constant non-negative integer" {
		t.Fatalf("error = %v", err)
	}
}

// limitWorkEngine is a 200k-row table, large next to a 1 MiB budget.
func limitWorkEngine(t *testing.T) *Engine {
	t.Helper()
	e := NewSeeded(7)
	if err := e.CreateTable("t", []Column{{Name: "a", Type: TInt}, {Name: "b", Type: TFloat}}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, e1Rows)
	for i := range rows {
		rows[i] = []Value{int64(i), float64(i) / 8}
	}
	if err := e.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestLimitChargesOnlyWhatItReturns(t *testing.T) {
	e := limitWorkEngine(t)
	e.SetMemoryBudget(1 << 20)
	if _, err := e.Query("select a from t"); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("unbounded scan under a 1 MiB budget: error = %v, want ErrMemoryBudget", err)
	}
	forEachLimitMode(t, e, func(mode string) {
		for sql, want := range map[string]int{
			"select * from t limit 0":                    0,
			"select a from t limit 5":                    5,
			"select a, b * 2 from t where a >= 100":      -1, // no bound: still over budget
			"select a from t where a % 100 = 99 limit 5": 5,
		} {
			rs, err := e.Query(sql)
			if want < 0 {
				if !errors.Is(err, ErrMemoryBudget) {
					t.Errorf("%s %s: error = %v, want ErrMemoryBudget", mode, sql, err)
				}
				continue
			}
			if err != nil || len(rs.Rows) != want {
				t.Errorf("%s %s: error %v, want %d rows", mode, sql, err, want)
			}
		}
	})
}

func TestLimitRowsScanned(t *testing.T) {
	e := limitWorkEngine(t)
	if err := e.CreateTable("u", []Column{{Name: "a", Type: TInt}}); err != nil {
		t.Fatal(err)
	}
	urows := make([][]Value, 1000)
	for i := range urows {
		urows[i] = []Value{int64(i)}
	}
	if err := e.InsertRows("u", urows); err != nil {
		t.Fatal(err)
	}
	scanned := func(sql string) int64 { return mustQuery(t, e, sql).RowsScanned }
	forEachLimitMode(t, e, func(mode string) {
		if got := scanned("select * from t limit 0"); got != 0 {
			t.Errorf("%s limit 0: RowsScanned = %d, want 0", mode, got)
		}
		// A derived table's rows are never counted, only the base rows its
		// own block read (one zone-pruned chunk and the tail here), and a
		// bound over it takes nothing back.
		const derived = "(select * from t where a < 10) d"
		pruned := int64(chunkRows + e1Rows%chunkRows)
		for sql, want := range map[string]int64{
			"select count(*) from " + derived:                                pruned,
			"select count(*) from " + derived + " inner join u on d.a = u.a": pruned + 1000,
			"select count(*) from u inner join " + derived + " on d.a = u.a": pruned + 1000,
			"select * from " + derived + " limit 5":                          pruned,
		} {
			if got := scanned(sql); got != want {
				t.Errorf("%s %s: RowsScanned = %d, want %d", mode, sql, got, want)
			}
		}
		// No bound is pushed into these: the whole table counts, as before.
		for _, sql := range []string{
			"select a from t",
			"select count(*) from t limit 1",
			"select a from t order by a limit 5",
			"select distinct a from t limit 5",
			"select a from t where rand() < 2 limit 5",
		} {
			if got := scanned(sql); got != e1Rows {
				t.Errorf("%s %s: RowsScanned = %d, want %d", mode, sql, got, e1Rows)
			}
		}
		// A zone-pruned, bounded scan counts the chunks it visited.
		if got := scanned("select a from t where t.a >= 100000 limit 5"); got == 0 || got > 4*chunkRows+int64(e1Rows%chunkRows) {
			t.Errorf("%s pruned bounded scan: RowsScanned = %d", mode, got)
		}
	})
	// Serial scans stop at the first chunk that fills the bound; parallel
	// ones visit one chunk per worker, the same ones every time.
	e.SetParallelism(1)
	if got := scanned("select * from t limit 5"); got != chunkRows {
		t.Errorf("serial limit 5: RowsScanned = %d, want %d", got, chunkRows)
	}
	if got := scanned("select * from t where a + 0 >= 1000 limit 5"); got != 4*chunkRows {
		t.Errorf("serial filtered limit 5: RowsScanned = %d, want %d", got, 4*chunkRows)
	}
	// A column-vs-literal conjunct zone-prunes the three chunks before it.
	if got := scanned("select * from t where a >= 1000 limit 5"); got != chunkRows {
		t.Errorf("serial pruned limit 5: RowsScanned = %d, want %d", got, chunkRows)
	}
	e.SetParallelism(4)
	if got := scanned("select * from t limit 5"); got != 4*chunkRows {
		t.Errorf("parallel limit 5: RowsScanned = %d, want %d", got, 4*chunkRows)
	}
}

func TestLimitLoadsOnlyTheChunksItNeeds(t *testing.T) {
	ownDataDir(t)
	e := limitWorkEngine(t)
	if _, err := e.AttachDataDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e.SetParallelism(1)
	for _, vec := range []bool{true, false} {
		e.SetVectorized(vec)
		e.DropChunkCache()
		before := e.ChunkCache()
		for _, sql := range []string{"select * from t limit 0", "select * from t limit -1", "select * from t limit a"} {
			_, _ = e.Query(sql)
		}
		if st := e.ChunkCache(); st.Misses != before.Misses || st.Hits != before.Hits {
			t.Fatalf("vec=%v: limit 0 and rejected limits touched the chunk cache: %+v -> %+v", vec, before, st)
		}
		if rs := mustQuery(t, e, "select * from t limit 5"); len(rs.Rows) != 5 {
			t.Fatalf("vec=%v: limit 5 returned %d rows", vec, len(rs.Rows))
		}
		if st := e.ChunkCache(); st.Entries != 1 {
			t.Fatalf("vec=%v: limit 5 loaded %d chunks, want 1", vec, st.Entries)
		}
	}
}
