package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"verdictdb/internal/sqlparser"
)

// bigDB builds an engine with one wide-ish table large enough that a query
// spans many chunks and poll intervals.
func bigDB(t testing.TB, rows int) *Engine {
	t.Helper()
	e := NewSeeded(7)
	if err := e.CreateTable("t", []Column{
		{Name: "k", Type: TInt},
		{Name: "g", Type: TInt},
		{Name: "v", Type: TFloat},
	}); err != nil {
		t.Fatal(err)
	}
	batch := make([][]Value, 0, 4096)
	for i := 0; i < rows; i++ {
		batch = append(batch, []Value{int64(i), int64(i % 97), float64(i%1000) / 7})
		if len(batch) == cap(batch) {
			if err := e.InsertRows("t", batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if len(batch) > 0 {
		if err := e.InsertRows("t", batch); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestQueryContextCancelled(t *testing.T) {
	e := bigDB(t, 60_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.QueryContext(ctx, "select g, sum(v) from t group by g")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// The engine must keep serving after an aborted query.
	rs, err := e.QueryContext(context.Background(), "select count(*) from t")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := ToInt(rs.Rows[0][0]); n != 60_000 {
		t.Fatalf("count after cancel: %d", n)
	}
}

func TestQueryContextCancelMidFlight(t *testing.T) {
	e := bigDB(t, 120_000)
	// A cross join of the table with itself is far too big to finish; the
	// per-row tick in the nested-loop inner closure must observe the cancel.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.QueryContext(ctx, "select count(*) from t a inner join t b on a.g < b.g")
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("want context.Canceled, got %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel did not stop the query")
	}
	// Identical subsequent execution: the aborted query left no state behind.
	a := mustQuery(t, e, "select g, sum(v) as s from t group by g order by g")
	b := mustQuery(t, e, "select g, sum(v) as s from t group by g order by g")
	if len(a.Rows) != len(b.Rows) || len(a.Rows) != 97 {
		t.Fatalf("rows: %d vs %d", len(a.Rows), len(b.Rows))
	}
	for r := range a.Rows {
		av, _ := ToFloat(a.Rows[r][1])
		bv, _ := ToFloat(b.Rows[r][1])
		if math.Float64bits(av) != math.Float64bits(bv) {
			t.Fatalf("row %d: %v vs %v", r, av, bv)
		}
	}
}

func TestQueryContextDeadline(t *testing.T) {
	e := bigDB(t, 120_000)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := e.QueryContext(ctx, "select count(*) from t a inner join t b on a.g < b.g")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
}

// Accumulator sketch state is charged against the gauge: a DISTINCT key
// set or a percentile buffer over one giant group blows a tiny budget even
// though the group hash table itself stays a single entry.
func TestMemoryBudgetAbortsAccumulatorGrowth(t *testing.T) {
	e := bigDB(t, 50_000)
	for _, q := range []string{
		"select count(distinct k) from t",
		"select sum(distinct k) from t",
		"select median(v) from t",
		"select percentile(v, 0.9) from t",
	} {
		ctx := WithMemoryBudget(context.Background(), 64<<10)
		if _, err := e.QueryContext(ctx, q); !errors.Is(err, ErrMemoryBudget) {
			t.Errorf("%s: want ErrMemoryBudget, got %v", q, err)
		}
		ctx = WithMemoryBudget(context.Background(), 1<<30)
		if _, err := e.QueryContext(ctx, q); err != nil {
			t.Errorf("%s under generous budget: %v", q, err)
		}
	}
}

func TestMemoryBudgetAbortsGroupBlowup(t *testing.T) {
	e := bigDB(t, 50_000)
	// Group by a near-unique key under a tiny budget: the group hash table
	// alone blows past it.
	ctx := WithMemoryBudget(context.Background(), 64<<10)
	_, err := e.QueryContext(ctx, "select k, sum(v) from t group by k")
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget, got %v", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) || be.Limit != 64<<10 || be.Used <= be.Limit {
		t.Fatalf("budget error detail: %+v (%v)", be, err)
	}
	// A generous budget lets the same query through.
	ctx = WithMemoryBudget(context.Background(), 1<<30)
	if _, err := e.QueryContext(ctx, "select k, sum(v) from t group by k"); err != nil {
		t.Fatalf("generous budget: %v", err)
	}
}

func TestMemoryBudgetAbortsJoinBuild(t *testing.T) {
	e := bigDB(t, 50_000)
	ctx := WithMemoryBudget(context.Background(), 32<<10)
	_, err := e.QueryContext(ctx,
		"select count(*) from t a inner join t b on a.k = b.k")
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget, got %v", err)
	}
}

func TestEngineDefaultMemoryBudget(t *testing.T) {
	e := bigDB(t, 50_000)
	e.SetMemoryBudget(64 << 10)
	_, err := e.Query("select k, sum(v) from t group by k")
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("want ErrMemoryBudget via engine default, got %v", err)
	}
	// Per-query override disables it.
	ctx := WithMemoryBudget(context.Background(), 0)
	if _, err := e.QueryContext(ctx, "select k, sum(v) from t group by k"); err != nil {
		t.Fatalf("override off: %v", err)
	}
	e.SetMemoryBudget(0)
	if _, err := e.Query("select k, sum(v) from t group by k"); err != nil {
		t.Fatalf("budget cleared: %v", err)
	}
}

// A derived table's rows are charged once, by the block that produced them.
// Wrapping them as a source charges nothing; reading them through it charges
// the typed vectors the kernels pack from them — the row closures pack none —
// and nothing for the rows again. The row closures' own scan charges what it
// boxes: row headers for the table, whole rows only for the ones that pass.
func TestDerivedSourceChargedOnce(t *testing.T) {
	const n = 50_000
	e := bigDB(t, n)
	e.SetParallelism(1)
	charged := func(sql string) int64 {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			t.Fatal(err)
		}
		qc := e.newQueryCtx(WithMemoryBudget(context.Background(), 1<<40), sql)
		if _, err := execSelectWithOuter(qc, stmt.(*sqlparser.SelectStmt), nil); err != nil {
			t.Fatal(err)
		}
		return qc.mem.used.Load()
	}
	const inner = "select k, g, v from t"
	const outer = "select g, count(*), sum(v) from (" + inner + ") d group by g"
	boxed := int64(n) * (3 + 2) * bytesPerValue // the derived table's rows
	for _, vec := range []bool{true, false} {
		e.SetVectorized(vec)
		vectors := int64(0)
		if vec {
			vectors = int64(n) * 2 * bytesPerRef // g and v; k is never touched
		}
		own := charged(inner) // what the derived table's block charges by itself
		if extra := charged(outer) - own; extra < vectors || extra >= boxed {
			t.Errorf("vectorized=%v: reading the derived table charged %d B; want the vectors (%d B) and not the rows (%d B) again",
				vec, extra, vectors, boxed)
		}
		if _, err := e.QueryContext(WithMemoryBudget(context.Background(), own+boxed), outer); err != nil {
			t.Errorf("vectorized=%v: under the block's own charge plus the table's boxed size: %v", vec, err)
		}
		var be *BudgetError
		if _, err := e.QueryContext(WithMemoryBudget(context.Background(), boxed/2), outer); !errors.As(err, &be) {
			t.Errorf("vectorized=%v: under half the table's boxed size: want *BudgetError, got %v", vec, err)
		}
		// An impure 1 %-selective scan reads no lane and boxes its survivors
		// (twice: filtered, then projected): it fits a budget of its row headers
		// plus a tenth of the boxed table, which the table itself would not.
		const selective = "select k, g, v from t where rand() < 0.01"
		headers := int64(n) * 2 * bytesPerValue
		if got := charged(selective); got <= headers || got >= headers+boxed/10 {
			t.Errorf("vectorized=%v: selective row scan charged %d B; want above its headers (%d B) by under a tenth of the table (%d B)",
				vec, got, headers, boxed/10)
		}
		if _, err := e.QueryContext(WithMemoryBudget(context.Background(), headers+boxed/10), selective); err != nil {
			t.Errorf("vectorized=%v: selective row scan under a budget sized for its survivors: %v", vec, err)
		}
	}
}

// The vector path evaluates `not s`, an error on the one non-NULL string, only
// where `k >= 0` leaves the OR undecided: nowhere. So the grouped scan below
// answers without error, and within the budget the row closures fit.
func TestShortCircuitScanWithinRowBudget(t *testing.T) {
	const n = 50_000
	e := NewSeeded(7)
	e.SetParallelism(1)
	if err := e.CreateTable("t", []Column{{Name: "k", Type: TInt}, {Name: "s", Type: TString}}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{int64(i), nil}
	}
	rows[n-1][1] = "x"
	if err := e.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	const q = "select k, count(*) from t where k >= 0 or not s group by k"
	stmt, err := sqlparser.Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	e.SetVectorized(false)
	qc := e.newQueryCtx(WithMemoryBudget(context.Background(), 1<<40), q)
	if _, err := execSelectWithOuter(qc, stmt.(*sqlparser.SelectStmt), nil); err != nil {
		t.Fatal(err)
	}
	rowOnly := qc.mem.used.Load()
	e.SetVectorized(true)
	rs, err := e.QueryContext(WithMemoryBudget(context.Background(), rowOnly+rowOnly/8), q)
	if err != nil {
		t.Fatalf("under a budget the row closures fit: %v", err)
	}
	if len(rs.Rows) != n {
		t.Fatalf("%d groups, want %d", len(rs.Rows), n)
	}
}

// TestWorkerPanicContained exercises the runChunks recovery path white-box:
// a panic in one morsel worker must surface as *InternalError with a stack,
// after every sibling worker drained.
func TestWorkerPanicContained(t *testing.T) {
	err := runChunks([]int{0, 250, 500, 750, 1000}, func(w, lo, hi int) error {
		if lo == 0 {
			panic("boom at chunk 0")
		}
		return nil
	})
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InternalError, got %v", err)
	}
	if fmt.Sprint(ie.Panic) != "boom at chunk 0" {
		t.Fatalf("panic value: %v", ie.Panic)
	}
	if len(ie.Stack) == 0 || !strings.Contains(string(ie.Stack), "runChunks") {
		t.Fatalf("stack not captured: %q", ie.Stack)
	}
}

// TestQueryBoundaryPanicContained forces a panic inside expression
// evaluation (unknown function resolution happens at eval time in some
// paths) — any panic below QueryContext must come back as *InternalError
// carrying the SQL, never crash the process.
func TestQueryBoundaryPanicStampsQuery(t *testing.T) {
	err := stampQuery(&InternalError{Panic: "x"}, "select 1")
	var ie *InternalError
	if !errors.As(err, &ie) || ie.Query != "select 1" {
		t.Fatalf("stampQuery: %+v", err)
	}
	// An already-stamped error keeps its original query.
	err = stampQuery(&InternalError{Query: "inner", Panic: "x"}, "outer")
	if !errors.As(err, &ie) || ie.Query != "inner" {
		t.Fatalf("stampQuery overwrite: %+v", err)
	}
}
