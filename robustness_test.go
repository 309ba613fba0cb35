package verdictdb

// Query-lifecycle robustness tests: cooperative cancellation at random
// points across the whole 33-query workload (with goroutine-leak and
// state-corruption checks), deadline-degraded progressive answers, catalog
// drift surfacing as ErrCatalogChanged, per-query memory budgets through
// every API layer, and context propagation through database/sql. Run them
// under -race: the cancellation paths cross morsel workers.

import (
	"context"
	"database/sql"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/workload"
)

// assertGoroutinesSettle fails the test when the goroutine count does not
// come back to (roughly) its starting point — a leaked morsel worker or
// drain goroutine would hold it up. Slack covers runtime-internal and timer
// goroutines that come and go on their own schedule.
func assertGoroutinesSettle(t *testing.T, before int) {
	t.Helper()
	const slack = 4
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= before+slack {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutine leak: %d before, %d after cancellations\n%s", before, n, buf)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestCancelAtRandomPointsAcrossWorkload fires a cancel at a random point
// during every TPC-H and Instacart workload query and asserts the full
// robustness contract: the call returns promptly (well under the ~50ms
// typical bound; 300ms grace absorbs -race and scheduler jitter), the error
// is exactly context.Canceled, no goroutines leak, and the very next
// uncancelled run of the same query is byte-identical to the pre-cancel
// baseline — an aborted query leaves no half-merged state behind.
func TestCancelAtRandomPointsAcrossWorkload(t *testing.T) {
	datasets := []struct {
		name    string
		queries []workload.Query
	}{
		{"tpch", workload.TPCHQueries},
		{"insta", workload.InstaQueries},
	}
	for _, ds := range datasets {
		ds := ds
		t.Run(ds.name, func(t *testing.T) {
			conn := newWorkloadConn(t, ds.name)
			rng := rand.New(rand.NewSource(11))
			before := runtime.NumGoroutine()
			for _, q := range ds.queries {
				start := time.Now()
				baseline, err := conn.Query(q.SQL)
				if err != nil {
					t.Fatalf("%s baseline: %v", q.ID, err)
				}
				dur := time.Since(start)
				for rep := 0; rep < 2; rep++ {
					delay := time.Duration(rng.Int63n(int64(dur) + 1))
					ctx, cancel := context.WithCancel(context.Background())
					var firedAt time.Time
					timer := time.AfterFunc(delay, func() {
						firedAt = time.Now()
						cancel()
					})
					_, err := conn.QueryContext(ctx, q.SQL)
					switch {
					case err == nil:
						// The query beat the cancel; nothing to assert.
					case errors.Is(err, context.Canceled):
						// firedAt is ordered before the ctx.Done close the
						// query observed, so reading it here is race-free.
						if lag := time.Since(firedAt); lag > 300*time.Millisecond {
							t.Fatalf("%s rep %d: cancel honored after %v", q.ID, rep, lag)
						}
					default:
						t.Fatalf("%s rep %d: want nil or context.Canceled, got %v", q.ID, rep, err)
					}
					timer.Stop()
					cancel()
				}
				again, err := conn.Query(q.SQL)
				if err != nil {
					t.Fatalf("%s re-query after cancels: %v", q.ID, err)
				}
				assertAnswersIdentical(t, q.ID+" post-cancel", baseline, again)
			}
			assertGoroutinesSettle(t, before)
		})
	}
}

// exactJoinBothSides is one exact join over instaConn's tables written with
// the smaller input (orders) on the left, so the join hashes its left input
// and scans the right, and on the right.
var exactJoinBothSides = []string{
	"bypass select o.order_dow, count(*) as c, sum(op.price) as r from orders o inner join order_products op on o.order_id = op.order_id group by o.order_dow order by o.order_dow",
	"bypass select o.order_dow, count(*) as c, sum(op.price) as r from order_products op inner join orders o on o.order_id = op.order_id group by o.order_dow order by o.order_dow",
}

// exactFilteredJoin is an exact join whose WHERE filters both inputs before
// they are joined: order_products by the morsel scan of its pre-filter,
// orders (below the fan-out threshold) serially.
const exactFilteredJoin = "bypass select o.order_dow, count(*) as c, sum(op.price) as r from order_products op inner join orders o on o.order_id = op.order_id where op.reordered = 1 and o.order_hour < 12 and op.price > 2 group by o.order_dow order by o.order_dow"

// TestCancelMidJoinBothHashSides cancels an exact join at random points
// with the smaller input on the left (hashed left: build, morsel scan of the
// right input, regroup) and on the right (hashed right: build, morsel probe),
// and with both inputs filtered before the join. Every phase polls, so the
// call returns promptly with context.Canceled, no worker leaks, and the next
// run is identical to the baseline.
func TestCancelMidJoinBothHashSides(t *testing.T) {
	conn := instaConn(t)
	rng := rand.New(rand.NewSource(23))
	before := runtime.NumGoroutine()
	for _, sql := range append([]string{exactFilteredJoin}, exactJoinBothSides...) {
		start := time.Now()
		baseline, err := conn.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		dur := time.Since(start)
		cancelled := 0
		for rep := 0; rep < 40; rep++ {
			ctx, cancel := context.WithCancel(context.Background())
			var firedAt time.Time
			timer := time.AfterFunc(time.Duration(rng.Int63n(int64(dur)+1)), func() {
				firedAt = time.Now()
				cancel()
			})
			_, err := conn.QueryContext(ctx, sql)
			switch {
			case err == nil:
			case errors.Is(err, context.Canceled):
				cancelled++
				if lag := time.Since(firedAt); lag > 300*time.Millisecond {
					t.Fatalf("rep %d: cancel honored after %v", rep, lag)
				}
			default:
				t.Fatalf("rep %d: want nil or context.Canceled, got %v", rep, err)
			}
			timer.Stop()
			cancel()
		}
		if cancelled == 0 {
			t.Errorf("%s: no cancel landed mid-query in 40 tries", sql)
		}
		again, err := conn.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		assertAnswersIdentical(t, "post-cancel", baseline, again)
	}
	assertGoroutinesSettle(t, before)
}

// TestDeadlineDegradedProgressive lets the first block prefix complete,
// then sleeps past the deadline inside the progressive callback: the next
// prefix's engine call dies with DeadlineExceeded, and the middleware must
// hand back the completed prefix's unbiased partial answer flagged
// Degraded() — not an error, and not an exact-execution fallback (which
// would invert the caller's latency intent).
func TestDeadlineDegradedProgressive(t *testing.T) {
	conn := newWorkloadConn(t, "tpch")
	const sql = "select sum(l_quantity) as s from lineitem"

	exact, err := conn.Query("bypass " + sql)
	if err != nil {
		t.Fatal(err)
	}
	want := exact.Float(0, "s")

	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	sawPartial := false
	// Tiny target: accuracy is never met, so the doubling ramp keeps going
	// until the deadline cuts it off.
	a, err := conn.QueryProgressiveContext(ctx, sql, 1e-9, func(u ProgressiveUpdate) bool {
		if !u.Final {
			sawPartial = true
			time.Sleep(700 * time.Millisecond) // burn the rest of the deadline
		}
		return true
	})
	if err != nil {
		t.Fatalf("deadline mid-ramp must degrade, not error: %v", err)
	}
	if !sawPartial {
		t.Fatal("callback never saw a non-final prefix; ramp did not run")
	}
	if !a.Degraded() {
		t.Fatalf("answer not flagged degraded: %+v", a)
	}
	if !a.Approximate || a.BlocksScanned <= 0 || a.BlocksScanned >= a.BlocksTotal {
		t.Fatalf("degraded answer should be a strict block prefix: scanned %d of %d, approx=%v",
			a.BlocksScanned, a.BlocksTotal, a.Approximate)
	}
	got := a.Float(0, "s")
	if math.IsNaN(got) || math.Abs(got-want)/math.Abs(want) > 0.5 {
		t.Fatalf("partial estimate %v implausibly far from exact %v", got, want)
	}
	// Plain cancellation (no completed-prefix escape hatch) still errors.
	cctx, ccancel := context.WithCancel(context.Background())
	ccancel()
	if _, err := conn.QueryProgressiveContext(cctx, sql, 1e-9, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled progressive query: want context.Canceled, got %v", err)
	}
}

// instaConn builds an Instacart connection with small scramble blocks and a
// uniform sample, for the catalog-drift and budget tests.
func instaConn(t *testing.T) *Conn {
	t.Helper()
	eng := engine.NewSeeded(7)
	if err := workload.LoadInsta(eng, 0.05, 7); err != nil {
		t.Fatal(err)
	}
	conn, err := Open(drivers.NewGeneric(eng), Defaults())
	if err != nil {
		t.Fatal(err)
	}
	conn.Builder().BlockRows = 64
	if err := conn.Exec("create uniform sample of order_products ratio 0.02"); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestProgressiveCatalogChanged performs sample DDL from inside the
// progressive callback — i.e. mid-ramp — and asserts the query dies with
// ErrCatalogChanged instead of silently mixing block layouts across catalog
// versions, and that the connection recovers on the next query.
func TestProgressiveCatalogChanged(t *testing.T) {
	conn := instaConn(t)
	const sql = "select count(*) as c from order_products"
	a, err := conn.QueryProgressiveContext(context.Background(), sql, 1e-9, func(u ProgressiveUpdate) bool {
		if !u.Final {
			if err := conn.Exec("create uniform sample of orders ratio 0.02"); err != nil {
				t.Errorf("sample DDL inside callback: %v", err)
			}
		}
		return true
	})
	if !errors.Is(err, ErrCatalogChanged) {
		t.Fatalf("want ErrCatalogChanged, got a=%v err=%v", a, err)
	}
	// The catalog bump invalidated the cached plan; a fresh run succeeds.
	a, err = conn.QueryWithAccuracyContext(context.Background(), sql, 0)
	if err != nil || !a.Approximate {
		t.Fatalf("post-drift re-query: a=%+v err=%v", a, err)
	}
}

// TestMemoryBudgetThroughConn checks both budget plumbing routes: a budget
// carried on the context, and Options.MemoryBudgetBytes (overridable
// per-query via WithMemoryBudget, including disabling with 0). A budget
// abort must surface as ErrMemoryBudget, never as a passthrough fallback.
func TestMemoryBudgetThroughConn(t *testing.T) {
	const blowup = "select user_id, count(*) as c from orders group by user_id"

	conn := instaConn(t)
	ctx := WithMemoryBudget(context.Background(), 4<<10)
	if _, err := conn.QueryContext(ctx, blowup); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("ctx budget: want ErrMemoryBudget, got %v", err)
	}
	if _, err := conn.Query(blowup); err != nil {
		t.Fatalf("same query without budget: %v", err)
	}

	opts := Defaults()
	opts.MemoryBudgetBytes = 4 << 10
	conn2, eng, err := OpenInMemory(9, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.LoadInsta(eng, 0.05, 9); err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Query(blowup); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("options budget: want ErrMemoryBudget, got %v", err)
	}
	// A context budget overrides the connection default; 0 disables it.
	if _, err := conn2.QueryContext(WithMemoryBudget(context.Background(), 0), blowup); err != nil {
		t.Fatalf("ctx override off: %v", err)
	}
}

// TestSQLDriverContext drives the robustness surface through database/sql:
// QueryContext with a dead context, a live query on the same pool
// afterwards, the membudget DSN option, and BeginTx's explicit refusal.
func TestSQLDriverContext(t *testing.T) {
	db, err := sql.Open("verdictdb", "dataset=insta;scale=0.05;seed=31;samples=auto")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, "select count(*) from orders"); !errors.Is(err, context.Canceled) {
		t.Fatalf("dead ctx: want context.Canceled, got %v", err)
	}

	rows, err := db.QueryContext(context.Background(), "select count(*) from orders")
	if err != nil {
		t.Fatalf("pool must serve after a cancelled query: %v", err)
	}
	var n float64
	if !rows.Next() {
		t.Fatal("no rows")
	}
	if err := rows.Scan(&n); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if n <= 0 {
		t.Fatalf("count = %v", n)
	}

	if _, err := db.BeginTx(context.Background(), nil); err == nil {
		t.Fatal("BeginTx should refuse: transactions are not supported")
	}

	bdb, err := sql.Open("verdictdb", "dataset=insta;scale=0.05;seed=33;membudget=4096")
	if err != nil {
		t.Fatal(err)
	}
	defer bdb.Close()
	_, err = bdb.QueryContext(context.Background(), "select user_id, count(*) from orders group by user_id")
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("membudget DSN: want ErrMemoryBudget, got %v", err)
	}
}
