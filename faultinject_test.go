//go:build faultinject

package verdictdb

// Deterministic fault-injection tests (built only with -tags faultinject):
// synthetic panics, errors, and stalls armed at named engine/core sites must
// surface as the documented typed errors on the injected query alone, with
// the connection serving byte-identical answers once disarmed. CI runs this
// file under -race.

import (
	"context"
	"errors"
	"testing"
	"time"

	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/faultpoint"
	"verdictdb/internal/workload"
)

func TestFaultpointEnabled(t *testing.T) {
	if !faultpoint.Enabled() {
		t.Fatal("built with -tags faultinject but faultpoint.Enabled() is false")
	}
}

// TestInjectedScanPanicContained arms a panic inside the vectorized scan's
// chunk loop — i.e. inside morsel workers — and asserts it comes back as
// *InternalError carrying the synthetic PanicValue, the process survives,
// and after disarming the same connection returns answers byte-identical to
// the pre-fault baseline.
func TestInjectedScanPanicContained(t *testing.T) {
	defer faultpoint.Reset()
	conn := instaConn(t)
	const sql = "select reordered, avg(price) as p, count(*) as c from order_products group by reordered order by reordered"

	baseline, err := conn.Query(sql)
	if err != nil {
		t.Fatal(err)
	}

	faultpoint.SetPanic(faultpoint.SiteEngineScanChunk)
	_, err = conn.Query(sql)
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InternalError, got %v", err)
	}
	if pv, ok := ie.Panic.(faultpoint.PanicValue); !ok || pv.Site != faultpoint.SiteEngineScanChunk {
		t.Fatalf("panic value: %#v", ie.Panic)
	}
	if ie.Query == "" || len(ie.Stack) == 0 {
		t.Fatalf("InternalError missing query/stack: %+v", ie)
	}

	faultpoint.Clear(faultpoint.SiteEngineScanChunk)
	again, err := conn.Query(sql)
	if err != nil {
		t.Fatalf("query after disarm: %v", err)
	}
	assertAnswersIdentical(t, "post-fault", baseline, again)
	if faultpoint.Count(faultpoint.SiteEngineScanChunk) == 0 {
		t.Fatal("site was never hit")
	}
}

// TestInjectedQueryBoundaryPanic arms the top-of-query site: even a crash
// before any worker spawns must surface as *InternalError, not kill the
// process, and must NOT trigger the middleware's exact-execution fallback.
func TestInjectedQueryBoundaryPanic(t *testing.T) {
	defer faultpoint.Reset()
	conn := instaConn(t)
	faultpoint.SetPanic(faultpoint.SiteEngineQuery)
	a, err := conn.Query("select count(*) as c from order_products")
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InternalError, got a=%v err=%v", a, err)
	}
}

// TestInjectedProgressivePrefixError arms an error between block prefixes:
// progressive execution must return it as-is — aborted-query errors never
// fall back to passthrough.
func TestInjectedProgressivePrefixError(t *testing.T) {
	defer faultpoint.Reset()
	conn := instaConn(t)
	sentinel := errors.New("faultpoint: prefix wire test")
	faultpoint.SetError(faultpoint.SiteCoreProgressivePrefix, sentinel)
	a, err := conn.QueryWithAccuracyContext(context.Background(), "select count(*) as c from order_products", 1e-9)
	if !errors.Is(err, sentinel) {
		t.Fatalf("want the injected error, got a=%v err=%v", a, err)
	}
}

// TestInjectedMergePanicContained arms a panic in the core-side prefix
// merge: containment at the middleware boundary must convert it, and the
// connection must keep working once disarmed.
func TestInjectedMergePanicContained(t *testing.T) {
	defer faultpoint.Reset()
	conn := instaConn(t)
	const sql = "select count(*) as c from order_products"
	faultpoint.SetPanic(faultpoint.SiteCoreMergePrefix)
	_, err := conn.QueryWithAccuracyContext(context.Background(), sql, 1e-9)
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InternalError, got %v", err)
	}
	faultpoint.Clear(faultpoint.SiteCoreMergePrefix)
	if a, err := conn.QueryWithAccuracyContext(context.Background(), sql, 0); err != nil || !a.Approximate {
		t.Fatalf("after disarm: a=%+v err=%v", a, err)
	}
}

// TestInjectedStallStaysCancellable stalls every scanned chunk and fires a
// cancel mid-stall: the per-chunk poll right after each stall must observe
// the cancel, so the query still returns promptly instead of serving out
// the full stalled scan.
func TestInjectedStallStaysCancellable(t *testing.T) {
	defer faultpoint.Reset()
	conn := instaConn(t)
	faultpoint.SetStall(faultpoint.SiteEngineScanChunk, 5*time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := conn.QueryContext(ctx, "select o.order_dow, sum(op.price) as r from orders o inner join order_products op on o.order_id = op.order_id group by o.order_dow")
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("want nil or context.Canceled, got %v", err)
	}
	if errors.Is(err, context.Canceled) {
		if lag := time.Since(start); lag > 2*time.Second {
			t.Fatalf("cancel during stalls took %v", lag)
		}
	}
}

// TestInjectedJoinFaultsBothHashSides runs exactJoinBothSides, arming an
// error at the join's build and probe sites in turn: the injected error must
// come back as is, the sites must fire once per chunk of
// the hashed and of the scanned input whichever side they are on, and the
// connection must answer identically once disarmed.
func TestInjectedJoinFaultsBothHashSides(t *testing.T) {
	defer faultpoint.Reset()
	conn := instaConn(t)
	chunksOf := func(table string) int64 {
		t.Helper()
		a, err := conn.Query("bypass select count(*) as c from " + table)
		if err != nil {
			t.Fatal(err)
		}
		return (a.Rows[0][0].(int64) + 255) / 256
	}
	small, big := chunksOf("orders"), chunksOf("order_products")
	for _, sql := range exactJoinBothSides {
		faultpoint.Reset()
		baseline, err := conn.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if b, p := faultpoint.Count(faultpoint.SiteEngineJoinBuild), faultpoint.Count(faultpoint.SiteEngineJoinProbe); b != small || p != big {
			t.Fatalf("%s: build site hit %d times, probe site %d; want %d (hashed chunks) and %d (scanned chunks)", sql, b, p, small, big)
		}
		sentinel := errors.New("faultpoint: join wire test")
		for _, arm := range []struct{ set, clear func() }{
			{func() { faultpoint.SetError(faultpoint.SiteEngineJoinBuild, sentinel) },
				func() { faultpoint.Clear(faultpoint.SiteEngineJoinBuild) }},
			{func() { faultpoint.SetError(faultpoint.SiteEngineJoinProbe, sentinel) },
				func() { faultpoint.Clear(faultpoint.SiteEngineJoinProbe) }},
		} {
			arm.set()
			if _, err := conn.Query(sql); !errors.Is(err, sentinel) {
				t.Fatalf("%s: want the injected error, got %v", sql, err)
			}
			arm.clear()
			again, err := conn.Query(sql)
			if err != nil {
				t.Fatalf("%s after disarm: %v", sql, err)
			}
			assertAnswersIdentical(t, "post-fault", baseline, again)
		}
	}
}

// TestInjectedFilteredJoinInputFault: the pre-filter of a join input is a scan,
// so the scan site fires once per chunk of each filtered input (the query
// projects, so nothing after the join scans) and the join sites only see what
// survives; an error armed there comes back as is before any join runs, and
// the connection answers identically once disarmed.
func TestInjectedFilteredJoinInputFault(t *testing.T) {
	defer faultpoint.Reset()
	conn := instaConn(t)
	const sql = "bypass select op.order_id, op.price, o.order_dow from order_products op inner join orders o on o.order_id = op.order_id where op.reordered = 1 and o.order_hour < 12 and op.price > 2"
	chunks := int64(0)
	for _, table := range []string{"orders", "order_products"} {
		a, err := conn.Query("bypass select count(*) as c from " + table)
		if err != nil {
			t.Fatal(err)
		}
		chunks += (a.Rows[0][0].(int64) + 255) / 256
	}
	faultpoint.Reset()
	baseline, err := conn.Query(sql)
	if err != nil {
		t.Fatal(err)
	}
	if n := faultpoint.Count(faultpoint.SiteEngineScanChunk); n != chunks {
		t.Fatalf("scan site hit %d times, want once per chunk of the two filtered inputs (%d)", n, chunks)
	}
	if b, p := faultpoint.Count(faultpoint.SiteEngineJoinBuild), faultpoint.Count(faultpoint.SiteEngineJoinProbe); b == 0 || p == 0 || b+p >= chunks {
		t.Fatalf("join sites hit %d+%d times over inputs of %d chunks: the join should see filtered inputs", b, p, chunks)
	}
	faultpoint.Reset()
	sentinel := errors.New("faultpoint: pre-filter wire test")
	faultpoint.SetError(faultpoint.SiteEngineScanChunk, sentinel)
	if _, err := conn.Query(sql); !errors.Is(err, sentinel) {
		t.Fatalf("want the injected error, got %v", err)
	}
	if n := faultpoint.Count(faultpoint.SiteEngineJoinBuild); n != 0 {
		t.Fatalf("the join ran (%d build chunks) after its input's pre-filter failed", n)
	}
	faultpoint.Clear(faultpoint.SiteEngineScanChunk)
	again, err := conn.Query(sql)
	if err != nil {
		t.Fatalf("after disarm: %v", err)
	}
	assertAnswersIdentical(t, "post-fault", baseline, again)
}

// TestEveryFaultSiteFires runs one of each operation a site is placed in —
// vectorized and row-closure scans, a join that hashes and probes, a
// progressive answer, a flush with its manifest save, and a cold segment read
// after reopening — and requires every registered site to have fired, so no
// site is left where no query reaches it.
func TestEveryFaultSiteFires(t *testing.T) {
	defer faultpoint.Reset()
	faultpoint.Reset()
	dir := t.TempDir()
	open := func() (*engine.Engine, *Conn) {
		t.Helper()
		eng := engine.NewSeeded(7)
		if _, err := eng.AttachDataDir(dir); err != nil {
			t.Fatal(err)
		}
		conn, err := Open(drivers.NewGeneric(eng), Defaults())
		if err != nil {
			t.Fatal(err)
		}
		return eng, conn
	}
	query := func(conn *Conn, sql string) {
		t.Helper()
		if _, err := conn.Query(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}

	eng, conn := open()
	if err := workload.LoadInsta(eng, 0.05, 7); err != nil {
		t.Fatal(err)
	}
	conn.Builder().BlockRows = 64
	if err := conn.Exec("create uniform sample of order_products ratio 0.02"); err != nil {
		t.Fatal(err)
	}
	for _, vec := range []bool{true, false} {
		eng.SetVectorized(vec)
		query(conn, "bypass select reordered, avg(price) as p from order_products group by reordered")
		query(conn, exactJoinBothSides[0])
	}
	eng.SetVectorized(true)
	if _, err := conn.QueryWithAccuracyContext(context.Background(), "select count(*) as c from order_products", 1e-9); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	eng, conn = open()
	defer eng.Close()
	_ = conn

	for s := faultpoint.Site(0); s < faultpoint.NumSites; s++ {
		if faultpoint.Count(s) == 0 {
			t.Errorf("site %s never fired", s)
		}
	}
}
