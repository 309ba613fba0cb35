package verdictdb

import (
	"database/sql"
	"sync"
	"testing"
)

func openSQL(t *testing.T, dsn string) *sql.DB {
	t.Helper()
	db, err := sql.Open("verdictdb", dsn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestSQLDriverBasicQuery(t *testing.T) {
	db := openSQL(t, "dataset=insta;scale=0.05;seed=7;samples=auto")
	rows, err := db.Query("select order_dow, count(*) as c from orders group by order_dow order by order_dow")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil || len(cols) != 2 {
		t.Fatalf("columns: %v %v", cols, err)
	}
	n := 0
	var total int64
	for rows.Next() {
		var dow int64
		var c float64 // approximate counts come back as floats
		if err := rows.Scan(&dow, &c); err != nil {
			t.Fatal(err)
		}
		total += int64(c)
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 7 {
		t.Fatalf("dow groups: %d", n)
	}
	// ~5000 orders at scale 0.05.
	if total < 3500 || total > 6500 {
		t.Fatalf("total approx count %d", total)
	}
}

func TestSQLDriverExecAndDDL(t *testing.T) {
	db := openSQL(t, "dataset=none;seed=3")
	if _, err := db.Exec("create table kv (k string, v double)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("insert into kv values ('a', 1.5), ('b', 2.5)"); err != nil {
		t.Fatal(err)
	}
	row := db.QueryRow("bypass select sum(v) from kv")
	var s float64
	if err := row.Scan(&s); err != nil {
		t.Fatal(err)
	}
	if s != 4.0 {
		t.Fatalf("sum %v", s)
	}
}

func TestSQLDriverSharedDSN(t *testing.T) {
	// Two sql.DB handles on the same DSN share one engine.
	db1 := openSQL(t, "dataset=none;seed=5")
	db2 := openSQL(t, "dataset=none;seed=5")
	if _, err := db1.Exec("create table shared (x int)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Exec("insert into shared values (1)"); err != nil {
		t.Fatalf("second handle does not share engine: %v", err)
	}
}

func TestSQLDriverErrCols(t *testing.T) {
	db := openSQL(t, "dataset=insta;scale=0.05;seed=9;samples=auto;errcols=1")
	rows, err := db.Query("select count(*) as c from order_products")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	cols, _ := rows.Columns()
	found := false
	for _, c := range cols {
		if c == "c_err" {
			found = true
		}
	}
	if !found {
		t.Fatalf("errcols=1 but columns are %v", cols)
	}
}

func TestSQLDriverBadDSN(t *testing.T) {
	db, err := sql.Open("verdictdb", "nonsense")
	if err == nil {
		// sql.Open defers driver errors to first use.
		if _, err := db.Query("select 1"); err == nil {
			t.Fatal("bad DSN accepted")
		}
		db.Close()
	}
}

func TestSQLDriverNoTransactions(t *testing.T) {
	db := openSQL(t, "dataset=none;seed=11")
	if _, err := db.Begin(); err == nil {
		t.Fatal("Begin should fail")
	}
}

// TestSQLDriverInstanceRelease is the regression test for the engine leak:
// each distinct DSN pins its engine only while driver connections are open;
// closing the last connection releases the instance.
func TestSQLDriverInstanceRelease(t *testing.T) {
	baseline := theDriver.openDSNs()
	db1, err := sql.Open("verdictdb", "dataset=none;seed=101")
	if err != nil {
		t.Fatal(err)
	}
	db2, err := sql.Open("verdictdb", "dataset=none;seed=102")
	if err != nil {
		t.Fatal(err)
	}
	// Force real driver connections (sql.Open is lazy).
	if _, err := db1.Exec("create table a (x int)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Exec("create table b (x int)"); err != nil {
		t.Fatal(err)
	}
	if got := theDriver.openDSNs(); got != baseline+2 {
		t.Fatalf("open DSN instances: %d, want %d", got, baseline+2)
	}
	if err := db1.Close(); err != nil {
		t.Fatal(err)
	}
	if got := theDriver.openDSNs(); got != baseline+1 {
		t.Fatalf("after first close: %d instances, want %d", got, baseline+1)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := theDriver.openDSNs(); got != baseline {
		t.Fatalf("after last close: %d instances, want %d (engine leaked)", got, baseline)
	}

	// Reopening the DSN after release builds a fresh engine (the old one was
	// released, so its tables are gone).
	db3, err := sql.Open("verdictdb", "dataset=none;seed=101")
	if err != nil {
		t.Fatal(err)
	}
	defer db3.Close()
	if _, err := db3.Exec("create table a (x int)"); err != nil {
		t.Fatalf("fresh engine should not have old tables: %v", err)
	}
}

// TestSQLDriverSharedDSNRefcount: two handles on one DSN pin a single
// instance, released only when both close.
func TestSQLDriverSharedDSNRefcount(t *testing.T) {
	baseline := theDriver.openDSNs()
	db1, _ := sql.Open("verdictdb", "dataset=none;seed=103")
	db2, _ := sql.Open("verdictdb", "dataset=none;seed=103")
	if _, err := db1.Exec("create table shared_rc (x int)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db2.Exec("insert into shared_rc values (1)"); err != nil {
		t.Fatal(err)
	}
	if got := theDriver.openDSNs(); got != baseline+1 {
		t.Fatalf("shared DSN instances: %d, want %d", got, baseline+1)
	}
	db1.Close()
	if got := theDriver.openDSNs(); got != baseline+1 {
		t.Fatalf("instance released while second handle still open: %d", got)
	}
	db2.Close()
	if got := theDriver.openDSNs(); got != baseline {
		t.Fatalf("instance not released after both closed: %d, want %d", got, baseline)
	}
}

// TestSQLDriverConcurrentOpenClose opens and closes handles on one DSN from
// many goroutines while another handle pins it: each driver connection takes
// and drops one reference, so the instance lives until the pinning handle
// closes. Under -race this checks the reference count's locking.
func TestSQLDriverConcurrentOpenClose(t *testing.T) {
	const dsn = "dataset=none;seed=104"
	baseline := theDriver.openDSNs()
	hold, err := sql.Open("verdictdb", dsn)
	if err != nil {
		t.Fatal(err)
	}
	if err := hold.Ping(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				db, err := sql.Open("verdictdb", dsn)
				if err != nil {
					t.Error(err)
					return
				}
				if err := db.Ping(); err != nil {
					t.Error(err)
				}
				db.Close()
			}
		}()
	}
	wg.Wait()
	if got := theDriver.openDSNs(); got != baseline+1 {
		t.Fatalf("instances while pinned: %d, want %d", got, baseline+1)
	}
	hold.Close()
	if got := theDriver.openDSNs(); got != baseline {
		t.Fatalf("instances after the last close: %d, want %d", got, baseline)
	}
}

func TestSQLDriverProgressiveTarget(t *testing.T) {
	// The target= DSN option routes SELECTs through progressive execution;
	// legacy database/sql readers get anytime answers transparently.
	db, err := sql.Open("verdictdb", "dataset=insta;scale=0.05;samples=auto;target=0.2")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rows, err := db.Query("select reordered, count(*) as c from order_products group by reordered")
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	n := 0
	for rows.Next() {
		var reordered, c int64
		if err := rows.Scan(&reordered, &c); err != nil {
			t.Fatal(err)
		}
		if c <= 0 {
			t.Fatalf("non-positive count %d", c)
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no rows")
	}
}
