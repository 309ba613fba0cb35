package drivers

import (
	"errors"
	"strings"
	"testing"

	"verdictdb/internal/engine"
	"verdictdb/internal/sqlparser"
)

func newEngine(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.NewSeeded(1)
	if err := e.CreateTable("t", []engine.Column{
		{Name: "a", Type: engine.TInt},
		{Name: "b", Type: engine.TString},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := e.InsertRows("t", [][]engine.Value{{int64(i), "x"}}); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestDialectRendering(t *testing.T) {
	stmt, err := sqlparser.Parse("select a from t where rand() < 0.5")
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t)
	cases := []struct {
		db       DB
		contains string
	}{
		{NewImpala(e), "`a`"},
		{NewRedshift(e), `"a"`},
		{NewRedshift(e), "random()"},
		{NewSparkSQL(e), "rand()"},
		{NewGeneric(e), "rand()"},
	}
	for _, c := range cases {
		out := Render(c.db, stmt)
		if !strings.Contains(out, c.contains) {
			t.Errorf("%s dialect: %q missing %q", c.db.Name(), out, c.contains)
		}
	}
}

func TestDialectRoundTripThroughEngine(t *testing.T) {
	// Every dialect's rendering must be executable by the engine.
	e := newEngine(t)
	stmt, err := sqlparser.Parse("select count(*) as c from t where a >= 50")
	if err != nil {
		t.Fatal(err)
	}
	for _, db := range []*Driver{NewImpala(e), NewRedshift(e), NewSparkSQL(e), NewGeneric(e)} {
		rs, err := db.Query(Render(db, stmt))
		if err != nil {
			t.Fatalf("%s: %v", db.Name(), err)
		}
		if rs.Rows[0][0].(int64) != 50 {
			t.Errorf("%s: count %v", db.Name(), rs.Rows[0][0])
		}
	}
}

// The engine drivers differ in their dialect and in nothing else: each is
// named after its dialect, and no two render the same statement alike.
func TestEngineDialects(t *testing.T) {
	stmt, err := sqlparser.Parse("select a from t where rand() < 0.5")
	if err != nil {
		t.Fatal(err)
	}
	e := newEngine(t)
	seen := map[string]string{}
	for _, db := range []*Driver{NewImpala(e), NewSparkSQL(e), NewRedshift(e)} {
		if db.Dialect().Name != db.Name() {
			t.Errorf("driver %q speaks dialect %q", db.Name(), db.Dialect().Name)
		}
		out := Render(db, stmt)
		if prev, dup := seen[out]; dup {
			t.Errorf("%s and %s render alike: %q", prev, db.Name(), out)
		}
		seen[out] = db.Name()
	}
}

func TestColumnsProbe(t *testing.T) {
	e := newEngine(t)
	db := NewGeneric(e)
	cols, err := db.Columns("t")
	if err != nil {
		t.Fatal(err)
	}
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Fatalf("columns: %v", cols)
	}
	if _, err := db.Columns("missing"); err == nil {
		t.Fatal("missing table should error")
	}
}

func TestImpalaNoRandInWhereFlag(t *testing.T) {
	e := newEngine(t)
	if !NewImpala(e).Dialect().NoRandInWhere {
		t.Fatal("Impala dialect must flag rand()-in-WHERE restriction")
	}
	if NewSparkSQL(e).Dialect().NoRandInWhere {
		t.Fatal("Spark dialect should not flag rand() restriction")
	}
}

// Columns is the paper's LIMIT 0 probe; the engine bounds the scan, so it
// costs no row work — here it runs under a budget far smaller than the
// table, which an unbounded scan of it exceeds.
func TestColumnsProbeReadsNoRows(t *testing.T) {
	e := engine.NewSeeded(1)
	if err := e.CreateTable("wide", []engine.Column{{Name: "a", Type: engine.TInt}, {Name: "b", Type: engine.TFloat}}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]engine.Value, 50_000)
	for i := range rows {
		rows[i] = []engine.Value{int64(i), float64(i)}
	}
	if err := e.InsertRows("wide", rows); err != nil {
		t.Fatal(err)
	}
	e.SetMemoryBudget(64 << 10)
	db := NewGeneric(e)
	if _, err := db.Query("select * from wide"); !errors.Is(err, engine.ErrMemoryBudget) {
		t.Fatalf("full scan under a 64 KiB budget: %v", err)
	}
	cols, err := db.Columns("wide")
	if err != nil || strings.Join(cols, ",") != "a,b" {
		t.Fatalf("Columns = %v, %v", cols, err)
	}
}
