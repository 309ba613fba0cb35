package bench

import (
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	verdictdb "verdictdb"
	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/workload"
)

// The experiments at QuickConfig scale double as integration tests: each
// must run end-to-end and produce paper-shaped results.

// shapeRun is one shape's answers through one connection.
type shapeRun struct {
	id            string
	approx, exact *verdictdb.Answer
}

// runShapes loads both datasets at QuickConfig behind the dialect driver mk
// and runs the 33 shapes, approximately and under BYPASS.
func runShapes(t *testing.T, mk func(*engine.Engine) *drivers.Driver) []shapeRun {
	t.Helper()
	var out []shapeRun
	for _, ds := range []struct {
		env     func(Config, func(*engine.Engine) *drivers.Driver) (*Env, error)
		queries []workload.Query
	}{{NewTPCHEnv, workload.TPCHQueries}, {NewInstaEnv, workload.InstaQueries}} {
		env, err := ds.env(QuickConfig(), mk)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range ds.queries {
			r := shapeRun{id: q.ID}
			if r.approx, err = env.Conn.Query(q.SQL); err != nil {
				t.Fatalf("%s: %v", q.ID, err)
			}
			if r.exact, err = env.Conn.Query("bypass " + q.SQL); err != nil {
				t.Fatalf("%s bypass: %v", q.ID, err)
			}
			out = append(out, r)
		}
	}
	return out
}

// sameAnswer reports where two answers differ: columns, Approximate, any
// cell (floats by their bits) or any standard error's bits. "" is none.
func sameAnswer(a, b *verdictdb.Answer) string {
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case !slices.Equal(a.Cols, b.Cols):
		return fmt.Sprintf("columns %v vs %v", a.Cols, b.Cols)
	case a.Approximate != b.Approximate:
		return fmt.Sprintf("approximate %v vs %v", a.Approximate, b.Approximate)
	case len(a.Rows) != len(b.Rows) || len(a.StdErr) != len(b.StdErr):
		return fmt.Sprintf("%d rows, %d stderr rows vs %d, %d", len(a.Rows), len(a.StdErr), len(b.Rows), len(b.StdErr))
	}
	for r := range a.Rows {
		if !slices.EqualFunc(a.Rows[r], b.Rows[r], func(x, y engine.Value) bool {
			fx, okx := x.(float64)
			fy, oky := y.(float64)
			if okx && oky {
				return sameBits(fx, fy)
			}
			return reflect.DeepEqual(x, y)
		}) {
			return fmt.Sprintf("row %d: %v vs %v", r, a.Rows[r], b.Rows[r])
		}
	}
	for r := range a.StdErr {
		if !slices.EqualFunc(a.StdErr[r], b.StdErr[r], sameBits) {
			return fmt.Sprintf("row %d stderr: %v vs %v", r, a.StdErr[r], b.StdErr[r])
		}
	}
	return ""
}

// TestDialectParity runs the 33 shapes through each dialect driver (Figure
// 1b's Syntax Changer) over identically seeded data and samples: the SQL the
// middleware sends is spelled per dialect, and the answers, approximate and
// BYPASS, are the same to the bit. Impala and Redshift quote identifiers
// (backticks, double quotes), so their rewritten SQL must differ from the
// generic dialect's; Spark SQL renders like generic.
//
// On the generic dialect's answers it also checks the speedup the paper
// reports (Figures 4 and 9) by rows read instead of wall clock: most shapes
// are approximated, and many of those read at most half the rows of their
// BYPASS run.
func TestDialectParity(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	want := runShapes(t, drivers.NewGeneric)
	if len(want) != 33 {
		t.Fatalf("ran %d shapes, want 33", len(want))
	}
	approximated, halved := 0, 0
	for _, r := range want {
		if r.approx.Approximate {
			approximated++
			if 2*r.approx.RowsScanned <= r.exact.RowsScanned {
				halved++
			}
		}
	}
	t.Logf("%d/33 shapes approximated, %d of them read at most half their BYPASS rows", approximated, halved)
	if approximated < 15 {
		t.Errorf("only %d/33 shapes approximated", approximated)
	}
	if halved < 10 {
		t.Errorf("only %d approximated shapes read at most half their BYPASS rows", halved)
	}

	for _, d := range []struct {
		name  string
		mk    func(*engine.Engine) *drivers.Driver
		quote string // identifier quote; "" renders like generic
	}{
		{"impala", drivers.NewImpala, "`"},
		{"sparksql", drivers.NewSparkSQL, ""},
		{"redshift", drivers.NewRedshift, `"`},
	} {
		for i, r := range runShapes(t, d.mk) {
			w := want[i]
			if diff := sameAnswer(w.approx, r.approx); diff != "" {
				t.Errorf("%s %s: %s", d.name, r.id, diff)
			}
			if diff := sameAnswer(w.exact, r.exact); diff != "" {
				t.Errorf("%s %s bypass: %s", d.name, r.id, diff)
			}
			if d.quote == "" || !r.approx.Approximate {
				continue
			}
			sql := strings.Join(r.approx.RewrittenSQL, ";")
			if sql == strings.Join(w.approx.RewrittenSQL, ";") || !strings.Contains(sql, d.quote) {
				t.Errorf("%s %s: rewritten SQL not in the dialect: %s", d.name, r.id, sql)
			}
		}
	}
}

func TestCorrectnessExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	run := func() *CoverageReport {
		rep, err := CorrectnessExperiment(io.Discard, QuickConfig(), 2, "")
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep, again := run(), run()
	for _, rows := range [][]CoverageRow{rep.ByMethod, rep.ByKind, rep.BySamples} {
		for _, r := range rows {
			if r.Method == "variational" && r.Cells == 0 {
				t.Errorf("variational roll-up %+v scored no cells", r)
			}
		}
	}
	baseline := map[string]bool{}
	for _, r := range rep.Rows {
		if r.Method != "variational" {
			baseline[r.Method] = true
			if r.Kind != "count" && r.Kind != "sum" && r.Kind != "avg" {
				t.Errorf("baseline row %+v: the baselines answer count/sum/avg only", r)
			}
		}
	}
	if !baseline["traditional"] || !baseline["bootstrap"] {
		t.Errorf("baseline methods scored: %v", baseline)
	}
	if len(rep.Rows) != len(again.Rows) {
		t.Fatalf("rows %d vs %d across identical runs", len(rep.Rows), len(again.Rows))
	}
	for i, r := range rep.Rows {
		a := again.Rows[i]
		if r.Cells != a.Cells || r.Covered != a.Covered || r.Missing != a.Missing {
			t.Errorf("same seeds, different counts: %+v vs %+v", r, a)
		}
	}
	for _, r := range rep.ByMethod {
		// The floor benchmark/loop.go applies after appends; 0.95 waits for
		// the estimator fixes.
		if r.Method == "variational" && r.Coverage < 0.80 {
			t.Errorf("variational coverage %.3f, want >= 0.80", r.Coverage)
		}
	}
}

func TestProgressiveExperimentShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickConfig()
	cfg.BlockRows = 64
	rep, err := ProgressiveExperiment(io.Discard, cfg, "", []float64{0, 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2*33 {
		t.Fatalf("ran %d (query, target) pairs, want %d", len(rep.Results), 2*33)
	}
	progressive := 0
	for _, r := range rep.Results {
		if !r.Progressive {
			continue
		}
		progressive++
		if r.BlocksTotal < 1 || r.BlocksScanned < 1 || r.BlocksScanned > r.BlocksTotal {
			t.Fatalf("%s target %g: blocks %d/%d", r.Query, r.Target, r.BlocksScanned, r.BlocksTotal)
		}
		// targetRelErr=0 must scan the whole sample in one shot.
		if r.Target == 0 && r.BlocksScanned != r.BlocksTotal {
			t.Fatalf("%s: target 0 stopped early (%d/%d)", r.Query, r.BlocksScanned, r.BlocksTotal)
		}
		if r.EarlyStop && r.EstRelErr > r.Target {
			t.Fatalf("%s: early stop with estimated error %v above target %v",
				r.Query, r.EstRelErr, r.Target)
		}
	}
	if progressive == 0 {
		t.Fatal("no query took the progressive path")
	}
}
