// Package bench holds the paper-scale environments (both datasets with the
// paper's sample set, under any dialect driver), two experiments and the
// benchmark regression gate. The correctness experiment scores each
// method's confidence intervals against BYPASS answers (Figure 8); the
// progressive experiment measures time-to-accuracy over block-partitioned
// scrambles. cmd/benchrunner runs both, cmd/benchgate runs the gate, and the
// root bench_test.go builds its profiling data with the environments.
package bench

import (
	"fmt"
	"math"
	"strings"

	verdictdb "verdictdb"
	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/sqlparser"
	"verdictdb/internal/workload"
)

// Env is a fully prepared benchmark environment: data loaded, samples
// built, connections open.
type Env struct {
	Eng  *engine.Engine
	Conn *verdictdb.Conn
	DB   *drivers.Driver
}

// Config controls dataset sizes so tests can shrink them.
type Config struct {
	TPCHScale  float64 // 1.0 = 600k lineitem
	InstaScale float64 // 1.0 = 1M order_products
	Seed       int64
	// BlockRows overrides the sample builder's scramble block size for the
	// environments' samples (0 keeps the builder default). The progressive
	// experiment shrinks it so block-prefix curves have enough points.
	BlockRows int64
}

// DefaultConfig is used by cmd/benchrunner.
func DefaultConfig() Config { return Config{TPCHScale: 0.35, InstaScale: 0.35, Seed: 42} }

// QuickConfig keeps unit tests fast.
func QuickConfig() Config { return Config{TPCHScale: 0.05, InstaScale: 0.05, Seed: 42} }

// NewTPCHEnv loads the TPC-H-like dataset with the paper's sample set:
// 1% uniform samples on fact tables, universe samples on join keys, and
// stratified samples on the common grouping attributes.
func NewTPCHEnv(cfg Config, mkDriver func(*engine.Engine) *drivers.Driver) (*Env, error) {
	eng := engine.NewSeeded(cfg.Seed)
	if err := workload.LoadTPCH(eng, cfg.TPCHScale, cfg.Seed); err != nil {
		return nil, err
	}
	db := mkDriver(eng)
	conn, err := verdictdb.Open(db, verdictdb.Defaults())
	if err != nil {
		return nil, err
	}
	if cfg.BlockRows > 0 {
		conn.Builder().BlockRows = cfg.BlockRows
	}
	// The paper's I/O budget is 2%; use it fully (it also allowed up to 80%
	// of the budget specifically for stratified samples).
	for _, stmt := range []string{
		"create uniform sample of lineitem ratio 0.02",
		"create stratified sample of lineitem on (l_returnflag, l_linestatus) ratio 0.02",
		"create hashed sample of lineitem on (l_orderkey) ratio 0.02",
		"create uniform sample of orders ratio 0.02",
		"create hashed sample of orders on (o_orderkey) ratio 0.02",
		"create uniform sample of partsupp ratio 0.02",
		"create hashed sample of partsupp on (ps_suppkey) ratio 0.02",
	} {
		if err := conn.Exec(stmt); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", stmt, err)
		}
	}
	return &Env{Eng: eng, Conn: conn, DB: db}, nil
}

// NewInstaEnv loads the insta-like dataset with its sample set.
func NewInstaEnv(cfg Config, mkDriver func(*engine.Engine) *drivers.Driver) (*Env, error) {
	eng := engine.NewSeeded(cfg.Seed + 1)
	if err := workload.LoadInsta(eng, cfg.InstaScale, cfg.Seed+1); err != nil {
		return nil, err
	}
	db := mkDriver(eng)
	conn, err := verdictdb.Open(db, verdictdb.Defaults())
	if err != nil {
		return nil, err
	}
	if cfg.BlockRows > 0 {
		conn.Builder().BlockRows = cfg.BlockRows
	}
	for _, stmt := range []string{
		"create uniform sample of order_products ratio 0.02",
		"create hashed sample of order_products on (order_id) ratio 0.02",
		"create uniform sample of orders ratio 0.02",
		"create hashed sample of orders on (user_id) ratio 0.02",
		"create hashed sample of orders on (order_id) ratio 0.02",
		"create stratified sample of orders on (order_dow) ratio 0.02",
		"create stratified sample of orders on (order_hour) ratio 0.02",
	} {
		if err := conn.Exec(stmt); err != nil {
			return nil, fmt.Errorf("bench: %s: %w", stmt, err)
		}
	}
	return &Env{Eng: eng, Conn: conn, DB: db}, nil
}

// cellMatch is one aggregate cell of an approximate answer beside the exact
// answer's cell of the same group.
type cellMatch struct {
	col      int // select-item index
	exact    float64
	estimate float64
	lo, hi   float64
	interval bool // the estimate carries a confidence interval
	missing  bool // the exact cell has a value, the estimate is NULL or NaN
}

// answerMatch is an approximate answer paired with the exact one.
type answerMatch struct {
	items []sqlparser.SelectItem // the query's select items, one per column
	isAgg []bool                 // the item holds an aggregate: its cells are estimates
	cells []cellMatch
	// absentGroups counts exact groups the approximate answer lacks; 0 where
	// the keys cannot be promised (see matchAnswers).
	absentGroups int
}

// matchAnswers pairs every aggregate cell of approx with the exact answer's
// cell of the same group, by the rule benchmark/verify.go applies: select
// items that hold an aggregate are estimates, the rest form the group key. A
// LIMIT picks groups by estimated rank, and tq-13 groups by an inner
// aggregate that is itself estimated: for those an unmatched group on either
// side is skipped, not counted.
func matchAnswers(q workload.Query, exact, approx *verdictdb.Answer) (*answerMatch, error) {
	stmt, err := sqlparser.Parse(q.SQL)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", q.ID, err)
	}
	sel, ok := stmt.(*sqlparser.SelectStmt)
	if !ok || len(sel.Items) != len(approx.Cols) || len(sel.Items) != len(exact.Cols) {
		return nil, fmt.Errorf("%s: cannot tell the aggregate columns from the SQL", q.ID)
	}
	m := &answerMatch{items: sel.Items, isAgg: make([]bool, len(sel.Items))}
	for c, it := range sel.Items {
		m.isAgg[c] = it.Expr != nil && sqlparser.ContainsAggregate(it.Expr)
	}
	keyOf := func(row []engine.Value) string {
		var b strings.Builder
		for c, agg := range m.isAgg {
			if !agg {
				b.WriteString(engine.GroupKey(row[c]))
				b.WriteByte(0x1f)
			}
		}
		return b.String()
	}
	exactByKey := make(map[string][]engine.Value, len(exact.Rows))
	for _, row := range exact.Rows {
		exactByKey[keyOf(row)] = row
	}
	matched := make(map[string]bool, len(approx.Rows))
	for r, row := range approx.Rows {
		k := keyOf(row)
		erow, ok := exactByKey[k]
		if !ok {
			continue
		}
		matched[k] = true
		for c, agg := range m.isAgg {
			want, isNum := engine.ToFloat(erow[c])
			if !agg || !isNum {
				continue
			}
			cell := cellMatch{col: c, exact: want}
			got, isNum := engine.ToFloat(row[c])
			if !isNum || math.IsNaN(got) {
				cell.missing = true
			} else {
				cell.estimate = got
				cell.lo, cell.hi, cell.interval = approx.ConfidenceInterval(r, c)
			}
			m.cells = append(m.cells, cell)
		}
	}
	if sel.Limit == nil && q.ID != "tq-13" {
		m.absentGroups = len(exactByKey) - len(matched)
	}
	return m, nil
}

// maxRelErr is Figure 10's metric: the worst |estimate − exact| / |exact|
// over the matched cells, a missing estimate counting as 1.
func (m *answerMatch) maxRelErr() float64 {
	worst := 0.0
	for _, c := range m.cells {
		switch {
		case c.missing:
			worst = max(worst, 1)
		case c.exact != 0:
			worst = max(worst, math.Abs(c.estimate-c.exact)/math.Abs(c.exact))
		}
	}
	return worst
}
