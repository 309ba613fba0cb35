package verdictdb

// database/sql integration: VerdictDB registers itself as a driver named
// "verdictdb", so existing Go applications can consume approximate answers
// through the standard library's interfaces without code changes — the
// paper's "transparent mode" (Section 2.4) for legacy applications. Error
// estimates stay out of the result set unless the connection is opened with
// errcols=1, mirroring the paper's default of not disturbing legacy readers.
//
//	db, _ := sql.Open("verdictdb", "dataset=insta;scale=0.1;samples=auto")
//	rows, _ := db.Query("select order_dow, count(*) from orders group by order_dow")
//
// Because the engine is in-process, each distinct DSN maps to one shared
// engine instance; opening the same DSN twice shares data and samples. The
// instances are reference-counted per driver connection: when database/sql
// closes the last pooled connection for a DSN (db.Close, pool eviction),
// the engine is released and its memory becomes collectible. The driver and
// its connections are safe for the standard library's concurrent use.

import (
	"context"
	"database/sql"
	"database/sql/driver"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"

	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/workload"
)

// theDriver is the registered driver instance (package-level so tests can
// observe the instance table).
var theDriver = &sqlDriver{instances: map[string]*dsnInstance{}}

func init() {
	sql.Register("verdictdb", theDriver)
}

// dsnInstance is one shared engine pinned by refs open driver connections.
type dsnInstance struct {
	conn *Conn
	eng  *engine.Engine
	// target is the DSN's progressive-execution target relative error;
	// 0 means plain single-shot Query.
	target float64
	refs   int // guarded by sqlDriver.mu
}

type sqlDriver struct {
	mu        sync.Mutex
	instances map[string]*dsnInstance
}

// Open implements driver.Driver. DSN options (semicolon-separated):
//
//	dataset=insta|tpch|none   bundled dataset to load (default none)
//	scale=0.1                 dataset scale factor
//	seed=42                   engine seed
//	samples=auto              build 1% uniform samples on fact tables
//	errcols=1                 append <col>_err columns to outputs
//	target=0.05               progressive execution: stop scanning once the
//	                          estimated relative error reaches the target
//	membudget=268435456       per-query memory budget in bytes; overruns
//	                          abort the query with ErrMemoryBudget
//	datadir=/path/to/dir      persistent storage: segments + manifest live
//	                          here; reopening the DSN recovers tables and
//	                          samples (skips dataset loading when the
//	                          directory already holds tables)
//	cachemb=256               decoded-chunk cache budget in MiB for
//	                          segment-backed scans (with datadir)
func (d *sqlDriver) Open(dsn string) (driver.Conn, error) {
	d.mu.Lock()
	inst, ok := d.instances[dsn]
	if ok {
		inst.refs++
		d.mu.Unlock()
		return &sqlConn{driver: d, dsn: dsn, conn: inst.conn, target: inst.target}, nil
	}
	d.mu.Unlock()

	// Building an engine can load a whole dataset; do it outside the lock
	// so other DSNs stay usable meanwhile.
	conn, eng, target, err := buildFromDSN(dsn)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	var loser *engine.Engine
	if inst, ok = d.instances[dsn]; ok {
		// Another goroutine built the same DSN concurrently; keep the first
		// instance so all connections share data and samples, and close the
		// duplicate engine (it may hold segment files open).
		inst.refs++
		loser = eng
	} else {
		inst = &dsnInstance{conn: conn, eng: eng, target: target, refs: 1}
		d.instances[dsn] = inst
	}
	c := &sqlConn{driver: d, dsn: dsn, conn: inst.conn, target: inst.target}
	d.mu.Unlock()
	if loser != nil {
		_ = loser.Close()
	}
	return c, nil
}

// release drops one reference to a DSN's engine, evicting the instance when
// the last driver connection closes. Evicted engines are closed (final
// flush, manifest commit, segment handles released) outside the lock so a
// slow fsync cannot stall other DSNs.
func (d *sqlDriver) release(dsn string) {
	d.mu.Lock()
	var evicted *engine.Engine
	if inst, ok := d.instances[dsn]; ok {
		inst.refs--
		if inst.refs <= 0 {
			delete(d.instances, dsn)
			evicted = inst.eng
		}
	}
	d.mu.Unlock()
	if evicted != nil {
		_ = evicted.Close()
	}
}

// openDSNs reports how many DSN instances are currently pinned (tests).
func (d *sqlDriver) openDSNs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.instances)
}

func buildFromDSN(dsn string) (*Conn, *engine.Engine, float64, error) {
	opts := Defaults()
	dataset := "none"
	scale := 0.1
	seed := int64(42)
	samples := ""
	target := 0.0
	datadir := ""
	cacheMB := int64(-1)
	for _, kv := range strings.Split(dsn, ";") {
		kv = strings.TrimSpace(kv)
		if kv == "" {
			continue
		}
		parts := strings.SplitN(kv, "=", 2)
		if len(parts) != 2 {
			return nil, nil, 0, fmt.Errorf("verdictdb: bad DSN option %q", kv)
		}
		key, val := strings.ToLower(parts[0]), parts[1]
		switch key {
		case "dataset":
			dataset = strings.ToLower(val)
		case "scale":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("verdictdb: bad scale %q", val)
			}
			scale = f
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("verdictdb: bad seed %q", val)
			}
			seed = n
		case "samples":
			samples = strings.ToLower(val)
		case "errcols":
			opts.ErrorColumns = val == "1" || strings.EqualFold(val, "true")
		case "budget":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, nil, 0, fmt.Errorf("verdictdb: bad budget %q", val)
			}
			opts.Planner.IOBudget = f
		case "target":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || f < 0 {
				return nil, nil, 0, fmt.Errorf("verdictdb: bad target %q", val)
			}
			target = f
		case "membudget":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return nil, nil, 0, fmt.Errorf("verdictdb: bad membudget %q", val)
			}
			opts.MemoryBudgetBytes = n
		case "datadir":
			datadir = val
		case "cachemb":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 0 {
				return nil, nil, 0, fmt.Errorf("verdictdb: bad cachemb %q", val)
			}
			cacheMB = n
		default:
			return nil, nil, 0, fmt.Errorf("verdictdb: unknown DSN option %q", key)
		}
	}
	eng := engine.NewSeeded(seed)
	recovered := false
	if datadir != "" {
		rep, err := eng.AttachDataDir(datadir)
		if err != nil {
			return nil, nil, 0, fmt.Errorf("verdictdb: opening datadir %s: %w", datadir, err)
		}
		recovered = rep.Tables > 0
	}
	if cacheMB >= 0 {
		eng.SetChunkCacheBytes(cacheMB << 20)
	}
	var facts []string
	switch dataset {
	case "insta":
		facts = workload.InstaFactTables
		if !recovered {
			if err := workload.LoadInsta(eng, scale, seed); err != nil {
				return nil, nil, 0, err
			}
		}
	case "tpch":
		facts = workload.TPCHFactTables
		if !recovered {
			if err := workload.LoadTPCH(eng, scale, seed); err != nil {
				return nil, nil, 0, err
			}
		}
	case "none":
	default:
		return nil, nil, 0, fmt.Errorf("verdictdb: unknown dataset %q", dataset)
	}
	conn, err := Open(drivers.NewGeneric(eng), opts)
	if err != nil {
		return nil, nil, 0, err
	}
	if samples == "auto" {
		existing, _ := conn.Samples()
		if !recovered || len(existing) == 0 {
			for _, tbl := range facts {
				if err := conn.Exec(fmt.Sprintf("create uniform sample of %s ratio 0.01", tbl)); err != nil {
					return nil, nil, 0, err
				}
			}
		}
	}
	return conn, eng, target, nil
}

// sqlConn adapts Conn to driver.Conn. VerdictDB has no transactions; Begin
// returns an error, and prepared statements capture the SQL verbatim
// (placeholders are not supported — AQP queries are analytic one-offs).
// Closing releases this connection's reference on the shared DSN engine.
type sqlConn struct {
	driver *sqlDriver
	dsn    string
	conn   *Conn
	// target routes SELECTs through QueryWithAccuracy when > 0 (the DSN's
	// target= option): legacy readers get anytime answers transparently.
	target float64

	mu     sync.Mutex
	closed bool
}

var (
	_ driver.Conn               = (*sqlConn)(nil)
	_ driver.Queryer            = (*sqlConn)(nil) //nolint:staticcheck // Queryer is the pre-context interface
	_ driver.Execer             = (*sqlConn)(nil) //nolint:staticcheck
	_ driver.QueryerContext     = (*sqlConn)(nil)
	_ driver.ExecerContext      = (*sqlConn)(nil)
	_ driver.ConnBeginTx        = (*sqlConn)(nil)
	_ driver.ConnPrepareContext = (*sqlConn)(nil)
	_ driver.StmtQueryContext   = (*sqlStmt)(nil)
	_ driver.StmtExecContext    = (*sqlStmt)(nil)
)

func (c *sqlConn) Prepare(query string) (driver.Stmt, error) {
	return &sqlStmt{conn: c.conn, query: query, target: c.target}, nil
}

func (c *sqlConn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	c.driver.release(c.dsn)
	return nil
}

func (c *sqlConn) Begin() (driver.Tx, error) {
	return nil, fmt.Errorf("verdictdb: transactions are not supported")
}

// BeginTx implements driver.ConnBeginTx; without it database/sql would fall
// back to Begin and silently drop the caller's context and isolation options.
func (c *sqlConn) BeginTx(ctx context.Context, opts driver.TxOptions) (driver.Tx, error) {
	return nil, fmt.Errorf("verdictdb: transactions are not supported")
}

// PrepareContext implements driver.ConnPrepareContext (preparation itself is
// instant — the SQL is captured verbatim — but the statement's later
// QueryContext/ExecContext honor their own contexts).
func (c *sqlConn) PrepareContext(ctx context.Context, query string) (driver.Stmt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return &sqlStmt{conn: c.conn, query: query, target: c.target}, nil
}

// Query implements driver.Queryer.
func (c *sqlConn) Query(query string, args []driver.Value) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, driver.ErrSkip
	}
	a, err := queryMaybeProgressive(context.Background(), c.conn, query, c.target)
	if err != nil {
		return nil, err
	}
	return newSQLRows(a), nil
}

// Exec implements driver.Execer.
func (c *sqlConn) Exec(query string, args []driver.Value) (driver.Result, error) {
	if len(args) > 0 {
		return nil, driver.ErrSkip
	}
	if err := c.conn.Exec(query); err != nil {
		return nil, err
	}
	return driver.RowsAffected(0), nil
}

// QueryContext implements driver.QueryerContext: db.QueryContext cancels and
// deadlines propagate into the engine scan instead of only abandoning the
// result.
func (c *sqlConn) QueryContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, driver.ErrSkip
	}
	a, err := queryMaybeProgressive(ctx, c.conn, query, c.target)
	if err != nil {
		return nil, err
	}
	return newSQLRows(a), nil
}

// ExecContext implements driver.ExecerContext.
func (c *sqlConn) ExecContext(ctx context.Context, query string, args []driver.NamedValue) (driver.Result, error) {
	if len(args) > 0 {
		return nil, driver.ErrSkip
	}
	if err := c.conn.ExecContext(ctx, query); err != nil {
		return nil, err
	}
	return driver.RowsAffected(0), nil
}

type sqlStmt struct {
	conn   *Conn
	query  string
	target float64
}

// queryMaybeProgressive runs one statement, with accuracy-driven early
// stopping when the DSN configured a target relative error.
func queryMaybeProgressive(ctx context.Context, conn *Conn, query string, target float64) (*Answer, error) {
	if target > 0 {
		return conn.QueryWithAccuracyContext(ctx, query, target)
	}
	return conn.QueryContext(ctx, query)
}

func (s *sqlStmt) Close() error  { return nil }
func (s *sqlStmt) NumInput() int { return 0 }

func (s *sqlStmt) Exec(args []driver.Value) (driver.Result, error) {
	if err := s.conn.Exec(s.query); err != nil {
		return nil, err
	}
	return driver.RowsAffected(0), nil
}

func (s *sqlStmt) Query(args []driver.Value) (driver.Rows, error) {
	a, err := queryMaybeProgressive(context.Background(), s.conn, s.query, s.target)
	if err != nil {
		return nil, err
	}
	return newSQLRows(a), nil
}

// QueryContext implements driver.StmtQueryContext.
func (s *sqlStmt) QueryContext(ctx context.Context, args []driver.NamedValue) (driver.Rows, error) {
	if len(args) > 0 {
		return nil, driver.ErrSkip
	}
	a, err := queryMaybeProgressive(ctx, s.conn, s.query, s.target)
	if err != nil {
		return nil, err
	}
	return newSQLRows(a), nil
}

// ExecContext implements driver.StmtExecContext.
func (s *sqlStmt) ExecContext(ctx context.Context, args []driver.NamedValue) (driver.Result, error) {
	if len(args) > 0 {
		return nil, driver.ErrSkip
	}
	if err := s.conn.ExecContext(ctx, s.query); err != nil {
		return nil, err
	}
	return driver.RowsAffected(0), nil
}

// sqlRows adapts an Answer to driver.Rows.
type sqlRows struct {
	answer *Answer
	pos    int
}

func newSQLRows(a *Answer) *sqlRows { return &sqlRows{answer: a} }

func (r *sqlRows) Columns() []string { return r.answer.Cols }
func (r *sqlRows) Close() error      { return nil }

func (r *sqlRows) Next(dest []driver.Value) error {
	if r.pos >= len(r.answer.Rows) {
		return io.EOF
	}
	row := r.answer.Rows[r.pos]
	r.pos++
	for i := range dest {
		if i < len(row) {
			dest[i] = row[i]
		} else {
			dest[i] = nil
		}
	}
	return nil
}
