// Package drivers contains the thin per-engine shims the paper describes in
// Section 2.1: each driver knows one backend's SQL dialect (identifier
// quoting, function spellings, dialect quirks such as Impala's ban on
// rand() in WHERE) and nothing else.
//
// In the paper these wrap JDBC/ODBC connections to real clusters; here they
// wrap the in-memory engine substrate, so every dialect runs on the same
// engine at the same cost. The drivers differ only in the SQL they accept,
// and a caller that wants a latency times its own calls.
package drivers

import (
	"context"
	"fmt"
	"strings"
	"time"

	"verdictdb/internal/engine"
	"verdictdb/internal/sqlparser"
)

// DB is the interface VerdictDB's middleware uses to talk to an underlying
// database. Everything is SQL-in, rows-out — exactly the contract the paper
// imposes on itself.
type DB interface {
	// Name identifies the backend ("impala", "sparksql", "redshift", ...).
	Name() string
	// Dialect returns the SQL dialect used when rendering statements.
	Dialect() sqlparser.Dialect
	// ExecContext runs a DDL/DML statement honoring the caller's context:
	// the statement observes cancellation, deadlines, and any memory budget
	// ctx carries.
	ExecContext(ctx context.Context, sql string) error
	// QueryContext runs a SELECT under ctx and returns its result set.
	QueryContext(ctx context.Context, sql string) (*engine.ResultSet, error)
	// Columns returns the column names of a table via a LIMIT 0 probe,
	// which a backend answers from its catalog without reading rows.
	Columns(table string) ([]string, error)
	// RowCount returns a table's cardinality from the engine's catalog
	// statistics (real engines expose this without scanning).
	RowCount(table string) (int64, error)
}

// Driver is a DB implementation wrapping the in-memory engine. It is safe
// for concurrent use: the engine synchronizes table access internally and
// the Driver's own fields are read-only after construction.
type Driver struct {
	name    string
	eng     *engine.Engine
	dialect sqlparser.Dialect
}

var _ DB = (*Driver)(nil)

// Engine exposes the wrapped engine (tests and data loaders use it).
func (d *Driver) Engine() *engine.Engine { return d.eng }

// Name implements DB.
func (d *Driver) Name() string { return d.name }

// Dialect implements DB.
func (d *Driver) Dialect() sqlparser.Dialect { return d.dialect }

// Exec is ExecContext without a context, for callers holding the concrete
// driver (tests, data loaders).
func (d *Driver) Exec(sql string) error {
	return d.ExecContext(context.Background(), sql)
}

// ExecContext implements DB.
func (d *Driver) ExecContext(ctx context.Context, sql string) error {
	_, err := d.eng.ExecContext(ctx, sql)
	return err
}

// Query is QueryContext without a context, for callers holding the concrete
// driver.
func (d *Driver) Query(sql string) (*engine.ResultSet, error) {
	return d.eng.Query(sql)
}

// QueryContext implements DB.
func (d *Driver) QueryContext(ctx context.Context, sql string) (*engine.ResultSet, error) {
	return d.eng.QueryContext(ctx, sql)
}

// QueryTimed is QueryTimedContext without a context.
func (d *Driver) QueryTimed(sql string) (*engine.ResultSet, time.Duration, error) {
	return d.QueryTimedContext(context.Background(), sql)
}

// QueryTimedContext runs a SELECT and reports its measured latency. Only the
// repository benchmark's seam wrapper calls it; the middleware times its own
// backend calls.
func (d *Driver) QueryTimedContext(ctx context.Context, sql string) (*engine.ResultSet, time.Duration, error) {
	start := time.Now()
	rs, err := d.eng.QueryContext(ctx, sql)
	return rs, time.Since(start), err
}

// Columns implements DB with a LIMIT 0 probe — the same trick the paper's
// middleware uses to learn schemas through a plain SQL interface. The
// engine pushes the bound into the scan, so the probe loads no chunk and
// costs the same whatever the table's size.
func (d *Driver) Columns(table string) ([]string, error) {
	rs, err := d.eng.Query("select * from " + table + " limit 0")
	if err != nil {
		return nil, err
	}
	return rs.Cols, nil
}

// RowCount implements DB from the engine's catalog metadata.
func (d *Driver) RowCount(table string) (int64, error) {
	if !d.eng.HasTable(table) {
		return 0, fmt.Errorf("drivers: unknown table %q", table)
	}
	return int64(d.eng.RowCount(table)), nil
}

// NewGeneric wraps an engine with the canonical dialect.
func NewGeneric(e *engine.Engine) *Driver {
	return &Driver{name: "generic", eng: e, dialect: sqlparser.DefaultDialect}
}

// NewImpala speaks Apache Impala's dialect: backtick identifier quoting,
// rand() disallowed in WHERE predicates, the hash spelled via crc32.
func NewImpala(e *engine.Engine) *Driver {
	return &Driver{
		name: "impala",
		eng:  e,
		dialect: sqlparser.Dialect{
			Name:          "impala",
			QuoteIdent:    func(s string) string { return "`" + s + "`" },
			NoRandInWhere: true,
			FuncName: func(f string) string {
				if f == "hash01" {
					return "crc32_ratio" // Impala driver spells the hash via crc32
				}
				return f
			},
		},
	}
}

// NewSparkSQL speaks Spark SQL's dialect: unquoted identifiers, rand()
// everywhere.
func NewSparkSQL(e *engine.Engine) *Driver {
	return &Driver{name: "sparksql", eng: e, dialect: sqlparser.Dialect{Name: "sparksql"}}
}

// NewRedshift speaks Amazon Redshift's dialect: double-quote identifier
// quoting, random() instead of rand(), the hash spelled via md5.
func NewRedshift(e *engine.Engine) *Driver {
	return &Driver{
		name: "redshift",
		eng:  e,
		dialect: sqlparser.Dialect{
			Name:       "redshift",
			QuoteIdent: func(s string) string { return `"` + s + `"` },
			FuncName: func(f string) string {
				switch f {
				case "rand":
					return "random"
				case "hash01":
					return "md5_ratio"
				}
				return f
			},
		},
	}
}

// Render renders a statement in this driver's dialect — the Syntax Changer
// step of Figure 1b.
func Render(d DB, stmt sqlparser.Statement) string {
	return sqlparser.FormatDialect(stmt, d.Dialect())
}

// QualifyTemp builds an engine-safe scratch table name.
func QualifyTemp(parts ...string) string {
	return "verdict_tmp_" + strings.Join(parts, "_")
}
