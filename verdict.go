// Package verdictdb is a Go implementation of VerdictDB (Park, Mozafari,
// Sorenson, Wang — SIGMOD 2018): a database-agnostic approximate query
// processing (AQP) middleware. It never touches database internals;
// everything — sample construction, query approximation, and error
// estimation via the paper's variational subsampling — is expressed as
// standard SQL executed by the underlying engine.
//
// Quickstart:
//
//	eng := engine.NewSeeded(1)              // or any drivers.DB backend
//	// ... load data into eng ...
//	conn, _ := verdictdb.Open(drivers.NewGeneric(eng), verdictdb.Defaults())
//	conn.Exec("create uniform sample of lineitem ratio 0.01")
//	answer, _ := conn.Query("select l_returnflag, count(*) c from lineitem group by l_returnflag")
//	lo, hi, _ := answer.ConfidenceInterval(0, 1)
//
// Queries VerdictDB cannot speed up (Table 1 of the paper) pass through to
// the underlying engine unchanged.
package verdictdb

import (
	"context"
	"fmt"
	"strings"
	"time"

	"verdictdb/internal/core"
	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/meta"
	"verdictdb/internal/sampling"
	"verdictdb/internal/sqlparser"
)

// Answer re-exports the middleware answer type: approximate (or exact)
// rows plus standard errors, confidence intervals, and provenance.
type Answer = core.Answer

// Options re-exports the middleware options (I/O budget, confidence,
// accuracy contract, error-estimation method).
type Options = core.Options

// ProgressiveUpdate re-exports one block prefix's intermediate answer as
// delivered to QueryProgressive callbacks.
type ProgressiveUpdate = core.ProgressiveUpdate

// SampleInfo re-exports sample metadata.
type SampleInfo = meta.SampleInfo

// InternalError re-exports the contained-panic error type: a crash inside
// one query's execution surfaces as *InternalError on that query alone,
// carrying the panic value and stack, while the engine keeps serving other
// clients.
type InternalError = engine.InternalError

// ErrMemoryBudget re-exports the sentinel wrapped by every per-query
// memory-budget overrun; test with errors.Is(err, verdictdb.ErrMemoryBudget).
var ErrMemoryBudget = engine.ErrMemoryBudget

// ErrCatalogChanged re-exports the progressive-execution sentinel returned
// when sample DDL bumps the catalog version between block prefixes.
var ErrCatalogChanged = core.ErrCatalogChanged

// WithMemoryBudget returns a context carrying a per-query memory budget in
// bytes for queries run under it; it overrides Options.MemoryBudgetBytes.
func WithMemoryBudget(ctx context.Context, bytes int64) context.Context {
	return engine.WithMemoryBudget(ctx, bytes)
}

// Defaults returns the paper's default options: 2% I/O budget, 95%
// confidence, variational subsampling.
func Defaults() Options { return core.DefaultOptions() }

// Conn is a VerdictDB connection: a middleware bound to one underlying
// database. A Conn is safe for concurrent use by multiple goroutines: the
// engine serializes table mutations internally, the catalog is a versioned
// snapshot, sample DDL is serialized by the builder, and repeated query
// shapes are served from the middleware's plan/rewrite cache (invalidated
// whenever the catalog version bumps).
type Conn struct {
	db      drivers.DB
	catalog *meta.Catalog
	builder *sampling.Builder
	mw      *core.Middleware
	opts    Options
}

// Open connects VerdictDB to an underlying database. Sample metadata is
// stored inside that database, so reconnecting rediscovers prior samples.
func Open(db drivers.DB, opts Options) (*Conn, error) {
	cat, err := meta.Open(db)
	if err != nil {
		return nil, err
	}
	// An engine restored from a data directory may have recovered less than
	// the catalog remembers (crash recovery quarantines damaged segments):
	// reconcile the rediscovered sample records against the actual tables
	// before any query plans over them.
	if d, ok := db.(*drivers.Driver); ok && d.Engine().DataDirAttached() {
		if err := cat.Reconcile(sampling.BlockCol); err != nil {
			return nil, err
		}
	}
	return &Conn{
		db:      db,
		catalog: cat,
		builder: sampling.NewBuilder(db, cat),
		mw:      core.New(db, cat, opts),
		opts:    opts,
	}, nil
}

// OpenInMemory builds a fresh in-memory engine with the generic driver —
// the quickest way to try the library.
func OpenInMemory(seed int64, opts Options) (*Conn, *engine.Engine, error) {
	eng := engine.NewSeeded(seed)
	conn, err := Open(drivers.NewGeneric(eng), opts)
	if err != nil {
		return nil, nil, err
	}
	return conn, eng, nil
}

// DB exposes the underlying database handle.
func (c *Conn) DB() drivers.DB { return c.db }

// Builder exposes the sample builder for advanced control (staircase
// parameters, append maintenance).
func (c *Conn) Builder() *sampling.Builder { return c.builder }

// Middleware exposes the core middleware (benchmarks use it directly).
func (c *Conn) Middleware() *core.Middleware { return c.mw }

// Samples lists all registered samples.
func (c *Conn) Samples() ([]SampleInfo, error) { return c.catalog.List() }

// CatalogVersion returns the sample catalog's version; it bumps on every
// sample DDL and invalidates cached plans.
func (c *Conn) CatalogVersion() int64 { return c.catalog.Version() }

// CacheStats reports the plan/rewrite cache's cumulative hits and misses.
func (c *Conn) CacheStats() (hits, misses int64) { return c.mw.CacheStats() }

// ReconcileSamples re-verifies registered samples against their tables,
// dropping records for missing tables and recounting rows and block counts
// where they disagree — for callers that attach persistent storage (or
// otherwise mutate tables) after the connection was opened.
func (c *Conn) ReconcileSamples() error {
	return c.catalog.Reconcile(sampling.BlockCol)
}

// DropSample removes a sample: its catalog record first (bumping the
// catalog version, so cached plans referencing it go stale immediately),
// then the sample table itself. In-flight queries already holding a plan
// over the table fall back to exact execution when it disappears.
func (c *Conn) DropSample(sampleTable string) error {
	if err := c.catalog.Drop(sampleTable); err != nil {
		return err
	}
	stmt, err := sqlparser.Parse("drop table if exists " + sampleTable)
	if err != nil {
		return fmt.Errorf("verdictdb: bad sample table name %q: %w", sampleTable, err)
	}
	return c.db.ExecContext(context.Background(), drivers.Render(c.db, stmt))
}

// Query runs SQL through the AQP pipeline. SELECT statements with supported
// aggregates are answered approximately from samples; everything else is
// passed through to the underlying database. The VerdictDB extension
// statements are handled here:
//
//	CREATE [UNIFORM|HASHED|STRATIFIED] SAMPLE OF tbl [ON (cols)] [RATIO r]
//	SHOW SAMPLES
//	BYPASS <sql>          -- force exact execution
func (c *Conn) Query(sql string) (*Answer, error) {
	return c.query(context.Background(), sql, nil)
}

// QueryContext is Query honoring ctx end to end: cancellation or a deadline
// stops the engine scan within one chunk of work, and a memory budget on ctx
// (or Options.MemoryBudgetBytes) bounds the query's engine-side allocations,
// aborting it with ErrMemoryBudget instead of OOMing the process.
func (c *Conn) QueryContext(ctx context.Context, sql string) (*Answer, error) {
	return c.query(ctx, sql, nil)
}

// query is the one statement dispatcher behind every Query* and Exec*
// method. prog, when non-nil, runs an approximated SELECT progressively;
// statements without a progressive form ignore it.
func (c *Conn) query(ctx context.Context, sql string, prog *core.Progressive) (*Answer, error) {
	// Repeated SELECT shapes skip parse/analyze/plan/rewrite entirely: only
	// statements QuerySelect previously built can hit, so the statement
	// dispatch below is never bypassed for DDL or VerdictDB extensions.
	if a, handled, err := c.mw.QueryCached(ctx, sql, prog); handled {
		return a, err
	}
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *sqlparser.CreateSampleStmt:
		return c.createSample(s)
	case *sqlparser.ShowSamplesStmt:
		return c.showSamples()
	case *sqlparser.ExplainStmt:
		if sel, ok := s.Inner.(*sqlparser.SelectStmt); ok {
			return c.mw.Explain(ctx, sel)
		}
		return &Answer{
			Cols:       []string{"step", "detail"},
			Rows:       [][]engine.Value{{"support", "only SELECT statements are explained"}},
			Confidence: c.opts.Confidence,
		}, nil
	case *sqlparser.BypassStmt:
		if _, ok := s.Inner.(*sqlparser.SelectStmt); ok {
			start := time.Now()
			rs, err := c.db.QueryContext(ctx, s.SQL)
			if err != nil {
				return nil, err
			}
			a := exactToAnswer(rs, c.opts.Confidence)
			a.ElapsedNanos = time.Since(start).Nanoseconds()
			return a, nil
		}
		if err := c.db.ExecContext(ctx, s.SQL); err != nil {
			return nil, err
		}
		c.mw.InvalidateStats()
		return &Answer{Confidence: c.opts.Confidence}, nil
	case *sqlparser.SelectStmt:
		return c.mw.QuerySelect(ctx, s, sql, prog)
	default:
		if err := c.db.ExecContext(ctx, sql); err != nil {
			return nil, err
		}
		// DDL/DML may change base data: cached plans and row-count
		// statistics are stale.
		c.mw.InvalidateStats()
		return &Answer{Confidence: c.opts.Confidence}, nil
	}
}

// Exec is Query for statements whose result the caller ignores.
func (c *Conn) Exec(sql string) error {
	_, err := c.query(context.Background(), sql, nil)
	return err
}

// ExecContext is QueryContext for statements whose result the caller ignores.
func (c *Conn) ExecContext(ctx context.Context, sql string) error {
	_, err := c.query(ctx, sql, nil)
	return err
}

// QueryWithAccuracy is Query with accuracy-driven progressive execution:
// when the chosen plan reads a block-partitioned sample, the scan proceeds
// block-prefix by block-prefix and stops as soon as the estimated worst
// relative error (at the connection's confidence level) is at or below
// targetRelErr. targetRelErr <= 0 disables early stopping — the full sample
// is scanned and the answer matches Query exactly. Queries whose plans
// cannot run progressively (passthrough, multi-plan merges, extreme
// statistics, count-distinct, nested aggregate blocks) behave exactly like
// Query.
func (c *Conn) QueryWithAccuracy(sql string, targetRelErr float64) (*Answer, error) {
	return c.query(context.Background(), sql, &core.Progressive{Target: targetRelErr})
}

// QueryWithAccuracyContext is QueryWithAccuracy honoring ctx. A deadline
// expiring after at least one block prefix completed returns that prefix's
// unbiased partial answer flagged Answer.Degraded() instead of an error;
// cancellation always returns ctx.Err(). Sample DDL racing the query
// surfaces as ErrCatalogChanged.
func (c *Conn) QueryWithAccuracyContext(ctx context.Context, sql string, targetRelErr float64) (*Answer, error) {
	return c.query(ctx, sql, &core.Progressive{Target: targetRelErr})
}

// QueryProgressive is QueryWithAccuracy with a streaming callback: cb (when
// non-nil) receives each block prefix's intermediate answer as it is
// computed, then the final answer with Final set. Returning false from cb
// accepts the current prefix's accuracy and stops the scan early.
func (c *Conn) QueryProgressive(sql string, targetRelErr float64, cb func(ProgressiveUpdate) bool) (*Answer, error) {
	return c.query(context.Background(), sql, &core.Progressive{Target: targetRelErr, Callback: cb})
}

// QueryProgressiveContext is QueryProgressive honoring ctx; see
// QueryWithAccuracyContext for the deadline-degradation contract.
// VerdictDB extension statements and DDL/DML have no progressive form and
// run as under QueryContext.
func (c *Conn) QueryProgressiveContext(ctx context.Context, sql string, targetRelErr float64, cb func(ProgressiveUpdate) bool) (*Answer, error) {
	return c.query(ctx, sql, &core.Progressive{Target: targetRelErr, Callback: cb})
}

// CreateUniformSample builds a uniform sample with parameter tau.
func (c *Conn) CreateUniformSample(table string, tau float64) (SampleInfo, error) {
	return c.builder.CreateUniform(table, tau)
}

// CreateHashedSample builds a universe sample on a column.
func (c *Conn) CreateHashedSample(table, column string, tau float64) (SampleInfo, error) {
	return c.builder.CreateHashed(table, column, tau)
}

// CreateStratifiedSample builds a stratified sample on a column set.
func (c *Conn) CreateStratifiedSample(table string, columns []string, tau float64) (SampleInfo, error) {
	return c.builder.CreateStratified(table, columns, tau)
}

// CreateAutoSamples applies the default sampling policy (Appendix F).
func (c *Conn) CreateAutoSamples(table string) ([]SampleInfo, error) {
	return c.builder.CreateAuto(table)
}

func (c *Conn) createSample(s *sqlparser.CreateSampleStmt) (*Answer, error) {
	ratio := s.Ratio
	if ratio == 0 {
		ratio = 0.01 // the paper's default tau
	}
	var si SampleInfo
	var err error
	switch s.Type {
	case sqlparser.UniformSample:
		si, err = c.builder.CreateUniform(s.Table, ratio)
	case sqlparser.HashedSample:
		if len(s.Columns) != 1 {
			return nil, fmt.Errorf("verdictdb: hashed sample needs exactly one ON column")
		}
		si, err = c.builder.CreateHashed(s.Table, s.Columns[0], ratio)
	case sqlparser.StratifiedSample:
		si, err = c.builder.CreateStratified(s.Table, s.Columns, ratio)
	default:
		return nil, fmt.Errorf("verdictdb: unknown sample type")
	}
	if err != nil {
		return nil, err
	}
	return &Answer{
		Cols:       []string{"sample_table", "rows"},
		Rows:       [][]engine.Value{{si.SampleTable, si.SampleRows}},
		Confidence: c.opts.Confidence,
	}, nil
}

func (c *Conn) showSamples() (*Answer, error) {
	infos, err := c.catalog.List()
	if err != nil {
		return nil, err
	}
	a := &Answer{
		Cols:       []string{"sample_table", "base_table", "type", "ratio", "columns", "sample_rows", "base_rows", "subsamples"},
		Confidence: c.opts.Confidence,
	}
	for _, si := range infos {
		a.Rows = append(a.Rows, []engine.Value{
			si.SampleTable, si.BaseTable, si.Type.String(), si.Ratio,
			strings.Join(si.Columns, ","), si.SampleRows, si.BaseRows, si.Subsamples,
		})
	}
	return a, nil
}

// exactToAnswer wraps a bypass result. Like core's exact answers, rows are
// copied so later mutation of the ResultSet cannot corrupt the Answer.
func exactToAnswer(rs *engine.ResultSet, confidence float64) *Answer {
	rows := make([][]engine.Value, len(rs.Rows))
	for i, r := range rs.Rows {
		rows[i] = append([]engine.Value(nil), r...)
	}
	return &Answer{
		Cols:        append([]string(nil), rs.Cols...),
		Rows:        rows,
		Confidence:  confidence,
		RowsScanned: rs.RowsScanned,
	}
}
