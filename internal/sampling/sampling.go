// Package sampling creates VerdictDB's sample tables using nothing but SQL
// issued to the underlying database — the core constraint of Section 3.
// Uniform and hashed (universe) samples are single Bernoulli-filtered CTAS
// statements; stratified samples use the two-pass probabilistic scheme of
// Section 3.2, with the staircase CASE expression derived from Lemma 1.
//
// Every sample table carries two extra columns:
//
//	verdict_prob — the tuple's inclusion probability (Section 3.1)
//	verdict_sid  — the tuple's variational-subsample id in [1, b]
//
// verdict_sid implements the variational table of Definition 1 with
// b = sqrt(sample size) subsamples, materialized at creation time like the
// released VerdictDB (the rewritten query of Appendix G reads a stored
// sid).
package sampling

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/meta"
	"verdictdb/internal/sqlparser"
	"verdictdb/internal/stats"
)

// Reserved sample-table column names.
const (
	ProbCol = "verdict_prob"
	SidCol  = "verdict_sid"
	// BlockCol partitions a scramble into fixed-size blocks. Block ids are
	// 1-based and assigned independently of tuple values, so any block
	// prefix is itself a uniform random subsample of the sample — the
	// property the progressive executor's early stopping relies on.
	BlockCol = "_vdb_block"
)

// Builder creates samples against one underlying database. It is safe for
// concurrent use: sample DDL (creation, append maintenance) is serialized
// by an internal mutex — multi-statement builds (drop + CTAS + register)
// must not interleave — while queries against finished samples proceed
// concurrently through the engine.
type Builder struct {
	db  drivers.DB
	cat *meta.Catalog

	// mu serializes sample DDL. Tuning fields below are read under it too,
	// so adjust them before sharing the builder across goroutines.
	mu sync.Mutex

	// Delta is the per-stratum failure probability of Lemma 1 (default
	// 0.001, the paper's default).
	Delta float64 // guarded by mu
	// MinStratumRows floors the per-stratum minimum m (Equation 1's
	// |T| tau / d can be tiny for many-strata tables).
	MinStratumRows int64 // guarded by mu
	// StaircaseLevels is the number of CASE rungs (default 16).
	StaircaseLevels int // guarded by mu
	// AutoTargetRows drives the default sampling parameter of Appendix F:
	// tau = AutoTargetRows / |T| (paper default: 10M rows; scaled deployments
	// lower it).
	AutoTargetRows int64 // guarded by mu
	// BlockRows is the target rows per scramble block (the block size knob
	// of the progressive executor). Samples are partitioned into
	// ceil(rows/BlockRows) blocks at build time; <= 0 disables block
	// partitioning.
	BlockRows int64 // guarded by mu
}

// NewBuilder returns a Builder with the paper's defaults.
func NewBuilder(db drivers.DB, cat *meta.Catalog) *Builder {
	return &Builder{
		db:              db,
		cat:             cat,
		Delta:           0.001,
		MinStratumRows:  10,
		StaircaseLevels: 16,
		AutoTargetRows:  10_000_000,
		BlockRows:       1024,
	}
}

// SampleName builds the deterministic sample-table name for a base table,
// sample type, and ON-column list.
func SampleName(base string, typ sqlparser.SampleType, cols []string) string {
	name := strings.ToLower(base) + "_vdb_" + typ.String()
	if len(cols) > 0 {
		low := make([]string, len(cols))
		for i, c := range cols {
			low[i] = strings.ToLower(c)
		}
		name += "_" + strings.Join(low, "_")
	}
	return name
}

func (b *Builder) baseRows(table string) (int64, error) {
	rs, err := b.db.QueryContext(context.Background(), "select count(*) from "+table)
	if err != nil {
		return 0, err
	}
	n, _ := engine.ToInt(rs.Rows[0][0])
	return n, nil
}

// render converts a canonical SQL statement into the driver's dialect and
// executes it — the Syntax Changer path of Figure 1b.
func (b *Builder) render(canonical string) (string, error) {
	stmt, err := sqlparser.Parse(canonical)
	if err != nil {
		return "", fmt.Errorf("sampling: internal SQL failed to parse: %w (sql: %s)", err, canonical)
	}
	return drivers.Render(b.db, stmt), nil
}

func (b *Builder) exec(canonical string) error {
	sql, err := b.render(canonical)
	if err != nil {
		return err
	}
	return b.db.ExecContext(context.Background(), sql)
}

// subsampleCount picks b = sqrt(n) (Appendix B.3: ns = sqrt(n) minimizes
// the asymptotic error, and b = n / ns = sqrt(n)).
func subsampleCount(expectedRows float64) int64 {
	bb := int64(math.Round(math.Sqrt(expectedRows)))
	if bb < 2 {
		bb = 2
	}
	return bb
}

// blockCount picks the number of scramble blocks for an expected sample size.
// The caller holds b.mu.
func (b *Builder) blockCount(expectedRows float64) int64 {
	if b.BlockRows <= 0 {
		return 1
	}
	n := int64(math.Ceil(expectedRows / float64(b.BlockRows)))
	if n < 1 {
		n = 1
	}
	return n
}

// blockExpr renders the block-id assignment for fresh sample rows: a uniform
// random block in [1, nBlocks], independent of tuple values.
func blockExpr(nBlocks int64) string {
	if nBlocks <= 1 {
		return "1"
	}
	return fmt.Sprintf("1 + floor(rand() * %d)", nBlocks)
}

// CreateUniform builds a uniform (Bernoulli) sample with parameter tau.
func (b *Builder) CreateUniform(table string, tau float64) (meta.SampleInfo, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.createUniform(table, tau)
}

// createUniform is CreateUniform with b.mu held.
func (b *Builder) createUniform(table string, tau float64) (meta.SampleInfo, error) {
	if tau <= 0 || tau > 1 {
		return meta.SampleInfo{}, fmt.Errorf("sampling: tau %v out of (0,1]", tau)
	}
	n, err := b.baseRows(table)
	if err != nil {
		return meta.SampleInfo{}, err
	}
	cols, err := b.db.Columns(table)
	if err != nil {
		return meta.SampleInfo{}, err
	}
	name := SampleName(table, sqlparser.UniformSample, nil)
	bb := subsampleCount(tau * float64(n))
	nBlocks := b.blockCount(tau * float64(n))
	colList := strings.Join(cols, ", ")

	var sql string
	if b.db.Dialect().NoRandInWhere {
		// Impala-style: rand() must move out of the predicate.
		sql = fmt.Sprintf(
			`create table %s as select %s, %.10g as %s, 1 + floor(rand() * %d) as %s, %s as %s `+
				`from (select *, rand() as verdict_r from %s) as verdict_t0 where verdict_r < %.10g order by %s`,
			name, colList, tau, ProbCol, bb, SidCol, blockExpr(nBlocks), BlockCol, table, tau, BlockCol)
	} else {
		sql = fmt.Sprintf(
			`create table %s as select %s, %.10g as %s, 1 + floor(rand() * %d) as %s, %s as %s `+
				`from %s where rand() < %.10g order by %s`,
			name, colList, tau, ProbCol, bb, SidCol, blockExpr(nBlocks), BlockCol, table, tau, BlockCol)
	}
	if err := b.exec("drop table if exists " + name); err != nil {
		return meta.SampleInfo{}, err
	}
	if err := b.exec(sql); err != nil {
		return meta.SampleInfo{}, err
	}
	return b.register(meta.SampleInfo{
		SampleTable: name, BaseTable: table, Type: sqlparser.UniformSample,
		Ratio: tau, BaseRows: n, Subsamples: bb, BlockRows: b.BlockRows,
	})
}

// CreateHashed builds a hashed (universe) sample on one column: tuples whose
// hash01(column) falls below tau. Joining two hashed samples built on the
// join key with the same tau preserves the join (Section 5.1).
func (b *Builder) CreateHashed(table, column string, tau float64) (meta.SampleInfo, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.createHashed(table, column, tau)
}

// createHashed is CreateHashed with b.mu held.
func (b *Builder) createHashed(table, column string, tau float64) (meta.SampleInfo, error) {
	if tau <= 0 || tau > 1 {
		return meta.SampleInfo{}, fmt.Errorf("sampling: tau %v out of (0,1]", tau)
	}
	n, err := b.baseRows(table)
	if err != nil {
		return meta.SampleInfo{}, err
	}
	cols, err := b.db.Columns(table)
	if err != nil {
		return meta.SampleInfo{}, err
	}
	name := SampleName(table, sqlparser.HashedSample, []string{column})
	bb := subsampleCount(tau * float64(n))
	nBlocks := b.blockCount(tau * float64(n))
	colList := strings.Join(cols, ", ")
	// The subsample id is derived from the hash of the sampled column so
	// that identical keys land in identical subsamples on every table —
	// which is what makes universe-sample joins estimable. The block id
	// stays value-independent (rand), so a block prefix thins rows per key
	// rather than shrinking the key universe.
	sql := fmt.Sprintf(
		`create table %s as select %s, %.10g as %s, 1 + hash_bucket(%s, %d) as %s, %s as %s `+
			`from %s where hash01(%s) < %.10g order by %s`,
		name, colList, tau, ProbCol, column, bb, SidCol, blockExpr(nBlocks), BlockCol, table, column, tau, BlockCol)
	if err := b.exec("drop table if exists " + name); err != nil {
		return meta.SampleInfo{}, err
	}
	if err := b.exec(sql); err != nil {
		return meta.SampleInfo{}, err
	}
	// Record how many distinct hash keys the universe holds: the planner
	// refuses degenerate universes (Appendix F builds hashed samples only
	// on high-cardinality columns).
	rsKeys, err := b.db.QueryContext(context.Background(), fmt.Sprintf("select count(distinct %s) from %s", column, name))
	if err != nil {
		return meta.SampleInfo{}, err
	}
	keys, _ := engine.ToInt(rsKeys.Rows[0][0])
	return b.register(meta.SampleInfo{
		SampleTable: name, BaseTable: table, Type: sqlparser.HashedSample,
		Ratio: tau, Columns: []string{strings.ToLower(column)},
		BaseRows: n, Subsamples: bb, UniverseKeys: keys, BlockRows: b.BlockRows,
	})
}

// CreateStratified builds a stratified sample on a column set using the
// paper's two-pass scheme: pass one counts stratum sizes; pass two joins the
// counts back and Bernoulli-samples with the staircase probability, which
// guarantees (w.p. 1-Delta per stratum) at least m tuples per stratum,
// m = max(MinStratumRows, |T| tau / d) as in Equation 1.
func (b *Builder) CreateStratified(table string, columns []string, tau float64) (meta.SampleInfo, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.createStratified(table, columns, tau)
}

// createStratified is CreateStratified with b.mu held.
func (b *Builder) createStratified(table string, columns []string, tau float64) (meta.SampleInfo, error) {
	if len(columns) == 0 {
		return meta.SampleInfo{}, fmt.Errorf("sampling: stratified sample needs ON columns")
	}
	if tau <= 0 || tau > 1 {
		return meta.SampleInfo{}, fmt.Errorf("sampling: tau %v out of (0,1]", tau)
	}
	n, err := b.baseRows(table)
	if err != nil {
		return meta.SampleInfo{}, err
	}
	cols, err := b.db.Columns(table)
	if err != nil {
		return meta.SampleInfo{}, err
	}
	name := SampleName(table, sqlparser.StratifiedSample, columns)
	sizesTable := name + "_sizes"
	colList := strings.Join(columns, ", ")

	// Pass 1: stratum sizes.
	if err := b.exec("drop table if exists " + sizesTable); err != nil {
		return meta.SampleInfo{}, err
	}
	pass1 := fmt.Sprintf("create table %s as select %s, count(*) as strata_size from %s group by %s",
		sizesTable, colList, table, colList)
	if err := b.exec(pass1); err != nil {
		return meta.SampleInfo{}, err
	}

	// Stratum statistics for the staircase.
	rs, err := b.db.QueryContext(context.Background(), fmt.Sprintf("select count(*), max(strata_size) from %s", sizesTable))
	if err != nil {
		return meta.SampleInfo{}, err
	}
	d, _ := engine.ToInt(rs.Rows[0][0])
	maxSize, _ := engine.ToInt(rs.Rows[0][1])
	if d == 0 {
		return meta.SampleInfo{}, fmt.Errorf("sampling: table %s is empty", table)
	}
	m := int64(math.Ceil(float64(n) * tau / float64(d)))
	if m < b.MinStratumRows {
		m = b.MinStratumRows
	}
	steps := stats.Staircase(m, maxSize, b.Delta, b.StaircaseLevels)
	caseExpr := stats.StaircaseCaseSQL(steps, "verdict_g.strata_size")

	// Expected sample size (for choosing the subsample count b).
	rs2, err := b.db.QueryContext(context.Background(), fmt.Sprintf(
		"select sum(strata_size * (%s)) from %s",
		stats.StaircaseCaseSQL(steps, "strata_size"), sizesTable))
	if err != nil {
		return meta.SampleInfo{}, err
	}
	expected, _ := engine.ToFloat(rs2.Rows[0][0])
	bb := subsampleCount(expected)
	nBlocks := b.blockCount(expected)

	// Pass 2: Bernoulli sampling with per-stratum staircase probabilities.
	onConds := make([]string, len(columns))
	for i, c := range columns {
		onConds[i] = fmt.Sprintf("verdict_t.%s = verdict_g.%s", c, c)
	}
	qualCols := make([]string, len(cols))
	for i, c := range cols {
		qualCols[i] = "verdict_t." + c
	}
	var pass2 string
	if b.db.Dialect().NoRandInWhere {
		innerCols := strings.Join(cols, ", ")
		pass2 = fmt.Sprintf(
			`create table %s as select %s, (%s) as %s, 1 + floor(rand() * %d) as %s, %s as %s `+
				`from (select %s, rand() as verdict_r from %s) as verdict_t `+
				`inner join %s as verdict_g on %s `+
				`where verdict_t.verdict_r < (%s) order by %s`,
			name, strings.Join(qualCols, ", "), caseExpr, ProbCol, bb, SidCol, blockExpr(nBlocks), BlockCol,
			innerCols, table, sizesTable, strings.Join(onConds, " and "), caseExpr, BlockCol)
	} else {
		pass2 = fmt.Sprintf(
			`create table %s as select %s, (%s) as %s, 1 + floor(rand() * %d) as %s, %s as %s `+
				`from %s as verdict_t inner join %s as verdict_g on %s `+
				`where rand() < (%s) order by %s`,
			name, strings.Join(qualCols, ", "), caseExpr, ProbCol, bb, SidCol, blockExpr(nBlocks), BlockCol,
			table, sizesTable, strings.Join(onConds, " and "), caseExpr, BlockCol)
	}
	if err := b.exec("drop table if exists " + name); err != nil {
		return meta.SampleInfo{}, err
	}
	if err := b.exec(pass2); err != nil {
		return meta.SampleInfo{}, err
	}
	if err := b.exec("drop table " + sizesTable); err != nil {
		return meta.SampleInfo{}, err
	}
	low := make([]string, len(columns))
	for i, c := range columns {
		low[i] = strings.ToLower(c)
	}
	return b.register(meta.SampleInfo{
		SampleTable: name, BaseTable: table, Type: sqlparser.StratifiedSample,
		Ratio: tau, Columns: low, BaseRows: n, Subsamples: bb, BlockRows: b.BlockRows,
	})
}

// register counts the created sample's rows and per-block rows, and records
// it in the catalog. Block counts are always recounted from the table itself
// so creation and append maintenance share one source of truth.
func (b *Builder) register(si meta.SampleInfo) (meta.SampleInfo, error) {
	rs, err := b.db.QueryContext(context.Background(), "select count(*) from "+si.SampleTable)
	if err != nil {
		return si, err
	}
	si.SampleRows, _ = engine.ToInt(rs.Rows[0][0])
	if si.BlockRows > 0 {
		counts, err := b.blockCounts(si.SampleTable)
		if err != nil {
			return si, err
		}
		si.BlockCounts = counts
	}
	if err := b.cat.Register(si); err != nil {
		return si, err
	}
	return si, nil
}

// blockCounts reads per-block row counts (1-based block ids; blocks the
// random assignment left empty report 0).
func (b *Builder) blockCounts(table string) ([]int64, error) {
	rs, err := b.db.QueryContext(context.Background(), fmt.Sprintf("select %s, count(*) from %s group by %s",
		BlockCol, table, BlockCol))
	if err != nil {
		return nil, err
	}
	byID := map[int64]int64{}
	var maxID int64
	for _, r := range rs.Rows {
		id, ok := engine.ToInt(r[0])
		if !ok || id < 1 {
			continue
		}
		n, _ := engine.ToInt(r[1])
		byID[id] = n
		if id > maxID {
			maxID = id
		}
	}
	counts := make([]int64, maxID)
	for i := range counts {
		counts[i] = byID[int64(i+1)]
	}
	return counts, nil
}

// CreateAuto applies the default sampling policy of Appendix F to a table:
//  1. tau = AutoTargetRows / |T| (capped at 1),
//  2. always a uniform sample,
//  3. hashed samples on up to 10 highest-cardinality columns whose
//     cardinality exceeds 1% of |T|,
//  4. stratified samples on up to 10 lowest-cardinality columns whose
//     cardinality is below 1% of |T|.
func (b *Builder) CreateAuto(table string) ([]meta.SampleInfo, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	n, err := b.baseRows(table)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, fmt.Errorf("sampling: table %s is empty", table)
	}
	tau := float64(b.AutoTargetRows) / float64(n)
	if tau > 1 {
		tau = 1
	}
	cols, err := b.db.Columns(table)
	if err != nil {
		return nil, err
	}
	type card struct {
		col string
		ndv int64
	}
	cards := make([]card, 0, len(cols))
	for _, c := range cols {
		rs, err := b.db.QueryContext(context.Background(), fmt.Sprintf("select ndv(%s) from %s", c, table))
		if err != nil {
			return nil, err
		}
		v, _ := engine.ToInt(rs.Rows[0][0])
		cards = append(cards, card{col: c, ndv: v})
	}
	var out []meta.SampleInfo
	si, err := b.createUniform(table, tau)
	if err != nil {
		return nil, err
	}
	out = append(out, si)

	threshold := int64(math.Ceil(0.01 * float64(n)))
	var high, low []card
	for _, c := range cards {
		if c.ndv >= threshold {
			high = append(high, c)
		} else if c.ndv > 1 {
			low = append(low, c)
		}
	}
	sort.Slice(high, func(i, j int) bool { return high[i].ndv > high[j].ndv })
	sort.Slice(low, func(i, j int) bool { return low[i].ndv < low[j].ndv })
	for i, c := range high {
		if i >= 10 {
			break
		}
		si, err := b.createHashed(table, c.col, tau)
		if err != nil {
			return nil, err
		}
		out = append(out, si)
	}
	for i, c := range low {
		if i >= 10 {
			break
		}
		si, err := b.createStratified(table, []string{c.col}, tau)
		if err != nil {
			return nil, err
		}
		out = append(out, si)
	}
	return out, nil
}
