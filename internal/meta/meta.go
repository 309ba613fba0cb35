// Package meta maintains VerdictDB's sample metadata. As Section 2.3
// requires, all metadata lives inside the underlying database itself (a
// table named verdict_meta_samples), so a fresh VerdictDB connection to
// the same database rediscovers previously built samples.
//
// On top of that durable SQL state the catalog keeps a versioned in-process
// snapshot: reads (List, ForTable, Snapshot) never touch the database, and
// every mutation (Register, Drop, Reload) installs a fresh snapshot under a
// bumped version number. The version is what the middleware's plan/rewrite
// cache keys on — a sample DDL bump invalidates every cached plan.
package meta

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/sqlparser"
)

// MetaTable is the name of the metadata table inside the underlying DB.
const MetaTable = "verdict_meta_samples"

// SampleInfo describes one registered sample table.
type SampleInfo struct {
	SampleTable string
	BaseTable   string
	Type        sqlparser.SampleType
	Ratio       float64  // requested sampling parameter tau
	Columns     []string // ON columns for hashed/stratified samples
	SampleRows  int64
	BaseRows    int64
	Subsamples  int64 // b: number of variational subsamples assigned
	// UniverseKeys counts the distinct hash-column values in a hashed
	// (universe) sample — tau * |domain|. The planner refuses degenerate
	// universes (too few keys) per Appendix F's cardinality rule.
	UniverseKeys int64
	// BlockRows is the target rows per scramble block (the builder's block
	// size knob); 0 means the sample was built without block partitioning.
	BlockRows int64
	// BlockCounts[i] is the actual row count of block i+1 (block ids are
	// 1-based in the _vdb_block column). Because block membership is
	// assigned independently of tuple values, any block prefix is itself a
	// uniform random subsample of the sample — which is what lets the
	// progressive executor stop after a prefix and stay unbiased.
	BlockCounts []int64
}

// TotalBlockRows sums the per-block row counts.
func (s SampleInfo) TotalBlockRows() int64 {
	var n int64
	for _, c := range s.BlockCounts {
		n += c
	}
	return n
}

// BlockPrefixRows returns the number of sample rows in blocks 1..k.
func (s SampleInfo) BlockPrefixRows(k int) int64 {
	if k > len(s.BlockCounts) {
		k = len(s.BlockCounts)
	}
	var n int64
	for _, c := range s.BlockCounts[:k] {
		n += c
	}
	return n
}

// EffectiveRatio is |sample| / |base| — what the planner scores with.
func (s SampleInfo) EffectiveRatio() float64 {
	if s.BaseRows == 0 {
		return 0
	}
	return float64(s.SampleRows) / float64(s.BaseRows)
}

// ColumnSet returns the ON columns as a lower-cased set.
func (s SampleInfo) ColumnSet() map[string]bool {
	set := make(map[string]bool, len(s.Columns))
	for _, c := range s.Columns {
		set[strings.ToLower(c)] = true
	}
	return set
}

// catalogState is one immutable snapshot of the catalog. Readers load it
// atomically and may hold it across a whole planning pass; writers build a
// new one and swap it in.
type catalogState struct {
	version int64
	infos   []SampleInfo
}

// Catalog reads and writes sample metadata. The SQL table is the durable
// source of truth; the in-process snapshot makes reads lock-free and gives
// every state a version number. Safe for concurrent use.
type Catalog struct {
	db drivers.DB

	mu    sync.Mutex                   // serializes writers (Register/Drop/Reload)
	state atomic.Pointer[catalogState] // lock-free reads via Load; Store only under mu
}

// Open returns a catalog bound to db, creating the metadata table if absent
// and loading any previously registered samples into the snapshot.
func Open(db drivers.DB) (*Catalog, error) {
	c := &Catalog{db: db}
	err := db.ExecContext(context.Background(), fmt.Sprintf(`create table if not exists %s (
		sample_table string, base_table string, sample_type string,
		ratio double, on_columns string, sample_rows bigint,
		base_rows bigint, subsamples bigint, universe_keys bigint,
		block_rows bigint, block_counts string)`, MetaTable))
	if err != nil {
		return nil, fmt.Errorf("meta: creating catalog table: %w", err)
	}
	infos, err := c.load()
	if err != nil {
		return nil, err
	}
	c.state.Store(&catalogState{version: 1, infos: infos})
	return c, nil
}

// Version returns the current catalog version. It increases on every
// mutation; cache entries tagged with an older version are stale.
func (c *Catalog) Version() int64 {
	return c.state.Load().version
}

// Snapshot returns the registered samples together with the version they
// belong to, atomically. The returned slice is a fresh copy; callers may
// keep pointers into it but must treat each SampleInfo as read-only.
func (c *Catalog) Snapshot() ([]SampleInfo, int64) {
	st := c.state.Load()
	return append([]SampleInfo(nil), st.infos...), st.version
}

// List returns all registered samples from the in-process snapshot.
func (c *Catalog) List() ([]SampleInfo, error) {
	infos, _ := c.Snapshot()
	return infos, nil
}

// ForTable returns the samples registered for a base table.
func (c *Catalog) ForTable(base string) ([]SampleInfo, error) {
	st := c.state.Load()
	var out []SampleInfo
	for _, si := range st.infos {
		if strings.EqualFold(si.BaseTable, base) {
			out = append(out, si)
		}
	}
	return out, nil
}

// Register records a sample. Re-registering the same sample table replaces
// the previous record. Bumps the catalog version.
func (c *Catalog) Register(si SampleInfo) error {
	si.BaseTable = strings.ToLower(si.BaseTable)
	low := make([]string, len(si.Columns))
	for i, col := range si.Columns {
		low[i] = strings.ToLower(col)
	}
	si.Columns = low

	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state.Load()
	replacing := false
	next := make([]SampleInfo, 0, len(st.infos)+1)
	for _, old := range st.infos {
		if strings.EqualFold(old.SampleTable, si.SampleTable) {
			replacing = true
			continue
		}
		next = append(next, old)
	}
	next = append(next, si)
	if !replacing {
		// Fast path for a brand-new sample: a single durable INSERT, which
		// leaves the SQL table untouched on failure (no rewrite needed).
		if err := c.db.ExecContext(context.Background(), insertRowSQL(si)); err != nil {
			return err
		}
		c.state.Store(&catalogState{version: st.version + 1, infos: next})
		return nil
	}
	return c.commitLocked(st.version, next)
}

// Drop removes the record for a sample table (the table itself is the
// caller's responsibility) and bumps the catalog version. Dropping an
// unknown sample is a no-op and does not bump the version.
func (c *Catalog) Drop(sampleTable string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.state.Load()
	next := make([]SampleInfo, 0, len(st.infos))
	found := false
	for _, si := range st.infos {
		if strings.EqualFold(si.SampleTable, sampleTable) {
			found = true
			continue
		}
		next = append(next, si)
	}
	if !found {
		return nil
	}
	return c.commitLocked(st.version, next)
}

// Reconcile re-verifies every registered sample against the underlying
// database and repairs the catalog: samples whose table has disappeared are
// dropped, and samples whose row count disagrees with the recorded one
// (e.g. after crash recovery quarantined a damaged segment) get their
// SampleRows and per-block counts recounted from the table itself. blockCol
// names the scramble-block column (passed in to keep meta independent of
// the sampling package); pass "" to skip block-count repair.
//
// The fast path — every sample present with a matching count — costs one
// count(*) per sample and leaves the catalog version untouched.
func (c *Catalog) Reconcile(blockCol string) error {
	infos, _ := c.Snapshot()
	for _, si := range infos {
		rs, err := c.db.QueryContext(context.Background(), "select count(*) from "+si.SampleTable)
		if err != nil {
			// The sample table did not survive (dropped behind our back or
			// lost to recovery): retire its record rather than serving plans
			// that reference a missing table.
			if derr := c.Drop(si.SampleTable); derr != nil {
				return derr
			}
			continue
		}
		n, _ := engine.ToInt(rs.Rows[0][0])
		if n == si.SampleRows {
			continue
		}
		si.SampleRows = n
		if si.BlockRows > 0 && blockCol != "" {
			counts, err := c.recountBlocks(si.SampleTable, blockCol)
			if err != nil {
				return err
			}
			si.BlockCounts = counts
		}
		if err := c.Register(si); err != nil {
			return err
		}
	}
	return nil
}

// recountBlocks reads per-block row counts back from a sample table
// (1-based block ids; ids the random assignment left empty report 0).
func (c *Catalog) recountBlocks(table, blockCol string) ([]int64, error) {
	rs, err := c.db.QueryContext(context.Background(), fmt.Sprintf("select %s, count(*) from %s group by %s",
		blockCol, table, blockCol))
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

// Reload re-reads the metadata table from the underlying database —
// for catalogs whose SQL state was changed behind this process's back —
// and bumps the version so dependent caches refresh.
func (c *Catalog) Reload() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	infos, err := c.load()
	if err != nil {
		return err
	}
	st := c.state.Load()
	c.state.Store(&catalogState{version: st.version + 1, infos: infos})
	return nil
}

// commitLocked persists infos to the SQL table and installs them as the new
// snapshot under version+1. Caller holds c.mu. The engine has no DELETE, so
// removals rewrite the catalog table wholesale — metadata is tiny. If the
// rewrite fails partway, the snapshot is resynced from whatever durable
// state remains (under a bumped version) so memory and SQL never diverge.
func (c *Catalog) commitLocked(version int64, infos []SampleInfo) error {
	persist := func() error {
		if err := c.db.ExecContext(context.Background(), "drop table if exists "+MetaTable); err != nil {
			return err
		}
		err := c.db.ExecContext(context.Background(), fmt.Sprintf(`create table %s (
			sample_table string, base_table string, sample_type string,
			ratio double, on_columns string, sample_rows bigint,
			base_rows bigint, subsamples bigint, universe_keys bigint,
			block_rows bigint, block_counts string)`, MetaTable))
		if err != nil {
			return fmt.Errorf("meta: recreating catalog table: %w", err)
		}
		for _, si := range infos {
			if err := c.db.ExecContext(context.Background(), insertRowSQL(si)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := persist(); err != nil {
		if rescued, lerr := c.load(); lerr == nil {
			c.state.Store(&catalogState{version: version + 1, infos: rescued})
		}
		return err
	}
	c.state.Store(&catalogState{version: version + 1, infos: infos})
	return nil
}

// insertRowSQL renders one sample's durable catalog row.
func insertRowSQL(si SampleInfo) string {
	return fmt.Sprintf(
		"insert into %s values ('%s', '%s', '%s', %g, '%s', %d, %d, %d, %d, %d, '%s')",
		MetaTable,
		escape(si.SampleTable), escape(strings.ToLower(si.BaseTable)), si.Type.String(),
		si.Ratio, escape(strings.ToLower(strings.Join(si.Columns, ","))),
		si.SampleRows, si.BaseRows, si.Subsamples, si.UniverseKeys,
		si.BlockRows, encodeBlockCounts(si.BlockCounts))
}

// encodeBlockCounts renders per-block counts as a comma-joined string (the
// catalog stays a plain SQL table, so nested data flattens to text).
func encodeBlockCounts(counts []int64) string {
	if len(counts) == 0 {
		return ""
	}
	parts := make([]string, len(counts))
	for i, c := range counts {
		parts[i] = fmt.Sprintf("%d", c)
	}
	return strings.Join(parts, ",")
}

// decodeBlockCounts parses a comma-joined block-count string.
func decodeBlockCounts(s string) []int64 {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, 0, len(parts))
	for _, p := range parts {
		var n int64
		fmt.Sscanf(p, "%d", &n)
		out = append(out, n)
	}
	return out
}

// load reads the SQL metadata table into a fresh info slice.
func (c *Catalog) load() ([]SampleInfo, error) {
	rs, err := c.db.QueryContext(context.Background(), "select sample_table, base_table, sample_type, ratio, on_columns, sample_rows, base_rows, subsamples, universe_keys, block_rows, block_counts from "+MetaTable)
	if err != nil {
		return nil, err
	}
	out := make([]SampleInfo, 0, len(rs.Rows))
	for _, r := range rs.Rows {
		si := SampleInfo{
			SampleTable: engine.ToStr(r[0]),
			BaseTable:   engine.ToStr(r[1]),
		}
		switch engine.ToStr(r[2]) {
		case "uniform":
			si.Type = sqlparser.UniformSample
		case "hashed":
			si.Type = sqlparser.HashedSample
		case "stratified":
			si.Type = sqlparser.StratifiedSample
		}
		si.Ratio, _ = engine.ToFloat(r[3])
		if cols := engine.ToStr(r[4]); cols != "" {
			si.Columns = strings.Split(cols, ",")
		}
		si.SampleRows, _ = engine.ToInt(r[5])
		si.BaseRows, _ = engine.ToInt(r[6])
		si.Subsamples, _ = engine.ToInt(r[7])
		si.UniverseKeys, _ = engine.ToInt(r[8])
		si.BlockRows, _ = engine.ToInt(r[9])
		si.BlockCounts = decodeBlockCounts(engine.ToStr(r[10]))
		out = append(out, si)
	}
	return out, nil
}

func escape(s string) string { return strings.ReplaceAll(s, "'", "''") }
