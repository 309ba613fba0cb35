package engine

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Column describes one table column.
type Column struct {
	Name string
	Type ColType
}

// Table is an in-memory columnar table: sealed immutable chunks of typed
// vectors plus an open row-major tail (see columnar.go). Rows are
// append-only; readers take a snapshot of the chunk and tail slice headers
// under the engine lock, so concurrent queries see a consistent prefix.
type Table struct {
	Name string
	Cols []Column

	sealed []chunkSlot // immutable chunkRows-row columnar chunks, resident or segment-backed
	tail   [][]Value   // open rows not yet sealed (< chunkRows)
	nrows  int

	// Persistence bookkeeping (persist.go), mutated only by the flusher
	// under the engine write lock. persisted counts the leading sealed
	// slots durably backed by segment files; flushedTailSeals/Len identify
	// the tail generation (sealing replaces the tail slice, so the sealed
	// count names the generation) and length mirrored by the on-disk tail
	// segment.
	persisted        int
	flushedTailSeals int
	flushedTailLen   int

	// colIdx maps lowercase column names to positions. The engine builds it
	// when it registers a table (columns are immutable afterwards); tables
	// constructed by hand fall back to a linear scan.
	colIdx map[string]int
}

// AmbiguousColIndex is returned by ColIndex when the name matches more than
// one column case-insensitively. It is negative, so callers that only probe
// for existence (idx < 0) keep working — but callers that would otherwise
// silently read the first match can now tell ambiguity from absence.
const AmbiguousColIndex = -2

// buildLowerIndex maps lowercase names to their position; names shared by
// several columns map to AmbiguousColIndex rather than the first match.
func buildLowerIndex(names []string) map[string]int {
	m := make(map[string]int, len(names))
	for i, n := range names {
		low := strings.ToLower(n)
		if _, dup := m[low]; dup {
			m[low] = AmbiguousColIndex
		} else {
			m[low] = i
		}
	}
	return m
}

func (t *Table) initColIndex() {
	names := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		names[i] = c.Name
	}
	t.colIdx = buildLowerIndex(names)
}

// ColIndex returns the index of the named column (case-insensitive), -1
// when absent, or AmbiguousColIndex when several columns share the name.
func (t *Table) ColIndex(name string) int {
	if t.colIdx != nil {
		if i, ok := t.colIdx[strings.ToLower(name)]; ok {
			return i
		}
		return -1
	}
	idx := -1
	for i, c := range t.Cols {
		if strings.EqualFold(c.Name, name) {
			if idx >= 0 {
				return AmbiguousColIndex
			}
			idx = i
		}
	}
	return idx
}

// Engine is an in-memory SQL database. All access is through SQL via Exec
// and Query, plus bulk-load helpers for test and workload data.
type Engine struct {
	mu     sync.RWMutex
	tables map[string]*Table // guarded by mu

	rngMu sync.Mutex
	rng   rngSource

	// maxPar caps scan parallelism; 0 means GOMAXPROCS. parallelScans
	// counts scans that actually fanned out (tests assert the fallback).
	maxPar        atomic.Int32
	parallelScans atomic.Int64

	// noVec disables the vectorized chunk-at-a-time execution path,
	// forcing every query through the row closures. Test knob for
	// kernel ≡ row-closure parity checks.
	noVec atomic.Bool

	// memBudget is the default per-query memory budget in bytes (0 = none);
	// see SetMemoryBudget and WithMemoryBudget in lifecycle.go.
	memBudget atomic.Int64

	// dd is the optional persistent data directory (persist.go); nil for
	// pure in-memory engines.
	dd atomic.Pointer[dataDir]

	views viewPool // chunk views finished queries left (chunkslot.go)
}

// SetParallelism caps the number of workers a single scan may use. n = 1
// forces every query onto the serial path; n <= 0 restores the default
// (GOMAXPROCS).
func (e *Engine) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	e.maxPar.Store(int32(n))
}

// Parallelism reports the current scan-parallelism cap.
func (e *Engine) Parallelism() int {
	if p := e.maxPar.Load(); p > 0 {
		return int(p)
	}
	return runtime.GOMAXPROCS(0)
}

// SetVectorized toggles the vectorized execution path (on by default).
// With it off, every scan evaluates the row-compiled closures over the chunks'
// lanes — the reference the parity tests compare the kernels against.
func (e *Engine) SetVectorized(on bool) { e.noVec.Store(!on) }

// ParallelScans returns how many scans have run morsel-parallel since the
// engine was created. Impure queries (rand(), subqueries) never increment
// it — they take the serial row path.
func (e *Engine) ParallelScans() int64 { return e.parallelScans.Load() }

type rngSource interface {
	Float64() float64
	Int63n(int64) int64
}

// New returns an empty engine seeded deterministically.
func New() *Engine { return NewSeeded(1) }

// NewSeeded returns an empty engine whose rand() SQL function is driven by
// the given seed. Deterministic seeds make experiments reproducible.
func NewSeeded(seed int64) *Engine {
	return &Engine{
		tables: make(map[string]*Table),
		rng:    newSplitMix(uint64(seed)),
	}
}

// splitMix64 is a tiny, fast PRNG; good enough for Bernoulli sampling and
// far cheaper than locking math/rand's global source.
type splitMix struct{ state uint64 }

func newSplitMix(seed uint64) *splitMix { return &splitMix{state: seed*0x9e3779b97f4a7c15 + 1} }

func (s *splitMix) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (s *splitMix) Float64() float64 { return float64(s.next()>>11) / float64(uint64(1)<<53) }

func (s *splitMix) Int63n(n int64) int64 {
	if n <= 0 {
		return 0
	}
	return int64(s.next() % uint64(n))
}

func (e *Engine) randFloat() float64 {
	e.rngMu.Lock()
	v := e.rng.Float64()
	e.rngMu.Unlock()
	return v
}

// CreateTable registers an empty table. It fails if the table exists.
func (e *Engine) CreateTable(name string, cols []Column) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := e.tables[key]; ok {
		return fmt.Errorf("engine: table %q already exists", name)
	}
	t := &Table{Name: name, Cols: append([]Column(nil), cols...)}
	t.initColIndex()
	e.tables[key] = t //verdict:nocharge catalog entry: one per DDL statement, outlives any query
	return nil
}

// DropTable removes a table. Missing tables error unless ifExists.
func (e *Engine) DropTable(name string, ifExists bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := e.tables[key]; !ok {
		if ifExists {
			return nil
		}
		return fmt.Errorf("engine: table %q does not exist", name)
	}
	delete(e.tables, key)
	return nil
}

// Lookup returns the named table, or an error.
func (e *Engine) Lookup(name string) (*Table, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return t, nil
}

// HasTable reports whether the named table exists.
func (e *Engine) HasTable(name string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, ok := e.tables[strings.ToLower(name)]
	return ok
}

// TableNames returns all table names, sorted.
func (e *Engine) TableNames() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.tables))
	for _, t := range e.tables {
		names = append(names, t.Name)
	}
	sort.Strings(names)
	return names
}

// RowCount returns the number of rows in the named table (0 if missing).
func (e *Engine) RowCount(name string) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if t, ok := e.tables[strings.ToLower(name)]; ok {
		return t.nrows
	}
	return 0
}

// InsertRows bulk-appends rows to a table, normalizing Go convenience types.
// Row width must match the table's column count. Context-free entry point:
// seal-time encoding state is not charged to any query budget.
func (e *Engine) InsertRows(name string, rows [][]Value) error {
	return e.insertRowsCtx(nil, name, rows)
}

// insertRowsCtx is InsertRows under a query context: seal-time encoding
// memory is charged to qc's gauge and long inserts poll for cancellation
// and budget overrun. An abort mid-insert leaves the already-appended
// prefix in place, matching the width-mismatch error path.
func (e *Engine) insertRowsCtx(qc *queryCtx, name string, rows [][]Value) error {
	return e.appendTo(name, func(t *Table) error { return t.appendRows(qc, rows) })
}

// appendRows appends boxed rows, normalizing their cells, and polls qc (nil:
// no query) as it goes. A row of another width stops it.
func (t *Table) appendRows(qc *queryCtx, rows [][]Value) error {
	for _, r := range rows {
		if qc != nil {
			if err := qc.tick(); err != nil {
				return err
			}
		}
		if len(r) != len(t.Cols) {
			return fmt.Errorf("engine: row width %d != %d columns of %q", len(r), len(t.Cols), t.Name)
		}
		nr := make([]Value, len(r))
		for i, v := range r {
			nr[i] = Normalize(v)
		}
		t.appendRow(nr, qc)
	}
	return nil
}

// appendTo runs add on the named table under the engine write lock, then
// makes the tail rows it appended own their strings (ownTail) and, when
// forced, spills — after the lock is released, as the flush path takes
// dataDir.mu before Engine.mu.
func (e *Engine) appendTo(name string, add func(t *Table) error) error {
	err := func() error {
		e.mu.Lock()
		defer e.mu.Unlock()
		t, ok := e.tables[strings.ToLower(name)]
		if !ok {
			return fmt.Errorf("engine: unknown table %q", name)
		}
		defer t.ownTail(len(t.sealed), len(t.tail))
		return add(t)
	}()
	e.maybeSpill()
	return err
}

// snapshot returns the table plus a stable columnar view of its rows.
func (e *Engine) snapshot(name string) (*Table, *colSource, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	t, ok := e.tables[strings.ToLower(name)]
	if !ok {
		return nil, nil, fmt.Errorf("engine: unknown table %q", name)
	}
	return t, &colSource{sealed: t.sealed, tail: t.tail, nrows: t.nrows}, nil
}

// storeResult registers a table materialized from a query result (CTAS).
// Seal-time encoding memory is charged to qc; a budget overrun surfaces
// before the table is registered, so an aborted CTAS leaves no catalog
// entry behind.
func (e *Engine) storeResult(qc *queryCtx, name string, cols []Column, rs *ResultSet, ifNotExists bool) error {
	err := e.storeResultLocked(qc, name, cols, rs, ifNotExists)
	e.maybeSpill() // after e.mu is released; see appendTo
	return err
}

func (e *Engine) storeResultLocked(qc *queryCtx, name string, cols []Column, rs *ResultSet, ifNotExists bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := strings.ToLower(name)
	if _, ok := e.tables[key]; ok {
		if ifNotExists {
			return nil
		}
		return fmt.Errorf("engine: table %q already exists", name)
	}
	t := &Table{Name: name, Cols: cols}
	t.initColIndex()
	if rs.lanes != nil {
		all := make([]int, len(cols))
		for j := range all {
			all[j] = j
		}
		if err := t.appendLanes(qc, rs.lanes, all); err != nil {
			return err
		}
	}
	for _, r := range rs.Rows {
		t.appendRow(r, qc)
	}
	t.ownTail(0, 0)
	if err := qc.pollAbort(); err != nil {
		return err
	}
	e.tables[key] = t // catalog entry: result rows were charged by the query that produced them
	return nil
}
