package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
)

// Query-lifecycle control: cooperative cancellation, per-query memory
// budgets, and panic containment.
//
// Every query entry point (QueryContext, ExecContext) builds a queryCtx
// carrying the caller's context and an optional memory gauge. Execution
// loops poll the context between chunks (vectorized paths) or every
// pollEvery rows (row-at-a-time paths), so a cancel or deadline expiry stops
// the scan within one chunk's worth of work; morsel workers always drain
// through runChunks' WaitGroup, so cancellation never leaks goroutines or
// publishes half-merged accumulator state. Allocation hot spots — group
// hash tables, the join build side, join-output references, gathered join
// columns, materialized boxed rows — charge the gauge with cheap atomic
// adds; overruns surface at the next poll as ErrMemoryBudget instead of
// OOMing the process. Panics anywhere in execution are recovered at the
// morsel-worker and query boundaries and converted into *InternalError, so
// one query's crash cannot take down other clients sharing the engine.

// ErrMemoryBudget is the sentinel all memory-budget overruns wrap: callers
// test with errors.Is(err, engine.ErrMemoryBudget).
var ErrMemoryBudget = errors.New("engine: query memory budget exceeded")

// BudgetError reports a memory-budget overrun with the accounting that
// tripped it. It wraps ErrMemoryBudget.
type BudgetError struct {
	Limit int64 // configured budget, bytes
	Used  int64 // estimated bytes charged when the query aborted
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("engine: query memory budget exceeded (~%d bytes used, limit %d)", e.Used, e.Limit)
}

func (e *BudgetError) Unwrap() error { return ErrMemoryBudget }

// InternalError is a contained engine panic: the query keeps its crash, the
// engine keeps serving everyone else. It carries the original panic value
// and the stack captured at recovery.
type InternalError struct {
	Query string // SQL of the query that crashed (when known at the boundary)
	Panic any
	Stack []byte
}

func (e *InternalError) Error() string {
	if e.Query != "" {
		return fmt.Sprintf("engine: internal error in query %q: %v", e.Query, e.Panic)
	}
	return fmt.Sprintf("engine: internal error: %v", e.Panic)
}

// containPanic converts a recovered panic into *InternalError through errp.
// Deferred at the query-execution boundaries.
func containPanic(errp *error, query string) {
	if r := recover(); r != nil {
		*errp = &InternalError{Query: query, Panic: r, Stack: debug.Stack()}
	}
}

// stampQuery fills the Query field of an *InternalError recovered below the
// query boundary (morsel workers don't know the SQL).
func stampQuery(err error, query string) error {
	var ie *InternalError
	if errors.As(err, &ie) && ie.Query == "" {
		ie.Query = query
	}
	return err
}

// memGauge is one query's memory accounting: an atomic byte counter checked
// against a fixed limit. Charges never block or fail — overruns are
// surfaced by the next poll — so hot paths pay one atomic add.
type memGauge struct {
	used  atomic.Int64
	limit int64
}

func (g *memGauge) add(n int64) {
	if g != nil {
		g.used.Add(n)
	}
}

func (g *memGauge) check() error {
	if g == nil {
		return nil
	}
	if used := g.used.Load(); used > g.limit {
		return &BudgetError{Limit: g.limit, Used: used}
	}
	return nil
}

type memBudgetKey struct{}

// WithMemoryBudget returns a context carrying a per-query memory budget in
// bytes. It overrides the engine's default budget for queries run under the
// returned context; bytes <= 0 disables the budget for those queries.
func WithMemoryBudget(ctx context.Context, bytes int64) context.Context {
	return context.WithValue(ctx, memBudgetKey{}, bytes)
}

// MemoryBudgetFrom extracts a budget from ctx, or def when none is set.
func MemoryBudgetFrom(ctx context.Context, def int64) int64 {
	if v, ok := ctx.Value(memBudgetKey{}).(int64); ok {
		return v
	}
	return def
}

// SetMemoryBudget sets the engine's default per-query memory budget in
// bytes (0 disables it). Individual queries override it via
// WithMemoryBudget on their context.
func (e *Engine) SetMemoryBudget(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	e.memBudget.Store(bytes)
}

// MemoryBudget reports the engine's default per-query memory budget.
func (e *Engine) MemoryBudget() int64 { return e.memBudget.Load() }

// Byte-cost estimates for gauge charges. The gauge bounds blow-up, it is
// not an allocator: costs are flat per-slot approximations (a boxed Value
// is an interface header plus a small heap cell; map entries carry bucket
// and key overhead).
const (
	bytesPerValue int64 = 24 // boxed Value slot (interface header + cell)
	bytesPerRef   int64 = 16 // join-output row reference pair, or one gathered lane
	bytesPerAcc   int64 = 96 // a heap accumulator (percentile, sketch, DISTINCT) before its data

	// Key tables, group id arrays and the join's candidate vectors are
	// charged at their exact sizes; a group's slabs (groupSet) at their own
	// sizes, row cells at bytesPerValue.
	keySlotBytes  int64 = 16 // keySlot: key + head and tail
	keySpanBytes  int64 = 8  // arena span of an encoded key's slot
	groupRowBytes int64 = 24 // groupSet.rows: one row's slice header
	groupAccBytes int64 = 16 // groupSet.accs: one accumulator interface
	joinPairBytes int64 = 12 // int32 left row + int64 right reference
)

// boxedRowBytes is the charge for one boxed row of w values: the cells plus
// the row's slice header.
func boxedRowBytes(w int) int64 { return (int64(w) + 2) * bytesPerValue }

// pollEvery is the row granularity of cancellation/budget checks in
// row-at-a-time loops. Power of two: the check compiles to a
// mask. Vectorized paths poll per chunk (chunkRows rows) instead.
const pollEvery = 1024

// newQueryCtx builds the per-query state for one execution under ctx. The
// memory gauge is created only when ctx or the engine configures a budget.
func (e *Engine) newQueryCtx(ctx context.Context, sql string) *queryCtx {
	if ctx == nil {
		ctx = context.Background() //verdict:ctx-shim nil-ctx guard: context-free API entry points delegate here with nil
	}
	qc := &queryCtx{eng: e, ctx: ctx, query: sql}
	if b := MemoryBudgetFrom(ctx, e.memBudget.Load()); b > 0 {
		qc.mem = &memGauge{limit: b}
	}
	return qc
}

// pollAbort checks for cancellation and budget overrun. Safe from morsel
// workers (no shared mutable state); called per chunk on vectorized paths.
func (qc *queryCtx) pollAbort() error {
	if qc == nil {
		return nil
	}
	if qc.ctx != nil {
		if err := qc.ctx.Err(); err != nil {
			return err
		}
	}
	return qc.mem.check()
}

// tick is pollAbort amortized over pollEvery iterations for serial
// row-at-a-time loops. Not worker-safe: the counter is unsynchronized
// (workers keep a local counter and call pollAbort directly).
func (qc *queryCtx) tick() error {
	qc.polls++
	if qc.polls&(pollEvery-1) != 0 {
		return nil
	}
	return qc.pollAbort()
}

// chargeMem adds n estimated bytes to the query's gauge (no-op without a
// budget). Never fails; the next poll surfaces overruns.
func (qc *queryCtx) chargeMem(n int64) {
	if qc != nil {
		qc.mem.add(n)
	}
}

// reserve charges n bytes and reports an overrun now, so the caller sizes a
// structure only after the budget has admitted it.
func (qc *queryCtx) reserve(n int64) error {
	qc.chargeMem(n)
	return qc.pollAbort()
}
