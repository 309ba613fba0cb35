package core

import (
	"context"
	"errors"
	"runtime/debug"

	"verdictdb/internal/engine"
)

// Query-lifecycle plumbing for the middleware: which errors mean "the user
// aborted this query" (and must not trigger the exact-execution fallback),
// the catalog-drift sentinel for progressive execution, panic containment at
// the middleware boundary, and the per-query memory-budget default.

// ErrCatalogChanged reports that sample DDL bumped the catalog version while
// a progressive query was between block prefixes. The partial answers already
// delivered were correct for the catalog they were planned under, but later
// prefixes would mix plans across versions; the caller should re-issue the
// query (the stale cached plan is already invalidated by the version bump).
var ErrCatalogChanged = errors.New("core: sample catalog changed during progressive execution")

// queryAborted reports whether err means the query was deliberately stopped
// (cancellation, deadline, memory budget, catalog drift) or crashed in a way
// that is already contained (*engine.InternalError). The middleware's
// fallback contract — "a failing rewritten query falls back to exact
// execution" — exists for stale catalogs and dialect corner cases; re-running
// a cancelled or budget-killed query as a full exact scan would invert the
// user's intent, so these errors propagate instead.
func queryAborted(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return true
	}
	if errors.Is(err, engine.ErrMemoryBudget) || errors.Is(err, ErrCatalogChanged) {
		return true
	}
	var ie *engine.InternalError
	return errors.As(err, &ie)
}

// containPanic converts a panic escaping the middleware (merger, guard
// rails, fault-injection sites in core) into the same *engine.InternalError
// the engine's own boundary produces, so one query's crash never takes down
// the process. Deferred at the public entry points.
func containPanic(errp *error, query string) {
	if r := recover(); r != nil {
		*errp = &engine.InternalError{Query: query, Panic: r, Stack: debug.Stack()}
	}
}

// budgetCtx applies the middleware's configured per-query memory budget to
// ctx unless the caller already set one (an explicit WithMemoryBudget on the
// query's context wins over the middleware-wide default).
func (m *Middleware) budgetCtx(ctx context.Context) context.Context {
	if ctx == nil {
		ctx = context.Background() //verdict:ctx-shim nil-ctx guard: a caller's nil ctx reads as Background, as in the engine
	}
	if m.opts.MemoryBudgetBytes > 0 && engine.MemoryBudgetFrom(ctx, -1) < 0 {
		ctx = engine.WithMemoryBudget(ctx, m.opts.MemoryBudgetBytes)
	}
	return ctx
}
