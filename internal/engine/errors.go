package engine

import "errors"

// Typed sentinels for name-binding failures in join processing and for
// LIMIT validation. Callers
// (and tests) match these with errors.Is instead of probing error text;
// every construction site wraps them with %w so the identity survives
// message decoration. See also ErrMemoryBudget in lifecycle.go for the
// budget taxonomy.
var (
	// ErrAmbiguousColumn reports a column reference that resolves to more
	// than one column in scope — an unqualified duplicate name, or a USING
	// column exposed twice on one side of the join.
	ErrAmbiguousColumn = errors.New("engine: ambiguous column")

	// ErrJoinColumnNotFound reports a USING column missing from one or
	// both join inputs: binding it anyway would silently resolve against
	// whichever side happens to know the name.
	ErrJoinColumnNotFound = errors.New("engine: column not found in both join inputs")

	// ErrBadLimit reports a LIMIT that is not a constant the engine can
	// read as a row count before it scans: a column reference, NULL, a
	// negative number, a non-numeric value.
	ErrBadLimit = errors.New("engine: LIMIT must be a constant non-negative integer")
)
