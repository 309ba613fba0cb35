// Golden cases for the ctxpoll analyzer: row/chunk-scale loops must reach
// the lifecycle poll hooks at depth one.
package cpoll

// Minimal mirrors of the engine's execution types: ctxpoll keys on the
// type names (chunk, Value) and the hook names (tick, pollAbort).
type Value any

type chunk struct {
	n    int
	data [][]Value
}

func (c *chunk) rows() [][]Value { return c.data }

type queryCtx struct{}

func (qc *queryCtx) tick() error      { return nil }
func (qc *queryCtx) pollAbort() error { return nil }

func use(v any) {}

func pollingChunkLoop(qc *queryCtx, chunks []*chunk) error {
	for _, ch := range chunks {
		if err := qc.pollAbort(); err != nil {
			return err
		}
		use(ch)
	}
	return nil
}

func unpolledChunkLoop(chunks []*chunk) {
	for _, ch := range chunks { // want "never calls the lifecycle poll hooks"
		use(ch)
	}
}

func unpolledRowLoop(rows [][]Value) {
	for _, r := range rows { // want "never calls the lifecycle poll hooks"
		use(r)
	}
}

// tickingHelper calls a hook directly, so loops calling it poll at depth
// one.
func tickingHelper(qc *queryCtx, r []Value) error {
	if err := qc.tick(); err != nil {
		return err
	}
	use(r)
	return nil
}

func loopViaHelper(qc *queryCtx, rows [][]Value) error {
	for _, r := range rows {
		if err := tickingHelper(qc, r); err != nil {
			return err
		}
	}
	return nil
}

// deepHelper only reaches a hook two calls down; that is too far — the
// hooks belong at (or one call from) the loop.
func deepHelper(qc *queryCtx, r []Value) error { return tickingHelper(qc, r) }

func loopViaDeepHelper(qc *queryCtx, rows [][]Value) error {
	for _, r := range rows { // want "never calls the lifecycle poll hooks"
		if err := deepHelper(qc, r); err != nil {
			return err
		}
	}
	return nil
}

// A local closure that ticks directly counts as a depth-one hook.
func loopViaClosure(qc *queryCtx, rows [][]Value) error {
	probe := func(r []Value) error {
		if err := qc.tick(); err != nil {
			return err
		}
		use(r)
		return nil
	}
	for _, r := range rows {
		if err := probe(r); err != nil {
			return err
		}
	}
	return nil
}

// Ranging over one chunk's rows is chunk-bounded: the caller polls per
// chunk.
func chunkBounded(ch *chunk) {
	for _, r := range ch.rows() {
		use(r)
	}
}

// O(1)-per-element bookkeeping needs no poll.
func trivialLoop(chunks []*chunk) int {
	n := 0
	for _, ch := range chunks {
		n += ch.n
	}
	return n
}

func annotatedLoop(chunks []*chunk) {
	//verdict:nopoll golden fixture: bounded input by construction
	for _, ch := range chunks {
		use(ch)
	}
}
