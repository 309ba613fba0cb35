package core

import (
	"sync"
	"sync/atomic"

	"verdictdb/internal/sqlparser"
)

// This file implements the middleware's plan/rewrite cache. A serving
// deployment sees the same query shapes over and over (dashboards refresh,
// applications template their SQL), and the parse→analyze→flatten→plan→
// rewrite→render pipeline — plus the planner's ndv() cardinality probes —
// is pure per-catalog-version overhead when repeated. The cache maps
// normalized SQL text to a fully built planEntry tagged with the catalog
// version it was planned under; any sample DDL bumps the version and makes
// the entry stale. Entries are immutable after construction: the execute
// path clones anything an Answer could mutate, so concurrent hits stay
// private to their query.

// planStep is one rendered partial query of a cached plan: the SQL sent to
// the engine plus the output-column mapping the answer merger needs, and the
// subsample count b of a rewritten one.
type planStep struct {
	sql          string
	columns      []OutputCol
	sampleTables []string
	b            int64
}

// planEntry is everything needed to execute one cached query shape.
// All fields are read-only after buildEntry returns.
type planEntry struct {
	version int64 // catalog version this entry was planned under

	// passthrough entries record a deterministic "cannot approximate"
	// decision (unsupported shape, no admissible plan, high-cardinality
	// groups) so repeated unsupported shapes skip the pipeline too.
	passthrough bool
	status      SupportStatus
	decline     string // why a supported query passes through

	flat  *sqlparser.SelectStmt // flattened statement (read-only)
	names []string              // output column names in item order
	multi bool                  // order/limit applied middleware-side

	// guardGroups marks entries subject to the post-execution
	// high-cardinality guard; planSampleRows is the smallest sampled plan's
	// row cost — the guard's denominator.
	guardGroups    bool
	planSampleRows int64

	steps   []planStep
	extreme *planStep // exact extreme-statistics query, nil if none

	// resample is the single consolidated plan a resampling baseline
	// (MethodTraditionalSubsampling, MethodConsolidatedBootstrap) answers
	// through its temp tables instead of steps; nil for every other method.
	resample *ConsolidatedPlan

	// prog is the progressive-execution handle: non-nil when the entry's
	// plan qualifies for block-prefix execution (single consolidated plan
	// over one block-partitioned sample, variational error estimation, no
	// extreme/count-distinct items, no nested aggregate blocks).
	prog *progressiveInfo

	// seq is the cache's insertion sequence number, written under the
	// cache mutex at put time; eviction uses it to tell a live entry from
	// a dead duplicate of the same key in the FIFO order.
	seq int64 // guarded by planCache.mu
}

// planCache is a bounded, thread-safe map from normalized SQL to planEntry.
// Eviction is FIFO — shapes churn rarely and the cap only bounds memory.
type planCache struct {
	mu      sync.Mutex
	entries map[string]*planEntry // guarded by mu
	order   []orderItem           // guarded by mu
	cap     int
	nextSeq int64 // guarded by mu

	// gen counts flushes. A put whose pipeline began before a flush must
	// not resurrect pre-flush state, so builders capture generation()
	// first and put() drops the entry when it moved.
	gen atomic.Int64

	hits   atomic.Int64
	misses atomic.Int64
}

// orderItem records one insertion for FIFO eviction; seq disambiguates
// re-inserted keys from their dead duplicates.
type orderItem struct {
	key string
	seq int64
}

const defaultPlanCacheCap = 512

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		capacity = defaultPlanCacheCap
	}
	return &planCache{entries: make(map[string]*planEntry), cap: capacity}
}

// lookup returns the entry for key if present and current at version.
// Stale entries are evicted on sight. Misses are not counted here — only a
// full pipeline run (countMiss) records one, so statements that can never
// be cached (DDL, DML, extension statements) don't distort the hit rate.
func (pc *planCache) lookup(key string, version int64) *planEntry {
	pc.mu.Lock()
	e, ok := pc.entries[key]
	if ok && e.version != version {
		delete(pc.entries, key)
		e, ok = nil, false
	}
	pc.mu.Unlock()
	if !ok {
		return nil
	}
	pc.hits.Add(1)
	return e
}

// generation returns the current flush generation; capture it before
// building an entry and pass it to put.
func (pc *planCache) generation() int64 { return pc.gen.Load() }

// countMiss records one cache miss (a SELECT that ran the full pipeline).
func (pc *planCache) countMiss() { pc.misses.Add(1) }

// put stores an entry built under flush generation gen, evicting the
// oldest entries beyond capacity. Entries whose pipeline straddled a flush
// are dropped — their planning inputs (row counts, base data) predate it.
func (pc *planCache) put(key string, e *planEntry, gen int64) {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if pc.gen.Load() != gen {
		return
	}
	e.seq = pc.nextSeq
	pc.nextSeq++
	pc.entries[key] = e
	pc.order = append(pc.order, orderItem{key: key, seq: e.seq})
	for len(pc.entries) > pc.cap && len(pc.order) > 0 {
		it := pc.order[0]
		pc.order = pc.order[1:]
		if cur, ok := pc.entries[it.key]; ok && cur.seq == it.seq {
			delete(pc.entries, it.key)
		}
		// Otherwise it was a dead duplicate (stale-evicted or replaced
		// key); skip it rather than evicting the newer live entry.
	}
	// Dead duplicates accumulate under catalog churn; compact once the
	// order list outgrows the live set by enough.
	if len(pc.order) > 2*pc.cap && len(pc.order) > 2*len(pc.entries) {
		kept := pc.order[:0]
		for _, it := range pc.order {
			if cur, ok := pc.entries[it.key]; ok && cur.seq == it.seq {
				kept = append(kept, it)
			}
		}
		pc.order = kept
	}
}

// flush drops every entry (data changed without a catalog version bump)
// and advances the generation so in-flight builds don't repopulate the
// cache with pre-flush state.
func (pc *planCache) flush() {
	pc.mu.Lock()
	pc.gen.Add(1)
	pc.entries = make(map[string]*planEntry)
	pc.order = nil
	pc.mu.Unlock()
}

// stats reports cumulative hit/miss counts.
func (pc *planCache) stats() (hits, misses int64) {
	return pc.hits.Load(), pc.misses.Load()
}

// len reports the live entry count.
func (pc *planCache) len() int {
	pc.mu.Lock()
	defer pc.mu.Unlock()
	return len(pc.entries)
}

// normalizeSQL canonicalizes a SQL string for cache keying: whitespace runs
// collapse to one space, keywords and identifiers fold to lower case, and
// trailing semicolons drop — while quoted literals and quoted identifiers
// are preserved byte-for-byte. Queries differing only in formatting share a
// cache entry; queries differing in any literal do not.
func normalizeSQL(s string) string {
	s = trimSQL(s)
	var b []byte
	b = make([]byte, 0, len(s))
	pendingSpace := false
	i := 0
	for i < len(s) {
		ch := s[i]
		switch {
		case ch == '\'' || ch == '"' || ch == '`':
			// Copy the quoted run verbatim, honoring doubled-quote escapes.
			q := ch
			j := i + 1
			for j < len(s) {
				if s[j] == q {
					if j+1 < len(s) && s[j+1] == q {
						j += 2
						continue
					}
					j++
					break
				}
				j++
			}
			if pendingSpace && len(b) > 0 {
				b = append(b, ' ')
			}
			pendingSpace = false
			b = append(b, s[i:j]...)
			i = j
		case ch == ' ' || ch == '\t' || ch == '\n' || ch == '\r':
			pendingSpace = true
			i++
		default:
			if pendingSpace && len(b) > 0 {
				b = append(b, ' ')
			}
			pendingSpace = false
			if ch >= 'A' && ch <= 'Z' {
				ch += 'a' - 'A'
			}
			b = append(b, ch)
			i++
		}
	}
	return string(b)
}

// trimSQL strips surrounding whitespace and trailing semicolons.
func trimSQL(s string) string {
	start, end := 0, len(s)
	for start < end && isSpaceByte(s[start]) {
		start++
	}
	for end > start && (isSpaceByte(s[end-1]) || s[end-1] == ';') {
		end--
	}
	return s[start:end]
}

func isSpaceByte(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}
