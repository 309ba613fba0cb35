package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	verdictdb "verdictdb"
	"verdictdb/internal/sqlparser"
)

// result is one measured run.
type result struct {
	metrics   map[string]float64
	attempted int // timed ops + verified shapes
	failed    int
	failures  []string
	ops       int // timed ops
	passes    int
	digest    string
	opSQL     []string // the timed ops' SQL in issue order ("" for an append step)

	shapeLines []string // per-shape latency summary, printed for the reader
}

// counters are the public cumulative counters of both sides, summed.
type counters struct {
	planHits, planMisses                int64
	chunkHits, chunkMisses, chunkEvicts int64
	parallelScans, catalogVersion       int64
}

func readCounters(ev *env) counters {
	var c counters
	for _, s := range ev.sides {
		h, m := s.conn.CacheStats()
		cc := s.eng.ChunkCache()
		c.planHits += h
		c.planMisses += m
		c.chunkHits += cc.Hits
		c.chunkMisses += cc.Misses
		c.chunkEvicts += cc.Evictions
		c.parallelScans += s.eng.ParallelScans()
		c.catalogVersion += s.conn.CatalogVersion()
	}
	return c
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// measure sets the system up, verifies its outputs, runs the timed loop and
// returns every metric the run can know. With rec set the loop is traced;
// the seam wrapper is installed from set-up on, but records only in the loop.
// redraws are passed on to the verification pass.
func measure(cfg config, rec *recorder, redraws [][]*verdictdb.Answer) (*result, error) {
	names, passes, err := buildOps(cfg)
	if err != nil {
		return nil, err
	}
	nOps := 0
	for _, p := range passes {
		nOps += len(p)
	}

	ev, err := newEnv(cfg, rec)
	if err != nil {
		return nil, err
	}
	defer ev.close()

	// Every workload verifies all 33 shapes first, so the accuracy metrics
	// mean the same thing everywhere; the pass also warms the plan cache.
	digest := sha256.New()
	v := &verdict{rows: map[string]int{}, exact: map[string]int{}}
	if err := v.verify(ev, allShapes(), digest, redraws); err != nil {
		return nil, err
	}
	res := &result{metrics: map[string]float64{}, ops: nOps, passes: len(passes), opSQL: make([]string, 0, nOps)}
	if cfg.w.disk {
		for _, s := range ev.sides {
			s.eng.DropChunkCache()
		}
	}

	lat := make([]int64, nOps)
	shapeOf := make([]int, nOps)
	var rowsScanned, resultRows int64
	// Row counts repeat only where the SQL and the data do.
	checkRows := !cfg.w.redraw && !cfg.w.ingest
	wantRows := v.rows
	if cfg.w.bypass {
		wantRows = v.exact
	}

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0 := readCounters(ev)
	if rec != nil {
		rec.on = true
	}
	i := 0
	passS := make([]float64, len(passes))
	passP95 := make([]float64, len(passes))
	for p, ops := range passes {
		passStart := time.Now()
		for _, o := range ops {
			if rec != nil {
				rec.op = i
				rec.root = rec.begin(-1, "client", "Conn.Query")
			}
			var a *verdictdb.Answer
			var opErr error
			t0 := time.Now()
			if o.appendBatch >= 0 {
				opErr = ev.ing.appendBatch(o.appendBatch)
			} else {
				a, opErr = ev.sides[o.side].conn.Query(o.sql)
			}
			lat[i] = time.Since(t0).Nanoseconds()
			if rec != nil {
				rec.end(rec.root)
			}
			shapeOf[i] = o.shape
			res.opSQL = append(res.opSQL, o.sql)
			switch {
			case opErr != nil:
				res.failures = append(res.failures, fmt.Sprintf("op %d %s: %v", i, names[o.shape], opErr))
			case a != nil:
				rowsScanned += a.RowsScanned
				resultRows += int64(len(a.Rows))
				if want := wantRows[names[o.shape]]; checkRows && len(a.Rows) != want {
					res.failures = append(res.failures, fmt.Sprintf("op %d %s: %d rows, the verify pass saw %d", i, names[o.shape], len(a.Rows), want))
				}
			}
			i++
		}
		passS[p] = time.Since(passStart).Seconds()
		ms := make([]float64, len(ops))
		for j := range ops {
			ms[j] = float64(lat[i-len(ops)+j]) / 1e6
		}
		passP95[p] = quantile(ms, 0.95)
	}
	if rec != nil {
		rec.on = false
	}
	c1 := readCounters(ev)
	if cfg.w.disk {
		// The cache's budget is a setting; what the engine keeps beyond it
		// is the engine's. Emptying it also makes the reading independent of
		// which chunks the last ops happened to leave resident.
		for _, s := range ev.sides {
			s.eng.DropChunkCache()
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)

	if cfg.w.ingest {
		// Samples that fell behind the appends would still answer, just
		// wrongly: re-verify the dashboard queries against the grown table
		// and hold their coverage.
		before := *v
		if err := v.verify(ev, cfg.w.shapes(), digest, nil); err != nil {
			return nil, err
		}
		if cov := ratio(float64(v.covered-before.covered), float64(v.cells-before.cells)); cov < 0.80 {
			v.failures = append(v.failures, fmt.Sprintf("confidence-interval coverage %.3f after the appends, want >= 0.80", cov))
		}
	}
	res.failures = append(v.failures, res.failures...)
	res.failed = len(res.failures)
	res.attempted = nOps + v.checked
	res.digest = hex.EncodeToString(digest.Sum(nil))

	// End-to-end.
	n := float64(nOps)
	m := res.metrics
	// Medians over passes, not totals over the run: one slow stretch of a
	// shared 2-core box then moves neither throughput nor the tail.
	m["queries_per_s"] = float64(len(passes[0])) / median(passS)
	m["latency_p95_ms"] = median(passP95)
	byShape := make([][]float64, len(names))
	for j, ns := range lat {
		byShape[shapeOf[j]] = append(byShape[shapeOf[j]], float64(ns)/1e6)
	}
	logSum := 0.0
	for j, ls := range byShape {
		logSum += math.Log(median(ls))
		res.shapeLines = append(res.shapeLines, fmt.Sprintf("shape %-7s n %4d  median %9.3f ms  max %9.3f ms", names[j], len(ls), median(ls), quantile(ls, 1)))
	}
	m["latency_geomean_ms"] = math.Exp(logSum / float64(len(byShape)))
	m["setup_s"] = ev.setupS
	m["live_heap_mb"] = float64(m1.HeapAlloc) / 1e6
	m["rel_err_median"] = v.relErrMedian()
	m["ci_coverage"] = v.coverage()

	// Per-layer numbers that need no spans. A layer the workload does not
	// touch (storage without a data directory, appends outside ingest_mix)
	// reports 0.
	for _, d := range perLayer {
		m[d.name] = 0
	}
	m["plan_cache_hit_ratio"] = ratio(float64(c1.planHits-c0.planHits), float64(c1.planHits-c0.planHits+c1.planMisses-c0.planMisses))
	m["rows_scanned_per_query"] = float64(rowsScanned) / n
	m["rows_scanned_per_result_row"] = ratio(float64(rowsScanned), float64(resultRows))
	m["parallel_scans"] = float64(c1.parallelScans - c0.parallelScans)
	m["allocs_per_query"] = float64(m1.Mallocs-m0.Mallocs) / n
	m["alloc_kb_per_query"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3 / n
	m["chunk_cache_hit_ratio"] = ratio(float64(c1.chunkHits-c0.chunkHits), float64(c1.chunkHits-c0.chunkHits+c1.chunkMisses-c0.chunkMisses))
	m["chunk_misses_per_query"] = float64(c1.chunkMisses-c0.chunkMisses) / n
	m["chunk_evictions"] = float64(c1.chunkEvicts - c0.chunkEvicts)
	m["catalog_version_bumps"] = float64(c1.catalogVersion - c0.catalogVersion)
	m["flush_s"] = ev.flushS
	m["disk_mb"] = float64(ev.diskBytes) / 1e6
	for _, kind := range []string{"uniform", "hashed", "stratified"} {
		m["sample_build_s."+kind] = ev.sampleS[kind]
	}
	m["sample_rows"] = float64(ev.sampleRows)
	if in := ev.ing; in != nil {
		ms := make([]float64, len(in.appendNs))
		for j, ns := range in.appendNs {
			ms[j] = float64(ns) / 1e6
		}
		m["append_batch_ms_median"] = median(ms)
		m["append_batch_ms_p95"] = quantile(ms, 0.95)
		m["ingest_rows_per_s"] = ratio(float64(in.rows), float64(in.stepNs)/1e9)
	}

	if rec != nil {
		replayParses(rec, res.opSQL)
		spanMetrics(rec, n, m)
	}
	if cfg.w.disk {
		heldRows := 0
		for _, s := range ev.sides {
			for _, t := range s.eng.TableNames() {
				heldRows += s.eng.RowCount(t)
			}
		}
		ev.closeEngines() // the probe reopens the directory; nothing else may hold it
		st, err := probeStorage(ev.dir, heldRows)
		if err != nil {
			return nil, err
		}
		m["reopen_s"] = st.reopenS
		m["segment_read_mb_per_s"] = st.readMBPerS
		m["chunk_read_us"] = st.chunkReadUs
	}
	return res, nil
}

// replayParses times, after the loop, the two parses a query pays: the
// user's SQL (middleware) and every SQL string that crossed the seam (the
// engine's re-parse). The spans carry their op's id but no parent, so they
// never count inside a Conn.Query root.
func replayParses(rec *recorder, opSQL []string) {
	probe := func(op int, name, sql string) {
		rec.op = op
		id := rec.begin(-1, "sqlparser", name)
		_, _ = sqlparser.Parse(sql) // the run itself already parsed this string; only the time matters
		rec.end(id)
	}
	for op, sql := range opSQL {
		if sql != "" {
			probe(op, "Parse(user)", sql)
		}
	}
	for _, s := range rec.sqls {
		probe(s.op, "Parse(seam)", s.sql)
	}
}

// spanMetrics derives the per-layer times from the recorded spans. A root's
// self time is its duration minus its seam children, which never overlap
// (one client, synchronous calls).
func spanMetrics(rec *recorder, nOps float64, m map[string]float64) {
	methods := map[string]string{"QueryTimed": "query_timed", "Query": "query", "Exec": "exec", "Columns": "columns", "RowCount": "row_count"}
	var rootNs, seamNs, userParseNs, seamParseNs int64
	calls := map[string]float64{}
	busy := map[string]int64{}
	for _, sp := range rec.spans {
		d := sp.End - sp.Start
		switch {
		case sp.Layer == "client":
			rootNs += d
		case sp.Layer == "drivers":
			seamNs += d
			calls[methods[sp.Name]]++
			busy[methods[sp.Name]] += d
		case sp.Name == "Parse(user)":
			userParseNs += d
		default:
			seamParseNs += d
		}
	}
	sqlBytes := 0
	for _, s := range rec.sqls {
		sqlBytes += len(s.sql)
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 / nOps }
	m["parse_us_per_query"] = us(userParseNs)
	m["reparse_us_per_query"] = us(seamParseNs)
	m["rewritten_sql_bytes_per_query"] = float64(sqlBytes) / nOps
	m["middleware_self_us_per_query"] = us(rootNs - seamNs)
	m["engine_exec_us_per_query"] = us(seamNs - seamParseNs)
	total := 0.0
	for _, name := range methods {
		m["backend_calls."+name] = calls[name] / nOps
		m["backend_us."+name] = us(busy[name])
		total += calls[name]
	}
	m["backend_calls_per_query"] = total / nOps
}

// measureEndToEnd is the untraced run. Set-up runs three times so setup_s is
// a median. The first two systems draw their samples independently of the
// measured one; each answers the 33 shapes for the accuracy metrics and is
// discarded before anything is timed.
func measureEndToEnd(cfg config) (*result, error) {
	var setups []float64
	var redraws [][]*verdictdb.Answer
	for k := int64(1); k <= 2; k++ {
		redrawn := cfg
		redrawn.scramble = k
		ev, err := newEnv(redrawn, nil)
		if err != nil {
			return nil, err
		}
		answers, err := approxAnswers(ev, allShapes())
		ev.close()
		if err != nil {
			return nil, err
		}
		setups = append(setups, ev.setupS)
		redraws = append(redraws, answers)
	}
	res, err := measure(cfg, nil, redraws)
	if err != nil {
		return nil, err
	}
	res.metrics["setup_s"] = median(append(setups, res.metrics["setup_s"]))
	return res, nil
}

// measureTraced runs a quarter of the passes untraced on the bare driver, then
// the same ops on a fresh system with the seam recorder, and reports the
// traced run's numbers (per-query ratios, so the shorter loop costs nothing)
// plus what tracing cost.
func measureTraced(cfg config) (*result, error) {
	cfg.passes = max(1, cfg.passes/4)
	plain, err := measure(cfg, nil, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(plain.ops)
	res, err := measure(cfg, rec, nil)
	if err != nil {
		return nil, err
	}
	if res.digest != plain.digest || strings.Join(res.opSQL, "\n") != strings.Join(plain.opSQL, "\n") {
		res.failures = append(res.failures, "the traced run saw different answers or ops than the untraced one")
		res.failed++
	}
	res.metrics["trace_overhead_frac"] = 1 - res.metrics["queries_per_s"]/plain.metrics["queries_per_s"]
	path := filepath.Join(cfg.outDir, "trace.jsonl")
	if err := rec.writeJSONL(path); err != nil {
		return nil, err
	}
	fmt.Printf("wrote %d spans to %s\n", len(rec.spans), path)
	return res, nil
}
