package verdictdb_test

// Benchmarks of the middleware's query path via testing.B: exact against
// approximate latency on four workload queries (Figure 4), one workload shape
// at the repository benchmark's size (make profile-shape), the live heap after
// set-up (make profile-heap), the cost of each error-estimation method
// (Figure 7) and the Lemma 1 staircase. cmd/benchrunner prints the full
// speedup, correctness and progressive tables.

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	verdictdb "verdictdb"
	"verdictdb/internal/bench"
	"verdictdb/internal/core"
	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/stats"
	"verdictdb/internal/workload"
)

var benchCfg = bench.Config{TPCHScale: 0.05, InstaScale: 0.05, Seed: 42}

func tpchEnv(b *testing.B) *bench.Env {
	b.Helper()
	env, err := bench.NewTPCHEnv(benchCfg, drivers.NewGeneric)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

func instaEnv(b *testing.B) *bench.Env {
	b.Helper()
	env, err := bench.NewInstaEnv(benchCfg, drivers.NewGeneric)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

func queryByID(b *testing.B, id string) workload.Query {
	b.Helper()
	for _, q := range workload.AllQueries() {
		if q.ID == id {
			return q
		}
	}
	b.Fatalf("no query %s", id)
	return workload.Query{}
}

// --- Figures 4 and 9 (E1): exact vs approximate latency per engine ------

func benchQuery(b *testing.B, env *bench.Env, sql string, bypass bool) {
	b.Helper()
	if bypass {
		sql = "bypass " + sql
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := env.Conn.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4_TQ1_Exact(b *testing.B) { benchQuery(b, tpchEnv(b), queryByID(b, "tq-1").SQL, true) }
func BenchmarkFig4_TQ1_Approx(b *testing.B) {
	benchQuery(b, tpchEnv(b), queryByID(b, "tq-1").SQL, false)
}
func BenchmarkFig4_TQ6_Exact(b *testing.B) { benchQuery(b, tpchEnv(b), queryByID(b, "tq-6").SQL, true) }
func BenchmarkFig4_TQ6_Approx(b *testing.B) {
	benchQuery(b, tpchEnv(b), queryByID(b, "tq-6").SQL, false)
}
func BenchmarkFig4_TQ14_Exact(b *testing.B) {
	benchQuery(b, tpchEnv(b), queryByID(b, "tq-14").SQL, true)
}
func BenchmarkFig4_TQ14_Approx(b *testing.B) {
	benchQuery(b, tpchEnv(b), queryByID(b, "tq-14").SQL, false)
}
func BenchmarkFig4_IQ7_Exact(b *testing.B) {
	benchQuery(b, instaEnv(b), queryByID(b, "iq-7").SQL, true)
}
func BenchmarkFig4_IQ7_Approx(b *testing.B) {
	benchQuery(b, instaEnv(b), queryByID(b, "iq-7").SQL, false)
}

// --- One workload shape at the repository benchmark's size ---------------

// shapeEnv loads the data the repository benchmark (benchmark/) times: the
// TPC-H or the Insta dataset at scale 0.2, with the 2 % sample set.
func shapeEnv(b *testing.B, tpch bool) *bench.Env {
	b.Helper()
	mk := bench.NewInstaEnv
	if tpch {
		mk = bench.NewTPCHEnv
	}
	env, err := mk(bench.Config{TPCHScale: 0.2, InstaScale: 0.2, Seed: 42}, drivers.NewGeneric)
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkShape/<id>/<exact|approx> runs one of the 33 workload shapes
// through Conn.Query on shapeEnv's data. It is what `make profile-shape
// SHAPE=iq-14` profiles, so a per-shape profile is a command, not a patched
// copy of the benchmark's loop. A dataset is loaded when the first of its
// shapes runs.
func BenchmarkShape(b *testing.B) {
	envs := map[bool]*bench.Env{} // by "is a TPC-H shape"
	for _, q := range workload.AllQueries() {
		b.Run(q.ID, func(b *testing.B) {
			for _, mode := range []string{"exact", "approx"} {
				b.Run(mode, func(b *testing.B) {
					tpch := strings.HasPrefix(q.ID, "tq-")
					if envs[tpch] == nil {
						envs[tpch] = shapeEnv(b, tpch)
					}
					b.ReportAllocs()
					benchQuery(b, envs[tpch], q.SQL, mode == "exact")
				})
			}
		})
	}
}

// BenchmarkAppendCycle runs the repository benchmark's ingest_mix append step
// on shapeEnv's TPC-H data, one step per iteration: a CTAS of the next
// 2 000-row batch from a feed table, INSERT … SELECT of it into lineitem,
// AppendBatch into lineitem's three samples, and the drop. It is what `make
// profile-append` profiles. The feed holds appendFeedBatches batches drawn from
// lineitem's own rows and is reused cyclically; data and feed are loaded once.
func BenchmarkAppendCycle(b *testing.B) {
	const batch = 2000
	if appendEnv == nil {
		appendEnv = shapeEnv(b, true)
		if err := loadAppendFeed(appendEnv, batch); err != nil {
			b.Fatal(err)
		}
	}
	env := appendEnv
	all, err := env.Conn.Samples()
	if err != nil {
		b.Fatal(err)
	}
	var samples []verdictdb.SampleInfo
	for _, si := range all {
		if si.BaseTable == "lineitem" {
			samples = append(samples, si)
		}
	}
	if len(samples) != 3 {
		b.Fatalf("lineitem has %d samples, want 3", len(samples))
	}
	cols, err := env.DB.Columns("lineitem")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := (appendCycles % appendFeedBatches) * batch
		appendCycles++
		for _, sql := range []string{
			fmt.Sprintf("bypass create table append_batch as select %s from append_feed where feed_seq >= %d and feed_seq < %d",
				strings.Join(cols, ", "), lo, lo+batch),
			"bypass insert into lineitem select * from append_batch",
		} {
			if err := env.Conn.Exec(sql); err != nil {
				b.Fatal(err)
			}
		}
		for k, si := range samples {
			if samples[k], err = env.Conn.Builder().AppendBatch(si, "append_batch"); err != nil {
				b.Fatal(err)
			}
		}
		if err := env.Conn.Exec("bypass drop table append_batch"); err != nil {
			b.Fatal(err)
		}
	}
}

// appendEnv is BenchmarkAppendCycle's dataset, kept across its b.N rounds;
// appendCycles counts the append steps run on it, so every round takes the
// feed's next batches.
var (
	appendEnv    *bench.Env
	appendCycles int
)

const appendFeedBatches = 40

// loadAppendFeed makes append_feed: lineitem's columns after a feed_seq
// column numbering the rows, appendFeedBatches × batch rows of lineitem in a
// seeded shuffled order, so appended batches have the base distribution.
func loadAppendFeed(env *bench.Env, batch int) error {
	t, err := env.Eng.Lookup("lineitem")
	if err != nil {
		return err
	}
	rs, err := env.Eng.Query("select * from lineitem")
	if err != nil {
		return err
	}
	cols := append([]engine.Column{{Name: "feed_seq", Type: engine.TInt}}, t.Cols...)
	if err := env.Eng.CreateTable("append_feed", cols); err != nil {
		return err
	}
	perm := rand.New(rand.NewSource(7)).Perm(len(rs.Rows))
	feed := make([][]engine.Value, appendFeedBatches*batch)
	for i := range feed {
		feed[i] = append([]engine.Value{int64(i)}, rs.Rows[perm[i%len(perm)]]...)
	}
	return env.Eng.InsertRows("append_feed", feed)
}

// BenchmarkDiskPass runs the 18 TPC-H shapes approximately, once each per
// iteration, on shapeEnv's TPC-H data flushed to a data directory behind a
// 4 MiB chunk cache — the TPC-H engine's share of the repository benchmark's
// disk_cold — so the decode and eviction work of that workload can be profiled
// (`make profile-disk`) without patching benchmark/. One untimed pass warms
// the plan cache; the chunk cache is emptied after it, as disk_cold does
// before its timed loop. It reports chunk loads per iteration and the cache's
// hit ratio over the timed iterations.
func BenchmarkDiskPass(b *testing.B) {
	env := shapeEnv(b, true)
	if _, err := env.Eng.AttachDataDir(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	defer env.Eng.Close()
	if err := env.Eng.Flush(); err != nil {
		b.Fatal(err)
	}
	env.Eng.SetChunkCacheBytes(4 << 20)
	var shapes []workload.Query
	for _, q := range workload.AllQueries() {
		if strings.HasPrefix(q.ID, "tq-") {
			shapes = append(shapes, q)
		}
	}
	pass := func() {
		for _, q := range shapes {
			if _, err := env.Conn.Query(q.SQL); err != nil {
				b.Fatalf("%s: %v", q.ID, err)
			}
		}
	}
	pass()
	env.Eng.DropChunkCache()
	c0 := env.Eng.ChunkCache()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
	b.StopTimer()
	c1 := env.Eng.ChunkCache()
	hits, misses := c1.Hits-c0.Hits, c1.Misses-c0.Misses
	b.ReportMetric(float64(misses)/float64(b.N), "misses/op")
	b.ReportMetric(float64(hits)/float64(max(hits+misses, 1)), "hit-ratio")
}

// heapEnvs keeps BenchmarkSetupHeap's datasets alive until the test binary
// writes its -memprofile, which it does after a runtime.GC: the profile's
// in-use samples are then the heap the loaded datasets hold.
var heapEnvs []*bench.Env

// BenchmarkSetupHeap loads both of shapeEnv's datasets and reports the live
// heap they hold after a GC, in objects and MB. It is what `make profile-heap`
// profiles: `go tool pprof -sample_index=inuse_objects -top
// .build/verdictdb.test .build/heap.prof` says which allocation sites the
// live objects come from. Run it with -benchtime 1x: each run loads again.
func BenchmarkSetupHeap(b *testing.B) {
	for i := 0; i < b.N; i++ {
		heapEnvs = []*bench.Env{shapeEnv(b, true), shapeEnv(b, false)}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapObjects), "live-objects")
	b.ReportMetric(float64(ms.HeapAlloc)/1e6, "live-MB")
}

// --- Figure 7 (E6): error-estimation method overhead ---------------------

func benchEstimatorMethod(b *testing.B, method core.ErrorMethod, sql string) {
	env, err := bench.NewInstaEnv(benchCfg, drivers.NewGeneric)
	if err != nil {
		b.Fatal(err)
	}
	opts := verdictdb.Defaults()
	opts.Method = method
	conn, err := verdictdb.Open(env.DB, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := conn.Query(sql)
		if err != nil {
			b.Fatal(err)
		}
		if !a.Approximate {
			b.Fatalf("not approximated: %v", a.Status)
		}
	}
}

const fig7FlatSQL = "select order_dow, count(*) as c, avg(days_since_prior) as g from orders group by order_dow"

func BenchmarkFig7_Flat_NoError(b *testing.B) {
	benchEstimatorMethod(b, core.MethodNone, fig7FlatSQL)
}
func BenchmarkFig7_Flat_Variational(b *testing.B) {
	benchEstimatorMethod(b, core.MethodVariational, fig7FlatSQL)
}
func BenchmarkFig7_Flat_TraditionalSubsampling(b *testing.B) {
	benchEstimatorMethod(b, core.MethodTraditionalSubsampling, fig7FlatSQL)
}
func BenchmarkFig7_Flat_ConsolidatedBootstrap(b *testing.B) {
	benchEstimatorMethod(b, core.MethodConsolidatedBootstrap, fig7FlatSQL)
}

// --- Lemma 1 (E14): staircase computation --------------------------------

func BenchmarkLemma1_Staircase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats.Staircase(100, 10_000_000, 0.001, 16)
	}
}
