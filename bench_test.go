package verdictdb_test

// Benchmarks regenerating the paper's tables and figures via testing.B.
// Each benchmark corresponds to one experiment in DESIGN.md's index; the
// full paper-shaped output comes from cmd/benchrunner, these give
// -benchmem-style measurements of the same code paths.

import (
	"io"
	"runtime"
	"strings"
	"testing"

	verdictdb "verdictdb"
	"verdictdb/internal/bench"
	"verdictdb/internal/core"
	"verdictdb/internal/stats"
	"verdictdb/internal/workload"
)

var benchCfg = bench.Config{TPCHScale: 0.05, InstaScale: 0.05, Seed: 42}

func tpchEnv(b *testing.B) *bench.Env {
	b.Helper()
	env, err := bench.NewTPCHEnv(benchCfg, bench.DriverByName("generic"))
	if err != nil {
		b.Fatal(err)
	}
	return env
}

func instaEnv(b *testing.B) *bench.Env {
	b.Helper()
	env, err := bench.NewInstaEnv(benchCfg, bench.DriverByName("generic"))
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
	env, err := mk(bench.Config{TPCHScale: 0.2, InstaScale: 0.2, Seed: 42}, bench.DriverByName("generic"))
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

// --- Figure 5 (E3): speedup growth with data size ------------------------

func BenchmarkFig5_Scaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.ScalingExperiment(io.Discard, []float64{0.02, 0.05}, 1000, 42); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 6 (E4): integrated AQP vs VerdictDB --------------------------

func BenchmarkFig6_Snappy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.SnappyExperiment(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 2 (E5): native approximate aggregates -------------------------

func BenchmarkTable2_Native(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.NativeExperiment(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 7 (E6): error-estimation method overhead ---------------------

func benchEstimatorMethod(b *testing.B, method core.ErrorMethod, sql string) {
	env, err := bench.NewInstaEnv(benchCfg, bench.DriverByName("generic"))
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

// --- Figure 11 (E9): sample preparation ----------------------------------

func BenchmarkFig11_Prep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := bench.PrepExperiment(io.Discard, benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Lemma 1 (E14): staircase computation --------------------------------

func BenchmarkLemma1_Staircase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats.Staircase(100, 10_000_000, 0.001, 16)
	}
}
