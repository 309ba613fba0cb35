package bench

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"time"

	verdictdb "verdictdb"
	"verdictdb/internal/baselines"
	"verdictdb/internal/core"
	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/meta"
	"verdictdb/internal/sampling"
	"verdictdb/internal/workload"
)

// DriverByName returns the driver constructor for a dialect name; every
// dialect runs on the same in-memory engine. Unknown names get the generic
// dialect.
func DriverByName(name string) func(*engine.Engine) *drivers.Driver {
	switch name {
	case "impala":
		return drivers.NewImpala
	case "sparksql", "spark":
		return drivers.NewSparkSQL
	case "redshift":
		return drivers.NewRedshift
	}
	return drivers.NewGeneric
}

// ---------------------------------------------------------------------------
// E1 + E2: Figures 4, 9, 10 — per-query speedups and actual errors.
// ---------------------------------------------------------------------------

// SpeedupExperiment runs all 33 benchmark queries on one engine and prints
// per-query speedups (Figures 4 and 9) and true relative errors (Figure 10).
func SpeedupExperiment(w io.Writer, cfg Config, driverName string) ([]QueryResult, error) {
	mk := DriverByName(driverName)
	tpch, err := NewTPCHEnv(cfg, mk)
	if err != nil {
		return nil, err
	}
	insta, err := NewInstaEnv(cfg, mk)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "## Figure 4/9 (%s): per-query speedup; Figure 10: actual relative error\n", driverName)
	fmt.Fprintf(w, "%-7s %12s %12s %9s %9s %9s\n", "query", "exact", "approx", "speedup", "approx?", "rel.err")
	var out []QueryResult
	run := func(env *Env, queries []workload.Query) error {
		for _, q := range queries {
			res, err := RunQueryPair(env, q)
			if err != nil {
				return err
			}
			out = append(out, res)
			fmt.Fprintf(w, "%-7s %12v %12v %8.2fx %9v %8.2f%%\n",
				res.ID, res.ExactTime.Round(time.Microsecond), res.ApproxTime.Round(time.Microsecond),
				res.Speedup, res.Approximate, 100*res.MaxRelErrTrue)
		}
		return nil
	}
	if err := run(tpch, workload.TPCHQueries); err != nil {
		return nil, err
	}
	if err := run(insta, workload.InstaQueries); err != nil {
		return nil, err
	}
	// Summary row (the paper reports per-engine averages).
	var sum float64
	var maxS float64
	n := 0
	for _, r := range out {
		if r.Approximate {
			sum += r.Speedup
			if r.Speedup > maxS {
				maxS = r.Speedup
			}
			n++
		}
	}
	if n > 0 {
		fmt.Fprintf(w, "average speedup over %d approximated queries: %.2fx (max %.2fx)\n", n, sum/float64(n), maxS)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// E3: Figure 5 — speedup vs data size at fixed sample size.
// ---------------------------------------------------------------------------

// ScalingResult is one point of Figure 5.
type ScalingResult struct {
	Scale   float64
	Rows    int
	Speedup map[string]float64 // query id -> speedup
}

// ScalingExperiment fixes the sample size and grows the base data,
// reproducing Figure 5's rising speedup curves for tq-6 and tq-14.
func ScalingExperiment(w io.Writer, scales []float64, fixedSampleRows int64, seed int64) ([]ScalingResult, error) {
	fmt.Fprintf(w, "## Figure 5: speedup vs original data size (sample fixed at ~%d rows)\n", fixedSampleRows)
	fmt.Fprintf(w, "%-10s %12s %10s %10s\n", "scale", "lineitem", "tq-6", "tq-14")
	queries := map[string]workload.Query{}
	for _, q := range workload.TPCHQueries {
		if q.ID == "tq-6" || q.ID == "tq-14" {
			queries[q.ID] = q
		}
	}
	var out []ScalingResult
	for _, scale := range scales {
		eng := engine.NewSeeded(seed)
		if err := workload.LoadTPCH(eng, scale, seed); err != nil {
			return nil, err
		}
		db := drivers.NewGeneric(eng)
		conn, err := verdictdb.Open(db, verdictdb.Defaults())
		if err != nil {
			return nil, err
		}
		n := eng.RowCount("lineitem")
		ratio := float64(fixedSampleRows) / float64(n)
		if ratio > 1 {
			ratio = 1
		}
		if _, err := conn.CreateUniformSample("lineitem", ratio); err != nil {
			return nil, err
		}
		res := ScalingResult{Scale: scale, Rows: n, Speedup: map[string]float64{}}
		env := &Env{Eng: eng, Conn: conn, DB: db}
		for id, q := range queries {
			qr, err := RunQueryPair(env, q)
			if err != nil {
				return nil, err
			}
			res.Speedup[id] = qr.Speedup
		}
		out = append(out, res)
		fmt.Fprintf(w, "%-10.2f %12d %9.2fx %9.2fx\n", scale, n, res.Speedup["tq-6"], res.Speedup["tq-14"])
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// E4: Figure 6 — VerdictDB vs tightly-integrated AQP (SnappyData).
// ---------------------------------------------------------------------------

// SnappyResult is one Figure 6 bar pair.
type SnappyResult struct {
	ID            string
	SnappyTime    time.Duration
	VerdictTime   time.Duration
	JoinOfSamples bool
}

// SnappyExperiment compares VerdictDB to the integrated baseline. The
// paper's finding: comparable on flat queries, VerdictDB faster on queries
// joining two samples (SnappyData falls back to base tables there).
func SnappyExperiment(w io.Writer, cfg Config) ([]SnappyResult, error) {
	env, err := NewInstaEnv(cfg, drivers.NewGeneric)
	if err != nil {
		return nil, err
	}
	cat, err := meta.Open(env.DB)
	if err != nil {
		return nil, err
	}
	snappy, err := baselines.NewSnappy(env.DB, cat)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "## Figure 6: integrated AQP (SnappyData-like) vs VerdictDB\n")
	fmt.Fprintf(w, "%-7s %14s %14s %12s\n", "query", "snappy", "verdictdb", "sample-join?")
	var out []SnappyResult
	for _, q := range workload.InstaQueries {
		sStart := time.Now()
		if _, err := snappy.Query(q.SQL); err != nil {
			return nil, fmt.Errorf("snappy %s: %w", q.ID, err)
		}
		sDur := time.Since(sStart)
		a, err := env.Conn.Query(q.SQL)
		if err != nil {
			return nil, fmt.Errorf("verdict %s: %w", q.ID, err)
		}
		vDur := time.Duration(a.ElapsedNanos)
		joins := len(a.SampleTables) > 1
		out = append(out, SnappyResult{ID: q.ID, SnappyTime: sDur, VerdictTime: vDur, JoinOfSamples: joins})
		fmt.Fprintf(w, "%-7s %14v %14v %12v\n", q.ID,
			sDur.Round(time.Microsecond), vDur.Round(time.Microsecond), joins)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// E5: Table 2 — sampling-based AQP vs native approximate aggregates.
// ---------------------------------------------------------------------------

// NativeResult is one Table 2 cell pair.
type NativeResult struct {
	Metric      string
	VerdictTime time.Duration
	VerdictErr  float64
	NativeTime  time.Duration
	NativeErr   float64
}

// NativeExperiment reproduces Table 2: approximate count-distinct and
// median via VerdictDB's samples vs native full-scan sketches.
func NativeExperiment(w io.Writer, cfg Config) ([]NativeResult, error) {
	env, err := NewInstaEnv(cfg, drivers.NewGeneric)
	if err != nil {
		return nil, err
	}
	native := baselines.NewNativeApprox(env.Eng)

	exactUsers, err := env.Conn.Query("bypass select count(distinct user_id) as d from orders")
	if err != nil {
		return nil, err
	}
	trueD := exactUsers.Float(0, "d")
	exactMed, err := env.Conn.Query("bypass select percentile(price, 0.5) as m from order_products")
	if err != nil {
		return nil, err
	}
	trueM := exactMed.Float(0, "m")

	var out []NativeResult

	// count-distinct.
	a, err := env.Conn.Query("select count(distinct user_id) as d from orders")
	if err != nil {
		return nil, err
	}
	ndv, _, nTime, err := native.NDV("orders", "user_id")
	if err != nil {
		return nil, err
	}
	out = append(out, NativeResult{
		Metric:      "count-distinct",
		VerdictTime: time.Duration(a.ElapsedNanos),
		VerdictErr:  math.Abs(a.Float(0, "d")-trueD) / trueD,
		NativeTime:  nTime,
		NativeErr:   math.Abs(ndv-trueD) / trueD,
	})

	// median.
	a2, err := env.Conn.Query("select percentile(price, 0.5) as m from order_products")
	if err != nil {
		return nil, err
	}
	med, _, mTime, err := native.ApproxMedian("order_products", "price")
	if err != nil {
		return nil, err
	}
	out = append(out, NativeResult{
		Metric:      "median",
		VerdictTime: time.Duration(a2.ElapsedNanos),
		VerdictErr:  math.Abs(a2.Float(0, "m")-trueM) / trueM,
		NativeTime:  mTime,
		NativeErr:   math.Abs(med-trueM) / trueM,
	})

	fmt.Fprintf(w, "## Table 2: sampling-based AQP vs native approximation\n")
	fmt.Fprintf(w, "%-16s %14s %10s %14s %10s\n", "metric", "verdict", "err", "native", "err")
	for _, r := range out {
		fmt.Fprintf(w, "%-16s %14v %9.2f%% %14v %9.2f%%\n", r.Metric,
			r.VerdictTime.Round(time.Microsecond), 100*r.VerdictErr,
			r.NativeTime.Round(time.Microsecond), 100*r.NativeErr)
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// E6: Figure 7 — runtime of error-estimation methods (flat/join/nested).
// ---------------------------------------------------------------------------

// EstimatorResult is one Figure 7 bar.
type EstimatorResult struct {
	QueryKind string
	Method    string
	Elapsed   time.Duration
}

// EstimatorOverheadExperiment measures query latency under each
// error-estimation method for flat, join, and nested queries.
func EstimatorOverheadExperiment(w io.Writer, cfg Config) ([]EstimatorResult, error) {
	queries := []struct{ kind, sql string }{
		{"flat", "select order_dow, count(*) as c, sum(days_since_prior) as s from orders group by order_dow"},
		{"join", `select o.order_dow, sum(op.price) as rev from orders o
			inner join order_products op on o.order_id = op.order_id group by o.order_dow`},
		{"nested", `select avg(basket) as ab from
			(select op.order_id as oid, sum(op.price) as basket from order_products op group by op.order_id) as b`},
	}
	methods := []struct {
		name   string
		method core.ErrorMethod
	}{
		{"none", core.MethodNone},
		{"variational", core.MethodVariational},
		{"traditional", core.MethodTraditionalSubsampling},
		{"bootstrap", core.MethodConsolidatedBootstrap},
	}
	fmt.Fprintf(w, "## Figure 7: query latency by error-estimation method\n")
	fmt.Fprintf(w, "%-8s %-14s %14s\n", "query", "method", "latency")
	var out []EstimatorResult
	for _, mdef := range methods {
		opts := verdictdb.Defaults()
		opts.Method = mdef.method
		env, err := newInstaEnvWithOpts(cfg, opts)
		if err != nil {
			return nil, err
		}
		for _, q := range queries {
			if mdef.method == core.MethodTraditionalSubsampling || mdef.method == core.MethodConsolidatedBootstrap {
				if q.kind == "nested" {
					// The SQL-expressed baselines support flat and join
					// queries; the paper's nested numbers use the same
					// O(b*n) blowup, approximated here by the join shape.
					continue
				}
			}
			a, err := env.Conn.Query(q.sql)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", q.kind, mdef.name, err)
			}
			if !a.Approximate {
				return nil, fmt.Errorf("%s/%s: not approximated (%v)", q.kind, mdef.name, a.Status)
			}
			out = append(out, EstimatorResult{QueryKind: q.kind, Method: mdef.name, Elapsed: time.Duration(a.ElapsedNanos)})
			fmt.Fprintf(w, "%-8s %-14s %14v\n", q.kind, mdef.name, time.Duration(a.ElapsedNanos).Round(time.Microsecond))
		}
	}
	return out, nil
}

func newInstaEnvWithOpts(cfg Config, opts verdictdb.Options) (*Env, error) {
	eng := engine.NewSeeded(cfg.Seed + 1)
	if err := workload.LoadInsta(eng, cfg.InstaScale, cfg.Seed+1); err != nil {
		return nil, err
	}
	db := drivers.NewGeneric(eng)
	// Keep samples large enough (>=1000 rows) that grouped queries stay
	// approximable at reduced test scales.
	ratioFor := func(table string) float64 {
		n := eng.RowCount(table)
		r := 1000.0 / float64(n)
		if r < 0.01 {
			r = 0.01
		}
		if r > 0.5 {
			r = 0.5
		}
		return r
	}
	// The budget must admit those samples — this experiment compares
	// error-estimation overheads, not budget policy.
	maxRatio := ratioFor("orders")
	if r := ratioFor("order_products"); r > maxRatio {
		maxRatio = r
	}
	opts.Planner.IOBudget = max(opts.Planner.IOBudget, 1.2*maxRatio)
	conn, err := verdictdb.Open(db, opts)
	if err != nil {
		return nil, err
	}
	for _, stmt := range []string{
		fmt.Sprintf("create uniform sample of order_products ratio %g", ratioFor("order_products")),
		fmt.Sprintf("create hashed sample of order_products on (order_id) ratio %g", ratioFor("order_products")),
		fmt.Sprintf("create uniform sample of orders ratio %g", ratioFor("orders")),
	} {
		if err := conn.Exec(stmt); err != nil {
			return nil, err
		}
	}
	return &Env{Eng: eng, Conn: conn, DB: db}, nil
}

// ---------------------------------------------------------------------------
// E9: Figure 11 — sample preparation time vs data-transfer baselines.
// ---------------------------------------------------------------------------

// PrepResult is the Figure 11 bar set.
type PrepResult struct {
	TransferRemote  time.Duration // modeled scp to a remote cluster
	TransferCluster time.Duration // modeled HDFS upload
	VerdictSampling time.Duration // measured stratified + uniform build
	SnappySampling  time.Duration // measured integrated (in-process) build
	DatasetBytes    int64
}

// PrepExperiment measures VerdictDB's sampling time and compares it with
// modeled data-transfer costs (the unavoidable data-preparation work the
// paper benchmarks against) and an integrated in-process sampler.
func PrepExperiment(w io.Writer, cfg Config) (*PrepResult, error) {
	eng := engine.NewSeeded(cfg.Seed + 2)
	if err := workload.LoadInsta(eng, cfg.InstaScale, cfg.Seed+2); err != nil {
		return nil, err
	}
	db := drivers.NewGeneric(eng)
	cat, err := meta.Open(db)
	if err != nil {
		return nil, err
	}
	builder := sampling.NewBuilder(db, cat)

	// Approximate dataset size: ~40 bytes per order_products row plus
	// ~24 per orders row (CSV-ish).
	bytes := int64(eng.RowCount("order_products"))*40 + int64(eng.RowCount("orders"))*24

	start := time.Now()
	if _, err := builder.CreateStratified("orders", []string{"order_dow"}, 0.01); err != nil {
		return nil, err
	}
	if _, err := builder.CreateUniform("order_products", 0.01); err != nil {
		return nil, err
	}
	verdictDur := time.Since(start)

	// Integrated sampler: direct in-process pass (no SQL round trips).
	start = time.Now()
	t, err := eng.Lookup("order_products")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(1))
	kept := 0
	for i := 0; i < t.NumRows(); i++ {
		if rng.Float64() < 0.01 {
			kept++
		}
	}
	_ = kept
	snappyDur := time.Since(start)

	// Modeled transfer throughputs: 30 MB/s WAN scp, 100 MB/s HDFS put
	// (same order as the paper's measured 25.8h vs 7.15h for 370 GB).
	res := &PrepResult{
		TransferRemote:  time.Duration(float64(bytes) / (30 << 20) * float64(time.Second)),
		TransferCluster: time.Duration(float64(bytes) / (100 << 20) * float64(time.Second)),
		VerdictSampling: verdictDur,
		SnappySampling:  snappyDur,
		DatasetBytes:    bytes,
	}
	fmt.Fprintf(w, "## Figure 11: sample prep vs data-transfer (dataset %.1f MB)\n", float64(bytes)/(1<<20))
	fmt.Fprintf(w, "%-28s %14v\n", "transfer to remote cluster", res.TransferRemote.Round(time.Millisecond))
	fmt.Fprintf(w, "%-28s %14v\n", "transfer within cluster", res.TransferCluster.Round(time.Millisecond))
	fmt.Fprintf(w, "%-28s %14v\n", "verdictdb sampling (SQL)", res.VerdictSampling.Round(time.Millisecond))
	fmt.Fprintf(w, "%-28s %14v\n", "integrated sampling", res.SnappySampling.Round(time.Millisecond))
	return res, nil
}
