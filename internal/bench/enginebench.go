package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"verdictdb/internal/engine"
)

// Engine microbenchmarks: the same E1-style scan→filter→aggregate queries
// as internal/engine's BenchmarkE1* functions, run outside the testing
// framework so cmd/benchrunner can persist machine-readable numbers
// (BENCH_engine.json) for cross-PR perf diffs.

// EngineBenchResult is one measured query. AllocsPerOp tracks the
// row→columnar trajectory: the vectorized scan path is expected to run
// orders of magnitude below the boxed row-at-a-time pipeline.
type EngineBenchResult struct {
	Name        string  `json:"name"`
	Rows        int     `json:"rows"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// EngineBenchReport is the BENCH_engine.json payload.
type EngineBenchReport struct {
	Timestamp   string              `json:"timestamp"`
	GoMaxProcs  int                 `json:"go_max_procs"`
	Parallelism int                 `json:"parallelism"`
	Benchmarks  []EngineBenchResult `json:"benchmarks"`
}

const engineBenchRows = 200_000

var engineBenchQueries = []struct{ name, sql string }{
	{"E1GroupedAgg", `
		select g, flag, sum(x) as sx, sum(x * (1 - y)) as sxy,
		       avg(x) as ax, count(*) as c
		from fact where d <= '1998-09-02' group by g, flag`},
	{"E1FilterAgg", `
		select sum(x * y) as revenue from fact
		where d >= '1994-01-01' and d < '1995-01-01'
		  and y between 0.05 and 0.07 and x < 24`},
	{"E1Project", `
		select g, x * (1 - y) as net, substr(d, 1, 4) as yr
		from fact where flag <> 'N'`},
	{"E1StringFilter", `
		select count(*) as c, sum(x) as sx from fact where flag = 'A'`},
	{"E1ProjectWide", `
		select g, flag, x, y, d from fact`},
	{"E1HashJoin", `
		select d.cat, sum(f.x * (1 - f.y)) as rev, avg(f.x) as ax, count(*) as c
		from fact f inner join dim d on f.g = d.g
		where f.d <= '1998-09-02' and f.flag <> 'N'
		group by d.cat`},
	// Bounded scans: the middleware's schema probe (Driver.Columns) and a
	// first-rows fetch. Both stop loading chunks once LIMIT is met.
	{"E1LimitProbe", `select * from fact limit 0`},
	{"E1LimitFirstRows", `select * from fact where x < 0.5 limit 10`},
	// The rewritten-sample shape: a small left input joined to the big
	// table. The join hashes the smaller input whichever side it is on.
	{"E1HashJoinSmallLeft", `
		select d.cat, sum(f.x * (1 - f.y)) as rev, avg(f.x) as ax, count(*) as c
		from dim d inner join fact f on f.g = d.g
		where f.d <= '1998-09-02' and f.flag <> 'N'
		group by d.cat`},
	// A selective WHERE on one join input (the tq-12 shape): the conjuncts
	// are tested on fact before the join, which then sees the 6 % that pass.
	{"E1JoinFilteredSide", `
		select d.cat, sum(f.x * (1 - f.y)) as rev, count(*) as c
		from dim d inner join fact f on f.g = d.g
		where f.flag in ('A', 'R') and f.d >= '1994-03-01' and f.d <= '1994-03-20'
		group by d.cat`},
	// The iq-14 shape: a small filtered left input and three further joins
	// under a two-key GROUP BY. The first join hashes ord and regroups its
	// matches; the other two probe chunk by chunk as the aggregation pulls.
	{"E1JoinChain", `
		select o.dow, d.name, count(*) as c
		from ord o
		inner join item i on o.id = i.ord_id
		inner join prod p on i.prod_id = p.prod_id
		inner join dept d on p.dept_id = d.dept_id
		where o.hr between 8 and 18
		group by o.dow, d.name`},
	// The iq-15 shape: 20 000 int-keyed groups of ten rows, one sum each,
	// averaged by an outer block over the derived table.
	{"E1GroupManyKeys", `
		select avg(s) as avg_s from
		(select ord_id, sum(price) as s from item group by ord_id) as per_ord`},
	// First rows of a join: the probe side is pulled one chunk at a time, so
	// the bound is met by fact's first chunk.
	{"E1JoinLimitFirstRows", `
		select f.x, f.d, d.cat from fact f inner join dim d on f.g = d.g limit 10`},
}

// loadChainTables creates the four tables of E1JoinChain and E1GroupManyKeys,
// sized like the repository benchmark's insta data: ord (20 000 rows), item
// (200 000, ten per order), prod (5 000) and dept (21).
func loadChainTables(eng *engine.Engine) error {
	tables := []struct {
		name string
		cols []engine.Column
		n    int
		row  func(i int) []engine.Value
	}{
		{"ord", []engine.Column{{Name: "id", Type: engine.TInt}, {Name: "dow", Type: engine.TInt}, {Name: "hr", Type: engine.TInt}},
			20_000, func(i int) []engine.Value { return []engine.Value{int64(i), int64(i % 7), int64(i * 7 % 24)} }},
		{"item", []engine.Column{{Name: "ord_id", Type: engine.TInt}, {Name: "prod_id", Type: engine.TInt}, {Name: "price", Type: engine.TFloat}},
			200_000, func(i int) []engine.Value {
				return []engine.Value{int64(i / 10), int64(i * 7919 % 5000), float64(i%997) / 10}
			}},
		{"prod", []engine.Column{{Name: "prod_id", Type: engine.TInt}, {Name: "dept_id", Type: engine.TInt}},
			5_000, func(i int) []engine.Value { return []engine.Value{int64(i), int64(i % 21)} }},
		{"dept", []engine.Column{{Name: "dept_id", Type: engine.TInt}, {Name: "name", Type: engine.TString}},
			21, func(i int) []engine.Value { return []engine.Value{int64(i), fmt.Sprintf("dept-%02d", i)} }},
	}
	for _, t := range tables {
		if err := eng.CreateTable(t.name, t.cols); err != nil {
			return err
		}
		rows := make([][]engine.Value, t.n)
		for i := range rows {
			rows[i] = t.row(i)
		}
		if err := eng.InsertRows(t.name, rows); err != nil {
			return err
		}
	}
	return nil
}

// EngineBench measures the engine hot path and writes the report to
// outPath ("" skips the file).
func EngineBench(w io.Writer, outPath string, iters int) (*EngineBenchReport, error) {
	if iters < 1 {
		iters = 5
	}
	eng := engine.NewSeeded(7)
	if err := eng.CreateTable("fact", []engine.Column{
		{Name: "g", Type: engine.TInt},
		{Name: "flag", Type: engine.TString},
		{Name: "x", Type: engine.TFloat},
		{Name: "y", Type: engine.TFloat},
		{Name: "d", Type: engine.TString},
	}); err != nil {
		return nil, err
	}
	flags := []string{"A", "N", "R"}
	rows := make([][]engine.Value, engineBenchRows)
	for i := range rows {
		rows[i] = []engine.Value{
			int64(i % 25),
			flags[i%3],
			float64((i*7919)%100000) / 1000,
			float64((i*104729)%1000) / 1000,
			fmt.Sprintf("1994-%02d-%02d", i%12+1, i%28+1),
		}
	}
	if err := eng.InsertRows("fact", rows); err != nil {
		return nil, err
	}
	// Dimension table for E1HashJoin: one row per fact.g value.
	if err := eng.CreateTable("dim", []engine.Column{
		{Name: "g", Type: engine.TInt},
		{Name: "cat", Type: engine.TString},
	}); err != nil {
		return nil, err
	}
	cats := []string{"AUTO", "BLDG", "FURN", "HSLD", "MACH"}
	drows := make([][]engine.Value, 25)
	for g := range drows {
		drows[g] = []engine.Value{int64(g), cats[g%len(cats)]}
	}
	if err := eng.InsertRows("dim", drows); err != nil {
		return nil, err
	}
	if err := loadChainTables(eng); err != nil {
		return nil, err
	}

	rep := &EngineBenchReport{
		Timestamp:   time.Now().UTC().Format(time.RFC3339),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Parallelism: eng.Parallelism(),
	}
	fmt.Fprintf(w, "## Engine scan→filter→aggregate microbenchmarks (%d rows, %d iters)\n",
		engineBenchRows, iters)
	measure := func(name, sql string, pre func()) error {
		if _, err := eng.Query(sql); err != nil { // warmup
			return fmt.Errorf("%s: %w", name, err)
		}
		// Start with no collection owed for earlier rows' garbage: a
		// µs-scale row that inherits one GC cycle measures the cycle.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < iters; i++ {
			if pre != nil {
				pre()
			}
			if _, err := eng.Query(sql); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
		}
		elapsed := time.Since(start)
		runtime.ReadMemStats(&after)
		perOp := float64(elapsed.Nanoseconds()) / float64(iters)
		allocsPerOp := float64(after.Mallocs-before.Mallocs) / float64(iters)
		bytesPerOp := float64(after.TotalAlloc-before.TotalAlloc) / float64(iters)
		rep.Benchmarks = append(rep.Benchmarks, EngineBenchResult{
			Name: name, Rows: engineBenchRows, Iters: iters,
			NsPerOp: perOp, AllocsPerOp: allocsPerOp, BytesPerOp: bytesPerOp,
		})
		fmt.Fprintf(w, "%-20s %12.0f ns/op %12.0f allocs/op %14.0f B/op\n",
			name, perOp, allocsPerOp, bytesPerOp)
		return nil
	}
	for _, q := range engineBenchQueries {
		if err := measure(q.name, q.sql, nil); err != nil {
			return nil, err
		}
	}

	// Disk-backed variants: flush every sealed chunk into a scratch segment
	// directory and re-measure the grouped-aggregate scan with a warm chunk
	// cache (steady state: one cache hit per chunk) and cold (cache dropped
	// before each scan, so every chunk pays checksum + decode from disk).
	dir, err := os.MkdirTemp("", "verdict-bench-seg-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	if _, err := eng.AttachDataDir(dir); err != nil {
		return nil, err
	}
	defer eng.Close()
	if err := eng.Flush(); err != nil {
		return nil, err
	}
	scanSQL := engineBenchQueries[0].sql // E1GroupedAgg: the scan-dominated shape
	if err := measure("E1DiskScanWarm", scanSQL, nil); err != nil {
		return nil, err
	}
	if err := measure("E1DiskScanCold", scanSQL, eng.DropChunkCache); err != nil {
		return nil, err
	}
	if outPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "wrote %s\n", outPath)
	}
	return rep, nil
}
