package engine

import (
	"fmt"
	"testing"
)

// E1-style engine microbenchmarks: the scan→filter→aggregate hot path that
// dominates every latency figure the bench harness regenerates (Figures 4/9).
// cmd/benchrunner's "engine" experiment runs the same queries and writes
// BENCH_engine.json so successive PRs can diff perf.

const e1Rows = 200_000

func e1Engine(b *testing.B) *Engine {
	b.Helper()
	e := NewSeeded(7)
	if err := e.CreateTable("fact", []Column{
		{Name: "g", Type: TInt},
		{Name: "flag", Type: TString},
		{Name: "x", Type: TFloat},
		{Name: "y", Type: TFloat},
		{Name: "d", Type: TString},
	}); err != nil {
		b.Fatal(err)
	}
	flags := []string{"A", "N", "R"}
	rng := newSplitMix(99)
	rows := make([][]Value, e1Rows)
	for i := range rows {
		rows[i] = []Value{
			rng.Int63n(25),
			flags[rng.Int63n(3)],
			rng.Float64() * 100,
			rng.Float64(),
			fmt.Sprintf("1994-%02d-%02d", rng.Int63n(12)+1, rng.Int63n(28)+1),
		}
	}
	if err := e.InsertRows("fact", rows); err != nil {
		b.Fatal(err)
	}
	// Dimension table for the hash-join benchmark: one row per fact.g value.
	if err := e.CreateTable("dim", []Column{
		{Name: "g", Type: TInt},
		{Name: "cat", Type: TString},
	}); err != nil {
		b.Fatal(err)
	}
	cats := []string{"AUTO", "BLDG", "FURN", "HSLD", "MACH"}
	drows := make([][]Value, 25)
	for g := range drows {
		drows[g] = []Value{int64(g), cats[g%len(cats)]}
	}
	if err := e.InsertRows("dim", drows); err != nil {
		b.Fatal(err)
	}
	return e
}

func benchE1Query(b *testing.B, e *Engine, sql string) {
	b.Helper()
	if _, err := e.Query(sql); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Query(sql); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1GroupedAgg is the tq-1 shape: scan, date filter, group by two
// low-cardinality columns, several sums/avgs.
// e1GroupedAggSQL is the tq-1 scan shape, shared with the disk-backed
// variants so in-memory and segment-backed numbers are directly comparable.
const e1GroupedAggSQL = `
		select g, flag, sum(x) as sx, sum(x * (1 - y)) as sxy,
		       avg(x) as ax, count(*) as c
		from fact where d <= '1998-09-02' group by g, flag`

func BenchmarkE1GroupedAgg(b *testing.B) {
	benchE1Query(b, e1Engine(b), e1GroupedAggSQL)
}

// BenchmarkE1FilterAgg is the tq-6 shape: selective filter, global sum.
func BenchmarkE1FilterAgg(b *testing.B) {
	benchE1Query(b, e1Engine(b), `
		select sum(x * y) as revenue from fact
		where d >= '1994-01-01' and d < '1995-01-01'
		  and y between 0.05 and 0.07 and x < 24`)
}

// BenchmarkE1Project is a CTAS-style full-table projection with computed
// columns (the sample-creation shape, minus rand()).
func BenchmarkE1Project(b *testing.B) {
	benchE1Query(b, e1Engine(b), `
		select g, x * (1 - y) as net, substr(d, 1, 4) as yr
		from fact where flag <> 'N'`)
}

// BenchmarkE1StringFilter is a selective string-equality scan over a
// dictionary-encoded column: the literal resolves to a code probe per
// chunk, so no string bytes are compared per lane.
func BenchmarkE1StringFilter(b *testing.B) {
	benchE1Query(b, e1Engine(b), `
		select count(*) as c, sum(x) as sx from fact where flag = 'A'`)
}

// BenchmarkE1NullableFilter filters on a column with NULLs: the comparison's
// output carries NULL flags, so the filter takes keepTrue's general loop rather
// than pick.
func BenchmarkE1NullableFilter(b *testing.B) {
	e := NewSeeded(7)
	if err := e.CreateTable("nf", []Column{{Name: "v", Type: TInt}, {Name: "x", Type: TFloat}}); err != nil {
		b.Fatal(err)
	}
	rng := newSplitMix(99)
	rows := make([][]Value, e1Rows)
	for i := range rows {
		var v Value = rng.Int63n(1000)
		if i%8 == 0 {
			v = nil
		}
		rows[i] = []Value{v, rng.Float64()}
	}
	if err := e.InsertRows("nf", rows); err != nil {
		b.Fatal(err)
	}
	benchE1Query(b, e, `select count(*) as c, sum(x) as sx from nf where v < 500`)
}

// BenchmarkE1ProjectWide is an unfiltered five-column projection — the
// pure late-materialization shape where every output cell used to pay a
// boxed-row allocation.
func BenchmarkE1ProjectWide(b *testing.B) {
	benchE1Query(b, e1Engine(b), `
		select g, flag, x, y, d from fact`)
}

// BenchmarkE1HashJoin is the tq-3/tq-5 shape: a big probe-side scan hash
// joined against a dimension table, filtered and grouped downstream — the
// path the vectorized join with late materialization targets.
func BenchmarkE1HashJoin(b *testing.B) {
	benchE1Query(b, e1Engine(b), `
		select d.cat, sum(f.x * (1 - f.y)) as rev, avg(f.x) as ax, count(*) as c
		from fact f inner join dim d on f.g = d.g
		where f.d <= '1998-09-02' and f.flag <> 'N'
		group by d.cat`)
}

// BenchmarkE1HashJoinSmallLeft is the same join written the way the
// middleware rewrites a sampled query — the small input on the left, the big
// table on the right. The join hashes the smaller input, so it costs what
// BenchmarkE1HashJoin does.
func BenchmarkE1HashJoinSmallLeft(b *testing.B) {
	benchE1Query(b, e1Engine(b), `
		select d.cat, sum(f.x * (1 - f.y)) as rev, avg(f.x) as ax, count(*) as c
		from dim d inner join fact f on f.g = d.g
		where f.d <= '1998-09-02' and f.flag <> 'N'
		group by d.cat`)
}

// BenchmarkE1JoinFilteredSide is the tq-12 shape: a WHERE that keeps about
// 4 % of the big join input. Its conjuncts are tested on fact before the
// join, so the join and everything after it cost O(surviving rows).
func BenchmarkE1JoinFilteredSide(b *testing.B) {
	benchE1Query(b, e1Engine(b), `
		select d.cat, sum(f.x * (1 - f.y)) as rev, count(*) as c
		from dim d inner join fact f on f.g = d.g
		where f.flag in ('A', 'R') and f.d >= '1994-03-01' and f.d <= '1994-03-20'
		group by d.cat`)
}

// e1ChainTables adds the four tables of BenchmarkE1JoinChain and
// BenchmarkE1GroupManyKeys, sized like the repository benchmark's insta data:
// ord (20 000 rows), item (200 000, ten per order), prod (5 000) and dept (21).
func e1ChainTables(b *testing.B, e *Engine) {
	b.Helper()
	load := func(name string, cols []Column, n int, row func(i int) []Value) {
		if err := e.CreateTable(name, cols); err != nil {
			b.Fatal(err)
		}
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = row(i)
		}
		if err := e.InsertRows(name, rows); err != nil {
			b.Fatal(err)
		}
	}
	load("ord", []Column{{Name: "id", Type: TInt}, {Name: "dow", Type: TInt}, {Name: "hr", Type: TInt}}, 20_000,
		func(i int) []Value { return []Value{int64(i), int64(i % 7), int64(i * 7 % 24)} })
	load("item", []Column{{Name: "ord_id", Type: TInt}, {Name: "prod_id", Type: TInt}, {Name: "price", Type: TFloat}}, 200_000,
		func(i int) []Value { return []Value{int64(i / 10), int64(i * 7919 % 5000), float64(i%997) / 10} })
	load("prod", []Column{{Name: "prod_id", Type: TInt}, {Name: "dept_id", Type: TInt}}, 5_000,
		func(i int) []Value { return []Value{int64(i), int64(i % 21)} })
	load("dept", []Column{{Name: "dept_id", Type: TInt}, {Name: "name", Type: TString}}, 21,
		func(i int) []Value { return []Value{int64(i), fmt.Sprintf("dept-%02d", i)} })
}

// BenchmarkE1JoinChain is the iq-14 shape: a small filtered left input and
// three further joins under a two-key GROUP BY. The first join hashes ord and
// regroups its matches; the other two probe chunk by chunk as the aggregation
// pulls, in buffers the scan worker reuses.
func BenchmarkE1JoinChain(b *testing.B) {
	e := NewSeeded(7)
	e1ChainTables(b, e)
	benchE1Query(b, e, `
		select o.dow, d.name, count(*) as c
		from ord o
		inner join item i on o.id = i.ord_id
		inner join prod p on i.prod_id = p.prod_id
		inner join dept d on p.dept_id = d.dept_id
		where o.hr between 8 and 18
		group by o.dow, d.name`)
}

// BenchmarkE1GroupManyKeys is the iq-15 shape: 20 000 int-keyed groups of ten
// rows, one sum each, averaged by an outer block over the derived table.
func BenchmarkE1GroupManyKeys(b *testing.B) {
	e := NewSeeded(7)
	e1ChainTables(b, e)
	benchE1Query(b, e, `
		select avg(s) as avg_s from
		(select ord_id, sum(price) as s from item group by ord_id) as per_ord`)
}

// BenchmarkE1JoinLimitFirstRows fetches the first rows of a join: the probe
// side is pulled one chunk at a time, so the bound is met by fact's first
// chunk.
func BenchmarkE1JoinLimitFirstRows(b *testing.B) {
	benchE1Query(b, e1Engine(b), `
		select f.x, f.d, d.cat from fact f inner join dim d on f.g = d.g limit 10`)
}

// BenchmarkE1LimitProbe is the schema probe the middleware issues through
// Driver.Columns: LIMIT 0 is pushed into the scan, so it loads no chunk and
// allocates per column, not per row.
func BenchmarkE1LimitProbe(b *testing.B) {
	benchE1Query(b, e1Engine(b), `select * from fact limit 0`)
}

// BenchmarkE1LimitFirstRows is a first-rows fetch behind a selective
// filter: the scan stops at the chunk that yields the tenth match.
func BenchmarkE1LimitFirstRows(b *testing.B) {
	benchE1Query(b, e1Engine(b), `select * from fact where x < 0.5 limit 10`)
}

// e1DiskEngine flushes the benchmark dataset into a scratch data directory
// so every sealed chunk is segment-backed (the tail stays resident).
func e1DiskEngine(b *testing.B) *Engine {
	b.Helper()
	e := e1Engine(b)
	if _, err := e.AttachDataDir(b.TempDir()); err != nil {
		b.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = e.Close() })
	return e
}

// BenchmarkE1DiskScanWarm scans segment-backed chunks through a warm chunk
// cache — the steady-state overhead of the storage layer is one cache hit
// per chunk per column scan.
func BenchmarkE1DiskScanWarm(b *testing.B) {
	benchE1Query(b, e1DiskEngine(b), e1GroupedAggSQL)
}

// BenchmarkE1DiskScanCold drops the chunk cache before every iteration, so
// each scan re-reads and decodes every chunk from the segment file (page
// cache stays warm; this isolates checksum + decode + slot-swap cost).
func BenchmarkE1DiskScanCold(b *testing.B) {
	e := e1DiskEngine(b)
	if _, err := e.Query(e1GroupedAggSQL); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DropChunkCache()
		if _, err := e.Query(e1GroupedAggSQL); err != nil {
			b.Fatal(err)
		}
	}
}
