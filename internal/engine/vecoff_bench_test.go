package engine

import "testing"

// Row-view baselines for the E1 benchmarks: the same queries with
// SetVectorized(false), which forces scans through the chunks' cached
// boxed-row views — the row-closure data path. Diffing these
// against BenchmarkE1* isolates what the vectorized pipeline buys on this
// machine (the row→columnar delta also lands in BENCH_engine.json).

func rowPathEngine(b *testing.B) *Engine {
	e := e1Engine(b)
	e.SetVectorized(false)
	return e
}

func BenchmarkE1GroupedAggRowPath(b *testing.B) {
	benchE1Query(b, rowPathEngine(b), `
		select g, flag, sum(x) as sx, sum(x * (1 - y)) as sxy,
		       avg(x) as ax, count(*) as c
		from fact where d <= '1998-09-02' group by g, flag`)
}

func BenchmarkE1FilterAggRowPath(b *testing.B) {
	benchE1Query(b, rowPathEngine(b), `
		select sum(x * y) as revenue from fact
		where d >= '1994-01-01' and d < '1995-01-01'
		  and y between 0.05 and 0.07 and x < 24`)
}

func BenchmarkE1ProjectRowPath(b *testing.B) {
	benchE1Query(b, rowPathEngine(b), `
		select g, x * (1 - y) as net, substr(d, 1, 4) as yr
		from fact where flag <> 'N'`)
}

func BenchmarkE1HashJoinRowPath(b *testing.B) {
	benchE1Query(b, rowPathEngine(b), `
		select d.cat, sum(f.x * (1 - f.y)) as rev, avg(f.x) as ax, count(*) as c
		from fact f inner join dim d on f.g = d.g
		where f.d <= '1998-09-02' and f.flag <> 'N'
		group by d.cat`)
}
