package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"verdictdb/internal/sqlparser"
)

// A vectorized join's output is a stream of probe slots: a scan over it holds
// one chunk per worker, in buffers the worker reuses, and only a consumer that
// hashes or otherwise retains the output resolves it. These tests pin that the
// stream is invisible — rows, order, error text and error timing equal the row
// join's in every mode — and that it is a stream: allocations and budget
// charges do not grow with the streamed input, a LIMIT stops pulling, and a
// disk-backed input is not held.

// streamTable creates name(k int, v int, s varchar) with n rows: k = v % mod,
// every 17th key NULL, and — when gap is set — no key of rows [256, 512)
// matching anything, so one whole chunk has no surviving pair.
func streamTable(t *testing.T, e *Engine, name string, n, mod int, gap bool) {
	t.Helper()
	if err := e.CreateTable(name, []Column{
		{Name: "k", Type: TInt}, {Name: "v", Type: TInt}, {Name: "s", Type: TString},
	}); err != nil {
		t.Fatal(err)
	}
	rows := make([][]Value, n)
	for i := range rows {
		var k Value = int64(i % mod)
		switch {
		case i%17 == 16:
			k = nil
		case gap && i >= chunkRows && i < 2*chunkRows:
			k = int64(-1 - i)
		}
		rows[i] = []Value{k, int64(i), fmt.Sprintf("s%d", i%7)}
	}
	if err := e.InsertRows(name, rows); err != nil {
		t.Fatal(err)
	}
}

// checkStreamAgainstRowPath is checkAgainstRowPath with errors: whatever the
// row path at parallelism 1 returns — rows or an error — every other mode
// returns too, the error with the same text.
func checkStreamAgainstRowPath(t *testing.T, e *Engine, label, sql string) {
	t.Helper()
	defer e.SetVectorized(true)
	defer e.SetParallelism(0)
	e.SetVectorized(false)
	e.SetParallelism(1)
	ref, refErr := e.Query(sql)
	for _, vec := range []bool{true, false} {
		for _, par := range []int{1, 4} {
			e.SetVectorized(vec)
			e.SetParallelism(par)
			mode := fmt.Sprintf("%s: vectorized=%v parallelism=%d", label, vec, par)
			rs, err := e.Query(sql)
			if refErr != nil {
				if err == nil || err.Error() != refErr.Error() {
					t.Fatalf("%s: error = %v, the row path's is %q\n%s", mode, err, refErr, sql)
				}
				continue
			}
			if err != nil {
				t.Fatalf("%s: %v\n%s", mode, err, sql)
			}
			encRowsEqual(t, mode+" vs the row path", ref, rs)
		}
	}
}

func TestStreamedJoinEquivalence(t *testing.T) {
	e := NewSeeded(5)
	// Sizes straddle parallelMinRows so the probe fans out at parallelism 4;
	// the big tables repeat each key 3 times, the small ones are unique.
	const small, big = 700, 4400
	streamTable(t, e, "sl", small, small, true)
	streamTable(t, e, "bl", big, big/3, true)
	streamTable(t, e, "sr", small, small, false)
	streamTable(t, e, "br", big, big/3, false)

	sides := []struct{ name, l, r string }{
		{"hashed left", "sl", "br"},
		{"hashed right", "bl", "sr"},
	}
	residuals := []struct{ name, on string }{
		{"no residual", ""},
		{"infallible residual", " and l.v % 3 <> r.v % 5"},
		// A shape with no kernel of its own: it fails on the last left row
		// only, after every other pair was refined.
		{"fallible residual", " and 0 - (case when l.v = %d then l.s else l.v end) <= r.v"},
	}
	consumers := []struct{ name, sel, tail string }{
		{"aggregate", "select l.k, count(*), sum(r.v), min(r.s), max(l.s)", " group by l.k"},
		{"project", "select l.k, l.v, l.s, r.k, r.v, r.s", ""},
		{"limit 10", "select l.v, r.v, r.s", " limit 10"},
		{"order by non-output", "select l.v, r.v", " order by coalesce(r.v, -1) * 7 % 13, coalesce(l.v, -1), r.v"},
	}
	for _, sd := range sides {
		lastLeft := small - 1
		if sd.l == "bl" {
			lastLeft = big - 1
		}
		for _, jt := range joinTypes {
			for _, res := range residuals {
				on := res.on
				if res.name == "fallible residual" {
					on = fmt.Sprintf(on, lastLeft)
				}
				for _, c := range consumers {
					sql := fmt.Sprintf("%s from %s l %s %s r on l.k = r.k%s%s", c.sel, sd.l, jt, sd.r, on, c.tail)
					checkStreamAgainstRowPath(t, e, sd.name+", "+jt+", "+res.name+", "+c.name, sql)
				}
			}
		}
	}

	// The fallible residual does fail, and fails although the LIMIT is met by
	// the first chunk: a join whose probe can fail runs before its consumer.
	_, err := e.Query(fmt.Sprintf("select l.v from bl l inner join sr r on l.k = r.k"+residuals[2].on+" limit 10", big-1))
	if want := `engine: non-numeric operand for "-" (int64, string)`; err == nil || err.Error() != want {
		t.Fatalf("fallible residual under LIMIT: error = %v, want %q", err, want)
	}

	// A pipeline of probes: each join's left input is the stream of the one
	// below, hashed (the small table last) or scanned.
	for _, q := range []string{
		"select a.k, count(*), sum(b.v), sum(c.v) from bl a inner join sr b on a.k = b.k %s br c on b.v = c.k group by a.k",
		"select a.v, b.v, c.v, d.s from bl a inner join sr b on a.k = b.k %s br c on b.v = c.k and a.v <> c.v inner join sl d on c.k = d.k",
		"select a.v, c.v from sl a inner join br b on a.k = b.k %s sr c on b.v = c.k limit 10",
		"select a.v, b.v, c.v from bl a inner join sr b on a.k = b.k %s (select k, v from br where v %% 2 = 0) c on b.v = c.k order by a.v + coalesce(c.v, 0), b.v, c.v",
	} {
		for _, jt := range joinTypes {
			checkStreamAgainstRowPath(t, e, "chain "+jt, fmt.Sprintf(q, jt))
		}
	}
}

// streamFactEngine builds fact(g, x, y, tag) with n rows and a 25-row dim(g,
// cat), resident in memory whatever ENGINE_SPILL says.
func streamFactEngine(t *testing.T, n int) *Engine {
	t.Helper()
	ownDataDir(t)
	e := NewSeeded(11)
	if err := e.CreateTable("fact", []Column{
		{Name: "g", Type: TInt}, {Name: "x", Type: TFloat}, {Name: "y", Type: TInt}, {Name: "tag", Type: TString},
	}); err != nil {
		t.Fatal(err)
	}
	rng := newSplitMix(uint64(n))
	rows := make([][]Value, n)
	for i := range rows {
		rows[i] = []Value{rng.Int63n(25), rng.Float64() * 100, int64(i), fmt.Sprintf("t%d", rng.Int63n(1000))}
	}
	if err := e.InsertRows("fact", rows); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateTable("dim", []Column{{Name: "g", Type: TInt}, {Name: "cat", Type: TString}}); err != nil {
		t.Fatal(err)
	}
	drows := make([][]Value, 25)
	for g := range drows {
		drows[g] = []Value{int64(g), fmt.Sprintf("cat%d", g%5)}
	}
	if err := e.InsertRows("dim", drows); err != nil {
		t.Fatal(err)
	}
	return e
}

const streamAggSQL = `select d.cat, count(*), sum(f.x), sum(f.y), count(f.tag)
	from fact f inner join dim d on f.g = d.g group by d.cat`

func TestStreamedJoinReusesBuffers(t *testing.T) {
	measure := func(n int) (allocs, bytes float64) {
		e := streamFactEngine(t, n)
		e.SetParallelism(1)
		mustQuery(t, e, streamAggSQL)
		const runs = 5
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			mustQuery(t, e, streamAggSQL)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / runs, float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	a50, b50 := measure(50_000)
	a200, b200 := measure(200_000)
	t.Logf("50k rows: %.0f allocs, %.0f B; 200k rows: %.0f allocs, %.0f B", a50, b50, a200, b200)
	// Four times the chunks cost no more: what a probe needs is the worker's.
	// The slack covers the runtime's own allocations and the slot headers (a
	// probe slot and its interface word pair per fact chunk, in two arrays).
	if a200 > a50+64 || b200 > b50+150_000/chunkRows*128 {
		t.Fatalf("allocations grow with the streamed input: 50k rows %.0f allocs/%.0f B, 200k rows %.0f allocs/%.0f B",
			a50, b50, a200, b200)
	}

	// The parent commit charged every output row 32 B of references and 16 B
	// per gathered lane (f.x, f.y, f.tag, d.cat), and kept them until the block
	// ended: 96 B × 200 000 rows. A streamed probe charges its buffers once.
	e := streamFactEngine(t, 200_000)
	ref := mustQuery(t, e, streamAggSQL)
	for _, par := range []int{1, 4} {
		e.SetParallelism(par)
		rs, err := e.QueryContext(WithMemoryBudget(context.Background(), 96*200_000/4), streamAggSQL)
		if err != nil {
			t.Fatalf("parallelism %d, a quarter of the parent's charge: %v", par, err)
		}
		if len(rs.Rows) != len(ref.Rows) {
			t.Fatalf("parallelism %d: %d groups, want %d", par, len(rs.Rows), len(ref.Rows))
		}
	}
}

// streamDiskEngine is streamFactEngine flushed to a data directory behind a
// cold chunk cache of capBytes.
func streamDiskEngine(t *testing.T, n int, capBytes int64) *Engine {
	t.Helper()
	e := streamFactEngine(t, n)
	if _, err := e.AttachDataDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e.SetChunkCacheBytes(capBytes)
	e.DropChunkCache()
	return e
}

func TestStreamedJoinLimitStopsPulling(t *testing.T) {
	const nchunks = 40
	e := streamDiskEngine(t, nchunks*chunkRows, 64<<20)
	e.SetParallelism(1)
	all := rowReference(t, e, "select f.y, f.x, d.cat from fact f inner join dim d on f.g = d.g")
	e.SetParallelism(1)
	e.DropChunkCache()
	before := e.ChunkCache().Misses
	rs := mustQuery(t, e, "select f.y, f.x, d.cat from fact f inner join dim d on f.g = d.g limit 10")
	encRowsEqual(t, "limit 10 over a streamed probe", firstRows(all, 10), rs)
	// fact's first chunk fills the bound (dim's 25 rows are an unsealed tail).
	if loads := e.ChunkCache().Misses - before; loads != 1 {
		t.Fatalf("limit 10 loaded %d chunks of %d, want 1", loads, nchunks)
	}

	// Through the row closures the bound stops the pull as well. They run
	// this block because the WHERE kernel, which tests a whole chunk, fails on
	// row 20, which a scan for ten rows never reaches.
	e.DropChunkCache()
	before = e.ChunkCache().Misses
	rs = mustQuery(t, e, `select f.y, f.x, d.cat from fact f inner join dim d on f.g = d.g
		where 0 - (case when f.y >= 20 then d.cat else 1 end) < 0 limit 10`)
	encRowsEqual(t, "limit 10 through the row closures", firstRows(all, 10), rs)
	if loads := e.ChunkCache().Misses - before; loads != 1 {
		t.Fatalf("row closures under limit 10 loaded %d chunks, want 1", loads)
	}

	// Written the other way the small input is on the left and hashed: the
	// output is left-major, so dim's first row needs its matches from all of
	// fact before the first output row exists. Still the same rows.
	flipped := rowReference(t, e, "select f.y, f.x, d.cat from dim d inner join fact f on f.g = d.g")
	encRowsEqual(t, "limit 10, hashed left", firstRows(flipped, 10),
		mustQuery(t, e, "select f.y, f.x, d.cat from dim d inner join fact f on f.g = d.g limit 10"))
}

func TestStreamedJoinHoldsNoDiskInput(t *testing.T) {
	const nchunks, capBytes, workers = 120, 256 << 10, 4
	e := streamDiskEngine(t, nchunks*chunkRows, capBytes)
	e.SetParallelism(workers)

	// The join's output is probe slots over fact's segment slots: nothing of
	// fact is loaded until a scan pulls it.
	qc := e.newQueryCtx(context.Background(), "")
	sel, err := sqlparser.ParseSelect("select 1 from fact f inner join dim d on f.g = d.g")
	if err != nil {
		t.Fatal(err)
	}
	rel, err := buildFrom(qc, sel.From, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rel.src.probes || rel.src.scan != nil || len(rel.src.sealed) != nchunks {
		t.Fatalf("join output: probes=%v resolved=%v slots=%d, want an unresolved stream of %d slots",
			rel.src.probes, rel.src.scan != nil, len(rel.src.sealed), nchunks)
	}
	for _, sl := range rel.src.sealed {
		if _, ok := sl.(*probeSlot).left.(*segSlot); !ok {
			t.Fatalf("probe slot over %T, want fact's segment slot", sl.(*probeSlot).left)
		}
	}
	if misses := e.ChunkCache().Misses; misses != 0 {
		t.Fatalf("building the join loaded %d chunks, want none (dim is an unsealed tail)", misses)
	}

	// While the join streams, the cache stays within its capacity but for the
	// chunk each worker is decoding: the scan holds nothing the cache evicted.
	var peak atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if r := e.ChunkCache().Resident; r > peak.Load() {
					peak.Store(r)
				}
				runtime.Gosched()
			}
		}
	}()
	var oneChunk int64
	for i := 0; i < 3; i++ {
		mustQuery(t, e, streamAggSQL)
		st := e.ChunkCache()
		oneChunk = max(oneChunk, st.Resident/int64(max(st.Entries, 1)))
	}
	close(stop)
	wg.Wait()
	if st := e.ChunkCache(); st.Evictions == 0 {
		t.Fatalf("the cache never evicted: %+v does not exercise the bound", st)
	}
	if limit := int64(capBytes) + workers*2*oneChunk; peak.Load() > limit {
		t.Fatalf("cache held %d B during the join, capacity %d B + %d workers × one chunk (%d B)",
			peak.Load(), capBytes, workers, oneChunk)
	}
}
