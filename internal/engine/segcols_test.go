package engine

import (
	"fmt"
	"sync"
	"testing"

	"verdictdb/internal/faultpoint"
)

// Column-granular segment loads: a cold chunk is verified once and each of its
// columns is decoded, and charged to the chunk cache, when a scan first touches
// it.

const wideCols = 16

// newWideDiskEngine builds t(c0 … c15) over nchunks sealed chunks plus a short
// tail, flushed to a data directory, with the chunk cache emptied. Columns
// cycle int (delta), three-valued string (dict), high-cardinality string (raw)
// and one-decimal float (decimal).
func newWideDiskEngine(t testing.TB, nchunks int) (disk, mem *Engine) {
	t.Helper()
	if tt, ok := t.(*testing.T); ok {
		ownDataDir(tt)
	}
	cols := make([]Column, wideCols)
	for j := range cols {
		cols[j] = Column{Name: fmt.Sprintf("c%d", j), Type: []ColType{TInt, TString, TString, TFloat}[j%4]}
	}
	rows := make([][]Value, nchunks*chunkRows+5)
	for i := range rows {
		row := make([]Value, wideCols)
		for j := range row {
			switch cols[j].Type {
			case TInt:
				row[j] = int64((i*(j+3) + j) % 1000)
			case TFloat:
				row[j] = float64(i*(j+1)) + 0.5
			default:
				if j%4 == 1 {
					row[j] = []string{"red", "green", "blue"}[(i+j)%3]
				} else {
					row[j] = fmt.Sprintf("v%d-%d", j, i*7919%100003)
				}
			}
		}
		rows[i] = row
	}
	build := func() *Engine {
		e := NewSeeded(7)
		if err := e.CreateTable("t", cols); err != nil {
			t.Fatal(err)
		}
		if err := e.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
		return e
	}
	disk, mem = build(), build()
	if _, err := disk.AttachDataDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = disk.Close() })
	if err := disk.Flush(); err != nil {
		t.Fatal(err)
	}
	disk.DropChunkCache()
	return disk, mem
}

// residentCols returns, for every chunk the cache holds, which of its columns
// are decoded, and the bytes the cache should be charging for them.
func residentCols(t *testing.T, e *Engine) (decoded [][]int, bytes int64) {
	t.Helper()
	tbl, _ := e.Lookup("t")
	cache := e.dd.Load().cache
	for _, sl := range tbl.sealed {
		cache.mu.Lock()
		el, ok := cache.items[sl.(*segSlot)]
		cache.mu.Unlock()
		if !ok {
			continue
		}
		en := el.Value.(*cacheEntry)
		var cols []int
		for j := range en.ch.seg.cols {
			if en.ch.seg.cols[j].Load() != nil {
				cols = append(cols, j)
			}
		}
		decoded = append(decoded, cols)
		if want := en.ch.bytes(); en.bytes != want {
			t.Errorf("entry charged %d B, its decoded columns come to %d B", en.bytes, want)
		}
		bytes += en.bytes
	}
	return decoded, bytes
}

func TestSegmentColumnsDecodedOnTouch(t *testing.T) {
	const nchunks = 6
	disk, mem := newWideDiskEngine(t, nchunks)
	reads0 := faultpoint.Count(faultpoint.SiteStorageSegmentRead)
	sums0 := faultpoint.Count(faultpoint.SiteStorageSegmentChecksum)

	check := func(q string, wantCols []int, wantDecoded, wantMisses int64) {
		t.Helper()
		encRowsEqual(t, q, mustQuery(t, mem, q), mustQuery(t, disk, q))
		st := disk.ChunkCache()
		if st.ColumnsDecoded != wantDecoded || st.Misses != wantMisses || st.Entries != nchunks {
			t.Fatalf("%s: %+v, want %d columns decoded over %d chunk loads, %d entries", q, st, wantDecoded, wantMisses, nchunks)
		}
		decoded, bytes := residentCols(t, disk)
		for i, cols := range decoded {
			if fmt.Sprint(cols) != fmt.Sprint(wantCols) {
				t.Errorf("%s: chunk %d has columns %v decoded, want %v", q, i, cols, wantCols)
			}
		}
		if st.Resident != bytes || st.Resident > defaultChunkCacheBytes {
			t.Errorf("%s: resident %d B, decoded columns sum to %d B", q, st.Resident, bytes)
		}
	}
	// c7 is 8i + 0.5: the bound keeps every chunk (no zone pruning) and drops
	// most of the last one.
	check("select sum(c3) from t where c7 < 10300", []int{3, 7}, 2*nchunks, nchunks)
	// Resident chunks decode what the next query adds, nothing again.
	check("select max(c9) from t", []int{3, 7, 9}, 3*nchunks, nchunks)
	// A group's representative row boxes the cells the select list reads.
	check("select c1, count(*), sum(c3) from t where c7 < 10300 group by c1 order by c1", []int{1, 3, 7, 9}, 4*nchunks, nchunks)
	// The row closures read WHERE's lanes the same way; a row that passes is
	// boxed whole, and here none does.
	disk.SetVectorized(false)
	mem.SetVectorized(false)
	check("select sum(c4) from t where c0 % 2 = 5", []int{0, 1, 3, 7, 9}, 5*nchunks, nchunks)

	if faultpoint.Enabled() {
		reads := faultpoint.Count(faultpoint.SiteStorageSegmentRead) - reads0
		sums := faultpoint.Count(faultpoint.SiteStorageSegmentChecksum) - sums0
		if reads != nchunks || sums != nchunks {
			t.Errorf("storage sites hit %d (read) and %d (checksum) times for %d chunk loads", reads, sums, nchunks)
		}
	}
}

// TestSegmentCacheBoundsDecodedColumns: the cap is on decoded bytes, so a cache
// too small for whole chunks still keeps the narrow slice of them a scan reads.
func TestSegmentCacheBoundsDecodedColumns(t *testing.T) {
	const nchunks = 8
	disk, mem := newWideDiskEngine(t, nchunks)
	// One int column of every chunk (≈ 2.2 kB each with its chunk's column
	// headers) fits; one whole chunk (≈ 42 kB) does not.
	const capBytes = 32 << 10
	disk.SetChunkCacheBytes(capBytes)
	evicted := disk.ChunkCache().Evictions
	q := "select sum(c4) from t"
	for pass := 0; pass < 2; pass++ {
		encRowsEqual(t, q, mustQuery(t, mem, q), mustQuery(t, disk, q))
	}
	st := disk.ChunkCache()
	if st.Misses != nchunks || st.Hits != nchunks || st.Evictions != evicted || st.Resident > capBytes {
		t.Fatalf("narrow scan, twice: %+v, want %d misses then %d hits under %d B and no eviction past %d", st, nchunks, nchunks, capBytes, evicted)
	}
	// Every column of every chunk cannot stay: chunks are evicted, down to one
	// that outgrows the cache by itself and is served uncached.
	q = "select * from t where c0 >= 0"
	encRowsEqual(t, q, mustQuery(t, mem, q), mustQuery(t, disk, q))
	if st = disk.ChunkCache(); st.Evictions == evicted || st.Resident > capBytes {
		t.Fatalf("wide scan: %+v, want evictions and at most %d B resident", st, capBytes)
	}
}

// wantLanes checks column j of a disk chunk against the same chunk in memory.
func wantLanes(t *testing.T, mem *chunk, got *colVec, j int) {
	t.Helper()
	want := mem.col(j)
	for i := 0; i < mem.n; i++ {
		if a, b := want.value(i), got.value(i); a != b {
			t.Errorf("column %d row %d: %v, want %v", j, i, b, a)
			return
		}
	}
}

func TestSegmentColumnsConcurrentTouch(t *testing.T) {
	disk, mem := newWideDiskEngine(t, 2)
	dt, _ := disk.Lookup("t")
	mt, _ := mem.Lookup("t")
	ch, err := dt.sealed[1].load(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := sealedChunk(t, mt, 1)
	// Two goroutines race on columns 4 … 11 and each has four of its own.
	var wg sync.WaitGroup
	for g, cols := range [][]int{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, {11, 10, 9, 8, 7, 6, 5, 4, 12, 13, 14, 15}} {
		wg.Add(1)
		go func(g int, cols []int) {
			defer wg.Done()
			for _, j := range cols {
				if k := ch.colKind(j); k != ref.colKind(j) {
					t.Errorf("goroutine %d: column %d kind %v, want %v", g, j, k, ref.colKind(j))
				}
				wantLanes(t, ref, ch.col(j), j)
			}
		}(g, cols)
	}
	wg.Wait()
	if st := disk.ChunkCache(); st.ColumnsDecoded != wideCols || st.Misses != 1 {
		t.Fatalf("%+v, want each of %d columns decoded once over one load", st, wideCols)
	}
}

// A scan keeps filling a chunk the cache has dropped; the cache charges
// nothing for it, not even to the entry that replaced it.
func TestSegmentChunkEvictedWhileHeld(t *testing.T) {
	disk, mem := newWideDiskEngine(t, 2)
	dt, _ := disk.Lookup("t")
	mt, _ := mem.Lookup("t")
	ref := sealedChunk(t, mt, 0)
	held, err := dt.sealed[0].load(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantLanes(t, ref, held.col(2), 2)
	disk.DropChunkCache()
	wantLanes(t, ref, held.col(5), 5)
	if st := disk.ChunkCache(); st.Resident != 0 || st.Entries != 0 || st.ColumnsDecoded != 2 {
		t.Fatalf("after eviction: %+v, want nothing resident and 2 columns decoded", st)
	}
	again, err := dt.sealed[0].load(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if again == held {
		t.Fatal("reload returned the evicted chunk")
	}
	before := disk.ChunkCache().Resident
	wantLanes(t, ref, held.col(6), 6)
	wantLanes(t, ref, held.col(2), 2)
	if st := disk.ChunkCache(); st.Resident != before || st.ColumnsDecoded != 3 {
		t.Fatalf("the evicted chunk's fill charged the new entry: %+v, resident was %d", st, before)
	}
	wantLanes(t, ref, again.col(6), 6)
	if st := disk.ChunkCache(); st.Resident <= before {
		t.Fatalf("the resident chunk's fill was not charged: %+v", st)
	}
}

// Loading a chunk and touching one column costs a fixed number of
// allocations, whatever the row count: the block's column offsets, the
// stored chunk with its cache entry, its header pointers, the cache's list
// element, the view and its vectors, the touched column's header, and one
// payload vector (two for strings: the block's bytes and its offsets; three
// for a dictionary: its bytes, its entries and the codes).
func TestSegmentLoadAllocs(t *testing.T) {
	disk, _ := newWideDiskEngine(t, 1)
	dt, _ := disk.Lookup("t")
	sl := dt.sealed[0]
	for _, tc := range []struct {
		name    string
		col     int
		enc     colEnc
		ceiling float64
	}{
		{"delta int column", 4, encDelta, 8},
		{"decimal float column", 3, encDecimal, 8},
		{"256-lane string column", 6, encNone, 9},
		{"dictionary string column", 5, encDict, 10},
	} {
		ch, err := sl.load(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if cv := ch.col(tc.col); cv.enc != tc.enc || ch.n != chunkRows {
			t.Fatalf("%s: encoding %d over %d rows, the fixture changed", tc.name, cv.enc, ch.n)
		}
		got := testing.AllocsPerRun(20, func() {
			disk.DropChunkCache()
			ch, err := sl.load(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			ch.col(tc.col)
		})
		if got > tc.ceiling {
			t.Errorf("%s: %.0f allocations to load the chunk and touch it, want at most %.0f", tc.name, got, tc.ceiling)
		}
	}
}

// ForEachRow over a flushed table yields the rows the memory table holds.
func TestForEachRowSegmentsMatchMemory(t *testing.T) {
	disk, mem := newWideDiskEngine(t, 3)
	dt, _ := disk.Lookup("t")
	mt, _ := mem.Lookup("t")
	collect := func(tb *Table) (rows []string) {
		if err := tb.ForEachRow(func(row []Value) error {
			rows = append(rows, fmt.Sprint(row))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return rows
	}
	got, want := collect(dt), collect(mt)
	if len(got) != len(want) || len(want) == 0 {
		t.Fatalf("ForEachRow: %d rows over segments, %d in memory", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %s, want %s", i, got[i], want[i])
		}
	}
}
