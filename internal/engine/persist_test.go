package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"verdictdb/internal/storage"
)

// persistRows builds a dataset that exercises every chunk encoding plus the
// boxed fallbacks: dict strings, RLE runs, delta ints, raw floats, NULLs in
// typed columns, and a mixed-type TAny column.
func persistCols() []Column {
	return []Column{
		{Name: "s", Type: TString}, // low cardinality -> dict
		{Name: "r", Type: TInt},    // 64-runs -> RLE
		{Name: "d", Type: TInt},    // small range -> delta
		{Name: "f", Type: TFloat},  // high entropy -> raw
		{Name: "n", Type: TInt},    // delta with NULLs
		{Name: "m", Type: TAny},    // mixed types -> boxed
	}
}

func persistRows(total int) [][]Value {
	vals := []string{"low", "mid", "top"}
	rows := make([][]Value, total)
	for i := range rows {
		var nv Value = int64(i % 97)
		if i%11 == 5 {
			nv = nil
		}
		var mv Value = int64(i)
		switch i % 3 {
		case 1:
			mv = fmt.Sprintf("m%d", i)
		case 2:
			mv = nil
		}
		rows[i] = []Value{vals[i%3], int64(i / 64), int64(i % 200), float64(i) + 0.25, nv, mv}
	}
	return rows
}

// persistQueries cover scans, pruning, grouping, joins-with-self via
// subquery-free shapes, and the row fallback over every stored column.
var persistQueries = []string{
	"select count(*), sum(d), min(f), max(f) from t",
	"select s, count(*), sum(d), avg(f) from t group by s order by s",
	"select r, count(n), sum(n) from t where t.d < 150 group by r order by r",
	"select s, d, f from t where t.d >= 190 and t.s = 'mid' order by d, f",
	"select count(m), count(*) from t where t.r >= 2",
	"select min(d), max(d) from t where t.r = 1",
}

// expectParity checks that got answers every persistence query byte-identically
// to want, at parallelism 1 and 8 and on the row fallback.
func expectParity(t *testing.T, label string, want, got *Engine) {
	t.Helper()
	for _, q := range persistQueries {
		ref := mustQuery(t, want, q)
		for _, par := range []int{1, 8} {
			got.SetParallelism(par)
			encRowsEqual(t, fmt.Sprintf("%s par=%d %s", label, par, q), ref, mustQuery(t, got, q))
		}
		got.SetVectorized(false)
		encRowsEqual(t, fmt.Sprintf("%s rowpath %s", label, q), ref, mustQuery(t, got, q))
		got.SetVectorized(true)
		got.SetParallelism(0)
	}
}

// newPersistEngine loads the standard dataset into a fresh engine; total
// deliberately leaves a partial tail (not a multiple of chunkRows).
func newPersistEngine(t *testing.T, total int) *Engine {
	t.Helper()
	e := NewSeeded(7)
	if err := e.CreateTable("t", persistCols()); err != nil {
		t.Fatal(err)
	}
	if err := e.InsertRows("t", persistRows(total)); err != nil {
		t.Fatal(err)
	}
	return e
}

const persistTotal = 5*chunkRows + 77

// ownDataDir opts a test out of the ENGINE_SPILL scratch-directory knob:
// these tests attach and manage their own data directory, which cannot
// coexist with an env-forced spill dir on the same engine.
func ownDataDir(t *testing.T) {
	t.Setenv(spillEnv, "")
}

func TestPersistFlushAndScanParity(t *testing.T) {
	ownDataDir(t)
	mem := newPersistEngine(t, persistTotal)
	disk := newPersistEngine(t, persistTotal)
	dir := t.TempDir()
	if _, err := disk.AttachDataDir(dir); err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	if err := disk.Flush(); err != nil {
		t.Fatal(err)
	}
	tbl, _ := disk.Lookup("t")
	if tbl.persisted != 5 {
		t.Fatalf("persisted %d chunks, want 5", tbl.persisted)
	}
	for i := 0; i < tbl.persisted; i++ {
		if _, ok := tbl.sealed[i].(*segSlot); !ok {
			t.Fatalf("slot %d not segment-backed after flush", i)
		}
	}
	// Warm (cache pre-populated by the flush) ...
	expectParity(t, "warm", mem, disk)
	// ... and cold (cache dropped, every chunk read and decoded from disk).
	disk.DropChunkCache()
	expectParity(t, "cold", mem, disk)
	if st := disk.ChunkCache(); st.Misses == 0 {
		t.Fatalf("cold scans never touched the cache: %+v", st)
	}
}

// TestLastFlushErrorDuringBackgroundFlush reads the background flusher's
// last error through one of its cycles: a healthy directory reports nil, and
// under -race this checks the error's locking.
func TestLastFlushErrorDuringBackgroundFlush(t *testing.T) {
	ownDataDir(t)
	e := newPersistEngine(t, persistTotal)
	if _, err := e.AttachDataDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for end := time.Now().Add(flushInterval * 3 / 2); time.Now().Before(end); time.Sleep(time.Millisecond) {
		if err := e.LastFlushError(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPersistReopenParity(t *testing.T) {
	ownDataDir(t)
	mem := newPersistEngine(t, persistTotal)
	dir := t.TempDir()
	{
		e := newPersistEngine(t, persistTotal)
		if _, err := e.AttachDataDir(dir); err != nil {
			t.Fatal(err)
		}
		if err := e.Close(); err != nil { // Close runs the final flush
			t.Fatal(err)
		}
	}
	re := NewSeeded(7)
	rep, err := re.AttachDataDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rep.Tables != 1 || rep.Rows != persistTotal || len(rep.Quarantined) != 0 {
		t.Fatalf("recovery report: %+v", rep)
	}
	if re.RowCount("t") != persistTotal {
		t.Fatalf("recovered %d rows, want %d", re.RowCount("t"), persistTotal)
	}
	expectParity(t, "reopen-cold", mem, re)
	expectParity(t, "reopen-warm", mem, re)

	// Appends after reopen keep working and survive another cycle.
	extra := persistRows(persistTotal + 100)[persistTotal:]
	if err := re.InsertRows("t", extra); err != nil {
		t.Fatal(err)
	}
	if err := re.InsertRows("t", nil); err != nil {
		t.Fatal(err)
	}
	if err := mustInsert(mem, extra); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := NewSeeded(7)
	if _, err := re2.AttachDataDir(dir); err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	expectParity(t, "reopen-twice", mem, re2)
}

func mustInsert(e *Engine, rows [][]Value) error { return e.InsertRows("t", rows) }

func TestPersistSpillEnv(t *testing.T) {
	t.Setenv(spillEnv, "1")
	mem := newPersistEngine(t, persistTotal)
	mem2 := NewSeeded(7) // spillForced: every insert spills to a scratch dir
	if err := mem2.CreateTable("t", persistCols()); err != nil {
		t.Fatal(err)
	}
	if err := mem2.InsertRows("t", persistRows(persistTotal)); err != nil {
		t.Fatal(err)
	}
	defer mem2.Close()
	if !mem2.DataDirAttached() {
		t.Fatal("ENGINE_SPILL did not attach a scratch data directory")
	}
	tbl, _ := mem2.Lookup("t")
	if tbl.persisted != 5 {
		t.Fatalf("spill persisted %d chunks, want 5", tbl.persisted)
	}
	// mem was built under the same env before this engine — rebuild a clean
	// reference without spilling by reading the spilled engine against the
	// in-memory one built above (both inserted identical rows).
	expectParity(t, "spill", mem, mem2)
	if st := mem2.ChunkCache(); st.Misses == 0 {
		t.Fatalf("spill reads never went cold: %+v", st)
	}
}

func TestPersistCacheEviction(t *testing.T) {
	ownDataDir(t)
	e := newPersistEngine(t, 20*chunkRows)
	dir := t.TempDir()
	if _, err := e.AttachDataDir(dir); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e.SetChunkCacheBytes(64 << 10) // a couple of chunks at most
	e.DropChunkCache()
	want := mustQuery(t, newPersistEngine(t, 20*chunkRows), "select s, count(*), sum(d), sum(n) from t group by s order by s")
	encRowsEqual(t, "evicting scan", want, mustQuery(t, e, "select s, count(*), sum(d), sum(n) from t group by s order by s"))
	st := e.ChunkCache()
	if st.Evictions == 0 {
		t.Fatalf("tiny cache never evicted: %+v", st)
	}
	if st.Resident > 64<<10 {
		t.Fatalf("resident %d exceeds cap", st.Resident)
	}
	// A second scan is correct even though almost nothing stayed cached.
	encRowsEqual(t, "evicting rescan", want, mustQuery(t, e, "select s, count(*), sum(d), sum(n) from t group by s order by s"))
}

// The encoded columns are the only stored form of a table: whatever the row
// closures box — scratch lanes, the rows that pass — dies with the query. An
// in-memory table's heap does not grow across row-path queries (a cached row
// view roughly tripled it), and over a disk-backed table what they leave behind
// is what the chunk cache accounts for.
func TestRowPathRetainsNothing(t *testing.T) {
	ownDataDir(t)
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	rowPath := func(e *Engine) {
		e.SetVectorized(false)
		mustQuery(t, e, "select s, count(*), sum(d), avg(f), count(m) from t group by s")
		e.SetVectorized(true)
		mustQuery(t, e, "select count(*), sum(n) from t where rand() < 0.5")
		mustQuery(t, e, "select count(*) from t a where a.f > (select avg(b.f) from t b where b.s = a.s)")
	}
	const total = 400*chunkRows + 77
	t.Run("memory", func(t *testing.T) {
		e := newPersistEngine(t, total)
		before := heap()
		rowPath(e)
		after := heap()
		t.Logf("heap %d B before, %d B after", before, after)
		if float64(after) > 1.15*float64(before) {
			t.Fatalf("heap %d B before the row-path queries, %d B after: something boxed was retained", before, after)
		}
		runtime.KeepAlive(e)
	})
	t.Run("disk", func(t *testing.T) {
		const cacheBytes = 256 << 10
		e := newPersistEngine(t, total)
		if _, err := e.AttachDataDir(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		e.SetChunkCacheBytes(cacheBytes)
		e.DropChunkCache()
		before := heap()
		rowPath(e)
		st := e.ChunkCache()
		if st.Resident > cacheBytes {
			t.Fatalf("resident %d exceeds cap %d", st.Resident, cacheBytes)
		}
		// Slack: the cache's estimate is per decoded chunk, not an allocator's.
		if grew := heap() - before; grew > 2*cacheBytes {
			t.Fatalf("row-path scans left %d B behind with %d B resident in a %d B chunk cache", grew, st.Resident, cacheBytes)
		}
	})
}

func TestPersistCompaction(t *testing.T) {
	ownDataDir(t)
	mem := NewSeeded(7)
	e := NewSeeded(7)
	for _, en := range []*Engine{mem, e} {
		if err := en.CreateTable("t", persistCols()); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if _, err := e.AttachDataDir(dir); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	all := persistRows(compactMinSegments * chunkRows)
	for i := 0; i < compactMinSegments; i++ {
		batch := all[i*chunkRows : (i+1)*chunkRows]
		if err := mem.InsertRows("t", batch); err != nil {
			t.Fatal(err)
		}
		if err := e.InsertRows("t", batch); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(); err != nil { // one segment per flush
			t.Fatal(err)
		}
	}
	// The last flush crossed the threshold and compacted.
	segs := 0
	for _, f := range segFiles(t, dir) {
		if !strings.HasSuffix(f, ".quarantined") {
			segs++
		}
	}
	if segs != 1 {
		t.Fatalf("expected 1 segment after compaction, found %d", segs)
	}
	expectParity(t, "compacted", mem, e)
	e.DropChunkCache()
	expectParity(t, "compacted-cold", mem, e)
}

func segFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, en := range ents {
		if strings.Contains(en.Name(), storage.SegmentExt) {
			out = append(out, en.Name())
		}
	}
	return out
}

// flushAndClose builds the standard dataset in dir and returns the data
// segment file names it left behind.
func flushAndClose(t *testing.T, dir string) []string {
	t.Helper()
	e := newPersistEngine(t, persistTotal)
	if _, err := e.AttachDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	return segFiles(t, dir)
}

func TestPersistRecoveryTruncatedSegment(t *testing.T) {
	ownDataDir(t)
	dir := t.TempDir()
	files := flushAndClose(t, dir)
	if len(files) == 0 {
		t.Fatal("no segments written")
	}
	path := filepath.Join(dir, files[0])
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()/2); err != nil {
		t.Fatal(err)
	}
	re := NewSeeded(7)
	rep, err := re.AttachDataDir(dir)
	if err != nil {
		t.Fatalf("recovery must quarantine, not fail: %v", err)
	}
	defer re.Close()
	if len(rep.Quarantined) != 1 || rep.Quarantined[0] != files[0] {
		t.Fatalf("quarantined %v, want [%s]", rep.Quarantined, files[0])
	}
	if _, err := os.Stat(path + ".quarantined"); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	// The engine still serves what survived (the tail rows at minimum).
	if re.RowCount("t") >= persistTotal || re.RowCount("t") < 77 {
		t.Fatalf("recovered %d rows after losing a segment", re.RowCount("t"))
	}
	mustQuery(t, re, "select count(*), sum(d) from t")
	// A second open sees a manifest that no longer references the bad file.
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2 := NewSeeded(7)
	rep2, err := re2.AttachDataDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if len(rep2.Quarantined) != 0 {
		t.Fatalf("second open re-quarantined: %v", rep2.Quarantined)
	}
}

func TestPersistRecoveryCorruptChecksum(t *testing.T) {
	ownDataDir(t)
	dir := t.TempDir()
	files := flushAndClose(t, dir)
	path := filepath.Join(dir, files[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x40 // flip a bit inside chunk data
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	re := NewSeeded(7)
	rep, err := re.AttachDataDir(dir)
	if err != nil {
		t.Fatalf("checksum corruption must quarantine, not fail: %v", err)
	}
	defer re.Close()
	if len(rep.Quarantined) != 1 {
		t.Fatalf("quarantined %v, want exactly the corrupt segment", rep.Quarantined)
	}
	mustQuery(t, re, "select count(*) from t")
}

func TestPersistRecoveryHalfWrittenManifest(t *testing.T) {
	ownDataDir(t)
	mem := newPersistEngine(t, persistTotal)
	dir := t.TempDir()
	flushAndClose(t, dir)
	// Simulate a crash mid-save: a garbage temp manifest beside the valid
	// committed one. The committed manifest must stay authoritative.
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.tmp"), []byte("{\"version\": 99, gar"), 0o644); err != nil {
		t.Fatal(err)
	}
	re := NewSeeded(7)
	rep, err := re.AttachDataDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if len(rep.Quarantined) != 0 || rep.Rows != persistTotal {
		t.Fatalf("half-written manifest broke recovery: %+v", rep)
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST.tmp")); !os.IsNotExist(err) {
		t.Fatal("stale MANIFEST.tmp not removed")
	}
	expectParity(t, "half-written-manifest", mem, re)
}

func TestPersistDropTableReconciled(t *testing.T) {
	ownDataDir(t)
	dir := t.TempDir()
	e := newPersistEngine(t, persistTotal)
	if _, err := e.AttachDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.DropTable("t", false); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil { // reconciles the manifest
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re := NewSeeded(7)
	rep, err := re.AttachDataDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rep.Tables != 0 || re.HasTable("t") {
		t.Fatalf("dropped table resurrected: %+v", rep)
	}
	for _, f := range segFiles(t, dir) {
		t.Fatalf("dropped table left segment %s behind", f)
	}
}

func TestStorageCorruptErrorIdentity(t *testing.T) {
	ownDataDir(t)
	dir := t.TempDir()
	files := flushAndClose(t, dir)
	path := filepath.Join(dir, files[0])
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	seg, err := storage.OpenSegment(path)
	if err != nil {
		// Corruption already detectable at open (footer range): still typed.
		if !errors.Is(err, storage.ErrCorrupt) {
			t.Fatalf("open error not ErrCorrupt: %v", err)
		}
		return
	}
	defer seg.Close()
	verr := seg.VerifyChecksums()
	if verr == nil {
		t.Fatal("checksum pass missed a flipped bit")
	}
	if !errors.Is(verr, storage.ErrCorrupt) {
		t.Fatalf("verify error not ErrCorrupt: %v", verr)
	}
	var ce *storage.CorruptError
	if !errors.As(verr, &ce) || ce.Path == "" {
		t.Fatalf("verify error carries no path: %v", verr)
	}
}
