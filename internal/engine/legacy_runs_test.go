package engine

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"verdictdb/internal/storage"
)

// Segments written by earlier versions of the engine hold run-length columns
// (storage.EncRLE): one value slot, and one NULL flag, per run of equal rows.
// The engine no longer makes them, but it still reads them, expanding each
// into a raw column when it becomes a stored one (storedCol.fromStorage), and
// compaction still copies them as they are.

// runLength is the run-length form of one chunk-column: vals (nil = NULL)
// of kind, split into maximal runs of equal lanes (sameLane), with zone z.
func runLength(kind ColType, vals []Value, z storage.Zone) storage.Col {
	c := storage.Col{Kind: uint8(kind), Enc: storage.EncRLE, Zone: z}
	if kind == TString {
		c.StrOffs = []uint32{0}
	}
	var nulls []bool
	for i, v := range vals {
		if i > 0 && sameLane(v, vals[i-1]) {
			c.RunEnds[len(c.RunEnds)-1]++
			continue
		}
		c.RunEnds = append(c.RunEnds, int32(i+1))
		nulls = append(nulls, v == nil)
		switch kind {
		case TInt:
			x, _ := v.(int64)
			c.Ints = append(c.Ints, x)
		case TFloat:
			x, _ := v.(float64)
			c.Floats = append(c.Floats, x)
		case TBool:
			x, _ := v.(bool)
			c.Bools = append(c.Bools, x)
		case TString:
			x, _ := v.(string)
			c.StrBytes = append(c.StrBytes, x...)
			c.StrOffs = append(c.StrOffs, uint32(len(c.StrBytes)))
		}
	}
	if slices.Contains(nulls, true) {
		c.Nulls = nulls
	}
	return c
}

// legacyKinds are the kinds a run-length column could have, and legacyNulls
// its NULL patterns; t has one legacy column of each pair.
var (
	legacyKinds = []ColType{TInt, TFloat, TBool, TString}
	legacyNulls = []string{"none", "some", "all"}
)

// legacyRows is batch b (one chunk) of t(id, odd, k, then a legacy column per
// kind and NULL pattern). Each kind has its own run length — 32, 5, 11 and 3
// rows — and "some" NULLs take rows 0 … 3 of every 13, so NULL runs split
// value runs; odd, which every other query selects on, cuts across each run.
func legacyRows(b int) [][]Value {
	rows := make([][]Value, chunkRows)
	for r := range rows {
		i := b*chunkRows + r
		row := []Value{int64(i), int64(i % 2), int64(i % 200)}
		for _, kind := range legacyKinds {
			for _, nulls := range legacyNulls {
				var v Value
				switch kind {
				case TInt:
					v = int64(i/32*3 - 40)
				case TFloat:
					v = math.Sqrt(float64(i / 5))
				case TBool:
					v = i/11%2 == 0
				default:
					v = fmt.Sprintf("s%03d", i/3%50)
				}
				if nulls == "some" && i%13 < 4 || nulls == "all" {
					v = nil
				}
				row = append(row, v)
			}
		}
		rows[r] = row
	}
	return rows
}

func legacyCols() []Column {
	cols := []Column{{Name: "id", Type: TInt}, {Name: "odd", Type: TInt}, {Name: "k", Type: TInt}}
	for _, kind := range legacyKinds {
		for _, nulls := range legacyNulls {
			cols = append(cols, Column{Name: legacyName(kind, nulls), Type: kind})
		}
	}
	return cols
}

// legacyName names t's column of kind and NULL pattern: i_some, s_all, …
func legacyName(kind ColType, nulls string) string {
	return fmt.Sprintf("%c_%s", "abifs"[kind], nulls) // TAny, TBool, TInt, TFloat, TString
}

// rewriteRunLength rewrites every segment in dir with each of t's legacy
// columns in the run-length form, typed even where every row is NULL, and
// the rest raw: the segments an earlier engine would have left.
func rewriteRunLength(t *testing.T, dir string) {
	t.Helper()
	cols := legacyCols()
	for _, f := range segFiles(t, dir) {
		path := filepath.Join(dir, f)
		seg, err := storage.OpenSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		var chunks []*storage.Chunk
		for ci := range seg.Meta.Chunks {
			sc, err := seg.ReadChunk(ci)
			if err != nil {
				t.Fatal(err)
			}
			ch, _ := storedOf(sc).load(nil, nil)
			out := &storage.Chunk{NRows: ch.n, Cols: make([]storage.Col, len(cols))}
			for j, col := range cols {
				vals := make([]Value, ch.n)
				for i := range vals {
					vals[i] = ch.col(j).value(i)
				}
				if j < 3 {
					out.Cols[j] = storage.Col{Kind: storage.KindInt, Ints: make([]int64, ch.n), Zone: sc.Cols[j].Zone}
					for i, v := range vals {
						out.Cols[j].Ints[i] = v.(int64)
					}
					continue
				}
				out.Cols[j] = runLength(col.Type, vals, sc.Cols[j].Zone)
			}
			chunks = append(chunks, out)
		}
		if err := seg.Close(); err != nil {
			t.Fatal(err)
		}
		if err := storage.WriteSegment(path, len(cols), chunks); err != nil {
			t.Fatal(err)
		}
	}
}

// legacyQueries reads every legacy column through a scan, a selection that
// cuts its runs, the literal comparison and IN kernels, GROUP BY, and a join's
// probe-side (t against the smaller j) and build-side (t hashed under the
// larger b) gathers.
func legacyQueries() []string {
	lits := map[ColType][]string{
		TInt: {"-34", "5"}, TFloat: {"2", "3.1"}, TBool: {"true", "false"}, TString: {"'s007'", "'s031'"},
	}
	qs := []string{"select * from t", "select * from t where t.odd = 1"}
	for _, kind := range legacyKinds {
		for _, nulls := range legacyNulls {
			c, l := legacyName(kind, nulls), lits[kind]
			qs = append(qs,
				fmt.Sprintf("select t.id, t.%s from t where t.odd = 0", c),
				fmt.Sprintf("select t.%[1]s, count(*), min(t.id) from t where t.odd = 1 group by t.%[1]s", c),
				fmt.Sprintf("select t.id from t where t.%s in (%s, %s)", c, l[0], l[1]),
				fmt.Sprintf("select t.id from t where t.odd = 1 and t.%s not in (%s)", c, l[1]),
				fmt.Sprintf("select t.id, t.%[1]s, j.v from j join t on j.k = t.k where t.odd = 0 and t.id < 1500", c),
				fmt.Sprintf("select t.id, t.%[1]s, b.v from b join t on b.k = t.k where t.odd = 1", c))
			for _, op := range []string{"=", "<>", "<", ">="} {
				qs = append(qs, fmt.Sprintf("select t.id, t.%s from t where t.odd = 1 and t.%s %s %s", c, c, op, l[0]))
			}
		}
	}
	return qs
}

// TestLegacyRunLengthSegments loads segments whose columns are run-length —
// int, float, bool and string, each with no, some and all rows NULL — and
// checks every read of them, vectorized and on the row closures, serial and
// parallel, against the same rows held in memory and read by the row path;
// then again after a flush compacts them, unchanged, into one segment with a
// new chunk.
func TestLegacyRunLengthSegments(t *testing.T) {
	ownDataDir(t)
	const legacyChunks = compactMinSegments - 1
	mem, disk := NewSeeded(7), NewSeeded(7)
	for _, e := range []*Engine{mem, disk} {
		if err := e.CreateTable("t", legacyCols()); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	if _, err := disk.AttachDataDir(dir); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < legacyChunks; b++ {
		for _, e := range []*Engine{mem, disk} {
			if err := e.InsertRows("t", legacyRows(b)); err != nil {
				t.Fatal(err)
			}
		}
		if err := disk.Flush(); err != nil { // one segment per flush
			t.Fatal(err)
		}
	}
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	rewriteRunLength(t, dir)
	disk = NewSeeded(7)
	if _, err := disk.AttachDataDir(dir); err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	for _, e := range []*Engine{mem, disk} {
		sideTable(t, e, "j", 200, 200)
		sideTable(t, e, "b", 4*legacyChunks*chunkRows, 200)
	}
	mem.SetVectorized(false)

	// legacy reports how many of t's chunk-columns the footers say are
	// run-length, and fails if a loaded one is not a raw column of one slot
	// per row.
	legacy := func() int {
		tbl, err := disk.Lookup("t")
		if err != nil {
			t.Fatal(err)
		}
		runs := 0
		for _, sl := range tbl.sealed {
			ss, ok := sl.(*segSlot)
			if !ok {
				t.Fatalf("t holds a %T, want segment chunks only", sl)
			}
			ch, err := ss.load(nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j, cm := range ss.meta().Cols {
				if cm.Enc != storage.EncRLE {
					continue
				}
				runs++
				if cv := ch.col(j); cv.enc != encNone || cv.kind != ColType(cm.Kind) ||
					len(cv.nulls) != 0 && len(cv.nulls) != ch.n {
					t.Fatalf("chunk column %d: encoding %d kind %v, %d NULL flags for %d rows", j, cv.enc, cv.kind, len(cv.nulls), ch.n)
				}
			}
		}
		return runs
	}
	check := func(stage string) {
		t.Helper()
		for _, q := range legacyQueries() {
			want, err := mem.Query(q)
			if err != nil {
				t.Fatalf("%s: in memory: %s: %v", stage, q, err)
			}
			for _, vec := range []bool{true, false} {
				for _, par := range []int{1, 4} {
					disk.SetVectorized(vec)
					disk.SetParallelism(par)
					got, err := disk.Query(q)
					if err != nil {
						t.Fatalf("%s: vectorized=%v parallelism=%d: %s: %v", stage, vec, par, q, err)
					}
					encRowsEqual(t, fmt.Sprintf("%s: vectorized=%v parallelism=%d: %s", stage, vec, par, q), want, got)
				}
			}
			disk.DropChunkCache()
		}
	}

	if n, want := legacy(), legacyChunks*len(legacyKinds)*len(legacyNulls); n != want {
		t.Fatalf("%d run-length chunk-columns, want %d", n, want)
	}
	check("legacy segments")

	// The next flush makes the table's eighth segment, and compaction copies
	// the legacy chunks' blocks, run-length columns and all, into one file.
	for _, e := range []*Engine{mem, disk} {
		if err := e.InsertRows("t", legacyRows(legacyChunks)); err != nil {
			t.Fatal(err)
		}
	}
	if err := disk.Flush(); err != nil {
		t.Fatal(err)
	}
	var tsegs []string
	for _, f := range segFiles(t, dir) {
		if strings.HasPrefix(f, "t-") {
			tsegs = append(tsegs, f)
		}
	}
	if len(tsegs) != 1 {
		t.Fatalf("t's segment files after compaction: %v, want one", tsegs)
	}
	if n, want := legacy(), legacyChunks*len(legacyKinds)*len(legacyNulls); n != want {
		t.Fatalf("compacted: %d run-length chunk-columns, want %d", n, want)
	}
	check("compacted")
}
