package engine

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"verdictdb/internal/sqlparser"
	"verdictdb/internal/storage"
)

// sealSrcRows is the source of the seal-equivalence test: seven sealed chunks
// and an open tail. mix changes its kind every source chunk (ints ending in
// NULLs, floats, strings, bools, a mix, all NULL), so a target chunk gathered
// across two source chunks disagrees with itself and seals boxed, unless all
// it takes of one of them is NULL; f holds NaN, -0 and +0; big holds ±2^53
// neighbours; sd is low-cardinality (dictionary-encoded source chunks) and sr
// unique (raw ones); nul is NULL throughout, ni in every fifth row.
func sealSrcRows(total int) [][]Value {
	rows := make([][]Value, total)
	bigs := []int64{1 << 53, 1<<53 + 1, -(1 << 53), -(1 << 53) - 1, math.MaxInt64, math.MinInt64}
	floats := []Value{math.NaN(), math.Copysign(0, -1), 0.0, 1.5, nil, -2.25}
	for i := range rows {
		var mix Value
		switch (i / chunkRows) % 6 {
		case 0:
			if i%chunkRows < chunkRows-6 { // the chunk's last six are NULL
				mix = int64(i)
			}
		case 1:
			mix = float64(i) / 4
		case 2:
			mix = fmt.Sprintf("m%d", i%7)
		case 3:
			mix = i%3 == 0
		case 4:
			mix = []Value{int64(i), "x", 2.5, nil}[i%4]
		}
		var sd Value = []string{"alpha", "beta", "gamma"}[i%3]
		if i%11 == 0 {
			sd = nil
		}
		var ni Value = int64(i % 50)
		if i%5 == 0 {
			ni = nil
		}
		rows[i] = []Value{int64(i), bigs[i%len(bigs)], floats[i%len(floats)], sd,
			fmt.Sprintf("raw-%05d", i*7919%10007), mix, nil, i%4 == 1, ni}
	}
	return rows
}

var sealSrcCols = []Column{
	{Name: "k", Type: TInt}, {Name: "big", Type: TInt}, {Name: "f", Type: TFloat},
	{Name: "sd", Type: TString}, {Name: "sr", Type: TString}, {Name: "mix", Type: TAny},
	{Name: "nul", Type: TAny}, {Name: "b", Type: TBool}, {Name: "ni", Type: TInt},
}

// colFingerprint renders everything a sealed column stores — kind, encoding,
// NULL flags, vectors, dictionary, codes, runs and zone bounds — with the
// dynamic type of every boxed value, floats by their Go syntax (NaN, -0).
func colFingerprint(cv *colVec, z *storage.Zone) string {
	var types strings.Builder
	for _, v := range cv.anys {
		fmt.Fprintf(&types, "%T,", v)
	}
	return fmt.Sprintf("%#v|%v %#v %#v|%s", *cv, z.Kinds, z.Bound(0), z.Bound(1), types.String())
}

// Chunks sealed from a SELECT's typed lanes (CTAS, INSERT … SELECT) equal
// the chunks InsertRows seals from the same rows boxed, column for column, and
// the open tails hold the same rows — for target tails of 0, 1 and 255 rows, a
// filter that makes target chunks straddle source chunks, computed outputs and
// a column the INSERT leaves NULL.
func TestSealEquivalence(t *testing.T) {
	src := sealSrcRows(7*chunkRows + 100)
	for _, tc := range []struct {
		name string
		into string // the INSERT's head; "" for a CTAS
		sel  string // the statement's SELECT
		ref  string // its rows in the target's layout, when sel's are not
		tail int
	}{
		{"ctas-all", "", "select * from src", "", 0},
		{"ctas-filtered", "", "select * from src where k % 5 <> 3", "", 0},
		{"ctas-computed", "", "select k + 1 as k1, big - 1 as b1, f * 2.0 as f2, ni + 0.5 as nh, coalesce(sd, 'none') as sd2, sr, mix, b from src where k % 3 <> 1", "", 0},
		{"ctas-null-part", "", "select * from src where k >= 250", "", 0},
		{"insert-tail1", "insert into dst", "select * from src where k % 7 <> 0", "", 1},
		{"insert-tail255", "insert into dst", "select * from src where k % 5 <> 3", "", chunkRows - 1},
		{"insert-cols", "insert into dst (b, k, mix, sd)", "select b, k, mix, sd from src where k > 40",
			"select k, null, null, sd, null, mix, null, b, null from src where k > 40", 17},
		{"insert-self", "insert into dst", "select * from dst where k % 4 = 1", "", len(src)},
		// Two matches per source row: join output chunks of 512 rows.
		{"ctas-join", "", "select s.k, s.sd, d.v, s.f from src s join d on s.k % 7 = d.id", "", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewSeeded(3)
			if err := e.CreateTable("src", sealSrcCols); err != nil {
				t.Fatal(err)
			}
			if err := e.InsertRows("src", src); err != nil {
				t.Fatal(err)
			}
			if err := e.CreateTable("d", []Column{{Name: "id", Type: TInt}, {Name: "v", Type: TString}}); err != nil {
				t.Fatal(err)
			}
			for id := range 7 {
				if err := e.InsertRows("d", [][]Value{{int64(id), fmt.Sprint("a", id)}, {int64(id), fmt.Sprint("b", id)}}); err != nil {
					t.Fatal(err)
				}
			}
			if tc.ref == "" {
				tc.ref = tc.sel
			}
			if tc.into != "" {
				for _, name := range []string{"dst", "ref"} {
					if err := e.CreateTable(name, sealSrcCols); err != nil {
						t.Fatal(err)
					}
					if err := e.InsertRows(name, src[len(src)-tc.tail:]); err != nil {
						t.Fatal(err)
					}
				}
			}
			want := mustQuery(t, e, tc.ref)
			var cols []Column
			if tc.into == "" {
				cols = make([]Column, len(want.Cols))
				for j, c := range want.Cols {
					cols[j] = Column{Name: c, Type: want.colType(j)}
				}
				if err := e.CreateTable("ref", cols); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.InsertRows("ref", want.Rows); err != nil {
				t.Fatal(err)
			}
			stmt := tc.into + " " + tc.sel
			if tc.into == "" {
				stmt = "create table dst as " + tc.sel
			}
			// The statement's block must take the typed path.
			parsed, err := sqlparser.Parse(tc.sel)
			if err != nil {
				t.Fatal(err)
			}
			if rs, err := execBlock(e.newQueryCtx(t.Context(), ""), parsed.(*sqlparser.SelectStmt), nil, true); err != nil || rs.lanes == nil {
				t.Fatalf("%s: not kept in lanes (err %v)", tc.sel, err)
			}
			if _, err := e.Exec(stmt); err != nil {
				t.Fatal(err)
			}
			dst, _ := e.Lookup("dst")
			ref, _ := e.Lookup("ref")
			if tc.into == "" {
				for j, c := range dst.Cols {
					if c.Type != cols[j].Type {
						t.Fatalf("CTAS column %s typed %v, want %v", c.Name, c.Type, cols[j].Type)
					}
				}
			}
			if dst.nrows != ref.nrows || len(dst.sealed) != len(ref.sealed) || len(dst.tail) != len(ref.tail) {
				t.Fatalf("dst %d rows, %d chunks, tail %d; ref %d, %d, %d", dst.nrows, len(dst.sealed), len(dst.tail),
					ref.nrows, len(ref.sealed), len(ref.tail))
			}
			for ci := range dst.sealed {
				dch, rch := sealedChunk(t, dst, ci), sealedChunk(t, ref, ci)
				for j := range dch.cols {
					if d, r := colFingerprint(&dch.cols[j], dst.sealed[ci].slotZone(j)), colFingerprint(&rch.cols[j], ref.sealed[ci].slotZone(j)); d != r {
						t.Fatalf("chunk %d column %s:\nlanes %s\nboxed %s", ci, dst.Cols[j].Name, d, r)
					}
				}
			}
			tailRS := func(tbl *Table) *ResultSet { return &ResultSet{Rows: tbl.tail} }
			encRowsEqual(t, "tail", tailRS(ref), tailRS(dst))
		})
	}
}

// Sealing keeps every integer: the zone bounds a delta-encoded chunk is based
// on are exact, not rounded through float64, where 2^53 and 2^53+1 are one
// value, so the base was the first of them rather than the minimum. Rows
// alternate 2^53+1 and 2^53 (128 of the first either way), too many runs for
// run-length encoding.
func TestSealExactIntBounds(t *testing.T) {
	const q = "select sum(k - 9007199254740992) from t"
	for _, n := range []int{chunkRows - 1, chunkRows} {
		rows := make([][]Value, n)
		for i := range rows {
			rows[i] = []Value{int64(1<<53 + 1 - i%2)}
		}
		const want = "128"
		check := func(label string, e *Engine) {
			t.Helper()
			if got := fmt.Sprint(mustQuery(t, e, q).Rows[0][0]); got != want {
				t.Fatalf("%d rows, %s: got %s, want %s", n, label, got, want)
			}
		}
		ownDataDir(t)
		dir := t.TempDir()
		e := NewSeeded(1)
		if _, err := e.AttachDataDir(dir); err != nil {
			t.Fatal(err)
		}
		if err := e.CreateTable("t", []Column{{Name: "k", Type: TInt}}); err != nil {
			t.Fatal(err)
		}
		if err := e.InsertRows("t", rows); err != nil {
			t.Fatal(err)
		}
		check("in memory", e)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		re := NewSeeded(1)
		if _, err := re.AttachDataDir(dir); err != nil {
			t.Fatal(err)
		}
		check("reopened", re)
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
