package engine

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"verdictdb/internal/storage"
)

// Tests for the compact stored forms: one-byte dictionary codes, fixed-width
// string blocks and decimal floats, next to raw and delta columns.

// compactCol is one generated column: its lanes (nil = NULL) and, when the
// seal must pick one form for them, a check of it.
type compactCol struct {
	name string
	vals []Value
	form func(cv *colVec) bool
}

func isDecimalAtMost(p int) func(*colVec) bool {
	return func(cv *colVec) bool { return cv.enc == encDecimal && int(cv.exp) <= p && cv.floats == nil }
}

func isDictOf(entries int) func(*colVec) bool {
	return func(cv *colVec) bool { return cv.enc == encDict && len(cv.dict) == entries }
}

func isFixedWidth(w uint32) func(*colVec) bool {
	return func(cv *colVec) bool { return cv.enc == encNone && cv.sw == w && cv.soffs == nil }
}

// genCompactCols draws the columns of an n-row round-trip chunk: float edge
// values (NaN, ±Inf, −0, subnormals, ±2^53), decimals with 0 to 18 places
// (alone, and with one lane the decimal form cannot hold), integers, same-length
// strings with NULL slots, dictionaries of 1, 128 and 256 entries, booleans
// and mixed boxes, with NULLs drawn at random and one column all NULL.
func genCompactCols(rng *rand.Rand, n int, force bool) []compactCol {
	var cols []compactCol
	add := func(name string, form func(*colVec) bool, gen func(i int) Value) {
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = gen(i)
		}
		cols = append(cols, compactCol{name, vals, form})
	}
	full := n == chunkRows
	edges := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		5e-324, 2.2250738585072e-310, 1 << 53, -(1 << 53), 1<<53 + 2, 0.1, 1e300, -123.456}
	add("float edges", nil, func(int) Value {
		if rng.Intn(6) == 0 {
			return nil
		}
		return edges[rng.Intn(len(edges))]
	})
	for p := 0; p <= storage.MaxDecimalExp; p++ {
		scale, base := math.Pow10(p), rng.Int63n(1<<40)-1<<39
		add(fmt.Sprintf("decimals with %d places", p), isDecimalAtMost(p), func(int) Value {
			if rng.Intn(8) == 0 {
				return nil
			}
			return float64(base+rng.Int63n(1<<31)) / scale
		})
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, 1 << 53} {
		at := rng.Intn(n)
		notDecimal := func(cv *colVec) bool { return cv.enc != encDecimal }
		add(fmt.Sprintf("decimals and one %v", bad), notDecimal, func(i int) Value {
			if i == at {
				return bad
			}
			return float64(rng.Intn(100000)) / 100
		})
	}
	add("all NULL", nil, func(int) Value { return nil })
	ints := []int64{0, -1, 1 << 53, -(1 << 53), 1<<53 + 1, math.MaxInt64, math.MinInt64}
	add("integer edges", nil, func(int) Value {
		if rng.Intn(5) == 0 {
			return nil
		}
		return ints[rng.Intn(len(ints))]
	})
	add("narrow integers", nil, func(int) Value { return int64(rng.Intn(1000)) - 500 })
	dates := isFixedWidth(10)
	if force {
		dates = func(cv *colVec) bool { return cv.enc == encDict }
	}
	add("same-length strings with NULL slots", dates, func(int) Value {
		if rng.Intn(6) == 0 {
			return nil
		}
		return fmt.Sprintf("%04d-%02d-%02d", 1992+rng.Intn(7), 1+rng.Intn(12), 1+rng.Intn(28))
	})
	var one func(*colVec) bool
	if full || force {
		one = isDictOf(1)
	}
	add("dictionary of 1 entry", one, func(i int) Value {
		if i%2 == 1 {
			return nil
		}
		return "only"
	})
	var d128 func(*colVec) bool
	if full {
		d128 = isDictOf(128)
	}
	perm := rng.Perm(chunkRows)
	add("dictionary of 128 entries", d128, func(i int) Value { return fmt.Sprintf("k%03d", perm[i]%128) })
	var d256 func(*colVec) bool
	switch {
	case force && full:
		d256 = isDictOf(256)
	case !force:
		d256 = isFixedWidth(4)
	}
	add("dictionary of 256 entries", d256, func(i int) Value { return fmt.Sprintf("s%03d", perm[i]) })
	add("variable-length strings", nil, func(i int) Value {
		if rng.Intn(7) == 0 {
			return nil
		}
		return fmt.Sprintf("v%d", rng.Intn(1<<rng.Intn(20)))
	})
	add("booleans", nil, func(int) Value {
		if rng.Intn(9) == 0 {
			return nil
		}
		return rng.Intn(2) == 0
	})
	add("mixed boxes", nil, func(i int) Value {
		if i%2 == 0 {
			return int64(i)
		}
		return fmt.Sprintf("x%d", i)
	})
	return cols
}

// sameLane compares lanes bit for bit: NaN equals NaN, −0 differs from 0.
func sameLane(a, b Value) bool {
	fa, aok := a.(float64)
	fb, bok := b.(float64)
	if aok && bok {
		return math.Float64bits(fa) == math.Float64bits(fb)
	}
	return a == b
}

// checkLanes reads every lane of cv the ways the engine does — boxed one at a
// time (value), gathered under every row and under the rows backwards
// (gatherCodes, gatherLanes), boxed in bulk (boxColLanes) — and wants the
// generated values. A decimal lane is also read through the form's defining
// expression, float64(integer) / 10^exp.
func checkLanes(t *testing.T, label string, cv *colVec, want []Value) {
	t.Helper()
	n := len(want)
	for i, w := range want {
		if got := cv.value(i); !sameLane(got, w) || cv.isNull(i) != (w == nil) {
			t.Fatalf("%s: lane %d = %#v (null %v), want %#v", label, i, got, cv.isNull(i), w)
		}
		if cv.enc == encDecimal && w != nil {
			if got := float64(cv.deltaAt(i)) / math.Pow10(int(cv.exp)); !sameLane(got, w) {
				t.Fatalf("%s: lane %d divides to %v, want %v", label, i, got, w)
			}
		}
	}
	fwd, back := identitySel(n), make([]int32, n)
	for i := range back {
		back[i] = int32(n - 1 - i)
	}
	for _, idx := range [][]int32{fwd, back} {
		var ov colVec
		if cv.enc == encDict {
			ov.gatherCodes(nil, cv, idx)
		} else {
			ov.reset(nil, cv.kind, n)
			gatherLanes(&ov, cv, idx)
		}
		boxed := make([]Value, n)
		boxColLanes(boxed, 1, cv, idx)
		for k, i := range idx {
			if got := ov.value(k); !sameLane(got, want[i]) {
				t.Fatalf("%s: gathered lane %d (row %d) = %#v, want %#v", label, k, i, got, want[i])
			}
			if !sameLane(boxed[k], want[i]) {
				t.Fatalf("%s: boxed lane %d (row %d) = %#v, want %#v", label, k, i, boxed[k], want[i])
			}
		}
	}
}

// throughSegment writes sc to a segment file and reads it back whole, as a
// cold load decodes it.
func throughSegment(t *testing.T, sc *storedChunk) *storedChunk {
	t.Helper()
	path := filepath.Join(t.TempDir(), "c-0"+storage.SegmentExt)
	if err := storage.WriteSegment(path, len(sc.cols), []*storage.Chunk{chunkToStorage(sc)}); err != nil {
		t.Fatal(err)
	}
	seg, err := storage.OpenSegment(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = seg.Close() })
	c, err := seg.ReadChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	return storedOf(c)
}

// Decoding an encoded column reproduces every lane bit for bit, sealed and
// after a segment round trip, for chunks of 1 and 256 rows, with the seal's
// own choices and with every column forced into some encoding.
func TestCompactFormsRoundTrip(t *testing.T) {
	for _, force := range []bool{false, true} {
		for _, n := range []int{1, chunkRows} {
			for seed := int64(1); seed <= 6; seed++ {
				t.Run(fmt.Sprintf("force=%v/n=%d/seed=%d", force, n, seed), func(t *testing.T) {
					env := ""
					if force {
						env = "1"
					}
					t.Setenv(forceEncodingsEnv, env)
					cols := genCompactCols(rand.New(rand.NewSource(seed)), n, force)
					rows := make([][]Value, n)
					for i := range rows {
						rows[i] = make([]Value, len(cols))
						for j, c := range cols {
							rows[i][j] = c.vals[i]
						}
					}
					sc := sealChunk(buildChunk(rows, len(cols)), nil)
					lsc := throughSegment(t, sc)
					sealed, _ := sc.load(nil, nil)
					loaded, _ := lsc.load(nil, nil)
					for j, c := range cols {
						cv := sealed.col(j)
						allNull := true
						for _, v := range c.vals {
							allNull = allNull && v == nil
						}
						switch {
						case allNull && cv.kind != TAny:
							t.Errorf("%s: all NULL but kind %d", c.name, cv.kind)
						case !allNull && c.form != nil && !c.form(cv):
							t.Errorf("%s: form enc %d, string width %d, exponent %d, %d dictionary entries",
								c.name, cv.enc, cv.sw, cv.exp, len(cv.dict))
						}
						checkLanes(t, c.name+" (sealed)", cv, c.vals)
						lv := loaded.col(j)
						checkLanes(t, c.name+" (from a segment)", lv, c.vals)
						if a, b := sc.cols[j].bytes(n), lsc.cols[j].bytes(n); a != b {
							t.Errorf("%s: charged %d B sealed, %d B from a segment", c.name, a, b)
						}
					}
				})
			}
		}
	}
}

// vecBytes is what the vectors of a stored column hold: every non-nil slice
// field's length times its element size, except the dictionary, whose entries
// count their bytes and a string header each. It walks the struct, so a
// vector added to colVec is counted here whether or not storedCol.bytes knows
// of it.
func vecBytes(t *testing.T, cv *colVec) int64 {
	t.Helper()
	v := reflect.ValueOf(cv).Elem()
	var b int64
	for i := 0; i < v.NumField(); i++ {
		f, name := v.Field(i), v.Type().Field(i).Name
		if f.Kind() != reflect.Slice {
			continue
		}
		switch name {
		case "dict":
			for _, s := range cv.dict {
				b += int64(len(s)) + 16
			}
		case "anys", "strs":
			if f.Len() > 0 {
				t.Fatalf("%s holds %d lanes: not a typed stored column", name, f.Len())
			}
		default:
			b += int64(f.Len()) * int64(f.Type().Elem().Size())
		}
	}
	return b
}

// A stored column is charged the bytes its vectors hold, in every stored
// form, and a chunk loaded from a segment is charged what its sealed twin is
// — its headers, 96 bytes a column, and those payloads — plus a pointer to
// each header. A view of a column, colVec, is 296 bytes.
func TestCompactFormsAccounting(t *testing.T) {
	ownDataDir(t)
	t.Setenv(forceEncodingsEnv, "")
	if size := unsafe.Sizeof(storedCol{}); size != 96 {
		t.Errorf("storedCol is %d bytes, want 96", size)
	}
	if size := unsafe.Sizeof(colVec{}); size != 296 {
		t.Errorf("colVec is %d bytes, want 296", size)
	}
	forms := []struct {
		name string
		typ  ColType
		enc  colEnc
		gen  func(i int) Value
		sw   uint32
	}{
		{"raw ints", TInt, encNone, func(i int) Value { return int64(i) << 40 * 7919 }, 0},
		{"raw floats", TFloat, encNone, func(i int) Value { return math.Sqrt(float64(i)) }, 0},
		{"raw strings", TString, encNone, func(i int) Value { return fmt.Sprintf("v%d", i*7919%1000) }, 0},
		{"raw bools", TBool, encNone, func(i int) Value { return i*7%3 == 0 }, 0},
		{"dictionary", TString, encDict, func(i int) Value { return []string{"low", "mid", "top"}[i%3] }, 0},
		{"delta", TInt, encDelta, func(i int) Value { return int64(i*37%200) - 100 }, 0},
		{"decimal", TFloat, encDecimal, func(i int) Value { return float64(i*7919%10000) / 100 }, 0},
		{"fixed width", TString, encNone, func(i int) Value { return fmt.Sprintf("%04d-01-01", 1000+i) }, 10},
	}
	cols := make([]Column, len(forms))
	for j, f := range forms {
		cols[j] = Column{Name: fmt.Sprintf("c%d", j), Type: f.typ}
	}
	rows := make([][]Value, chunkRows)
	for i := range rows {
		rows[i] = make([]Value, len(forms))
		for j, f := range forms {
			if i%11 != 5 {
				rows[i][j] = f.gen(i)
			}
		}
	}
	e := NewSeeded(1)
	if err := e.CreateTable("t", cols); err != nil {
		t.Fatal(err)
	}
	if err := e.InsertRows("t", rows); err != nil {
		t.Fatal(err)
	}
	tbl, _ := e.Lookup("t")
	sc := tbl.sealed[0].(*storedChunk)
	sealed := sealedChunk(t, tbl, 0)
	want := int64(len(forms)) * int64(unsafe.Sizeof(storedCol{}))
	for j, f := range forms {
		cv := &sealed.cols[j]
		if cv.enc != f.enc || cv.sw != f.sw {
			t.Fatalf("%s: enc %d, string width %d; want %d, %d", f.name, cv.enc, cv.sw, f.enc, f.sw)
		}
		if got, vb := sc.cols[j].bytes(sc.n), vecBytes(t, cv); got != vb {
			t.Errorf("%s: charged %d B, its vectors hold %d", f.name, got, vb)
		}
		want += sc.cols[j].bytes(sc.n)
	}
	if _, err := e.AttachDataDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e.DropChunkCache()
	if _, err := e.Query("select * from t"); err != nil {
		t.Fatal(err)
	}
	// A loaded chunk holds a pointer to each column's header as well.
	want += int64(len(forms)) * int64(unsafe.Sizeof(&storedCol{}))
	if st := e.ChunkCache(); st.Misses != 1 || st.Resident != want {
		t.Errorf("loaded chunk: %d loads, %d B resident; its sealed twin and the header pointers come to %d B", st.Misses, st.Resident, want)
	}
}
