package engine

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// Property-based tests on the engine's core invariants.

func TestCompareGroupKeyConsistency(t *testing.T) {
	// Compare(a,b)==0 must imply GroupKey(a)==GroupKey(b) for numerics
	// (GROUP BY correctness across int64/float64 representations).
	f := func(x int32) bool {
		a := Value(int64(x))
		b := Value(float64(x))
		return Compare(a, b) == 0 && GroupKey(a) == GroupKey(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareAntisymmetric(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCompareTransitiveOnInts(t *testing.T) {
	f := func(a, b, c int64) bool {
		va, vb, vc := Value(a), Value(b), Value(c)
		if Compare(va, vb) <= 0 && Compare(vb, vc) <= 0 {
			return Compare(va, vc) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLikeMatchProperties(t *testing.T) {
	// s LIKE s for wildcard-free s; '%' matches everything; '_'-padded
	// patterns match equal-length strings.
	f := func(raw string) bool {
		s := strings.NewReplacer("%", "", "_", "", "\\", "").Replace(raw)
		if !likeMatch(s, s) {
			return false
		}
		if !likeMatch(s, "%") {
			return false
		}
		return likeMatch(s, strings.Repeat("_", len(s)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestToFloatToIntAgree(t *testing.T) {
	f := func(x int32) bool {
		v := Value(int64(x))
		fv, ok1 := ToFloat(v)
		iv, ok2 := ToInt(v)
		return ok1 && ok2 && int64(fv) == iv
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAggregationSumInvariantUnderGrouping(t *testing.T) {
	// Sum of per-group sums equals the global sum, for random data.
	f := func(seed uint32) bool {
		e := NewSeeded(int64(seed%1000) + 1)
		if err := e.CreateTable("t", []Column{
			{Name: "g", Type: TInt}, {Name: "x", Type: TFloat},
		}); err != nil {
			return false
		}
		rng := newSplitMix(uint64(seed) + 7)
		rows := make([][]Value, 200)
		for i := range rows {
			rows[i] = []Value{int64(rng.Int63n(7)), rng.Float64() * 100}
		}
		if err := e.InsertRows("t", rows); err != nil {
			return false
		}
		grouped, err := e.Query("select g, sum(x) as s from t group by g")
		if err != nil {
			return false
		}
		total, err := e.Query("select sum(x) from t")
		if err != nil {
			return false
		}
		var groupSum float64
		for _, r := range grouped.Rows {
			v, _ := ToFloat(r[1])
			groupSum += v
		}
		want, _ := ToFloat(total.Rows[0][0])
		return math.Abs(groupSum-want) < 1e-6*math.Max(1, math.Abs(want))
	}
	cfg := &quick.Config{MaxCount: 25}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestJoinCountInvariant(t *testing.T) {
	// |A join B on A.k=B.k| == sum over keys of countA(k)*countB(k).
	f := func(seed uint32) bool {
		e := NewSeeded(int64(seed%1000) + 2)
		e.CreateTable("a", []Column{{Name: "k", Type: TInt}})
		e.CreateTable("b", []Column{{Name: "k", Type: TInt}})
		rng := newSplitMix(uint64(seed) + 13)
		ca := map[int64]int64{}
		cb := map[int64]int64{}
		for i := 0; i < 100; i++ {
			k := rng.Int63n(10)
			ca[k]++
			e.InsertRows("a", [][]Value{{k}})
		}
		for i := 0; i < 80; i++ {
			k := rng.Int63n(10)
			cb[k]++
			e.InsertRows("b", [][]Value{{k}})
		}
		var want int64
		for k, na := range ca {
			want += na * cb[k]
		}
		rs, err := e.Query("select count(*) from a inner join b on a.k = b.k")
		if err != nil {
			return false
		}
		got, _ := ToInt(rs.Rows[0][0])
		return got == want
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	e := NewSeeded(1)
	csvData := "id,name,score,ok\n1,alice,9.5,true\n2,bob,,false\n3,carol,7.25,true\n"
	n, err := e.ImportCSVReader("people", strings.NewReader(csvData))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("imported %d rows", n)
	}
	rs, err := e.Query("select count(*), count(score), sum(score) from people")
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].(int64) != 3 || rs.Rows[0][1].(int64) != 2 {
		t.Fatalf("null handling: %v", rs.Rows[0])
	}
	if s, _ := ToFloat(rs.Rows[0][2]); math.Abs(s-16.75) > 1e-9 {
		t.Fatalf("sum %v", s)
	}
	rs2, err := e.Query("select name from people where ok = true order by name")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs2.Rows) != 2 || rs2.Rows[0][0] != "alice" {
		t.Fatalf("bool col: %v", rs2.Rows)
	}
}

func TestConcurrentQueries(t *testing.T) {
	e := NewSeeded(1)
	e.CreateTable("t", []Column{{Name: "x", Type: TInt}})
	rows := make([][]Value, 10_000)
	for i := range rows {
		rows[i] = []Value{int64(i)}
	}
	e.InsertRows("t", rows)
	done := make(chan error, 8)
	for w := 0; w < 8; w++ {
		go func() {
			for i := 0; i < 20; i++ {
				rs, err := e.Query("select count(*), sum(x) from t where x % 2 = 0")
				if err != nil {
					done <- err
					return
				}
				if rs.Rows[0][0].(int64) != 5000 {
					done <- fmt.Errorf("count %v", rs.Rows[0][0])
					return
				}
			}
			done <- nil
		}()
	}
	for w := 0; w < 8; w++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// percentileAcc.result selects the two values it interpolates instead of
// sorting the buffer; it must read what the sorted buffer gives, with ±0
// compared as numbers and NaN (sorted first) equal to NaN.
func TestPercentileSelectsSortedOrder(t *testing.T) {
	sorted := func(vals []float64, p float64) float64 {
		s := append([]float64(nil), vals...)
		sort.Float64s(s)
		pos := p * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		frac := pos - float64(lo)
		return s[lo]*(1-frac) + s[lo+1]*frac
	}
	rng := rand.New(rand.NewSource(3))
	special := []float64{math.NaN(), math.Copysign(0, -1), 0, 1, -1, math.Inf(1), math.Inf(-1), 2.5}
	draws := []struct {
		name string
		at   func(i, n int) float64
	}{
		{"normal", func(int, int) float64 { return rng.NormFloat64() }},
		{"duplicates", func(int, int) float64 { return float64(rng.Intn(4)) }},
		{"special", func(int, int) float64 { return special[rng.Intn(len(special))] }},
		{"signed zeros", func(int, int) float64 { return special[1+rng.Intn(2)] }},
		{"ascending", func(i, _ int) float64 { return float64(i) }},
		{"descending", func(i, n int) float64 { return float64(n - i) }},
		{"constant", func(int, int) float64 { return 7 }},
	}
	for _, n := range []int{1, 2, 3, 5, 64, 200_000} {
		for _, d := range draws {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = d.at(i, n)
			}
			for _, p := range []float64{0, 0.5, 1, 0.9, 0.37} {
				a := &percentileAcc{p: p, vals: append([]float64(nil), vals...)}
				got, want := a.result().(float64), sorted(vals, p)
				if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
					t.Errorf("%s n=%d p=%v: %v, sorted %v", d.name, n, p, got, want)
				}
			}
		}
	}
}
