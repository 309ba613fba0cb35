package engine

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"verdictdb/internal/storage"
)

// boxedMaySatisfy is chunkMaySatisfy over boxed bounds, as pruning decided
// before zones were typed: the reference the typed form must match.
func boxedMaySatisfy(min, max Value, op string, lit Value) bool {
	comparable := func(a Value) bool {
		_, na := numeric(a)
		_, nl := numeric(lit)
		_, sa := a.(string)
		_, sl := lit.(string)
		return na && nl || !na && !nl && sa && sl
	}
	switch {
	case min == nil:
		return false
	case !comparable(min) || !comparable(max):
		return true
	}
	switch op {
	case "<=":
		return Compare(min, lit) <= 0
	case "<":
		return Compare(min, lit) < 0
	case ">=":
		return Compare(max, lit) >= 0
	case ">":
		return Compare(max, lit) > 0
	case "=":
		return Compare(min, lit) <= 0 && Compare(max, lit) >= 0
	}
	return true
}

// Typed zones prune exactly as the boxed bounds did: integers past 2^53
// (compared through float64, as Compare does), -0 and NaN floats, strings,
// bools, all-NULL and mixed boxed columns, and every zone of the version-1
// segment in the storage package's testdata.
func TestTypedZonesPruneAsBoxed(t *testing.T) {
	negZero, nan := math.Copysign(0, -1), math.NaN()
	zones := []storage.Zone{
		storage.ZoneOf(int64(0), int64(255)),
		storage.ZoneOf(int64(1<<53), int64(1<<53+1)),
		storage.ZoneOf(int64(math.MinInt64), int64(math.MaxInt64)),
		storage.ZoneOf(negZero, 0.0),
		storage.ZoneOf(nan, nan),
		storage.ZoneOf(nan, 3.0),
		storage.ZoneOf(math.Inf(-1), 1.5),
		storage.ZoneOf("", "zz"),
		storage.ZoneOf("b", "b"),
		storage.ZoneOf(false, true),
		storage.ZoneOf(true, true),
		storage.ZoneOf(nil, nil),
		storage.ZoneOf(int64(3), "x"),
		storage.ZoneOf(false, 2.5),
	}
	seg, err := storage.OpenSegment(filepath.Join("..", "storage", "testdata", "v1.seg"))
	if err != nil {
		t.Fatal(err)
	}
	defer seg.Close()
	for _, cm := range seg.Meta.Chunks {
		for _, c := range cm.Cols {
			zones = append(zones, c.Zone)
		}
	}
	lits := []Value{int64(0), int64(-1), int64(1 << 53), int64(1<<53 + 1), float64(1 << 53), negZero, 0.0, nan, 1.5,
		math.Inf(1), "", "b", "zzz", true, false}
	for _, z := range zones {
		for _, op := range []string{"<", "<=", "=", ">=", ">", "<>"} {
			for _, lit := range lits {
				want := boxedMaySatisfy(z.Bound(0), z.Bound(1), op, lit)
				if got := chunkMaySatisfy(&z, op, lit); got != want {
					t.Errorf("zone %v..%v: col %s %s: typed %v, boxed %v", z.Bound(0), z.Bound(1), op, fmt.Sprint(lit), got, want)
				}
			}
		}
	}
}
