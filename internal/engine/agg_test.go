package engine

import (
	"fmt"
	"testing"

	"verdictdb/internal/sqlparser"
)

// TestAccumulatorTypedPairs builds an accumulator of every kind
// newAccumulator makes and checks its typed entry points come in the sets
// addLane relies on: addInt and addFloat together (typedAdder is one
// interface, so a lone half is a fast path nothing calls), and addStr only
// with both (stringAdder is consulted after the numeric pair). Methods are
// unexported, so the check asserts interfaces rather than reflecting.
func TestAccumulatorTypedPairs(t *testing.T) {
	type intAdder interface{ addInt(int64) }
	type floatAdder interface{ addFloat(float64) }
	built := 0
	for name := range sqlparser.AggregateFuncs {
		for _, distinct := range []bool{false, true} {
			acc, err := newAccumulator(&sqlparser.FuncCall{Name: name, Distinct: distinct}, 0.5, nil, &accSlabs{})
			if err != nil {
				if distinct {
					continue // DISTINCT is supported for a few kinds only
				}
				t.Fatalf("%s: %v", name, err)
			}
			built++
			kind := fmt.Sprintf("%s(distinct=%v) %T", name, distinct, acc)
			_, hasInt := acc.(intAdder)
			_, hasFloat := acc.(floatAdder)
			_, hasStr := acc.(stringAdder)
			if hasInt != hasFloat {
				t.Errorf("%s: addInt %v but addFloat %v; implement both or neither", kind, hasInt, hasFloat)
			}
			if hasStr && !(hasInt && hasFloat) {
				t.Errorf("%s: addStr without addInt and addFloat is never called", kind)
			}
		}
	}
	if built <= len(sqlparser.AggregateFuncs) {
		t.Fatalf("built %d accumulators: expected every aggregate plus the DISTINCT kinds", built)
	}
}
