// Golden cases for the purekernel analyzer.
package pkern

import (
	"math/rand"
	"time"
)

// Minimal mirrors of the engine's kernel types: purekernel keys on the
// compiledExpr shape func([]Value) (Value, error) and on eval methods
// returning (*colVec, error).
type Value any

type colVec struct{ i64 []int64 }

type vecCtx struct{}

type chunk struct{ n int }

type compiledExpr func(row []Value) (Value, error)

// compileNow closes over a wall-clock read taken per row — run-dependent
// output.
func compileNow() compiledExpr {
	return func(row []Value) (Value, error) {
		return time.Now().Unix(), nil // want "time.Now inside a compiled closure"
	}
}

// compileCapturedClock reads the clock once at compile time and closes over
// the value: deterministic per query.
func compileCapturedClock() compiledExpr {
	now := time.Now().Unix()
	return func(row []Value) (Value, error) {
		return now, nil
	}
}

func compileRand() compiledExpr {
	return func(row []Value) (Value, error) {
		return rand.Int63(), nil // want "global rand.Int63 inside a compiled closure"
	}
}

func compileSeededRand(src *rand.Rand) compiledExpr {
	return func(row []Value) (Value, error) {
		return src.Int63(), nil
	}
}

func compileMapRange(weights map[string]int64) compiledExpr {
	return func(row []Value) (Value, error) {
		var sum int64
		for _, w := range weights { // want "map iteration inside a compiled closure"
			sum += w
		}
		return sum, nil
	}
}

func compileAnnotated(weights map[string]int64) compiledExpr {
	return func(row []Value) (Value, error) {
		var sum int64
		//verdict:impure golden fixture: commutative sum, order cannot leak
		for _, w := range weights {
			sum += w
		}
		return sum, nil
	}
}

type vnClock struct{}

func (n *vnClock) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	out := &colVec{i64: make([]int64, ch.n)}
	for i := range out.i64 {
		out.i64[i] = time.Now().UnixNano() // want "time.Now inside a vector kernel"
	}
	return out, nil
}

type vnPure struct{}

func (n *vnPure) eval(vc *vecCtx, ch *chunk, sel []int32) (*colVec, error) {
	out := &colVec{i64: make([]int64, ch.n)}
	for i := range out.i64 {
		out.i64[i] = int64(i)
	}
	return out, nil
}

// helperLoop is not a kernel (wrong shape): map iteration here is
// detmaprange's business, not purekernel's.
func helperLoop(weights map[string]int64) int64 {
	var sum int64
	//verdict:unordered commutative sum
	for _, w := range weights {
		sum += w
	}
	return sum
}
