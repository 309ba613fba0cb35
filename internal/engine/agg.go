package engine

import (
	"cmp"
	"fmt"
	"math"
	"unsafe"

	"verdictdb/internal/sketch"
	"verdictdb/internal/sqlparser"
)

// accumulator is the incremental state of one aggregate function over one
// group.
type accumulator interface {
	add(v Value) error
	addStar() // count(*) path: count the row regardless of value
	result() Value
	// merge folds another accumulator of the same concrete type into this
	// one. The morsel-parallel scan builds per-worker partial aggregates
	// and merges them in worker order.
	merge(other accumulator) error
}

func errMergeMismatch(a, b accumulator) error {
	return fmt.Errorf("engine: cannot merge %T into %T", b, a)
}

// typedAdder is the optional unboxed fast path the vectorized scan feeds
// non-NULL numeric lanes through. Implementations must match add()'s
// semantics for the corresponding boxed value exactly (including sum's
// int-only result tracking).
type typedAdder interface {
	addInt(v int64)
	addFloat(f float64)
}

// stringAdder is the optional unboxed fast path for string lanes (min/max
// over string columns).
type stringAdder interface {
	addStr(s string)
}

// starAdder is the optional bulk count(*) entry point: addStarN(n) must
// equal exactly n addStar calls. Only counting accumulators implement it —
// sum/avg hold float state whose rounding depends on per-lane adds, and
// byte-identity with the row path forbids reassociating those.
type starAdder interface {
	addStarN(n int64)
}

// newAccumulator builds an accumulator for the aggregate call fc, bound to
// qc's memory gauge. The fixed-size kinds (count, sum, avg, min, max,
// stddev, var) come by value from sl; the rest are heap objects. Fixed-size
// sketch state (HLL registers, the quantile reservoir) is charged here at
// creation; accumulators whose state scales with the data (percentile
// buffers, DISTINCT key sets) keep qc and charge as they grow. qc may be nil
// (direct unit-test construction): chargeMem is a nil-receiver no-op.
func newAccumulator(fc *sqlparser.FuncCall, quantileArg float64, qc *queryCtx, sl *accSlabs) (accumulator, error) {
	if !fc.Distinct {
		switch fc.Name {
		case "count":
			return take(qc, &sl.counts, countAcc{}), nil
		case "sum":
			return take(qc, &sl.sums, sumAcc{}), nil
		case "avg":
			return take(qc, &sl.avgs, avgAcc{}), nil
		case "min":
			return take(qc, &sl.extremes, extremeAcc{min: true}), nil
		case "max":
			return take(qc, &sl.extremes, extremeAcc{}), nil
		case "stddev", "stddev_samp":
			return take(qc, &sl.moments, momentsAcc{mode: momentStddev}), nil
		case "var", "variance", "var_samp":
			return take(qc, &sl.moments, momentsAcc{mode: momentVar}), nil
		}
	}
	qc.chargeMem(bytesPerAcc)
	if fc.Distinct {
		switch fc.Name {
		case "count":
			return &distinctCountAcc{seen: map[string]bool{}, qc: qc}, nil
		case "sum", "avg":
			return &distinctSumAcc{name: fc.Name, seen: map[string]float64{}, qc: qc}, nil
		}
		return nil, fmt.Errorf("engine: DISTINCT not supported for %s", fc.Name)
	}
	switch fc.Name {
	case "percentile", "quantile":
		return &percentileAcc{p: quantileArg, qc: qc}, nil
	case "median":
		return &percentileAcc{p: 0.5, qc: qc}, nil
	case "approx_median":
		qc.chargeMem(quantileReservoirBytes)
		return &sketchMedianAcc{qs: sketch.NewQuantileSketch(4096, 7)}, nil
	case "ndv", "approx_count_distinct":
		qc.chargeMem(hllRegisterBytes)
		return &hllAcc{h: sketch.NewHLL(12)}, nil
	}
	return nil, fmt.Errorf("engine: unknown aggregate %s", fc.Name)
}

// accSlabs holds one worker's fixed-size accumulators by value, in blocks
// that start at one accumulator, double, and never move: a group's
// accumulators cost no allocation of their own, and each add runs the same
// method as a heap accumulator's would.
type accSlabs struct {
	counts   slab[countAcc]
	sums     slab[sumAcc]
	avgs     slab[avgAcc]
	extremes slab[extremeAcc]
	moments  slab[momentsAcc]
}

// slab is the unused rest of the newest block of a worker's group state, and
// that block's size.
type slab[T any] struct {
	free []T
	n    int
}

// carve returns the next n elements of s, allocating a block twice the size
// of the last (at least n) when s runs out, charged at size bytes an element.
func carve[T any](qc *queryCtx, s *slab[T], n int, size int64) []T {
	if len(s.free) < n {
		s.n = max(2*s.n, n)
		qc.chargeMem(int64(s.n) * size)
		s.free = make([]T, s.n)
	}
	p := s.free[:n:n]
	s.free = s.free[n:]
	return p
}

// take returns the next accumulator of s, set to init.
func take[T any](qc *queryCtx, s *slab[T], init T) *T {
	a := &carve(qc, s, 1, int64(unsafe.Sizeof(init)))[0]
	*a = init
	return a
}

// Creation-time charges for the fixed-footprint sketches: an HLL at
// precision 12 owns 1<<12 one-byte registers; the quantile sketch retains
// at most 4096 float64 samples in its reservoir.
const (
	hllRegisterBytes       = 1 << 12
	quantileReservoirBytes = 4096 * 8
)

type countAcc struct{ n int64 }

func (a *countAcc) add(v Value) error {
	if v != nil {
		a.n++
	}
	return nil
}
func (a *countAcc) addStar()         { a.n++ }
func (a *countAcc) addStarN(n int64) { a.n += n }
func (a *countAcc) addInt(int64)     { a.n++ }
func (a *countAcc) addFloat(float64) { a.n++ }
func (a *countAcc) addStr(string)    { a.n++ }
func (a *countAcc) result() Value    { return a.n }
func (a *countAcc) merge(other accumulator) error {
	o, ok := other.(*countAcc)
	if !ok {
		return errMergeMismatch(a, other)
	}
	a.n += o.n
	return nil
}

type sumAcc struct {
	sum     float64
	sawAny  bool
	intOnly bool
	started bool
}

func (a *sumAcc) add(v Value) error {
	if v == nil {
		return nil
	}
	f, ok := ToFloat(v)
	if !ok {
		return fmt.Errorf("engine: sum of non-numeric %T", v)
	}
	if !a.started {
		a.intOnly = true
		a.started = true
	}
	if _, isInt := v.(int64); !isInt {
		a.intOnly = false
	}
	a.sum += f
	a.sawAny = true
	return nil
}
func (a *sumAcc) addStar() { _ = a.add(int64(1)) }
func (a *sumAcc) addInt(v int64) {
	if !a.started {
		a.intOnly = true
		a.started = true
	}
	a.sum += float64(v)
	a.sawAny = true
}
func (a *sumAcc) addFloat(f float64) {
	if !a.started {
		a.started = true
	}
	a.intOnly = false
	a.sum += f
	a.sawAny = true
}
func (a *sumAcc) result() Value {
	if !a.sawAny {
		return nil
	}
	if a.intOnly && a.sum == math.Trunc(a.sum) && math.Abs(a.sum) < 1e15 {
		return int64(a.sum)
	}
	return a.sum
}
func (a *sumAcc) merge(other accumulator) error {
	o, ok := other.(*sumAcc)
	if !ok {
		return errMergeMismatch(a, other)
	}
	if !o.started {
		return nil
	}
	if !a.started {
		*a = *o
		return nil
	}
	a.sum += o.sum
	a.sawAny = a.sawAny || o.sawAny
	a.intOnly = a.intOnly && o.intOnly
	return nil
}

type avgAcc struct {
	sum float64
	n   int64
}

func (a *avgAcc) add(v Value) error {
	if v == nil {
		return nil
	}
	f, ok := ToFloat(v)
	if !ok {
		return fmt.Errorf("engine: avg of non-numeric %T", v)
	}
	a.sum += f
	a.n++
	return nil
}
func (a *avgAcc) addStar()       { _ = a.add(int64(1)) }
func (a *avgAcc) addInt(v int64) { a.sum += float64(v); a.n++ }
func (a *avgAcc) addFloat(f float64) {
	a.sum += f
	a.n++
}
func (a *avgAcc) result() Value {
	if a.n == 0 {
		return nil
	}
	return a.sum / float64(a.n)
}
func (a *avgAcc) merge(other accumulator) error {
	o, ok := other.(*avgAcc)
	if !ok {
		return errMergeMismatch(a, other)
	}
	a.sum += o.sum
	a.n += o.n
	return nil
}

type extremeAcc struct {
	min  bool
	best Value
}

// extremeCmp orders v against best for min and max: Compare, except that two
// integers compare exactly — through float64, 2^53 + 1 equals 2^53.
func extremeCmp(v, best Value) int {
	if x, ok := v.(int64); ok {
		if y, ok := best.(int64); ok {
			return cmp.Compare(x, y)
		}
	}
	return Compare(v, best)
}

func (a *extremeAcc) add(v Value) error {
	if v == nil {
		return nil
	}
	if a.best == nil ||
		(a.min && extremeCmp(v, a.best) < 0) ||
		(!a.min && extremeCmp(v, a.best) > 0) {
		a.best = v
	}
	return nil
}
func (a *extremeAcc) addStar() {}
func (a *extremeAcc) addInt(v int64) {
	switch b := a.best.(type) {
	case int64:
		if (a.min && v < b) || (!a.min && v > b) {
			a.best = v
		}
		return
	case float64:
		f := float64(v)
		if (a.min && f < b) || (!a.min && f > b) {
			a.best = v
		}
		return
	}
	_ = a.add(v) // nil or non-numeric best: generic Compare path
}
func (a *extremeAcc) addFloat(f float64) {
	if bf, ok := numeric(a.best); ok {
		if (a.min && f < bf) || (!a.min && f > bf) {
			a.best = f
		}
		return
	}
	_ = a.add(f)
}
func (a *extremeAcc) addStr(s string) {
	if bs, ok := a.best.(string); ok {
		if (a.min && s < bs) || (!a.min && s > bs) {
			a.best = s
		}
		return
	}
	_ = a.add(s)
}
func (a *extremeAcc) result() Value { return a.best }
func (a *extremeAcc) merge(other accumulator) error {
	o, ok := other.(*extremeAcc)
	if !ok {
		return errMergeMismatch(a, other)
	}
	if o.best != nil {
		return a.add(o.best)
	}
	return nil
}

type momentMode int

const (
	momentVar momentMode = iota
	momentStddev
)

// momentsAcc computes sample variance/stddev using Welford's algorithm.
type momentsAcc struct {
	mode momentMode
	n    int64
	mean float64
	m2   float64
}

func (a *momentsAcc) add(v Value) error {
	if v == nil {
		return nil
	}
	f, ok := ToFloat(v)
	if !ok {
		return fmt.Errorf("engine: variance of non-numeric %T", v)
	}
	a.n++
	d := f - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (f - a.mean)
	return nil
}
func (a *momentsAcc) addStar()       {}
func (a *momentsAcc) addInt(v int64) { a.addFloat(float64(v)) }
func (a *momentsAcc) addFloat(f float64) {
	a.n++
	d := f - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (f - a.mean)
}
func (a *momentsAcc) result() Value {
	if a.n < 2 {
		if a.n == 1 {
			return 0.0
		}
		return nil
	}
	v := a.m2 / float64(a.n-1)
	if a.mode == momentStddev {
		return math.Sqrt(v)
	}
	return v
}

// merge combines two Welford states with the parallel-variance formula
// (Chan et al.): m2 = m2a + m2b + delta^2 * na*nb/n.
func (a *momentsAcc) merge(other accumulator) error {
	o, ok := other.(*momentsAcc)
	if !ok {
		return errMergeMismatch(a, other)
	}
	if o.n == 0 {
		return nil
	}
	if a.n == 0 {
		a.n, a.mean, a.m2 = o.n, o.mean, o.m2
		return nil
	}
	n := a.n + o.n
	delta := o.mean - a.mean
	a.m2 += o.m2 + delta*delta*float64(a.n)*float64(o.n)/float64(n)
	a.mean += delta * float64(o.n) / float64(n)
	a.n = n
	return nil
}

// percentileAcc computes an exact percentile by buffering values; the
// buffer is the whole group's column, so growth is charged to the query's
// memory gauge as the backing array grows.
type percentileAcc struct {
	p       float64
	vals    []float64
	qc      *queryCtx
	capSeen int
}

// grow charges the gauge for any backing-array growth since the last call.
// Charging the capacity delta (not per element) keeps the gauge exact for
// append's doubling while touching the atomic only on actual allocation.
func (a *percentileAcc) grow() {
	if c := cap(a.vals); c != a.capSeen {
		a.qc.chargeMem(int64(c-a.capSeen) * 8)
		a.capSeen = c
	}
}

func (a *percentileAcc) add(v Value) error {
	if v == nil {
		return nil
	}
	f, ok := ToFloat(v)
	if !ok {
		return fmt.Errorf("engine: percentile of non-numeric %T", v)
	}
	a.vals = append(a.vals, f)
	a.grow()
	return nil
}
func (a *percentileAcc) addStar() {}
func (a *percentileAcc) addInt(v int64) {
	a.vals = append(a.vals, float64(v))
	a.grow()
}
func (a *percentileAcc) addFloat(f float64) {
	a.vals = append(a.vals, f)
	a.grow()
}

// result interpolates between the lo-th and (lo+1)-th values in
// sort.Float64s order, found by selection rather than a sort.
func (a *percentileAcc) result() Value {
	n := len(a.vals)
	if n == 0 {
		return nil
	}
	pos := a.p * float64(n-1)
	lo := min(int(pos), n-1)
	frac := pos - float64(lo)
	selectNth(a.vals, lo)
	if lo+1 == n {
		return a.vals[lo]
	}
	selectNth(a.vals[lo+1:], 0)
	return a.vals[lo]*(1-frac) + a.vals[lo+1]*frac
}

// floatLess is sort.Float64s' order: NaN before every number.
func floatLess(a, b float64) bool { return a < b || (a != a && b == b) }

// selectNth reorders v so that v[k] is the value sort.Float64s puts there and
// nothing after it is less: quickselect with a three-way partition, so equal
// values cost one pass.
func selectNth(v []float64, k int) {
	lo, hi := 0, len(v)
	for hi-lo > 1 {
		pivot := v[lo+(hi-lo)/2]
		lt, i, gt := lo, lo, hi // v[lo:lt] < pivot, v[lt:i] equal to it, v[gt:hi] >
		for i < gt {
			switch {
			case floatLess(v[i], pivot):
				v[lt], v[i] = v[i], v[lt]
				lt, i = lt+1, i+1
			case floatLess(pivot, v[i]):
				gt--
				v[i], v[gt] = v[gt], v[i]
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}
func (a *percentileAcc) merge(other accumulator) error {
	o, ok := other.(*percentileAcc)
	if !ok {
		return errMergeMismatch(a, other)
	}
	a.vals = append(a.vals, o.vals...)
	a.grow()
	return nil
}

type sketchMedianAcc struct{ qs *sketch.QuantileSketch }

func (a *sketchMedianAcc) add(v Value) error {
	if v == nil {
		return nil
	}
	f, ok := ToFloat(v)
	if !ok {
		return fmt.Errorf("engine: approx_median of non-numeric %T", v)
	}
	a.qs.Add(f)
	return nil
}
func (a *sketchMedianAcc) addStar()           {}
func (a *sketchMedianAcc) addInt(v int64)     { a.qs.Add(float64(v)) }
func (a *sketchMedianAcc) addFloat(f float64) { a.qs.Add(f) }
func (a *sketchMedianAcc) result() Value {
	if a.qs.Count() == 0 {
		return nil
	}
	return a.qs.Median()
}
func (a *sketchMedianAcc) merge(other accumulator) error {
	o, ok := other.(*sketchMedianAcc)
	if !ok {
		return errMergeMismatch(a, other)
	}
	a.qs.Merge(o.qs)
	return nil
}

type hllAcc struct{ h *sketch.HLL }

func (a *hllAcc) add(v Value) error {
	if v == nil {
		return nil
	}
	a.h.AddString(GroupKey(v))
	return nil
}
func (a *hllAcc) addStar() {}
func (a *hllAcc) result() Value {
	return int64(math.Round(a.h.Estimate()))
}
func (a *hllAcc) merge(other accumulator) error {
	o, ok := other.(*hllAcc)
	if !ok {
		return errMergeMismatch(a, other)
	}
	a.h.Merge(o.h)
	return nil
}

type distinctCountAcc struct {
	seen map[string]bool
	qc   *queryCtx
}

func (a *distinctCountAcc) add(v Value) error {
	if v == nil {
		return nil
	}
	k := GroupKey(v)
	if !a.seen[k] {
		a.qc.chargeMem(int64(len(k)) + bytesPerRef)
		a.seen[k] = true
	}
	return nil
}
func (a *distinctCountAcc) addStar()      {}
func (a *distinctCountAcc) result() Value { return int64(len(a.seen)) }
func (a *distinctCountAcc) merge(other accumulator) error {
	o, ok := other.(*distinctCountAcc)
	if !ok {
		return errMergeMismatch(a, other)
	}
	//verdict:unordered set union into a map; only len(seen) is observable
	for k := range o.seen {
		if !a.seen[k] {
			a.qc.chargeMem(int64(len(k)) + bytesPerRef)
			a.seen[k] = true
		}
	}
	return nil
}

// distinctSumAcc remembers each distinct key's numeric value (in first-seen
// order) so that per-worker partial states can be unioned without
// double-counting — and deterministically: merging in map order would
// reassociate float additions differently on every run.
type distinctSumAcc struct {
	name  string
	seen  map[string]float64
	order []string
	sum   float64
	n     int64
	qc    *queryCtx
}

// chargeKey accounts one new distinct key: the string appears in the map
// and the order slice, plus the map value and slice header share.
func (a *distinctSumAcc) chargeKey(k string) {
	a.qc.chargeMem(2*int64(len(k)) + bytesPerValue)
}

func (a *distinctSumAcc) add(v Value) error {
	if v == nil {
		return nil
	}
	k := GroupKey(v)
	if _, dup := a.seen[k]; dup {
		return nil
	}
	f, ok := ToFloat(v)
	if !ok {
		return fmt.Errorf("engine: %s distinct of non-numeric %T", a.name, v)
	}
	a.chargeKey(k)
	a.seen[k] = f
	a.order = append(a.order, k)
	a.sum += f
	a.n++
	return nil
}
func (a *distinctSumAcc) addStar() {}
func (a *distinctSumAcc) merge(other accumulator) error {
	o, ok := other.(*distinctSumAcc)
	if !ok {
		return errMergeMismatch(a, other)
	}
	for _, k := range o.order {
		if _, dup := a.seen[k]; dup {
			continue
		}
		f := o.seen[k]
		a.chargeKey(k)
		a.seen[k] = f
		a.order = append(a.order, k)
		a.sum += f
		a.n++
	}
	return nil
}
func (a *distinctSumAcc) result() Value {
	if a.n == 0 {
		return nil
	}
	if a.name == "avg" {
		return a.sum / float64(a.n)
	}
	return a.sum
}

// quantileLiteralArg extracts the constant second argument of
// percentile(col, p); returns 0.5 when absent.
func quantileLiteralArg(fc *sqlparser.FuncCall) (float64, error) {
	if len(fc.Args) < 2 {
		return 0.5, nil
	}
	lit, ok := fc.Args[1].(*sqlparser.Literal)
	if !ok {
		return 0, fmt.Errorf("engine: percentile fraction must be a literal")
	}
	f, ok := ToFloat(lit.Val)
	if !ok || f < 0 || f > 1 {
		return 0, fmt.Errorf("engine: percentile fraction must be in [0,1]")
	}
	return f, nil
}
