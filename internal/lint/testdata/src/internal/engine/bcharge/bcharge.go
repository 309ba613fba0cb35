// Golden cases for the budgetcharge analyzer: growth sites must reach a
// charge primitive in-function or through a local helper (fixpoint).
package bcharge

type queryCtx struct{ used int64 }

func (qc *queryCtx) chargeMem(n int64) { qc.used += n }

type memGauge struct{ used int64 }

func (g *memGauge) add(n int64) { g.used += n }

type groupTable struct {
	order []string
	m     map[string][]int
	idx   map[string]int
}

func (t *groupTable) putRaw(k string, v int) {
	t.order = append(t.order, k) // want "append to field t.order in putRaw"
	t.m[k] = append(t.m[k], v)   // want "append into element t.m\[k\] in putRaw"
	t.idx[k] = v                 // want "insert into field map t.idx in putRaw"
}

func (t *groupTable) putCharged(qc *queryCtx, k string, v int) {
	qc.chargeMem(int64(len(k)) + 8)
	t.order = append(t.order, k)
	t.m[k] = append(t.m[k], v)
	t.idx[k] = v
}

// putViaHelper never charges directly: the local fixpoint sees the hop
// through charge and chargeRows to the memGauge.add primitive.
func (t *groupTable) putViaHelper(g *memGauge, k string) {
	t.charge(g, k)
	t.order = append(t.order, k)
}

func (t *groupTable) charge(g *memGauge, k string) { chargeRows(g, int64(len(k))) }

func chargeRows(g *memGauge, n int64) { g.add(n) }

func (t *groupTable) putAnnotated(k string) {
	t.order = append(t.order, k) //verdict:nocharge golden fixture: bounded by plan size
}

// growLocal appends to a local: per-call state, not tracked per-query state.
func growLocal(vals []int) []int {
	out := []int{}
	for _, v := range vals {
		out = append(out, v)
	}
	return out
}
