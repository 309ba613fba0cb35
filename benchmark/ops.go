package main

import (
	"fmt"
	"math/rand"
	"strings"

	"verdictdb/internal/workload"
)

// shape is one query template of the 33-query workload.
type shape struct {
	id   string
	side int
	sql  string
}

// allShapes returns the 18 tq + 15 iq templates in their fixed order.
func allShapes() []shape {
	var out []shape
	for _, q := range workload.TPCHQueries {
		out = append(out, shape{q.ID, sideTPCH, strings.TrimSpace(q.SQL)})
	}
	for _, q := range workload.InstaQueries {
		out = append(out, shape{q.ID, sideInsta, strings.TrimSpace(q.SQL)})
	}
	return out
}

// ingestShapes are the eight lineitem dashboard queries of ingest_mix: the
// five the issue names plus three more that read lineitem through a sample
// and have enough aggregate cells to make the end-of-run coverage check steady.
var ingestShapes = []string{"tq-1", "tq-6", "tq-12", "tq-14", "tq-19", "tq-5", "tq-9", "tq-18"}

// literal marks the one constant adhoc_cold redraws per op: the first
// occurrence of find is replaced by repl with %s set to the drawn value.
// Templates that carry no constant gain one predicate. A date draws from
// 7 years x 12 months x 28 days x 24 hours (56 448 values; the hour suffix
// keeps string comparison against 'YYYY-MM-DD' columns valid); a number
// draws one of 10^6 steps in [lo, hi).
type literal struct {
	find, repl string
	date       bool
	lo, hi     float64
}

var literals = map[string]literal{
	"tq-1":  {find: "'1998-09-02'", repl: "'%s'", date: true},
	"tq-3":  {find: "'1995-03-15'", repl: "'%s'", date: true},
	"tq-5":  {find: "'1994-01-01'", repl: "'%s'", date: true},
	"tq-6":  {find: "l_quantity < 24", repl: "l_quantity < %s", lo: 10, hi: 40},
	"tq-7":  {find: "'1995-01-01'", repl: "'%s'", date: true},
	"tq-8":  {find: "'1995-01-01'", repl: "'%s'", date: true},
	"tq-9":  {find: "where p.p_name like", repl: "where l.l_quantity >= %s and p.p_name like", lo: 0, hi: 1},
	"tq-10": {find: "'1993-10-01'", repl: "'%s'", date: true},
	"tq-11": {find: "where n_name = 'GERMANY'", repl: "where ps.ps_availqty >= %s and n_name = 'GERMANY'", lo: 0, hi: 1},
	"tq-12": {find: "'1994-01-01'", repl: "'%s'", date: true},
	"tq-13": {find: "<> '1-URGENT'", repl: "<> '1-URGENT' and o.o_totalprice >= %s", lo: 0, hi: 1000},
	"tq-14": {find: "'1995-09-01'", repl: "'%s'", date: true},
	"tq-15": {find: "max(total_revenue) * 0.95", repl: "max(total_revenue) * %s", lo: 0.9, hi: 0.99},
	"tq-16": {find: "where p_brand <> 'Brand#45'", repl: "where ps.ps_availqty >= %s and p_brand <> 'Brand#45'", lo: 0, hi: 1},
	"tq-17": {find: "0.2 * avg", repl: "%s * avg", lo: 0.15, hi: 0.6},
	"tq-18": {find: "o_totalprice > 300000", repl: "o_totalprice > %s", lo: 250000, hi: 400000},
	"tq-19": {find: "l_quantity >= 1 and", repl: "l_quantity >= %s and", lo: 0, hi: 1},
	"tq-20": {find: "where n_name = 'CANADA'", repl: "where s.s_acctbal >= %s and n_name = 'CANADA'", lo: -2000, hi: -1000},
	"iq-1":  {find: "from order_products", repl: "from order_products where price <= %s", lo: 20, hi: 100},
	"iq-2":  {find: "from orders", repl: "from orders where days_since_prior >= %s", lo: 0, hi: 15},
	"iq-3":  {find: "from orders", repl: "from orders where days_since_prior >= %s", lo: 0, hi: 15},
	"iq-4":  {find: "from orders", repl: "from orders where order_hour >= %s", lo: 0, hi: 12},
	"iq-5":  {find: "from order_products", repl: "from order_products where price <= %s", lo: 20, hi: 100},
	"iq-6":  {find: "from order_products", repl: "from order_products where price <= %s", lo: 20, hi: 100},
	"iq-7":  {find: "group by", repl: "where op.price <= %s group by", lo: 20, hi: 100},
	"iq-8":  {find: "group by", repl: "where op.price <= %s group by", lo: 20, hi: 100},
	"iq-9":  {find: "group by", repl: "where op.price <= %s group by", lo: 20, hi: 100},
	"iq-10": {find: "group by", repl: "where op.price <= %s group by", lo: 20, hi: 100},
	"iq-11": {find: "from orders", repl: "from orders where days_since_prior >= %s", lo: 0, hi: 15},
	"iq-12": {find: "percentile(price, 0.5)", repl: "percentile(price, %s)", lo: 0.25, hi: 0.75},
	"iq-13": {find: "from order_products", repl: "from order_products where price <= %s", lo: 20, hi: 100},
	"iq-14": {find: "where o.order_hour", repl: "where op.price <= %s and o.order_hour", lo: 20, hi: 100},
	"iq-15": {find: "from order_products op", repl: "from order_products op where op.price <= %s", lo: 20, hi: 100},
}

func (l literal) draw(rng *rand.Rand) string {
	if l.date {
		return fmt.Sprintf("%04d-%02d-%02d %02d", 1992+rng.Intn(7), 1+rng.Intn(12), 1+rng.Intn(28), rng.Intn(24))
	}
	return fmt.Sprintf("%.6f", l.lo+(l.hi-l.lo)*float64(rng.Intn(1_000_000))/1e6)
}

// withLiteral renders s with its marked constant set to lit.
func withLiteral(s shape, lit string) (string, error) {
	l, ok := literals[s.id]
	if !ok || !strings.Contains(s.sql, l.find) {
		return "", fmt.Errorf("%s: no literal to redraw (template changed?)", s.id)
	}
	return strings.Replace(s.sql, l.find, strings.Replace(l.repl, "%s", lit, 1), 1), nil
}

// op is one client request. appendBatch >= 0 marks ingest_mix's append step
// (sql is empty); otherwise sql goes to the side's Conn.Query.
type op struct {
	shape       int // index into the workload's shape list; appendShape for the append step
	side        int
	sql         string
	appendBatch int
}

// buildOps generates every pass of a workload from the seed alone: the
// shapes, the redrawn literals, and the per-pass order. It returns the shape
// names (latencies are grouped by them) and passes x ops.
func buildOps(cfg config) ([]string, [][]op, error) {
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed0b5))
	shapes := cfg.w.shapes()
	names := make([]string, len(shapes))
	for i, s := range shapes {
		names[i] = s.id
	}
	if cfg.w.ingest {
		names = append(names, "append")
	}
	passes := make([][]op, cfg.passes)
	for p := range passes {
		ops := make([]op, 0, len(names))
		for i, s := range shapes {
			sql := s.sql
			switch {
			case cfg.w.bypass:
				sql = "BYPASS " + sql
			case cfg.w.redraw:
				var err error
				if sql, err = withLiteral(s, literals[s.id].draw(rng)); err != nil {
					return nil, nil, err
				}
			}
			ops = append(ops, op{shape: i, side: s.side, sql: sql, appendBatch: -1})
		}
		rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		if cfg.w.ingest {
			// The append leads its cycle, so every query of the cycle sees
			// freshly invalidated plans.
			ops = append([]op{{shape: len(shapes), side: sideTPCH, appendBatch: p}}, ops...)
		}
		passes[p] = ops
	}
	return names, passes, nil
}
