// Package workload generates the three datasets of Section 6.1 — a TPC-H-
// like warehouse, an Instacart-like (insta) sales database, and the
// controlled synthetic dataset of Section 6.5 — plus the 33 benchmark
// queries (18 TPC-H-derived tq-* and 15 micro-benchmark iq-*).
//
// Generators are deterministic given a seed; row counts scale linearly with
// the scale factor.
package workload

import (
	"fmt"
	"math/rand"

	"verdictdb/internal/engine"
)

// TPCHScale describes generated row counts at scale 1.0 (proportions match
// TPC-H's SF ratios, scaled down to in-memory sizes).
const (
	tpchLineitemBase = 600_000
	tpchOrdersBase   = 150_000
	tpchCustomerBase = 15_000
	tpchPartBase     = 20_000
	tpchSupplierBase = 1_000
	tpchPartsuppBase = 80_000
)

var tpchNations = []string{
	"ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE",
	"GERMANY", "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA",
	"MOROCCO", "MOZAMBIQUE", "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA",
	"VIETNAM", "RUSSIA", "UNITED KINGDOM", "UNITED STATES",
}

var tpchRegions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// nationRegion maps nation index -> region index (fixed like TPC-H).
var nationRegion = []int{0, 1, 1, 1, 4, 0, 3, 3, 2, 2, 4, 4, 2, 4, 0, 0, 0, 1, 2, 3, 4, 2, 3, 3, 1}

var (
	returnFlags   = []string{"R", "A", "N"}
	lineStatuses  = []string{"O", "F"}
	shipModes     = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
	shipInstructs = []string{"DELIVER IN PERSON", "COLLECT COD", "NONE", "TAKE BACK RETURN"}
	priorities    = []string{"1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"}
	segments      = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"}
	partTypes     = []string{"ECONOMY ANODIZED STEEL", "STANDARD POLISHED BRASS", "PROMO BURNISHED COPPER",
		"SMALL PLATED TIN", "MEDIUM BRUSHED NICKEL", "LARGE POLISHED STEEL", "ECONOMY BRUSHED COPPER",
		"PROMO PLATED BRASS", "STANDARD ANODIZED TIN", "SMALL BURNISHED NICKEL"}
	partBrands     = []string{"Brand#11", "Brand#12", "Brand#13", "Brand#21", "Brand#22", "Brand#23", "Brand#31", "Brand#32", "Brand#33", "Brand#41", "Brand#42", "Brand#43", "Brand#44", "Brand#45", "Brand#51", "Brand#52", "Brand#53", "Brand#54", "Brand#55"}
	partContainers = []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG", "MED BAG", "MED BOX", "MED PKG", "MED PACK", "LG CASE", "LG BOX", "LG PACK", "LG PKG", "JUMBO PKG"}
)

func dateStr(year, dayOfYear int) string {
	month := dayOfYear/31 + 1
	if month > 12 {
		month = 12
	}
	day := dayOfYear%28 + 1
	return fmt.Sprintf("%04d-%02d-%02d", year, month, day)
}

// LoadTPCH creates and populates the TPC-H-like schema at the given scale.
func LoadTPCH(e *engine.Engine, scale float64, seed int64) error {
	rng := rand.New(rand.NewSource(seed))

	// Fact tables scale linearly; dimension tables have floors so small
	// scales keep realistic domain cardinalities (a 0.05-scale run should
	// not collapse to a handful of suppliers — hashed samples and
	// count-distinct would degenerate).
	nLine := int(float64(tpchLineitemBase) * scale)
	nOrders := int(float64(tpchOrdersBase) * scale)
	nCust := max(2000, int(float64(tpchCustomerBase)*scale))
	nPart := max(2000, int(float64(tpchPartBase)*scale))
	nSupp := max(1000, int(float64(tpchSupplierBase)*scale))
	nPS := max(4*nPart, int(float64(tpchPartsuppBase)*scale))
	if nOrders < 10 || nLine < 20 {
		return fmt.Errorf("workload: scale %v too small", scale)
	}

	mk := func(name string, cols ...engine.Column) error {
		return e.CreateTable(name, cols)
	}
	col := func(n string, t engine.ColType) engine.Column { return engine.Column{Name: n, Type: t} }

	if err := mk("region", col("r_regionkey", engine.TInt), col("r_name", engine.TString)); err != nil {
		return err
	}
	if err := mk("nation", col("n_nationkey", engine.TInt), col("n_name", engine.TString), col("n_regionkey", engine.TInt)); err != nil {
		return err
	}
	if err := mk("supplier",
		col("s_suppkey", engine.TInt), col("s_name", engine.TString),
		col("s_nationkey", engine.TInt), col("s_acctbal", engine.TFloat)); err != nil {
		return err
	}
	if err := mk("customer",
		col("c_custkey", engine.TInt), col("c_name", engine.TString),
		col("c_nationkey", engine.TInt), col("c_acctbal", engine.TFloat),
		col("c_mktsegment", engine.TString), col("c_phone", engine.TString)); err != nil {
		return err
	}
	if err := mk("part",
		col("p_partkey", engine.TInt), col("p_name", engine.TString),
		col("p_mfgr", engine.TString), col("p_brand", engine.TString),
		col("p_type", engine.TString), col("p_size", engine.TInt),
		col("p_container", engine.TString), col("p_retailprice", engine.TFloat)); err != nil {
		return err
	}
	if err := mk("partsupp",
		col("ps_partkey", engine.TInt), col("ps_suppkey", engine.TInt),
		col("ps_availqty", engine.TInt), col("ps_supplycost", engine.TFloat)); err != nil {
		return err
	}
	if err := mk("orders",
		col("o_orderkey", engine.TInt), col("o_custkey", engine.TInt),
		col("o_orderstatus", engine.TString), col("o_totalprice", engine.TFloat),
		col("o_orderdate", engine.TString), col("o_orderpriority", engine.TString),
		col("o_shippriority", engine.TInt)); err != nil {
		return err
	}
	if err := mk("lineitem",
		col("l_orderkey", engine.TInt), col("l_partkey", engine.TInt),
		col("l_suppkey", engine.TInt), col("l_linenumber", engine.TInt),
		col("l_quantity", engine.TFloat), col("l_extendedprice", engine.TFloat),
		col("l_discount", engine.TFloat), col("l_tax", engine.TFloat),
		col("l_returnflag", engine.TString), col("l_linestatus", engine.TString),
		col("l_shipdate", engine.TString), col("l_commitdate", engine.TString),
		col("l_receiptdate", engine.TString), col("l_shipinstruct", engine.TString),
		col("l_shipmode", engine.TString)); err != nil {
		return err
	}

	// region / nation
	var rows [][]engine.Value
	for i, r := range tpchRegions {
		rows = append(rows, []engine.Value{int64(i), r})
	}
	if err := e.InsertRows("region", rows); err != nil {
		return err
	}
	rows = rows[:0]
	for i, n := range tpchNations {
		rows = append(rows, []engine.Value{int64(i), n, int64(nationRegion[i])})
	}
	if err := e.InsertRows("nation", rows); err != nil {
		return err
	}

	// supplier
	rows = make([][]engine.Value, 0, nSupp)
	for i := 1; i <= nSupp; i++ {
		rows = append(rows, []engine.Value{
			int64(i), fmt.Sprintf("Supplier#%09d", i),
			int64(rng.Intn(len(tpchNations))),
			rng.Float64()*20000 - 1000,
		})
	}
	if err := e.InsertRows("supplier", rows); err != nil {
		return err
	}

	// customer
	rows = make([][]engine.Value, 0, nCust)
	for i := 1; i <= nCust; i++ {
		nk := rng.Intn(len(tpchNations))
		rows = append(rows, []engine.Value{
			int64(i), fmt.Sprintf("Customer#%09d", i),
			int64(nk), rng.Float64()*11000 - 1000,
			segments[rng.Intn(len(segments))],
			fmt.Sprintf("%02d-%03d-%03d-%04d", 10+nk, rng.Intn(1000), rng.Intn(1000), rng.Intn(10000)),
		})
	}
	if err := e.InsertRows("customer", rows); err != nil {
		return err
	}

	// part
	rows = make([][]engine.Value, 0, nPart)
	for i := 1; i <= nPart; i++ {
		rows = append(rows, []engine.Value{
			int64(i), fmt.Sprintf("part %d %s", i, partTypes[rng.Intn(len(partTypes))]),
			fmt.Sprintf("Manufacturer#%d", 1+rng.Intn(5)),
			partBrands[rng.Intn(len(partBrands))],
			partTypes[rng.Intn(len(partTypes))],
			int64(1 + rng.Intn(50)),
			partContainers[rng.Intn(len(partContainers))],
			900 + rng.Float64()*1100,
		})
	}
	if err := e.InsertRows("part", rows); err != nil {
		return err
	}

	// partsupp: like TPC-H, each part is supplied by a fixed set of
	// suppliers; lineitem draws its (partkey, suppkey) pairs from here so
	// the tq-9 join is total.
	suppPerPart := nPS / nPart
	if suppPerPart < 1 {
		suppPerPart = 1
	}
	type pair struct{ part, supp int64 }
	pairs := make([]pair, 0, nPart*suppPerPart)
	rows = make([][]engine.Value, 0, nPart*suppPerPart)
	for p := 1; p <= nPart; p++ {
		for s := 0; s < suppPerPart; s++ {
			sk := int64((p*7+s*13)%nSupp + 1)
			pairs = append(pairs, pair{part: int64(p), supp: sk})
			rows = append(rows, []engine.Value{
				int64(p), sk,
				int64(1 + rng.Intn(9999)), rng.Float64() * 1000,
			})
		}
	}
	if err := e.InsertRows("partsupp", rows); err != nil {
		return err
	}

	// orders
	rows = make([][]engine.Value, 0, nOrders)
	for i := 1; i <= nOrders; i++ {
		year := 1992 + rng.Intn(7)
		rows = append(rows, []engine.Value{
			int64(i), int64(1 + rng.Intn(nCust)),
			[]string{"O", "F", "P"}[rng.Intn(3)],
			1000 + rng.Float64()*450000,
			dateStr(year, rng.Intn(365)),
			priorities[rng.Intn(len(priorities))],
			int64(0),
		})
	}
	if err := e.InsertRows("orders", rows); err != nil {
		return err
	}

	// lineitem
	rows = make([][]engine.Value, 0, nLine)
	for i := 0; i < nLine; i++ {
		orderkey := int64(1 + rng.Intn(nOrders))
		qty := float64(1 + rng.Intn(50))
		price := qty * (900 + rng.Float64()*1100)
		year := 1992 + rng.Intn(7)
		ship := dateStr(year, rng.Intn(365))
		ps := pairs[rng.Intn(len(pairs))]
		rows = append(rows, []engine.Value{
			orderkey, ps.part, ps.supp,
			int64(1 + i%7), qty, price,
			float64(rng.Intn(11)) / 100.0, // discount 0.00-0.10
			float64(rng.Intn(9)) / 100.0,  // tax
			returnFlags[rng.Intn(len(returnFlags))],
			lineStatuses[rng.Intn(len(lineStatuses))],
			ship,
			dateStr(year, rng.Intn(365)),
			dateStr(year, rng.Intn(365)),
			shipInstructs[rng.Intn(len(shipInstructs))],
			shipModes[rng.Intn(len(shipModes))],
		})
	}
	return e.InsertRows("lineitem", rows)
}

// TPCHFactTables lists the tables VerdictDB samples for the tq workload.
var TPCHFactTables = []string{"lineitem", "orders", "partsupp"}
