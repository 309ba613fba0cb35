// TPC-H speedups: runs a subset of the paper's tq-* queries exactly and
// approximately through each engine dialect (Impala, Spark SQL, Redshift) on
// the in-memory engine, printing the per-query speedups — a miniature
// Figure 4. Both sides are timed alike (bench.RunQueryPair): one warm-up,
// then the wall clock around one Conn.Query.
package main

import (
	"fmt"
	"log"
	"time"

	verdictdb "verdictdb"
	"verdictdb/internal/bench"
	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/workload"
)

func main() {
	const scale = 0.3 // 180k lineitem rows

	for _, mk := range []struct {
		name string
		make func(*engine.Engine) *drivers.Driver
	}{
		{"redshift", drivers.NewRedshift},
		{"sparksql", drivers.NewSparkSQL},
		{"impala", drivers.NewImpala},
	} {
		eng := engine.NewSeeded(11)
		if err := workload.LoadTPCH(eng, scale, 11); err != nil {
			log.Fatal(err)
		}
		db := mk.make(eng)
		conn, err := verdictdb.Open(db, verdictdb.Defaults())
		if err != nil {
			log.Fatal(err)
		}
		for _, stmt := range []string{
			"create uniform sample of lineitem ratio 0.01",
			"create stratified sample of lineitem on (l_returnflag, l_linestatus) ratio 0.01",
			"create uniform sample of orders ratio 0.01",
			"create hashed sample of partsupp on (ps_suppkey) ratio 0.01",
		} {
			if err := conn.Exec(stmt); err != nil {
				log.Fatal(err)
			}
		}

		fmt.Printf("\n=== engine: %s ===\n", mk.name)
		fmt.Printf("%-7s %12s %12s %9s %8s\n", "query", "exact", "approx", "speedup", "approx?")
		for _, q := range workload.TPCHQueries {
			switch q.ID {
			case "tq-1", "tq-6", "tq-12", "tq-14", "tq-18", "tq-19":
			default:
				continue // keep the example fast; benchrunner runs all 33
			}
			r, err := bench.RunQueryPair(&bench.Env{Eng: eng, Conn: conn, DB: db}, q)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%-7s %12v %12v %8.1fx %8v\n",
				q.ID, r.ExactTime.Round(time.Microsecond), r.ApproxTime.Round(time.Microsecond),
				r.Speedup, r.Approximate)
		}
	}
}
