// TPC-H speedups: runs a subset of the paper's tq-* queries exactly and
// approximately through each engine dialect (Impala, Spark SQL, Redshift) on
// the in-memory engine, printing the per-query speedups — a miniature
// Figure 4. Both sides are timed alike: one warm-up, then the wall clock
// around one Conn.Query.
package main

import (
	"fmt"
	"log"
	"time"

	verdictdb "verdictdb"
	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/workload"
)

// timed runs sql once untimed (allocator and cache warm-up; the approximate
// side's also fills the plan cache), then once under the wall clock.
func timed(conn *verdictdb.Conn, sql string) (*verdictdb.Answer, time.Duration) {
	if _, err := conn.Query(sql); err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	a, err := conn.Query(sql)
	if err != nil {
		log.Fatal(err)
	}
	return a, time.Since(start)
}

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
		conn, err := verdictdb.Open(mk.make(eng), verdictdb.Defaults())
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
				continue // keep the example fast
			}
			_, exact := timed(conn, "bypass "+q.SQL)
			a, approx := timed(conn, q.SQL)
			fmt.Printf("%-7s %12v %12v %8.1fx %8v\n",
				q.ID, exact.Round(time.Microsecond), approx.Round(time.Microsecond),
				float64(exact)/float64(approx), a.Approximate)
		}
	}
}
