// Grocery dashboard: the paper's motivating scenario — interactive
// analytics over an Instacart-like sales database. Builds the default
// sample set (uniform + hashed + stratified), then answers dashboard
// queries approximately, printing speedups and error bars, including a
// count-distinct answered from a universe (hashed) sample.
package main

import (
	"fmt"
	"log"

	verdictdb "verdictdb"
	"verdictdb/internal/workload"
)

func main() {
	conn, eng, err := verdictdb.OpenInMemory(7, verdictdb.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("loading instacart-like dataset (scale 0.5: ~500k order_products)...")
	if err := workload.LoadInsta(eng, 0.5, 7); err != nil {
		log.Fatal(err)
	}

	// Sample preparation (offline stage in the paper's workflow).
	fmt.Println("preparing samples...")
	for _, stmt := range []string{
		"create uniform sample of order_products ratio 0.01",
		"create hashed sample of order_products on (order_id) ratio 0.01",
		"create stratified sample of orders on (order_dow) ratio 0.01",
		"create hashed sample of orders on (user_id) ratio 0.01",
		"create uniform sample of orders ratio 0.01",
	} {
		if err := conn.Exec(stmt); err != nil {
			log.Fatal(err)
		}
	}
	samples, _ := conn.Samples()
	for _, s := range samples {
		fmt.Printf("  %-45s %8d rows (of %d)\n", s.SampleTable, s.SampleRows, s.BaseRows)
	}

	dashboard := []struct {
		title string
		sql   string
	}{
		{"orders by day of week",
			"select order_dow, count(*) as c from orders group by order_dow order by order_dow"},
		{"revenue by department (top 5)",
			`select d.department, sum(op.price) as revenue
			 from order_products op
			 inner join products p on op.product_id = p.product_id
			 inner join departments d on p.department_id = d.department_id
			 group by d.department order by revenue desc limit 5`},
		{"distinct active users",
			"select count(distinct user_id) as users from orders"},
		{"average basket value (nested aggregate)",
			`select avg(basket) as avg_basket from
			 (select op.order_id as oid, sum(op.price) as basket
			  from order_products op group by op.order_id) as b`},
	}

	for _, q := range dashboard {
		approx, err := conn.Query(q.sql)
		if err != nil {
			log.Fatalf("%s: %v", q.title, err)
		}
		exact, err := conn.Query("bypass " + q.sql)
		if err != nil {
			log.Fatal(err)
		}
		speedup := float64(exact.RowsScanned) / float64(max(approx.RowsScanned, 1))
		fmt.Printf("\n== %s  (approx=%v, %0.1fx fewer rows scanned)\n", q.title, approx.Approximate, speedup)
		for i := range approx.Rows {
			fmt.Printf("  ")
			for j := range approx.Rows[i] {
				if lo, hi, ok := approx.ConfidenceInterval(i, j); ok {
					fmt.Printf("%v ±%.0f  ", approx.Rows[i][j], (hi-lo)/2)
				} else {
					fmt.Printf("%v  ", approx.Rows[i][j])
				}
			}
			if i < len(exact.Rows) {
				fmt.Printf("   (exact: %v)", exact.Rows[i])
			}
			fmt.Println()
		}
	}
}
