// Streaming appends: demonstrates incremental sample maintenance
// (Appendix D). New data batches are appended to the base table and folded
// into existing samples with the original sampling parameters, keeping
// approximate answers fresh without rebuilding.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	verdictdb "verdictdb"
	"verdictdb/internal/engine"
)

func loadBatch(eng *engine.Engine, table string, n int, day int, rng *rand.Rand) error {
	rows := make([][]engine.Value, 0, n)
	for i := 0; i < n; i++ {
		rows = append(rows, []engine.Value{
			fmt.Sprintf("2026-06-%02d", day),
			[]string{"mobile", "web", "store"}[rng.Intn(3)],
			25 + 10*rng.NormFloat64(),
		})
	}
	return eng.InsertRows(table, rows)
}

func main() {
	conn, eng, err := verdictdb.OpenInMemory(3, verdictdb.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))

	if err := eng.CreateTable("events", []engine.Column{
		{Name: "day", Type: engine.TString},
		{Name: "channel", Type: engine.TString},
		{Name: "value", Type: engine.TFloat},
	}); err != nil {
		log.Fatal(err)
	}
	if err := loadBatch(eng, "events", 300_000, 1, rng); err != nil {
		log.Fatal(err)
	}
	si, err := conn.CreateStratifiedSample("events", []string{"channel"}, 0.008)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("initial sample: %d rows of %d\n", si.SampleRows, si.BaseRows)

	query := "select channel, sum(value) as total from events group by channel order by channel"
	for day := 2; day <= 4; day++ {
		// A new day's data arrives as a staging batch.
		batch := fmt.Sprintf("events_batch_%d", day)
		if err := eng.CreateTable(batch, []engine.Column{
			{Name: "day", Type: engine.TString},
			{Name: "channel", Type: engine.TString},
			{Name: "value", Type: engine.TFloat},
		}); err != nil {
			log.Fatal(err)
		}
		if err := loadBatch(eng, batch, 100_000, day, rng); err != nil {
			log.Fatal(err)
		}
		// Append to base and fold into the sample with stored probabilities.
		if err := conn.Exec(fmt.Sprintf("bypass insert into events select * from %s", batch)); err != nil {
			log.Fatal(err)
		}
		stale, err := conn.Builder().IsStale(si)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nday %d appended; sample stale: %v\n", day, stale)
		si, err = conn.Builder().AppendBatch(si, batch)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("sample refreshed: %d rows of %d\n", si.SampleRows, si.BaseRows)

		a, err := conn.Query(query)
		if err != nil {
			log.Fatal(err)
		}
		ex, err := conn.Query("bypass " + query)
		if err != nil {
			log.Fatal(err)
		}
		for i := range a.Rows {
			fmt.Printf("  %-7v approx %12.0f   exact %12.0f   (err %.2f%%)\n",
				a.Rows[i][0], a.Float(i, "total"), ex.Float(i, "total"),
				100*math.Abs(a.Float(i, "total")-ex.Float(i, "total"))/ex.Float(i, "total"))
		}
	}
}
