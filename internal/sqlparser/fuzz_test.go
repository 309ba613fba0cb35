package sqlparser_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"verdictdb/internal/sqlparser"
	"verdictdb/internal/workload"
)

// FuzzParseFormat checks that printing is a fixed point of parsing: whatever
// parses, Format prints as SQL that parses again and prints the same. The seed
// corpus is the workload's 33 shapes and the rewritten SQL the middleware's
// golden file pins.
func FuzzParseFormat(f *testing.F) {
	for _, q := range workload.AllQueries() {
		f.Add(q.SQL)
	}
	golden, err := os.ReadFile(filepath.Join("..", "core", "testdata", "middleware.golden"))
	if err != nil {
		f.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		if _, sql, ok := strings.Cut(line, ": SELECT "); ok && strings.HasPrefix(line, "rewritten ") {
			line = "SELECT " + sql
		}
		if strings.HasPrefix(line, "SELECT ") {
			f.Add(line)
		}
	}
	// What the fuzzer found: names that need quoting, a backslash in a
	// literal, negative zero, IN under an operator.
	for _, sql := range []string{"SELECT``", `SELECT"."`, `(SELECT((A('\\'))))`, "SELECT-0.0", "SELECT 0%(0 IN (0))"} {
		f.Add(sql)
	}
	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := sqlparser.Parse(sql)
		if err != nil {
			return
		}
		once := sqlparser.Format(stmt)
		again, err := sqlparser.Parse(once)
		if err != nil {
			t.Fatalf("%q prints as %q, which does not parse: %v", sql, once, err)
		}
		if twice := sqlparser.Format(again); twice != once {
			t.Fatalf("%q prints as\n%s\nand then as\n%s", sql, once, twice)
		}
	})
}
