package engine_test

import (
	"fmt"
	"testing"

	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/meta"
	"verdictdb/internal/sampling"
)

// Every string a table stores is its own: CTAS, INSERT … SELECT and a
// sample's AppendBatch read their rows out of other tables' chunks, whose
// strings are views of those chunks' blocks, and the rows a statement leaves
// in the open tail must not keep such a block alive (a flush that drops the
// source chunk from memory would otherwise free nothing). Sealed chunks copy
// their strings by construction; the row counts here leave a tail each time.
func TestStoredStringsOwnTheirBytes(t *testing.T) {
	const n = 3*256 + 100
	e := engine.NewSeeded(5)
	cols := []engine.Column{
		{Name: "id", Type: engine.TInt},
		{Name: "raw", Type: engine.TString},  // distinct: raw block
		{Name: "runs", Type: engine.TString}, // long runs: run-length block
		{Name: "code", Type: engine.TString}, // five values: dictionary
	}
	if err := e.CreateTable("src", cols); err != nil {
		t.Fatal(err)
	}
	rows := make([][]engine.Value, n)
	for i := range rows {
		rows[i] = []engine.Value{int64(i), fmt.Sprintf("raw-%05d", i), fmt.Sprintf("run-%d", i/64),
			fmt.Sprintf("code-%d", i%5)}
	}
	if err := e.InsertRows("src", rows); err != nil {
		t.Fatal(err)
	}
	owned := func(dst string, srcs ...string) {
		t.Helper()
		got, err := engine.ForeignStrings(e, dst, srcs...)
		if err != nil {
			t.Fatal(err)
		}
		if got != 0 {
			t.Errorf("%s stores %d strings inside the blocks of %v", dst, got, srcs)
		}
	}
	// The detector sees a table's strings inside its own blocks.
	if self, err := engine.ForeignStrings(e, "src", "src"); err != nil || self == 0 {
		t.Fatalf("src finds %d of its strings in its own blocks (%v)", self, err)
	}

	mustExec := func(sql string) {
		t.Helper()
		if _, err := e.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}
	// Rows from src's sealed chunks, plus a column of strings and integers
	// (boxed lanes once sealed), leaving 188 rows in the tail.
	const sel = "select id, raw, runs, code, case when id % 2 = 0 then raw else id end as mixed from src"
	mustExec("create table ctas as " + sel + " where id < 700")
	owned("ctas", "src")

	if err := e.CreateTable("ins", append(cols, engine.Column{Name: "mixed", Type: engine.TAny})); err != nil {
		t.Fatal(err)
	}
	mustExec("insert into ins " + sel + " where id < 50")
	mustExec("insert into ins " + sel + " where id >= 100 and id < 700")
	owned("ins", "src")

	db := drivers.NewGeneric(e)
	cat, err := meta.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	b := sampling.NewBuilder(db, cat)
	si, err := b.CreateUniform("src", 0.5)
	if err != nil {
		t.Fatal(err)
	}
	owned(si.SampleTable, "src")
	mustExec("create table batch as select * from src where id < 600")
	owned("batch", "src")
	if _, err := b.AppendBatch(si, "batch"); err != nil {
		t.Fatal(err)
	}
	owned(si.SampleTable, "src", "batch")
}
