package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	verdictdb "verdictdb"
	"verdictdb/internal/engine"
)

const (
	batchRows  = 2000 // base rows appended per ingest_mix cycle
	feedTable  = "lineitem_feed"
	batchTable = "lineitem_batch"
)

// ingester drives ingest_mix's append step: it moves the next slice of the
// held-out feed into lineitem and extends lineitem's three samples.
type ingester struct {
	conn    *verdictdb.Conn
	cols    string // lineitem's column list
	samples []verdictdb.SampleInfo

	appendNs []int64 // one AppendBatch call each
	stepNs   int64   // whole append steps
	rows     int64
}

// newIngester builds the feed table during set-up: passes x batchRows rows
// drawn from lineitem's own rows in a seeded order (so appended data has the
// base distribution), numbered by feed_seq so a cycle can slice them.
func newIngester(s *side, cfg config) (*ingester, error) {
	t, err := s.eng.Lookup("lineitem")
	if err != nil {
		return nil, err
	}
	rs, err := s.eng.Query("select * from lineitem")
	if err != nil {
		return nil, err
	}
	cols := append([]engine.Column{{Name: "feed_seq", Type: engine.TInt}}, t.Cols...)
	if err := s.eng.CreateTable(feedTable, cols); err != nil {
		return nil, err
	}
	perm := rand.New(rand.NewSource(cfg.seed ^ 0xfeed)).Perm(len(rs.Rows))
	feed := make([][]engine.Value, cfg.passes*batchRows)
	for i := range feed {
		feed[i] = append([]engine.Value{int64(i)}, rs.Rows[perm[i%len(perm)]]...)
	}
	if err := s.eng.InsertRows(feedTable, feed); err != nil {
		return nil, err
	}
	names := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		names[i] = c.Name
	}
	all, err := s.conn.Samples()
	if err != nil {
		return nil, err
	}
	in := &ingester{conn: s.conn, cols: strings.Join(names, ", "), appendNs: make([]int64, 0, 3*cfg.passes)}
	for _, si := range all {
		if si.BaseTable == "lineitem" {
			in.samples = append(in.samples, si)
		}
	}
	if len(in.samples) != 3 {
		return nil, fmt.Errorf("lineitem has %d samples, want 3", len(in.samples))
	}
	return in, nil
}

// appendBatch runs cycle k's append step.
func (in *ingester) appendBatch(k int) error {
	start := time.Now()
	for _, sql := range []string{
		fmt.Sprintf("bypass create table %s as select %s from %s where feed_seq >= %d and feed_seq < %d",
			batchTable, in.cols, feedTable, k*batchRows, (k+1)*batchRows),
		fmt.Sprintf("bypass insert into lineitem select * from %s", batchTable),
	} {
		if err := in.conn.Exec(sql); err != nil {
			return err
		}
	}
	for i, si := range in.samples {
		t0 := time.Now()
		next, err := in.conn.Builder().AppendBatch(si, batchTable)
		if err != nil {
			return err
		}
		in.appendNs = append(in.appendNs, time.Since(t0).Nanoseconds())
		in.samples[i] = next
	}
	if err := in.conn.Exec("bypass drop table " + batchTable); err != nil {
		return err
	}
	in.stepNs += time.Since(start).Nanoseconds()
	in.rows += batchRows
	return nil
}
