package main

import (
	"bufio"
	"context"
	"encoding/json"
	"os"
	"time"

	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
)

// span is one timed interval of a traced run. Spans of one client request
// share Op; Parent is the span that caused this one, -1 for a root.
type span struct {
	Op     int    `json:"op_id"`
	ID     int    `json:"span_id"`
	Parent int    `json:"parent_id"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// seamSQL is one SQL string that crossed the middleware→backend seam.
type seamSQL struct {
	op  int
	sql string
}

// recorder keeps a traced run's spans in memory until the loop ends. It is
// used from the single client goroutine only (the engine's scan workers
// never call back across the seam), so it takes no lock.
type recorder struct {
	on    bool // spans are recorded only inside the traced loop
	t0    time.Time
	op    int // current client request
	root  int // its root span, parent of every seam span
	spans []span
	sqls  []seamSQL
}

// newRecorder pre-sizes for nOps requests so recording never reallocates
// inside the loop in the common case.
func newRecorder(nOps int) *recorder {
	return &recorder{
		t0:    time.Now(),
		spans: make([]span, 0, 12*nOps),
		sqls:  make([]seamSQL, 0, 8*nOps),
	}
}

func (r *recorder) begin(parent int, layer, name string) int {
	id := len(r.spans)
	r.spans = append(r.spans, span{Op: r.op, ID: id, Parent: parent, Layer: layer, Name: name, Start: time.Since(r.t0).Nanoseconds()})
	return id
}

func (r *recorder) end(id int) { r.spans[id].End = time.Since(r.t0).Nanoseconds() }

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(path string) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	return w.Flush()
}

// seam is the benchmark's drivers.DB at the middleware→backend boundary: the
// real driver with a span around every method the middleware calls. Name,
// Dialect, Overhead and Engine pass through the embedded driver untouched.
// Untraced runs never install it.
type seam struct {
	*drivers.Driver
	rec *recorder
}

var _ drivers.DB = (*seam)(nil)

// enter opens a seam span and notes the SQL for the re-parse probe; it
// returns -1 outside the traced loop.
func (s *seam) enter(method, sql string) int {
	if !s.rec.on {
		return -1
	}
	if sql != "" {
		s.rec.sqls = append(s.rec.sqls, seamSQL{s.rec.op, sql})
	}
	return s.rec.begin(s.rec.root, "drivers", method)
}

func (s *seam) leave(id int) {
	if id >= 0 {
		s.rec.end(id)
	}
}

func (s *seam) Exec(sql string) error {
	defer s.leave(s.enter("Exec", sql))
	return s.Driver.Exec(sql)
}

func (s *seam) ExecContext(ctx context.Context, sql string) error {
	defer s.leave(s.enter("Exec", sql))
	return s.Driver.ExecContext(ctx, sql)
}

func (s *seam) Query(sql string) (*engine.ResultSet, error) {
	defer s.leave(s.enter("Query", sql))
	return s.Driver.Query(sql)
}

func (s *seam) QueryContext(ctx context.Context, sql string) (*engine.ResultSet, error) {
	defer s.leave(s.enter("Query", sql))
	return s.Driver.QueryContext(ctx, sql)
}

func (s *seam) QueryTimed(sql string) (*engine.ResultSet, time.Duration, error) {
	defer s.leave(s.enter("QueryTimed", sql))
	return s.Driver.QueryTimed(sql)
}

func (s *seam) QueryTimedContext(ctx context.Context, sql string) (*engine.ResultSet, time.Duration, error) {
	defer s.leave(s.enter("QueryTimed", sql))
	return s.Driver.QueryTimedContext(ctx, sql)
}

func (s *seam) Columns(table string) ([]string, error) {
	defer s.leave(s.enter("Columns", ""))
	return s.Driver.Columns(table)
}

func (s *seam) RowCount(table string) (int64, error) {
	defer s.leave(s.enter("RowCount", ""))
	return s.Driver.RowCount(table)
}
