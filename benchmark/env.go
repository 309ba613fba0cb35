package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	verdictdb "verdictdb"
	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/workload"
)

// The two datasets live in separate engines because both schemas have a
// table named orders; every op names the side it runs against.
const (
	sideTPCH = iota
	sideInsta
	nSides
)

var sideNames = [nSides]string{"tpch", "insta"}

// The paper's 2 % sample set, copied from internal/bench/harness.go (which
// this benchmark supersedes and must not import).
var sampleStmts = [nSides][]string{
	{
		"create uniform sample of lineitem ratio 0.02",
		"create stratified sample of lineitem on (l_returnflag, l_linestatus) ratio 0.02",
		"create hashed sample of lineitem on (l_orderkey) ratio 0.02",
		"create uniform sample of orders ratio 0.02",
		"create hashed sample of orders on (o_orderkey) ratio 0.02",
		"create uniform sample of partsupp ratio 0.02",
		"create hashed sample of partsupp on (ps_suppkey) ratio 0.02",
	},
	{
		"create uniform sample of order_products ratio 0.02",
		"create hashed sample of order_products on (order_id) ratio 0.02",
		"create uniform sample of orders ratio 0.02",
		"create hashed sample of orders on (user_id) ratio 0.02",
		"create hashed sample of orders on (order_id) ratio 0.02",
		"create stratified sample of orders on (order_dow) ratio 0.02",
		"create stratified sample of orders on (order_hour) ratio 0.02",
	},
}

// side is one dataset: its engine and the connection the client loop queries.
type side struct {
	eng  *engine.Engine
	conn *verdictdb.Conn
}

// env is a prepared system under test.
type env struct {
	sides [nSides]*side
	ing   *ingester // ingest_mix only
	dir   string    // disk_cold's data directory, removed by close

	setupS     float64            // load + samples (+ flush, cache sizing) until the first query can run
	sampleS    map[string]float64 // sample_build_s by kind: uniform, hashed, stratified
	sampleRows int64
	flushS     float64
	diskBytes  int64 // segments + manifests after the set-up flush (disk_cold only)
}

// newEnv loads both datasets at cfg.scale, builds the sample set, and on
// disk_cold attaches a fresh data directory under cfg.outDir, flushes
// everything into segments and sizes the chunk cache below the working set.
// rec is nil in untraced runs, so those run on the bare *drivers.Driver. The
// caller closes the env.
func newEnv(cfg config, rec *recorder) (*env, error) {
	start := time.Now()
	ev := &env{sampleS: map[string]float64{}}
	ready := false
	defer func() {
		if !ready {
			ev.close()
		}
	}()
	var err error
	for i := 0; i < nSides; i++ {
		seed := cfg.seed + int64(i)
		eng := engine.NewSeeded(seed + 7919*cfg.scramble)
		if i == sideTPCH {
			err = workload.LoadTPCH(eng, cfg.scale, seed)
		} else {
			err = workload.LoadInsta(eng, cfg.scale, seed)
		}
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", sideNames[i], err)
		}
		drv := drivers.NewGeneric(eng)
		var db drivers.DB = drv
		if rec != nil {
			db = &seam{Driver: drv, rec: rec}
		}
		conn, err := verdictdb.Open(db, verdictdb.Defaults())
		if err != nil {
			return nil, fmt.Errorf("opening %s: %w", sideNames[i], err)
		}
		for _, stmt := range sampleStmts[i] {
			t0 := time.Now()
			if err := conn.Exec(stmt); err != nil {
				return nil, fmt.Errorf("%s: %w", stmt, err)
			}
			ev.sampleS[strings.Fields(stmt)[1]] += time.Since(t0).Seconds()
		}
		infos, err := conn.Samples()
		if err != nil {
			return nil, err
		}
		for _, si := range infos {
			ev.sampleRows += si.SampleRows
		}
		ev.sides[i] = &side{eng: eng, conn: conn}
	}
	if cfg.w.ingest {
		if ev.ing, err = newIngester(ev.sides[sideTPCH], cfg); err != nil {
			return nil, err
		}
	}
	if cfg.w.disk {
		if ev.dir, err = os.MkdirTemp(cfg.outDir, "datadir-"); err != nil {
			return nil, err
		}
		for i, s := range ev.sides {
			if _, err := s.eng.AttachDataDir(filepath.Join(ev.dir, sideNames[i])); err != nil {
				return nil, err
			}
			t0 := time.Now()
			if err := s.eng.Flush(); err != nil {
				return nil, err
			}
			ev.flushS += time.Since(t0).Seconds()
			// Split the budget evenly: both engines hold about the same
			// decoded bytes at any scale.
			s.eng.SetChunkCacheBytes(cfg.cacheBytes() / nSides)
			s.eng.DropChunkCache()
		}
	}
	ev.setupS = time.Since(start).Seconds()
	if cfg.w.disk {
		if ev.diskBytes, err = dirBytes(ev.dir); err != nil {
			return nil, err
		}
	}
	ready = true
	return ev, nil
}

// closeEngines stops the engines' flushers and closes their segments; the
// data directory stays for the storage probe. Safe to call twice.
func (ev *env) closeEngines() {
	for _, s := range ev.sides {
		if s != nil {
			_ = s.eng.Close() // final flush of a read-only engine; nothing to lose
		}
	}
}

// close also removes the data directory.
func (ev *env) close() {
	ev.closeEngines()
	if ev.dir != "" {
		_ = os.RemoveAll(ev.dir) // scratch under .build; a leftover is harmless and ignored by git
	}
}
