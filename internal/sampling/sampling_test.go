package sampling

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/meta"
	"verdictdb/internal/sqlparser"
)

// newTestDB loads a base table with skewed group sizes.
func newTestDB(t testing.TB, driver func(*engine.Engine) *drivers.Driver) (*drivers.Driver, *Builder) {
	t.Helper()
	e := engine.NewSeeded(11)
	if err := e.CreateTable("sales", []engine.Column{
		{Name: "id", Type: engine.TInt},
		{Name: "city", Type: engine.TString},
		{Name: "amount", Type: engine.TFloat},
	}); err != nil {
		t.Fatal(err)
	}
	// Skewed strata: city-0 has 10 rows, city-1 has 100, city-2 has 1000,
	// city-3 has 10000.
	var rows [][]engine.Value
	id := 0
	for c, size := range []int{10, 100, 1000, 10000} {
		for i := 0; i < size; i++ {
			id++
			rows = append(rows, []engine.Value{int64(id), fmt.Sprintf("city-%d", c), float64(id % 97)})
		}
	}
	if err := e.InsertRows("sales", rows); err != nil {
		t.Fatal(err)
	}
	db := driver(e)
	cat, err := meta.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return db, NewBuilder(db, cat)
}

func TestCreateUniform(t *testing.T) {
	db, b := newTestDB(t, drivers.NewGeneric)
	si, err := b.CreateUniform("sales", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if si.SampleRows < 800 || si.SampleRows > 1400 {
		t.Fatalf("10%% of 11110 rows gave %d", si.SampleRows)
	}
	if si.BaseRows != 11110 {
		t.Errorf("base rows %d", si.BaseRows)
	}
	// Sample table has the verdict columns.
	rs, err := db.Query("select min(verdict_prob), max(verdict_prob), min(verdict_sid), max(verdict_sid) from " + si.SampleTable)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := engine.ToFloat(rs.Rows[0][0]); p != 0.1 {
		t.Errorf("prob %v", p)
	}
	if lo, _ := engine.ToInt(rs.Rows[0][2]); lo < 1 {
		t.Errorf("sid lo %v", lo)
	}
	if hi, _ := engine.ToInt(rs.Rows[0][3]); hi > si.Subsamples {
		t.Errorf("sid hi %v > b %v", hi, si.Subsamples)
	}
}

// TestConcurrentCreateSameSample builds the same uniform sample from several
// goroutines at once. Creation drops, rebuilds and registers one table, so
// the builder must serialize it: every call succeeds, and the catalog's row
// count is the table's.
func TestConcurrentCreateSameSample(t *testing.T) {
	db, b := newTestDB(t, drivers.NewGeneric)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				if _, err := b.CreateUniform("sales", 0.1); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	sis, err := b.cat.List()
	if err != nil || len(sis) != 1 {
		t.Fatalf("catalog after concurrent creates: %v, %v", sis, err)
	}
	rs, err := db.Query("select count(*) from " + sis[0].SampleTable)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := engine.ToInt(rs.Rows[0][0]); n != sis[0].SampleRows {
		t.Fatalf("catalog records %d sample rows, the table holds %d", sis[0].SampleRows, n)
	}
}

func TestCreateUniformImpalaDialect(t *testing.T) {
	// Impala path exercises the no-rand-in-where rewrite.
	_, b := newTestDB(t, drivers.NewImpala)
	si, err := b.CreateUniform("sales", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if si.SampleRows < 800 || si.SampleRows > 1400 {
		t.Fatalf("impala uniform sample rows %d", si.SampleRows)
	}
}

func TestCreateUniformRedshiftDialect(t *testing.T) {
	_, b := newTestDB(t, drivers.NewRedshift)
	si, err := b.CreateUniform("sales", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if si.SampleRows < 800 || si.SampleRows > 1400 {
		t.Fatalf("redshift uniform sample rows %d", si.SampleRows)
	}
}

func TestCreateHashed(t *testing.T) {
	db, b := newTestDB(t, drivers.NewGeneric)
	si, err := b.CreateHashed("sales", "id", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if si.SampleRows < 1600 || si.SampleRows > 2900 {
		t.Fatalf("20%% universe sample rows %d", si.SampleRows)
	}
	// Hashed sampling is deterministic: rebuilding yields identical rows.
	rs1, _ := db.Query("select count(*) from " + si.SampleTable)
	si2, err := b.CreateHashed("sales", "id", 0.2)
	if err != nil {
		t.Fatal(err)
	}
	rs2, _ := db.Query("select count(*) from " + si2.SampleTable)
	if rs1.Rows[0][0] != rs2.Rows[0][0] {
		t.Fatal("hashed sample not deterministic")
	}
}

func TestHashedSamplesAgreeAcrossTables(t *testing.T) {
	// Two tables sharing key values must sample the same keys — the
	// property that makes universe-sample joins work (Section 5.1).
	e := engine.NewSeeded(3)
	e.CreateTable("t1", []engine.Column{{Name: "k", Type: engine.TInt}})
	e.CreateTable("t2", []engine.Column{{Name: "k", Type: engine.TInt}})
	for i := 0; i < 5000; i++ {
		e.InsertRows("t1", [][]engine.Value{{int64(i)}})
		e.InsertRows("t2", [][]engine.Value{{int64(i)}})
	}
	db := drivers.NewGeneric(e)
	cat, _ := meta.Open(db)
	b := NewBuilder(db, cat)
	s1, err := b.CreateHashed("t1", "k", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := b.CreateHashed("t2", "k", 0.3)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := db.Query(fmt.Sprintf(
		"select count(*) from %s a inner join %s b on a.k = b.k", s1.SampleTable, s2.SampleTable))
	if err != nil {
		t.Fatal(err)
	}
	joined, _ := engine.ToInt(rs.Rows[0][0])
	if joined != s1.SampleRows || joined != s2.SampleRows {
		t.Fatalf("universe join lost keys: joined=%d s1=%d s2=%d", joined, s1.SampleRows, s2.SampleRows)
	}
}

func TestCreateStratifiedGuarantee(t *testing.T) {
	db, b := newTestDB(t, drivers.NewGeneric)
	b.MinStratumRows = 10
	si, err := b.CreateStratified("sales", []string{"city"}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Equation 1: every stratum keeps at least min(m, stratum size) rows.
	rs, err := db.Query("select city, count(*) from " + si.SampleTable + " group by city order by city")
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 4 {
		t.Fatalf("strata in sample: %d", len(rs.Rows))
	}
	sizes := map[string]int64{"city-0": 10, "city-1": 100, "city-2": 1000, "city-3": 10000}
	m := int64(math.Ceil(11110 * 0.05 / 4)) // = 139
	for _, r := range rs.Rows {
		city := r[0].(string)
		got, _ := engine.ToInt(r[1])
		want := m
		if sizes[city] < want {
			want = sizes[city]
		}
		if got < want {
			t.Errorf("stratum %s: %d rows < required %d", city, got, want)
		}
	}
	// Small strata are taken whole.
	rs2, _ := db.Query("select count(*) from " + si.SampleTable + " where city = 'city-0'")
	if v, _ := engine.ToInt(rs2.Rows[0][0]); v != 10 {
		t.Errorf("tiny stratum: %d rows, want all 10", v)
	}
}

func TestStratifiedProbColumnMatchesCounts(t *testing.T) {
	db, b := newTestDB(t, drivers.NewGeneric)
	si, err := b.CreateStratified("sales", []string{"city"}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// HT estimate of total rows from the stratified sample should be close
	// to the true 11110.
	rs, err := db.Query("select sum(1.0 / verdict_prob) from " + si.SampleTable)
	if err != nil {
		t.Fatal(err)
	}
	est, _ := engine.ToFloat(rs.Rows[0][0])
	if math.Abs(est-11110)/11110 > 0.1 {
		t.Fatalf("HT total from stratified sample: %v want ~11110", est)
	}
}

func TestCreateStratifiedImpala(t *testing.T) {
	_, b := newTestDB(t, drivers.NewImpala)
	si, err := b.CreateStratified("sales", []string{"city"}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if si.SampleRows == 0 {
		t.Fatal("empty stratified sample")
	}
}

func TestCatalogRoundTrip(t *testing.T) {
	db, b := newTestDB(t, drivers.NewGeneric)
	if _, err := b.CreateUniform("sales", 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateStratified("sales", []string{"city"}, 0.05); err != nil {
		t.Fatal(err)
	}
	cat, err := meta.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	infos, err := cat.ForTable("sales")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 2 {
		t.Fatalf("catalog entries: %d", len(infos))
	}
	var sawStrat bool
	for _, si := range infos {
		if si.Type == sqlparser.StratifiedSample {
			sawStrat = true
			if len(si.Columns) != 1 || si.Columns[0] != "city" {
				t.Errorf("stratified columns: %v", si.Columns)
			}
		}
	}
	if !sawStrat {
		t.Error("stratified sample not in catalog")
	}
}

func TestCatalogReplaceOnReRegister(t *testing.T) {
	_, b := newTestDB(t, drivers.NewGeneric)
	if _, err := b.CreateUniform("sales", 0.1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.CreateUniform("sales", 0.2); err != nil {
		t.Fatal(err)
	}
	infos, err := b.cat.ForTable("sales")
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 1 {
		t.Fatalf("re-registering same sample duplicated catalog rows: %d", len(infos))
	}
	if infos[0].Ratio != 0.2 {
		t.Errorf("ratio not updated: %v", infos[0].Ratio)
	}
}

func TestCreateAuto(t *testing.T) {
	_, b := newTestDB(t, drivers.NewGeneric)
	b.AutoTargetRows = 1000 // scaled-down default policy
	infos, err := b.CreateAuto("sales")
	if err != nil {
		t.Fatal(err)
	}
	var uni, hashed, strat int
	for _, si := range infos {
		switch si.Type {
		case sqlparser.UniformSample:
			uni++
		case sqlparser.HashedSample:
			hashed++
		case sqlparser.StratifiedSample:
			strat++
		}
	}
	if uni != 1 {
		t.Errorf("uniform samples: %d", uni)
	}
	// id has 11110 distinct values (>1% of rows) -> hashed; city has 4
	// (<1%) -> stratified. amount has 97 (<1%) -> stratified.
	if hashed < 1 {
		t.Errorf("hashed samples: %d", hashed)
	}
	if strat < 1 {
		t.Errorf("stratified samples: %d", strat)
	}
}

func TestAppendBatchUniform(t *testing.T) {
	db, b := newTestDB(t, drivers.NewGeneric)
	si, err := b.CreateUniform("sales", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	before := si.SampleRows
	// New batch of 5000 rows.
	if err := db.Exec("create table batch as select id, city, amount from sales limit 5000"); err != nil {
		t.Fatal(err)
	}
	si2, err := b.AppendBatch(si, "batch")
	if err != nil {
		t.Fatal(err)
	}
	added := si2.SampleRows - before
	if added < 350 || added > 700 {
		t.Fatalf("appended sample rows: %d (want ~500)", added)
	}
	if si2.BaseRows != si.BaseRows+5000 {
		t.Errorf("base rows: %d", si2.BaseRows)
	}
}

func TestAppendBatchStratifiedKeepsProbs(t *testing.T) {
	db, b := newTestDB(t, drivers.NewGeneric)
	si, err := b.CreateStratified("sales", []string{"city"}, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	// Batch contains known strata plus a brand-new one.
	if err := db.Exec("create table batch as select id, city, amount from sales where city = 'city-3' limit 1000"); err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("insert into batch values (999999, 'city-new', 1.0)"); err != nil {
		t.Fatal(err)
	}
	si2, err := b.AppendBatch(si, "batch")
	if err != nil {
		t.Fatal(err)
	}
	// The brand-new stratum must be present (probability 1).
	rs, err := db.Query("select count(*) from " + si2.SampleTable + " where city = 'city-new'")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := engine.ToInt(rs.Rows[0][0]); v != 1 {
		t.Fatalf("new stratum rows: %d", v)
	}
}

func TestIsStale(t *testing.T) {
	db, b := newTestDB(t, drivers.NewGeneric)
	si, err := b.CreateUniform("sales", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	stale, err := b.IsStale(si)
	if err != nil || stale {
		t.Fatalf("fresh sample reported stale (err %v)", err)
	}
	if err := db.Exec("insert into sales values (999999, 'city-0', 5.0)"); err != nil {
		t.Fatal(err)
	}
	stale, err = b.IsStale(si)
	if err != nil || !stale {
		t.Fatalf("appended base not reported stale (err %v)", err)
	}
}

func TestSampleNameDeterministic(t *testing.T) {
	a := SampleName("Orders", sqlparser.StratifiedSample, []string{"City", "state"})
	b := SampleName("orders", sqlparser.StratifiedSample, []string{"city", "State"})
	if a != b {
		t.Fatalf("%q != %q", a, b)
	}
}

func TestCreateRejectsBadTau(t *testing.T) {
	_, b := newTestDB(t, drivers.NewGeneric)
	if _, err := b.CreateUniform("sales", 0); err == nil {
		t.Error("tau=0 accepted")
	}
	if _, err := b.CreateUniform("sales", 1.5); err == nil {
		t.Error("tau>1 accepted")
	}
	if _, err := b.CreateStratified("sales", nil, 0.1); err == nil {
		t.Error("stratified without columns accepted")
	}
}

func TestBlockPartitioning(t *testing.T) {
	db, b := newTestDB(t, drivers.NewGeneric)
	b.BlockRows = 100
	si, err := b.CreateUniform("sales", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if si.BlockRows != 100 {
		t.Fatalf("BlockRows: %d", si.BlockRows)
	}
	// ~1111 expected sample rows at 100 rows/block: around 12 blocks.
	if len(si.BlockCounts) < 8 || len(si.BlockCounts) > 16 {
		t.Fatalf("block count: %d (%v)", len(si.BlockCounts), si.BlockCounts)
	}
	if si.TotalBlockRows() != si.SampleRows {
		t.Fatalf("block counts sum %d != sample rows %d", si.TotalBlockRows(), si.SampleRows)
	}
	// The block column holds only ids in [1, len(BlockCounts)].
	rs, err := db.Query("select min(_vdb_block), max(_vdb_block) from " + si.SampleTable)
	if err != nil {
		t.Fatal(err)
	}
	lo, _ := engine.ToInt(rs.Rows[0][0])
	hi, _ := engine.ToInt(rs.Rows[0][1])
	if lo < 1 || hi > int64(len(si.BlockCounts)) {
		t.Fatalf("block id range [%d, %d] vs %d blocks", lo, hi, len(si.BlockCounts))
	}
}

func TestBlockPartitioningAllTypes(t *testing.T) {
	_, b := newTestDB(t, drivers.NewGeneric)
	b.BlockRows = 64
	if si, err := b.CreateHashed("sales", "id", 0.1); err != nil {
		t.Fatal(err)
	} else if si.TotalBlockRows() != si.SampleRows || len(si.BlockCounts) == 0 {
		t.Fatalf("hashed blocks: %v vs %d rows", si.BlockCounts, si.SampleRows)
	}
	if si, err := b.CreateStratified("sales", []string{"city"}, 0.05); err != nil {
		t.Fatal(err)
	} else if si.TotalBlockRows() != si.SampleRows || len(si.BlockCounts) == 0 {
		t.Fatalf("stratified blocks: %v vs %d rows", si.BlockCounts, si.SampleRows)
	}
}

func TestAppendBatchExtendsLastOpenBlock(t *testing.T) {
	db, b := newTestDB(t, drivers.NewGeneric)
	b.BlockRows = 200
	si, err := b.CreateUniform("sales", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	blocksBefore := len(si.BlockCounts)
	lastBefore := si.BlockCounts[blocksBefore-1]
	// A small batch (~50 expected sample rows) should flow into the open
	// block, not start a fresh one.
	if err := db.Exec("create table smallbatch as select id, city, amount from sales limit 500"); err != nil {
		t.Fatal(err)
	}
	si2, err := b.AppendBatch(si, "smallbatch")
	if err != nil {
		t.Fatal(err)
	}
	if si2.TotalBlockRows() != si2.SampleRows {
		t.Fatalf("block counts sum %d != sample rows %d", si2.TotalBlockRows(), si2.SampleRows)
	}
	if len(si2.BlockCounts) > blocksBefore+1 {
		t.Fatalf("small append grew blocks %d -> %d", blocksBefore, len(si2.BlockCounts))
	}
	if si2.SampleRows > si.SampleRows && si2.BlockCounts[blocksBefore-1] < lastBefore {
		t.Fatalf("last open block shrank: %d -> %d", lastBefore, si2.BlockCounts[blocksBefore-1])
	}

	// A large batch must spill into new blocks.
	if err := db.Exec("create table bigbatch as select id, city, amount from sales"); err != nil {
		t.Fatal(err)
	}
	si3, err := b.AppendBatch(si2, "bigbatch")
	if err != nil {
		t.Fatal(err)
	}
	if si3.TotalBlockRows() != si3.SampleRows {
		t.Fatalf("block counts sum %d != sample rows %d", si3.TotalBlockRows(), si3.SampleRows)
	}
	if len(si3.BlockCounts) <= len(si2.BlockCounts) {
		t.Fatalf("large append did not open new blocks: %d -> %d",
			len(si2.BlockCounts), len(si3.BlockCounts))
	}
}

func TestAppendBatchWithBlockPartitioningDisabled(t *testing.T) {
	// BlockRows <= 0 disables block partitioning, but the sample table still
	// carries the (single-valued) block column — appends must match its
	// column list instead of erroring on a width mismatch.
	db, b := newTestDB(t, drivers.NewGeneric)
	b.BlockRows = 0
	si, err := b.CreateUniform("sales", 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Exec("create table nbbatch as select id, city, amount from sales limit 1000"); err != nil {
		t.Fatal(err)
	}
	si2, err := b.AppendBatch(si, "nbbatch")
	if err != nil {
		t.Fatalf("append to block-disabled sample: %v", err)
	}
	if si2.SampleRows < si.SampleRows {
		t.Fatalf("sample shrank: %d -> %d", si.SampleRows, si2.SampleRows)
	}
}

// TestAppendBatchIncrementalCountsMatchRecount cross-checks AppendBatch's
// incremental bookkeeping (counted on the staged delta only) against a full
// register recount over the final sample table: SampleRows and every
// per-block count must agree exactly, for every sample type.
func TestAppendBatchIncrementalCountsMatchRecount(t *testing.T) {
	db, b := newTestDB(t, drivers.NewGeneric)
	b.BlockRows = 150
	for _, tc := range []struct {
		name   string
		create func() (meta.SampleInfo, error)
	}{
		{"uniform", func() (meta.SampleInfo, error) { return b.CreateUniform("sales", 0.1) }},
		{"hashed", func() (meta.SampleInfo, error) { return b.CreateHashed("sales", "id", 0.1) }},
		{"stratified", func() (meta.SampleInfo, error) { return b.CreateStratified("sales", []string{"city"}, 0.05) }},
	} {
		si, err := tc.create()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		batch := "batch_" + tc.name
		if err := db.Exec("create table " + batch + " as select id, city, amount from sales limit 4000"); err != nil {
			t.Fatal(err)
		}
		si2, err := b.AppendBatch(si, batch)
		if err != nil {
			t.Fatalf("%s append: %v", tc.name, err)
		}
		recount, err := b.register(si2)
		if err != nil {
			t.Fatalf("%s recount: %v", tc.name, err)
		}
		if si2.SampleRows != recount.SampleRows {
			t.Errorf("%s: incremental SampleRows %d != recount %d", tc.name, si2.SampleRows, recount.SampleRows)
		}
		if len(si2.BlockCounts) != len(recount.BlockCounts) {
			t.Errorf("%s: incremental blocks %v != recount %v", tc.name, si2.BlockCounts, recount.BlockCounts)
			continue
		}
		for i := range si2.BlockCounts {
			if si2.BlockCounts[i] != recount.BlockCounts[i] {
				t.Errorf("%s: block %d incremental %d != recount %d",
					tc.name, i+1, si2.BlockCounts[i], recount.BlockCounts[i])
			}
		}
		if si2.TotalBlockRows() != si2.SampleRows {
			t.Errorf("%s: block counts sum %d != sample rows %d", tc.name, si2.TotalBlockRows(), si2.SampleRows)
		}
		// The staging table must not linger.
		if _, err := db.Query("select count(*) from " + si2.SampleTable + "_verdict_stage"); err == nil {
			t.Errorf("%s: staging table left behind", tc.name)
		}
	}
}

// scanCountingDB sums the engine's RowsScanned over the statements a
// builder and its catalog issue. The Columns probes go through the real
// Driver.Columns, which discards the count; the test asserts theirs apart.
type scanCountingDB struct {
	*drivers.Driver
	scanned int64
}

func (c *scanCountingDB) ExecContext(ctx context.Context, sql string) error {
	rs, err := c.Engine().ExecContext(ctx, sql)
	if err == nil {
		c.scanned += rs.RowsScanned
	}
	return err
}

func (c *scanCountingDB) QueryContext(ctx context.Context, sql string) (*engine.ResultSet, error) {
	rs, err := c.Driver.QueryContext(ctx, sql)
	if err == nil {
		c.scanned += rs.RowsScanned
	}
	return rs, err
}

// appendBatchCost builds a disk-backed base table of baseRows rows with a
// hashed sample (its acceptance is a function of the batch alone), drops
// the chunk cache, and appends one fixed 500-row batch under a 1 MiB memory
// budget. It returns the chunk-cache misses and RowsScanned of that append.
func appendBatchCost(t *testing.T, baseRows int) (misses, scanned int64) {
	t.Helper()
	t.Setenv("ENGINE_SPILL", "") // this engine manages its own data directory
	e := engine.NewSeeded(11)
	if _, err := e.AttachDataDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	cols := []engine.Column{
		{Name: "id", Type: engine.TInt},
		{Name: "city", Type: engine.TString},
		{Name: "amount", Type: engine.TFloat},
	}
	load := func(table string, firstID, n int) {
		rows := make([][]engine.Value, n)
		for i := range rows {
			id := firstID + i
			rows[i] = []engine.Value{int64(id), fmt.Sprintf("city-%d", id%7), float64(id % 97)}
		}
		if err := e.CreateTable(table, cols); err != nil {
			t.Fatal(err)
		}
		if err := e.InsertRows(table, rows); err != nil {
			t.Fatal(err)
		}
	}
	load("sales", 1, baseRows)
	load("batch", 1_000_001, 500)
	db := &scanCountingDB{Driver: drivers.NewGeneric(e)}
	cat, err := meta.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(db, cat)
	si, err := b.CreateHashed("sales", "id", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	e.DropChunkCache()

	e.SetMemoryBudget(1 << 20)
	before := e.ChunkCache().Misses
	if cols, err := db.Columns("sales"); err != nil || len(cols) != 3 {
		t.Fatalf("Columns under a 1 MiB budget: %v, %v", cols, err)
	}
	if rs, err := e.Query("select * from sales limit 0"); err != nil || rs.RowsScanned != 0 {
		t.Fatalf("LIMIT 0 probe: %v, %v", rs, err)
	}
	if st := e.ChunkCache(); st.Misses != before || st.Entries != 0 {
		t.Fatalf("schema probes loaded chunks: %+v", st)
	}
	db.scanned = 0
	after, err := b.AppendBatch(si, "batch")
	if err != nil {
		t.Fatalf("AppendBatch over %d base rows under a 1 MiB budget: %v", baseRows, err)
	}
	if after.BaseRows != si.BaseRows+500 || after.SampleRows <= si.SampleRows {
		t.Fatalf("append did not extend the sample: %+v -> %+v", si, after)
	}
	return e.ChunkCache().Misses - before, db.scanned
}

// The append reads the batch, its staged sample rows and the catalog —
// never the base table: Appendix D's O(batch) maintenance cost.
func TestAppendBatchCostIndependentOfBaseSize(t *testing.T) {
	smallMisses, smallScanned := appendBatchCost(t, 20_000)
	bigMisses, bigScanned := appendBatchCost(t, 200_000)
	if smallMisses != bigMisses || smallScanned != bigScanned {
		t.Fatalf("AppendBatch cost grew with the base table: 20k rows -> %d chunk misses, %d rows scanned; 200k rows -> %d, %d",
			smallMisses, smallScanned, bigMisses, bigScanned)
	}
	if smallScanned == 0 || smallScanned > 10*500 {
		t.Fatalf("AppendBatch of 500 rows scanned %d rows", smallScanned)
	}
}
