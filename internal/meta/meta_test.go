package meta

import (
	"fmt"
	"sync"
	"testing"

	"verdictdb/internal/drivers"
	"verdictdb/internal/engine"
	"verdictdb/internal/sqlparser"
)

func newCatalog(t *testing.T) (*Catalog, drivers.DB) {
	t.Helper()
	db := drivers.NewGeneric(engine.NewSeeded(1))
	cat, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	return cat, db
}

func TestOpenIdempotent(t *testing.T) {
	_, db := newCatalog(t)
	// Re-opening over the same DB must not fail or wipe data.
	cat2, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat2.Register(SampleInfo{
		SampleTable: "s1", BaseTable: "t", Type: sqlparser.UniformSample,
		Ratio: 0.01, SampleRows: 100, BaseRows: 10000, Subsamples: 10,
	}); err != nil {
		t.Fatal(err)
	}
	cat3, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	all, err := cat3.List()
	if err != nil || len(all) != 1 {
		t.Fatalf("list after reopen: %d, %v", len(all), err)
	}
}

func TestRegisterRoundTripsAllFields(t *testing.T) {
	cat, _ := newCatalog(t)
	in := SampleInfo{
		SampleTable: "orders_h", BaseTable: "Orders", Type: sqlparser.HashedSample,
		Ratio: 0.025, Columns: []string{"user_id"},
		SampleRows: 1234, BaseRows: 98765, Subsamples: 35, UniverseKeys: 321,
		BlockRows: 512, BlockCounts: []int64{512, 500, 222},
	}
	if err := cat.Register(in); err != nil {
		t.Fatal(err)
	}
	all, err := cat.List()
	if err != nil || len(all) != 1 {
		t.Fatalf("%d %v", len(all), err)
	}
	got := all[0]
	if got.SampleTable != "orders_h" || got.BaseTable != "orders" ||
		got.Type != sqlparser.HashedSample || got.Ratio != 0.025 ||
		len(got.Columns) != 1 || got.Columns[0] != "user_id" ||
		got.SampleRows != 1234 || got.BaseRows != 98765 ||
		got.Subsamples != 35 || got.UniverseKeys != 321 ||
		got.BlockRows != 512 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if len(got.BlockCounts) != 3 || got.BlockCounts[0] != 512 ||
		got.BlockCounts[1] != 500 || got.BlockCounts[2] != 222 {
		t.Fatalf("block counts mismatch: %v", got.BlockCounts)
	}
	if got.TotalBlockRows() != 1234 {
		t.Fatalf("TotalBlockRows: %d", got.TotalBlockRows())
	}
	if got.BlockPrefixRows(2) != 1012 || got.BlockPrefixRows(99) != 1234 {
		t.Fatalf("BlockPrefixRows: %d, %d", got.BlockPrefixRows(2), got.BlockPrefixRows(99))
	}

	// The durable SQL table survives a fresh catalog open (block metadata
	// included) — the Section 2.3 rediscovery property.
	cat2, err := Open(cat.db)
	if err != nil {
		t.Fatal(err)
	}
	all2, _ := cat2.List()
	if len(all2) != 1 || len(all2[0].BlockCounts) != 3 || all2[0].BlockRows != 512 {
		t.Fatalf("reopen lost block metadata: %+v", all2)
	}
}

func TestDropRemovesOnlyTarget(t *testing.T) {
	cat, _ := newCatalog(t)
	for _, name := range []string{"a", "b", "c"} {
		if err := cat.Register(SampleInfo{
			SampleTable: name, BaseTable: "t", Type: sqlparser.UniformSample,
			Ratio: 0.01, SampleRows: 10, BaseRows: 1000, Subsamples: 4,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.Drop("b"); err != nil {
		t.Fatal(err)
	}
	all, _ := cat.List()
	if len(all) != 2 {
		t.Fatalf("after drop: %d", len(all))
	}
	for _, si := range all {
		if si.SampleTable == "b" {
			t.Fatal("b still present")
		}
	}
	// Dropping a missing sample is a no-op.
	if err := cat.Drop("nope"); err != nil {
		t.Fatal(err)
	}
}

func TestForTableCaseInsensitive(t *testing.T) {
	cat, _ := newCatalog(t)
	if err := cat.Register(SampleInfo{
		SampleTable: "s", BaseTable: "Lineitem", Type: sqlparser.UniformSample,
		Ratio: 0.01, SampleRows: 10, BaseRows: 1000, Subsamples: 4,
	}); err != nil {
		t.Fatal(err)
	}
	got, err := cat.ForTable("LINEITEM")
	if err != nil || len(got) != 1 {
		t.Fatalf("case-insensitive lookup: %d %v", len(got), err)
	}
}

func TestEffectiveRatio(t *testing.T) {
	si := SampleInfo{SampleRows: 250, BaseRows: 10_000}
	if r := si.EffectiveRatio(); r != 0.025 {
		t.Fatalf("ratio %v", r)
	}
	if r := (SampleInfo{}).EffectiveRatio(); r != 0 {
		t.Fatalf("zero base ratio %v", r)
	}
}

func TestVersionBumpsOnMutation(t *testing.T) {
	cat, db := newCatalog(t)
	v0 := cat.Version()
	si := SampleInfo{
		SampleTable: "s1", BaseTable: "t", Type: sqlparser.UniformSample,
		Ratio: 0.01, SampleRows: 10, BaseRows: 1000, Subsamples: 4,
	}
	if err := cat.Register(si); err != nil {
		t.Fatal(err)
	}
	v1 := cat.Version()
	if v1 <= v0 {
		t.Fatalf("Register did not bump version: %d -> %d", v0, v1)
	}
	infos, vSnap := cat.Snapshot()
	if vSnap != v1 || len(infos) != 1 {
		t.Fatalf("snapshot: version %d (want %d), %d infos", vSnap, v1, len(infos))
	}
	if err := cat.Drop("s1"); err != nil {
		t.Fatal(err)
	}
	if cat.Version() <= v1 {
		t.Fatal("Drop did not bump version")
	}
	v2 := cat.Version()
	// Dropping a missing sample is a no-op and must not bump.
	if err := cat.Drop("nope"); err != nil {
		t.Fatal(err)
	}
	if cat.Version() != v2 {
		t.Fatal("no-op Drop bumped version")
	}
	// Reload picks up external SQL-level changes and bumps.
	cat2, err := Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := cat2.Register(si); err != nil {
		t.Fatal(err)
	}
	if err := cat.Reload(); err != nil {
		t.Fatal(err)
	}
	if cat.Version() <= v2 {
		t.Fatal("Reload did not bump version")
	}
	if all, _ := cat.List(); len(all) != 1 {
		t.Fatalf("Reload missed external registration: %d infos", len(all))
	}
}

func TestCatalogConcurrentReadersAndWriters(t *testing.T) {
	cat, _ := newCatalog(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			name := "s" + string(rune('a'+i%8))
			_ = cat.Register(SampleInfo{
				SampleTable: name, BaseTable: "t", Type: sqlparser.UniformSample,
				Ratio: 0.01, SampleRows: 10, BaseRows: 1000, Subsamples: 4,
			})
			_ = cat.Drop(name)
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := cat.List(); err != nil {
			t.Error(err)
			break
		}
		infos, v := cat.Snapshot()
		if v < 1 {
			t.Errorf("bad version %d", v)
			break
		}
		_ = infos
	}
	<-done
}

// TestCatalogConcurrentRegisters registers distinct samples from several
// goroutines at once. Each Register reads the snapshot, adds its entry and
// rewrites the catalog table, so unless writers serialize, entries are lost
// from the snapshot or from the table.
func TestCatalogConcurrentRegisters(t *testing.T) {
	cat, _ := newCatalog(t)
	const writers, each = 8, 8
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				err := cat.Register(SampleInfo{
					SampleTable: fmt.Sprintf("s%d_%d", w, i), BaseTable: "t", Type: sqlparser.UniformSample,
					Ratio: 0.01, SampleRows: 10, BaseRows: 1000, Subsamples: 4,
				})
				if err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if infos, _ := cat.Snapshot(); len(infos) != writers*each {
		t.Fatalf("snapshot holds %d samples after %d concurrent registers", len(infos), writers*each)
	}
	if err := cat.Reload(); err != nil {
		t.Fatal(err)
	}
	if infos, _ := cat.Snapshot(); len(infos) != writers*each {
		t.Fatalf("catalog table holds %d samples after %d concurrent registers", len(infos), writers*each)
	}
}

func TestEscapedNames(t *testing.T) {
	cat, _ := newCatalog(t)
	if err := cat.Register(SampleInfo{
		SampleTable: "weird's", BaseTable: "t", Type: sqlparser.UniformSample,
		Ratio: 0.01, SampleRows: 1, BaseRows: 10, Subsamples: 2,
	}); err != nil {
		t.Fatal(err)
	}
	all, err := cat.List()
	if err != nil || len(all) != 1 || all[0].SampleTable != "weird's" {
		t.Fatalf("quote escaping: %+v %v", all, err)
	}
}
