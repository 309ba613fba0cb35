//go:build faultinject

package engine

import (
	"errors"
	"testing"

	"verdictdb/internal/faultpoint"
	"verdictdb/internal/storage"
)

// Fault-injection coverage for the persistence layer. Each test arms one
// storage faultpoint site and proves the contract the storage layer owes its
// callers: failures surface as typed, wrapped errors (never panics), the
// engine keeps answering queries from whatever state is still good, and
// disarming the site restores full service with no duplicated or lost rows.
//
// Run with: go test -tags faultinject ./internal/engine -run Fault

// faultEnginePair returns a reference in-memory engine and an identical
// engine with a data directory attached (nothing flushed yet).
func faultEnginePair(t *testing.T) (mem, disk *Engine, dir string) {
	t.Helper()
	ownDataDir(t)
	faultpoint.Reset()
	mem = newPersistEngine(t, persistTotal)
	disk = newPersistEngine(t, persistTotal)
	dir = t.TempDir()
	if _, err := disk.AttachDataDir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = disk.Close() })
	t.Cleanup(faultpoint.Reset) // LIFO: disarm before Close's final flush
	return mem, disk, dir
}

// flushFaultContract drives the shared scenario for faults on the flush
// write path (segment write, segment fsync): the flush fails typed, no
// table state moves, queries keep working, and the retry after disarming
// persists exactly once.
func flushFaultContract(t *testing.T, site faultpoint.Site) {
	t.Helper()
	mem, disk, dir := faultEnginePair(t)
	boom := errors.New("injected: " + site.String())
	faultpoint.SetError(site, boom)

	err := disk.Flush()
	if !errors.Is(err, boom) {
		t.Fatalf("flush error does not wrap the injected fault: %v", err)
	}
	if faultpoint.Count(site) == 0 {
		t.Fatalf("site %s never hit", site)
	}
	tbl, lerr := disk.Lookup("t")
	if lerr != nil {
		t.Fatal(lerr)
	}
	if tbl.persisted != 0 {
		t.Fatalf("failed flush advanced persisted to %d", tbl.persisted)
	}
	// Queries still serve from the resident chunks while the disk is "down".
	expectParity(t, site.String()+"-armed", mem, disk)

	faultpoint.Clear(site)
	if err := disk.Flush(); err != nil {
		t.Fatalf("flush after disarming %s: %v", site, err)
	}
	if tbl.persisted != 5 {
		t.Fatalf("retry persisted %d chunks, want 5", tbl.persisted)
	}
	disk.DropChunkCache()
	expectParity(t, site.String()+"-cleared", mem, disk)

	// The retried flush must not have double-referenced any chunks: a fresh
	// open of the directory sees exactly the original row count.
	if err := disk.Close(); err != nil {
		t.Fatal(err)
	}
	re := NewSeeded(7)
	rep, err := re.AttachDataDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if rep.Rows != persistTotal || len(rep.Quarantined) != 0 {
		t.Fatalf("reopen after retried flush: %+v", rep)
	}
	expectParity(t, site.String()+"-reopen", mem, re)
}

func TestFaultSegmentWriteFlush(t *testing.T) {
	flushFaultContract(t, faultpoint.SiteStorageSegmentWrite)
}

func TestFaultSegmentFsyncFlush(t *testing.T) {
	flushFaultContract(t, faultpoint.SiteStorageSegmentFsync)
}

func TestFaultManifestWriteFlush(t *testing.T) {
	flushFaultContract(t, faultpoint.SiteStorageManifestWrite)
}

func TestFaultSegmentReadColdScan(t *testing.T) {
	mem, disk, _ := faultEnginePair(t)
	if err := disk.Flush(); err != nil {
		t.Fatal(err)
	}
	disk.DropChunkCache()
	boom := errors.New("injected: torn read")
	faultpoint.SetError(faultpoint.SiteStorageSegmentRead, boom)

	if _, err := disk.Query(persistQueries[0]); !errors.Is(err, boom) {
		t.Fatalf("cold scan error does not wrap the injected fault: %v", err)
	}
	// The engine object itself stays healthy: disarm and everything works.
	faultpoint.Clear(faultpoint.SiteStorageSegmentRead)
	expectParity(t, "read-fault-cleared", mem, disk)
}

func TestFaultChecksumTypedCorrupt(t *testing.T) {
	mem, disk, _ := faultEnginePair(t)
	if err := disk.Flush(); err != nil {
		t.Fatal(err)
	}
	disk.DropChunkCache()
	faultpoint.SetError(faultpoint.SiteStorageSegmentChecksum, errors.New("crc mismatch (injected)"))

	_, err := disk.Query(persistQueries[0])
	if err == nil {
		t.Fatal("checksum fault ignored on cold scan")
	}
	if !errors.Is(err, storage.ErrCorrupt) {
		t.Fatalf("checksum failure not typed as corruption: %v", err)
	}
	var ce *storage.CorruptError
	if !errors.As(err, &ce) || ce.Path == "" {
		t.Fatalf("corruption error carries no segment path: %v", err)
	}
	faultpoint.Clear(faultpoint.SiteStorageSegmentChecksum)
	expectParity(t, "checksum-fault-cleared", mem, disk)
}

// TestFaultChecksumQuarantineOnOpen proves recovery under pervasive checksum
// failures quarantines segments instead of panicking or refusing to open.
func TestFaultChecksumQuarantineOnOpen(t *testing.T) {
	ownDataDir(t)
	faultpoint.Reset()
	t.Cleanup(faultpoint.Reset)
	dir := t.TempDir()
	flushAndClose(t, dir)

	faultpoint.SetError(faultpoint.SiteStorageSegmentChecksum, errors.New("crc mismatch (injected)"))
	re := NewSeeded(7)
	rep, err := re.AttachDataDir(dir)
	if err != nil {
		t.Fatalf("recovery must quarantine, not fail: %v", err)
	}
	defer re.Close()
	if len(rep.Quarantined) == 0 {
		t.Fatal("no segments quarantined under checksum faults")
	}
	// The table exists and answers queries over whatever survived.
	mustQuery(t, re, "select count(*) from t")
	faultpoint.Clear(faultpoint.SiteStorageSegmentChecksum)
	mustQuery(t, re, "select count(*) from t")
}
