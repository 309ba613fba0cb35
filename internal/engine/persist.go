package engine

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"verdictdb/internal/storage"
)

// Persistent segment storage. An engine optionally owns a data directory:
// sealed chunks are flushed into immutable segment files (storage package
// format), the open tail is mirrored into a single-chunk tail segment, and
// a versioned manifest commits each flush atomically. Reads go back through
// chunkSlot (chunkslot.go): flushed chunks become segSlots served from an
// LRU cache, so a table's working set — not its full size — bounds memory.
//
// Lock ordering: dataDir.mu strictly before Engine.mu. The flusher holds
// dd.mu across a whole cycle (snapshot under e.mu.RLock, file writes with
// no engine lock, slot swap under e.mu.Lock); appendRow holds e.mu and
// never touches dd. DropTable stays e.mu-only — the next flush reconciles
// the manifest, so a drop is durable one flush later.

// flushInterval is the background flusher's cycle period.
const flushInterval = 2 * time.Second

// compactMinSegments triggers compaction: a table whose sealed chunks are
// spread over at least this many segment files gets them rewritten into one.
const compactMinSegments = 8

// spillEnv forces eager spilling: every bulk insert flushes sealed chunks
// to a lazily created temporary data directory and drops them from memory,
// so the parity suites exercise the cold segment-read path end to end.
// Scoped like ENGINE_FORCE_ENCODINGS — a CI leg runs the workload suites
// under it.
const spillEnv = "ENGINE_SPILL"

func spillForced() bool { return os.Getenv(spillEnv) != "" }

// dataDir is the engine's attached storage directory.
type dataDir struct {
	dir   string
	cache *chunkCache
	temp  bool // ENGINE_SPILL scratch dir: skip manifest durability, remove at Close

	// mu serializes flush, compaction, and close against each other and
	// protects the manifest and segment registry. Always acquired before
	// (never under) Engine.mu.
	mu      sync.Mutex
	man     *storage.Manifest           // guarded by mu
	segs    map[string]*storage.Segment // guarded by mu: live data segments by base name
	retired []*storage.Segment          // guarded by mu: unlinked but possibly still referenced by query snapshots

	// ctx cancels in-flight flush/compaction work at Close; stop/done
	// bracket the background flusher goroutine (nil when not started).
	ctx    context.Context
	cancel context.CancelFunc
	stop   chan struct{}
	done   chan struct{}

	flushErr error // guarded by mu: last background flush failure
}

// RecoveryReport summarizes what AttachDataDir found on disk.
type RecoveryReport struct {
	Tables      int      // tables recovered from the manifest
	Segments    int      // data segments opened and verified
	Rows        int      // total rows recovered (sealed + tail)
	Quarantined []string // segment base names set aside as corrupt
	Orphans     []string // unreferenced segment files removed
}

// AttachDataDir opens (or creates) a data directory, replays its manifest
// into the engine, verifies every referenced segment's checksums —
// quarantining torn or corrupt ones rather than failing the open — and
// starts the background flusher. Recovered tables must not collide with
// tables already in the engine.
func (e *Engine) AttachDataDir(dir string) (*RecoveryReport, error) {
	dd, rep, err := e.openDataDir(dir, false)
	if err != nil {
		return nil, err
	}
	if !e.dd.CompareAndSwap(nil, dd) {
		dd.closeSegments()
		return nil, fmt.Errorf("engine: data directory already attached")
	}
	dd.startFlusher(e)
	return rep, nil
}

// openDataDir loads the manifest, opens and verifies segments, registers
// recovered tables, and returns the ready-to-attach dataDir.
func (e *Engine) openDataDir(dir string, temp bool) (*dataDir, *RecoveryReport, error) {
	man, err := storage.LoadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	ctx, cancel := context.WithCancel(context.Background()) //verdict:ctx-shim data-directory lifetime root: flush/compaction outlive any one query; Close cancels it
	dd := &dataDir{
		dir:    dir,
		cache:  newChunkCache(0),
		temp:   temp,
		man:    man,
		segs:   make(map[string]*storage.Segment),
		ctx:    ctx,
		cancel: cancel,
	}
	rep := &RecoveryReport{}
	recovered := make([]*Table, 0, len(man.Tables))
	for _, tm := range man.Tables {
		t, err := dd.recoverTable(tm, rep)
		if err != nil {
			cancel()
			dd.closeSegments()
			return nil, nil, err
		}
		recovered = append(recovered, t)
	}
	rep.Tables = len(recovered)
	// Recovery dropped quarantined refs from the in-memory manifest; commit
	// that so the next open does not re-verify known-bad files.
	if len(rep.Quarantined) > 0 && !temp {
		if err := storage.SaveManifest(dir, man); err != nil {
			cancel()
			dd.closeSegments()
			return nil, nil, err
		}
	}
	rep.Orphans = dd.sweepOrphans()
	if err := e.registerRecovered(recovered); err != nil {
		cancel()
		dd.closeSegments()
		return nil, nil, err
	}
	return dd, rep, nil
}

// recoverTable rebuilds one table from its manifest entry: open and verify
// each data segment (quarantining failures and dropping their refs), then
// decode the tail segment back into open rows.
func (dd *dataDir) recoverTable(tm *storage.TableManifest, rep *RecoveryReport) (*Table, error) {
	cols := make([]Column, len(tm.Columns))
	for i, cd := range tm.Columns {
		cols[i] = Column{Name: cd.Name, Type: ColType(cd.Type)}
	}
	t := &Table{Name: tm.Name, Cols: cols}
	t.initColIndex()

	kept := tm.Segments[:0]
	for _, ref := range tm.Segments {
		seg, err := dd.openVerified(filepath.Join(dd.dir, ref.File), len(cols))
		if err != nil {
			rep.Quarantined = append(rep.Quarantined, ref.File) //verdict:nocharge recovery report, bounded by segment files on disk
			continue
		}
		//verdict:nocharge open-time segment registry and table slots, bounded by files on disk, not query state
		dd.segs[ref.File] = seg
		for i := range seg.Meta.Chunks {
			t.sealed = append(t.sealed, &segSlot{seg: seg, idx: i, cache: dd.cache}) //verdict:nocharge recovered table slots, charged per load via the chunk cache
			t.nrows += seg.Meta.Chunks[i].NRows
		}
		kept = append(kept, ref)
		rep.Segments++
	}
	tm.Segments = kept

	if tm.Tail != nil {
		rows, err := dd.recoverTail(filepath.Join(dd.dir, tm.Tail.File), len(cols))
		if err != nil {
			rep.Quarantined = append(rep.Quarantined, tm.Tail.File) //verdict:nocharge recovery report, one entry per table
			tm.Tail = nil
		} else {
			t.tail = rows
			t.nrows += len(rows)
		}
	}
	t.persisted = len(t.sealed)
	t.flushedTailSeals = len(t.sealed)
	t.flushedTailLen = len(t.tail)
	rep.Rows += t.nrows
	return t, nil
}

// openVerified opens a segment and runs the full checksum pass plus shape
// checks; any failure quarantines the file (rename to .quarantined) and
// reports an error.
func (dd *dataDir) openVerified(path string, ncols int) (*storage.Segment, error) {
	seg, err := storage.OpenSegment(path)
	if err != nil {
		quarantinePath(path)
		return nil, err
	}
	if seg.Meta.NCols != ncols {
		seg.Quarantine()
		return nil, &storage.CorruptError{Path: path, Detail: fmt.Sprintf("segment has %d columns, table has %d", seg.Meta.NCols, ncols)}
	}
	if err := seg.VerifyChecksums(); err != nil {
		seg.Quarantine()
		return nil, err
	}
	return seg, nil
}

// quarantinePath renames a file that could not even be opened as a segment.
func quarantinePath(path string) {
	_ = os.Rename(path, path+".quarantined")
}

// recoverTail reads a tail segment (one unencoded chunk) back into boxed
// rows and closes it — tail segments are only ever read here.
func (dd *dataDir) recoverTail(path string, ncols int) ([][]Value, error) {
	seg, err := dd.openVerified(path, ncols)
	if err != nil {
		return nil, err
	}
	defer seg.Close()
	if len(seg.Meta.Chunks) != 1 {
		seg.Quarantine()
		return nil, &storage.CorruptError{Path: path, Detail: fmt.Sprintf("tail segment has %d chunks, want 1", len(seg.Meta.Chunks))}
	}
	sc, err := seg.ReadChunk(0)
	if err != nil {
		seg.Quarantine()
		return nil, err
	}
	ch, _ := storedOf(sc).load(nil, nil)
	rows := make([][]Value, ch.n)
	for i := range rows {
		rows[i] = ch.materializeRow(i)
	}
	return rows, nil
}

// sweepOrphans removes .seg files the manifest does not reference —
// leftovers of flushes that crashed before their manifest commit.
// Quarantined files are kept for inspection.
func (dd *dataDir) sweepOrphans() []string {
	entries, err := os.ReadDir(dd.dir)
	if err != nil {
		return nil
	}
	live := dd.man.LiveFiles()
	var removed []string
	for _, en := range entries {
		name := en.Name()
		if !strings.HasSuffix(name, storage.SegmentExt) || live[name] {
			continue
		}
		if os.Remove(filepath.Join(dd.dir, name)) == nil {
			removed = append(removed, name)
		}
	}
	return removed
}

// registerRecovered installs recovered tables into the engine's catalog.
func (e *Engine) registerRecovered(tables []*Table) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, t := range tables {
		key := strings.ToLower(t.Name)
		if _, ok := e.tables[key]; ok {
			return fmt.Errorf("engine: recovered table %q collides with existing table", t.Name)
		}
	}
	for _, t := range tables {
		e.tables[strings.ToLower(t.Name)] = t //verdict:nocharge catalog entries recovered once at open, not query state
	}
	return nil
}

// startFlusher launches the periodic flush/compaction goroutine. Spill
// scratch directories skip it — spilling there is synchronous.
func (dd *dataDir) startFlusher(e *Engine) {
	if dd.temp {
		return
	}
	dd.stop = make(chan struct{})
	dd.done = make(chan struct{})
	go func() {
		defer close(dd.done)
		tick := time.NewTicker(flushInterval)
		defer tick.Stop()
		for {
			select {
			case <-dd.stop:
				return
			case <-tick.C:
			}
			qc := &queryCtx{ctx: dd.ctx, query: "(background flush)"}
			err := dd.flushAndCompact(e, qc, true)
			dd.mu.Lock()
			dd.flushErr = err
			dd.mu.Unlock()
		}
	}()
}

// Flush forces a synchronous flush of all sealed-but-unflushed chunks and
// dirty tails, committing the manifest. No-op without a data directory.
func (e *Engine) Flush() error {
	dd := e.dd.Load()
	if dd == nil {
		return nil
	}
	return dd.flushAndCompact(e, nil, true)
}

// LastFlushError reports the most recent background flush failure (nil
// when the last cycle succeeded or no directory is attached).
func (e *Engine) LastFlushError() error {
	dd := e.dd.Load()
	if dd == nil {
		return nil
	}
	dd.mu.Lock()
	defer dd.mu.Unlock()
	return dd.flushErr
}

func (dd *dataDir) flushAndCompact(e *Engine, qc *queryCtx, warmCache bool) error {
	dd.mu.Lock()
	defer dd.mu.Unlock()
	if err := dd.flushLocked(e, qc, warmCache); err != nil {
		return err
	}
	return dd.compactLocked(e, qc)
}

// flushWork is one table's flush snapshot, taken under e.mu.RLock.
type flushWork struct {
	t         *Table
	key       string
	cols      []Column
	slots     []chunkSlot
	persisted int
	tail      [][]Value
	tailDirty bool

	segFile   string // written data segment ("" when no new chunks)
	newChunks []*storedChunk
	tailFile  string // written tail segment ("" when tail empty or clean)
}

// flushLocked (dd.mu held) writes unflushed sealed chunks and dirty tails
// to segment files, commits the manifest, then swaps the flushed chunks'
// table slots to segment-backed ones. Crash ordering: segment files are
// fsynced before the manifest commit, and files orphaned by a crash in
// between are swept at next open.
func (dd *dataDir) flushLocked(e *Engine, qc *queryCtx, warmCache bool) error {
	work, dropped := dd.snapshotFlush(e)
	if len(work) == 0 && len(dropped) == 0 {
		return nil
	}

	// In-memory manifest edits are only durable after saveManifestLocked.
	// Any pre-commit failure must undo them, or a retried flush would write
	// the same chunks into a second segment and commit references to both,
	// duplicating rows at the next open. Files already written stay behind
	// as orphans; the next open sweeps them.
	var undo []func()
	rollback := func(err error) error {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
		return err
	}

	var replacedTails []string
	for i := range work {
		w := &work[i]
		if err := qc.pollAbort(); err != nil {
			return rollback(err)
		}
		tm := dd.manifestTable(w.t.Name, w.cols)
		if len(w.slots) > w.persisted {
			w.newChunks = make([]*storedChunk, 0, len(w.slots)-w.persisted)
			scs := make([]*storage.Chunk, 0, len(w.slots)-w.persisted)
			rows := 0
			for _, sl := range w.slots[w.persisted:] {
				ch := sl.(*storedChunk) // invariant: slots past persisted are resident
				w.newChunks = append(w.newChunks, ch)
				scs = append(scs, chunkToStorage(ch))
				rows += ch.n
			}
			file := dd.nextSegFile(tm)
			if err := storage.WriteSegment(filepath.Join(dd.dir, file), len(w.cols), scs); err != nil {
				return rollback(err)
			}
			nsegs := len(tm.Segments)
			tm.Segments = append(tm.Segments, storage.SegmentRef{File: file, Chunks: len(scs), Rows: rows})
			undo = append(undo, func() { tm.Segments = tm.Segments[:nsegs] })
			w.segFile = file
		}
		if w.tailDirty {
			oldTail := tm.Tail
			undo = append(undo, func() { tm.Tail = oldTail })
			if tm.Tail != nil {
				replacedTails = append(replacedTails, tm.Tail.File)
				tm.Tail = nil
			}
			if len(w.tail) > 0 {
				tch := buildChunk(w.tail, len(w.cols)) // flush-side staging, freed when the flush returns
				file := dd.nextSegFile(tm)
				scs := []*storage.Chunk{{NRows: tch.n, Cols: make([]storage.Col, len(tch.cols))}}
				for j := range tch.cols {
					scs[0].Cols[j] = tch.cols[j].mirror(storage.Zone{})
				}
				if err := storage.WriteSegment(filepath.Join(dd.dir, file), len(w.cols), scs); err != nil {
					return rollback(err)
				}
				tm.Tail = &storage.SegmentRef{File: file, Chunks: 1, Rows: len(w.tail)}
				w.tailFile = file
			}
		}
	}
	for _, name := range dropped {
		dd.dropTableLocked(name)
	}
	if err := dd.saveManifestLocked(); err != nil {
		return rollback(err)
	}

	// Manifest committed: open the new data segments and swap table slots.
	for i := range work {
		w := &work[i]
		if w.segFile == "" {
			continue
		}
		seg, err := storage.OpenSegment(filepath.Join(dd.dir, w.segFile))
		if err != nil {
			return err
		}
		dd.segs[w.segFile] = seg
		dd.installSlots(e, w, seg, warmCache)
	}
	// Tail bookkeeping for tables whose only change was the tail.
	e.mu.Lock()
	for i := range work {
		w := &work[i]
		if w.tailDirty && e.tables[w.key] == w.t {
			w.t.flushedTailSeals = len(w.slots)
			w.t.flushedTailLen = len(w.tail)
		}
	}
	e.mu.Unlock()

	for _, f := range replacedTails {
		_ = os.Remove(filepath.Join(dd.dir, f))
	}
	return nil
}

// snapshotFlush collects, under e.mu.RLock, every table with unflushed
// state, plus manifest tables that no longer exist in the engine.
// The caller holds dd.mu.
func (dd *dataDir) snapshotFlush(e *Engine) ([]flushWork, []string) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	keys := make([]string, 0, len(e.tables))
	for k := range e.tables {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var work []flushWork
	for _, k := range keys {
		t := e.tables[k]
		tailDirty := len(t.sealed) != t.flushedTailSeals || len(t.tail) != t.flushedTailLen
		if dd.temp {
			// Spill scratch directories only exist to serve sealed chunks
			// from disk; they are never reopened, so the tail needs no
			// durability (a tail segment per insert would fsync constantly).
			tailDirty = false
		}
		if len(t.sealed) == t.persisted && !tailDirty {
			continue
		}
		work = append(work, flushWork{
			t: t, key: k, cols: t.Cols,
			slots: t.sealed, persisted: t.persisted,
			tail: t.tail, tailDirty: tailDirty,
		})
	}
	var dropped []string
	for _, tm := range dd.man.Tables {
		if _, ok := e.tables[strings.ToLower(tm.Name)]; !ok {
			dropped = append(dropped, tm.Name)
		}
	}
	return work, dropped
}

// installSlots swaps a table's freshly flushed chunks to segment-backed
// slots under e.mu.Lock, optionally pre-warming the cache with the chunks
// that are already in memory (spill mode skips the warm-up so reads go
// cold through the disk path). The swap is copy-on-write: running queries
// read their snapshot of t.sealed without the lock, so a published slot
// slice is never written again.
func (dd *dataDir) installSlots(e *Engine, w *flushWork, seg *storage.Segment, warmCache bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.tables[w.key] != w.t {
		return // dropped (or replaced) while flushing; reconciled next cycle
	}
	sealed := append([]chunkSlot(nil), w.t.sealed...)
	// O(#flushed chunks) pointer swaps under e.mu — no row work, must not abort half-swapped
	for i, ch := range w.newChunks {
		s := &segSlot{seg: seg, idx: i, cache: dd.cache}
		sealed[w.persisted+i] = s
		if warmCache {
			dd.cache.put(&cacheEntry{slot: s, ch: ch, bytes: ch.bytes()})
		}
	}
	w.t.sealed = sealed
	w.t.persisted = w.persisted + len(w.newChunks)
}

// manifestTable returns (creating if needed) the table's manifest entry,
// refreshing its schema.
// The caller holds dd.mu.
func (dd *dataDir) manifestTable(name string, cols []Column) *storage.TableManifest {
	tm := dd.man.Table(name)
	if tm == nil {
		tm = &storage.TableManifest{Name: name}
		dd.man.Tables = append(dd.man.Tables, tm) //verdict:nocharge manifest metadata, one entry per table
	}
	tm.Columns = tm.Columns[:0]
	for _, c := range cols {
		tm.Columns = append(tm.Columns, storage.ColumnDef{Name: c.Name, Type: uint8(c.Type)}) //verdict:nocharge manifest metadata, one entry per column
	}
	return tm
}

// nextSegFile allocates a fresh segment file name for the table, skipping
// any name already live in the manifest (distinct tables can sanitize to
// the same prefix).
// The caller holds dd.mu.
func (dd *dataDir) nextSegFile(tm *storage.TableManifest) string {
	live := dd.man.LiveFiles()
	for {
		name := fmt.Sprintf("%s-%d%s", sanitizeFileName(tm.Name), tm.NextGen, storage.SegmentExt)
		tm.NextGen++
		if !live[name] {
			return name
		}
	}
}

// sanitizeFileName maps a table name onto a safe file-name prefix.
func sanitizeFileName(name string) string {
	var b strings.Builder
	for _, r := range strings.ToLower(name) {
		if r >= 'a' && r <= 'z' || r >= '0' && r <= '9' || r == '_' {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// dropTableLocked removes a table's manifest entry and retires its files.
// The caller holds dd.mu.
func (dd *dataDir) dropTableLocked(name string) {
	tm := dd.man.Table(name)
	if tm == nil {
		return
	}
	for _, ref := range tm.Segments {
		dd.retireFileLocked(ref.File)
	}
	if tm.Tail != nil {
		_ = os.Remove(filepath.Join(dd.dir, tm.Tail.File))
	}
	dd.man.DropTable(name)
}

// retireFileLocked unlinks a data segment but keeps its handle open on the
// retired list: query snapshots taken before the retirement may still hold
// segSlots into it, and chunks loaded from it decode their columns from its
// mapping on first touch (segFill), so it stays open — an open descriptor
// keeps the unlinked inode readable — until Engine.Close. Cache entries for
// retired slots age out via LRU.
// The caller holds dd.mu.
func (dd *dataDir) retireFileLocked(file string) {
	if seg, ok := dd.segs[file]; ok {
		dd.retired = append(dd.retired, seg) //verdict:nocharge open-descriptor bookkeeping, bounded by retired segment files
		delete(dd.segs, file)
	}
	_ = os.Remove(filepath.Join(dd.dir, file))
}

// saveManifestLocked commits the manifest unless this is a spill scratch
// directory (never reopened, so durability is skipped for speed).
// The caller holds dd.mu.
func (dd *dataDir) saveManifestLocked() error {
	if dd.temp {
		dd.man.Version++
		return nil
	}
	return storage.SaveManifest(dd.dir, dd.man)
}

// compactLocked (dd.mu held) rewrites any table whose sealed chunks sprawl
// across compactMinSegments or more files into a single segment, then
// retires the originals. Pure storage-level rewrite: chunk bytes round-trip
// through the storage codec unchanged.
func (dd *dataDir) compactLocked(e *Engine, qc *queryCtx) error {
	for ti := range dd.man.Tables {
		tm := dd.man.Tables[ti]
		if len(tm.Segments) < compactMinSegments {
			continue
		}
		if err := qc.pollAbort(); err != nil {
			return err
		}
		var scs []*storage.Chunk
		nchunks, nrows := 0, 0
		for _, ref := range tm.Segments {
			seg := dd.segs[ref.File]
			if seg == nil {
				return fmt.Errorf("engine: compacting %s: segment %s not open", tm.Name, ref.File)
			}
			for i := range seg.Meta.Chunks {
				if err := qc.pollAbort(); err != nil {
					return err
				}
				sc, err := seg.ReadChunk(i)
				if err != nil {
					return err
				}
				scs = append(scs, sc)
				nrows += seg.Meta.Chunks[i].NRows
			}
			nchunks += ref.Chunks
		}
		file := dd.nextSegFile(tm)
		if err := storage.WriteSegment(filepath.Join(dd.dir, file), len(tm.Columns), scs); err != nil {
			return err
		}
		old := tm.Segments
		tm.Segments = []storage.SegmentRef{{File: file, Chunks: nchunks, Rows: nrows}}
		if err := dd.saveManifestLocked(); err != nil {
			// Roll back the in-memory manifest; the written file becomes an
			// orphan swept at next open.
			tm.Segments = old
			return err
		}
		seg, err := storage.OpenSegment(filepath.Join(dd.dir, file))
		if err != nil {
			return err
		}
		dd.segs[file] = seg
		dd.swapCompacted(e, tm.Name, nchunks, seg)
		for _, ref := range old {
			dd.retireFileLocked(ref.File)
		}
	}
	return nil
}

// swapCompacted repoints a table's persisted slots at the compacted
// segment. The persisted prefix is exactly the chunks compaction read —
// flushes are serialized under dd.mu and appends only grow the resident
// suffix.
func (dd *dataDir) swapCompacted(e *Engine, name string, nchunks int, seg *storage.Segment) {
	e.mu.Lock()
	defer e.mu.Unlock()
	t, ok := e.tables[strings.ToLower(name)]
	if !ok || t.persisted != nchunks {
		return
	}
	sealed := append([]chunkSlot(nil), t.sealed...) // copy-on-write, as in installSlots
	for i := 0; i < nchunks; i++ {
		if old, ok := sealed[i].(*segSlot); ok {
			dd.cache.drop(old)
		}
		sealed[i] = &segSlot{seg: seg, idx: i, cache: dd.cache}
	}
	t.sealed = sealed
}

// maybeSpill eagerly flushes after a bulk insert when ENGINE_SPILL is set,
// lazily attaching a scratch data directory on first use. Flushed chunks
// are not pre-warmed into the cache, so subsequent scans take the cold
// disk path the knob exists to exercise.
func (e *Engine) maybeSpill() {
	if !spillForced() {
		return
	}
	dd := e.dd.Load()
	if dd == nil {
		dir, err := os.MkdirTemp("", "verdictdb-spill-")
		if err != nil {
			return
		}
		ndd, _, err := e.openDataDir(dir, true)
		if err != nil {
			_ = os.RemoveAll(dir)
			return
		}
		if !e.dd.CompareAndSwap(nil, ndd) {
			ndd.closeSegments()
			_ = os.RemoveAll(dir)
		}
		dd = e.dd.Load()
	}
	_ = dd.flushAndCompact(e, nil, false)
}

// SetChunkCacheBytes bounds the chunk cache's decoded columns (<= 0 restores the
// default). No-op without a data directory.
func (e *Engine) SetChunkCacheBytes(n int64) {
	if dd := e.dd.Load(); dd != nil {
		dd.cache.setCap(n)
	}
}

// ChunkCache reports cache counters (zero stats without a data directory).
func (e *Engine) ChunkCache() ChunkCacheStats {
	if dd := e.dd.Load(); dd != nil {
		return dd.cache.stats()
	}
	return ChunkCacheStats{}
}

// DropChunkCache empties the chunk cache — the cold-scan switch
// for benchmarks and tests.
func (e *Engine) DropChunkCache() {
	if dd := e.dd.Load(); dd != nil {
		dd.cache.dropAll()
	}
}

// DataDirAttached reports whether the engine has a storage directory.
func (e *Engine) DataDirAttached() bool { return e.dd.Load() != nil }

// Close detaches and shuts down the data directory: stop the flusher, run
// a final flush so everything appended since the last cycle is durable,
// and close every open segment. Engines without a data directory need no
// Close. Safe to call twice.
func (e *Engine) Close() error {
	dd := e.dd.Load()
	if dd == nil || !e.dd.CompareAndSwap(dd, nil) {
		return nil
	}
	if dd.stop != nil {
		close(dd.stop)
		<-dd.done
	}
	var err error
	if !dd.temp {
		err = dd.flushAndCompact(e, nil, true)
	}
	dd.cancel()
	dd.mu.Lock()
	dd.cache.dropAll()
	dd.mu.Unlock()
	dd.closeSegments()
	if dd.temp {
		_ = os.RemoveAll(dd.dir)
	}
	return err
}

// closeSegments closes every open segment handle, live and retired.
func (dd *dataDir) closeSegments() {
	dd.mu.Lock()
	defer dd.mu.Unlock()
	names := make([]string, 0, len(dd.segs))
	for name := range dd.segs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		_ = dd.segs[name].Close()
		delete(dd.segs, name)
	}
	for _, seg := range dd.retired {
		_ = seg.Close()
	}
	dd.retired = nil
}
