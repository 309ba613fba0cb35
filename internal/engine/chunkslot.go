package engine

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"

	"verdictdb/internal/storage"
)

// chunkSlot is one position in a chunk sequence. In a table's sealed-chunk
// sequence it is either a resident *chunk or a reference into an on-disk
// segment loaded on demand; in a join's output it is a probe slot (vecjoin.go),
// whose chunk is produced when it is loaded. A table's slot carries enough
// metadata (row count, per-column zone bounds) for planning and pruning
// without touching chunk data, so zone-map pruning of a terabyte table reads
// only manifests and footers.
type chunkSlot interface {
	// slotRows is the chunk's row count; a probe slot estimates it.
	slotRows() int
	// slotZone returns the column's zone summary (min, max over non-NULL
	// values; nil, nil for all-NULL columns). Only a table's slots are asked.
	slotZone(col int) (Value, Value)
	// load returns the chunk, reading and verifying its block from the segment
	// if not resident; the chunk's columns are decoded as they are touched
	// (chunk.col). qc may be nil (context-free table utilities). pb is the
	// loading worker's probe buffers, or nil: only a probe slot uses them, and
	// unless pb.keep the chunk it returns is valid until the worker's next load.
	load(qc *queryCtx, pb *probeBuf) (*chunk, error)
}

// Resident chunks are their own slot: load is the identity, so pure
// in-memory tables pay nothing for the indirection. (Only a table's own sealed
// chunks sit in a slot sequence that is pruned; a chunk loaded from a segment
// is never asked for its zone — its slot answers from the footer.)

func (c *chunk) slotRows() int { return c.n }

func (c *chunk) slotZone(col int) (Value, Value) {
	cv := &c.cols[col]
	return cv.min, cv.max
}

func (c *chunk) load(*queryCtx, *probeBuf) (*chunk, error) { return c, nil }

// segSlot is a chunk spilled to a segment file: loads go through the data
// directory's shared chunk cache, and a per-slot mutex collapses concurrent
// cold loads of the same chunk into one disk read.
//
// A load verifies the chunk's block once (storage.OpenChunk: read, CRC,
// structural walk — the only step that can fail) and returns a chunk that
// decodes a column when a scan first touches it (segFill), so a query reading 3
// of a table's 16 columns decodes, and the cache holds, those 3.
type segSlot struct {
	seg   *storage.Segment
	idx   int
	cache *chunkCache

	mu sync.Mutex // serializes cold loads of this slot
}

// meta is the chunk's footer entry: row count and, per column, kind, encoding
// and zone bounds — what is known of the chunk without reading its block.
func (s *segSlot) meta() *storage.ChunkMeta { return &s.seg.Meta.Chunks[s.idx] }

func (s *segSlot) slotRows() int { return s.meta().NRows }

func (s *segSlot) slotZone(col int) (Value, Value) {
	cm := &s.meta().Cols[col]
	return cm.Min, cm.Max
}

func (s *segSlot) load(*queryCtx, *probeBuf) (*chunk, error) {
	if ch := s.cache.get(s, true); ch != nil {
		return ch, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ch := s.cache.get(s, false); ch != nil {
		return ch, nil // a concurrent loader beat us to it
	}
	blk, err := s.seg.OpenChunk(s.idx)
	if err != nil {
		return nil, fmt.Errorf("engine: loading chunk %d of %s: %w", s.idx, s.seg.Path, err)
	}
	w := len(s.meta().Cols)
	ch := &chunk{n: blk.NRows(), cols: make([]colVec, w),
		lazy: &segFill{slot: s, blk: blk}, filled: make([]atomic.Bool, w)}
	s.cache.put(s, ch, chunkOverheadBytes+int64(blk.HeapBytes()))
	return ch, nil
}

// segFill fills a chunk from its verified segment block. The block refers to
// the segment's mapping, which outlives every chunk: segments, retired ones
// included, are closed only by Engine.Close (retireFileLocked). Decoded vectors
// do not refer to it.
type segFill struct {
	slot *segSlot
	blk  storage.Block
}

func (f *segFill) fillCol(c *chunk, j int) {
	col := f.blk.DecodeCol(j)
	cv := &c.cols[j]
	cv.fromStorage(&col)
	f.slot.cache.grow(f.slot, c, colBytes(cv))
}

func (f *segFill) kindOf(_ *chunk, j int) ColType { return ColType(f.slot.meta().Cols[j].Kind) }

func (f *segFill) cellAt(c *chunk, j, i int) Value { return c.col(j).value(i) }

// chunkCache is the data directory's LRU over segment chunks, bounded by
// the bytes of the columns decoded in them: an entry starts at a chunk's fixed
// overhead and grows as its columns are decoded. Its resident bytes are
// accounted on the same memGauge type the per-query budget uses, but the policy
// differs deliberately: going over capacity evicts the least-recently-used
// chunks instead of aborting anything — eviction is always possible because
// sealed chunks are immutable and reloadable. In-flight scans holding an
// evicted chunk keep it alive, and keep decoding its columns, via ordinary GC
// reachability; the cache only controls how long chunks stay warm.
type chunkCache struct {
	mu    sync.Mutex
	cap   int64
	gauge memGauge // resident decoded bytes (estimate, see chunkBytes)

	ll    *list.List                 //verdict:guardedby mu
	items map[*segSlot]*list.Element //verdict:guardedby mu

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	decoded   atomic.Int64
}

type cacheEntry struct {
	slot  *segSlot
	ch    *chunk
	bytes int64
}

// defaultChunkCacheBytes bounds the decoded columns kept warm per data
// directory when the application sets no explicit capacity.
const defaultChunkCacheBytes = 256 << 20

func newChunkCache(capBytes int64) *chunkCache {
	if capBytes <= 0 {
		capBytes = defaultChunkCacheBytes
	}
	return &chunkCache{cap: capBytes, ll: list.New(), items: map[*segSlot]*list.Element{}}
}

// get returns s's resident chunk, counting a hit, or nil. countMiss is false
// for a loader's re-check under its slot mutex: that load's miss is already
// counted.
func (c *chunkCache) get(s *segSlot, countMiss bool) *chunk {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[s]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*cacheEntry).ch
	}
	if countMiss {
		c.misses.Add(1)
	}
	return nil
}

// put makes ch resident for s at bytes — what of it is built now.
func (c *chunkCache) put(s *segSlot, ch *chunk, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[s]; ok {
		return
	}
	c.gauge.add(bytes)
	c.items[s] = c.ll.PushFront(&cacheEntry{slot: s, ch: ch, bytes: bytes}) //verdict:nocharge cache residency is accounted on the cache's own gauge (the add above), evicted not aborted
	c.shrinkLocked()
}

// grow charges bytes more to s's entry: ch just decoded a column. A chunk the
// cache no longer holds (evicted while a scan still reads it) grows uncharged.
func (c *chunkCache) grow(s *segSlot, ch *chunk, bytes int64) {
	c.decoded.Add(1)
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[s]
	if !ok || el.Value.(*cacheEntry).ch != ch {
		return
	}
	el.Value.(*cacheEntry).bytes += bytes
	c.gauge.add(bytes)
	c.ll.MoveToFront(el)
	c.shrinkLocked()
}

// shrinkLocked evicts from the cold end down to capacity. The entry just
// inserted or grown is at the front, so it goes last, and only when it alone
// is over capacity: such a chunk is served, never cached.
//
//verdict:locked mu
func (c *chunkCache) shrinkLocked() {
	for c.gauge.used.Load() > c.cap {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.evictLocked(back)
	}
}

//verdict:locked mu
func (c *chunkCache) evictLocked(el *list.Element) {
	en := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.items, en.slot)
	c.gauge.add(-en.bytes)
	c.evictions.Add(1)
}

// drop removes one slot's entry (compaction retires its segment).
func (c *chunkCache) drop(s *segSlot) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[s]; ok {
		c.evictLocked(el)
	}
}

// dropAll empties the cache — the cold-scan knob benches and tests use.
func (c *chunkCache) dropAll() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Back(); el != nil; el = c.ll.Back() {
		c.evictLocked(el)
	}
}

// setCap adjusts capacity, evicting down to the new bound.
func (c *chunkCache) setCap(capBytes int64) {
	if capBytes <= 0 {
		capBytes = defaultChunkCacheBytes
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cap = capBytes
	c.shrinkLocked()
}

// ChunkCacheStats reports the chunk cache's cumulative counters and
// current residency.
type ChunkCacheStats struct {
	Hits           int64 // chunk lookups served from the cache
	Misses         int64 // chunk loads: one block read, checksummed and walked
	Evictions      int64
	ColumnsDecoded int64 // chunk-columns decoded, each on its first touch
	Resident       int64 // estimated bytes of the decoded columns currently cached
	Entries        int
}

func (c *chunkCache) stats() ChunkCacheStats {
	c.mu.Lock()
	entries := len(c.items)
	resident := c.gauge.used.Load()
	c.mu.Unlock()
	return ChunkCacheStats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Evictions:      c.evictions.Load(),
		ColumnsDecoded: c.decoded.Load(),
		Resident:       resident,
		Entries:        entries,
	}
}

// chunkOverheadBytes is what a cached chunk is charged before any column.
const chunkOverheadBytes = 64

// chunkBytes estimates a chunk's resident footprint for cache accounting: the
// fixed overhead plus colBytes of every column. It reads cols as they are, so
// a column not decoded yet counts nothing.
func chunkBytes(ch *chunk) int64 {
	b := int64(chunkOverheadBytes)
	for j := range ch.cols {
		b += colBytes(&ch.cols[j])
	}
	return b
}

// colBytes estimates one stored column's footprint: vector backing arrays
// (a string block is its bytes and offsets, if it has any; a code is a byte)
// plus dictionary entries and per-box overhead, matching the flat-cost
// philosophy of the query gauge.
func colBytes(c *colVec) int64 {
	b := int64(len(c.ints))*8 + int64(len(c.floats))*8 +
		int64(len(c.bools)) + int64(len(c.nulls)) +
		int64(len(c.sbytes)) + int64(len(c.soffs))*4 +
		int64(len(c.codes)) + int64(len(c.runEnds))*4 +
		int64(len(c.packed))*8 + int64(len(c.anys))*bytesPerValue
	for _, s := range c.dict {
		b += int64(len(s)) + 16 + bytesPerValue // entry + shared box
	}
	return b
}

// chunkToStorage mirrors a sealed chunk into the storage package's neutral
// form. Slice headers are shared, not copied — the same bytes that serve
// in-memory scans are what the segment writer serializes.
func chunkToStorage(ch *chunk) *storage.Chunk {
	sc := &storage.Chunk{NRows: ch.n, Cols: make([]storage.Col, len(ch.cols))}
	for j := range ch.cols {
		c := &ch.cols[j]
		sc.Cols[j] = storage.Col{
			Kind: uint8(c.kind), Enc: uint8(c.enc),
			Nulls: c.nulls, Min: c.min, Max: c.max,
			Ints: c.ints, Floats: c.floats, StrBytes: c.sbytes, StrOffs: c.soffs, StrWidth: c.sw,
			Bools: c.bools, Anys: c.anys,
			Dict: c.dict, Codes: c.codes, RunEnds: c.runEnds,
			Base: c.base, Width: c.width, Exp: c.exp, Packed: c.packed,
		}
	}
	return sc
}

// chunkFromStorage rebuilds a whole engine chunk from its stored form.
func chunkFromStorage(sc *storage.Chunk) *chunk {
	ch := &chunk{n: sc.NRows, cols: make([]colVec, len(sc.Cols))}
	for j := range sc.Cols {
		ch.cols[j].fromStorage(&sc.Cols[j])
	}
	return ch
}

// fromStorage sets cv to a stored column, sharing its vectors and re-deriving
// the state the format deliberately omits (shared dictionary boxes; dict zone
// bounds reuse them, byte-identical to seal time).
func (cv *colVec) fromStorage(c *storage.Col) {
	*cv = colVec{
		kind: ColType(c.Kind), enc: colEnc(c.Enc),
		nulls: c.Nulls, min: c.Min, max: c.Max,
		ints: c.Ints, floats: c.Floats, sbytes: c.StrBytes, soffs: c.StrOffs, sw: c.StrWidth,
		bools: c.Bools, anys: c.Anys,
		dict: c.Dict, codes: c.Codes, runEnds: c.RunEnds,
		base: c.Base, width: c.Width, exp: c.Exp, packed: c.Packed,
	}
	if cv.enc == encDict {
		cv.dictBoxed = boxStrings(cv.dict)
		if n := len(cv.dict); n > 0 {
			cv.min, cv.max = cv.dictBoxed[0], cv.dictBoxed[n-1]
		}
	}
}
