package engine

import (
	"container/list"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"
	"weak"

	"verdictdb/internal/storage"
)

// chunkSlot is one position in a chunk sequence. In a table's sealed-chunk
// sequence it is a resident stored chunk or a reference into an on-disk
// segment loaded on demand; in a join's output it is a probe slot (vecjoin.go),
// whose chunk is produced when it is loaded; a resolved or ephemeral chunk is
// its own slot. A table's slot carries enough metadata (row count, per-column
// zone bounds) for planning and pruning without touching chunk data, so
// zone-map pruning of a terabyte table reads only manifests and footers.
type chunkSlot interface {
	// slotRows is the chunk's row count; a probe slot estimates it.
	slotRows() int
	// slotZone returns the column's zone summary. Only a table's slots are
	// asked.
	slotZone(col int) *storage.Zone
	// load returns the chunk. A table's slot returns a view of its stored
	// chunk, read and verified from the segment first if it is not cached,
	// whose columns are filled as they are touched (chunk.col). qc may be nil
	// (context-free table utilities). pb is the loading worker's buffers, or
	// nil: unless pb.keep, the chunk a table or probe slot returns is the
	// worker's, valid until its next load.
	load(qc *queryCtx, pb *probeBuf) (*chunk, error)
}

// A resolved chunk (a join's kept output, an ephemeral chunk over rows) is
// its own slot: load is the identity.

func (c *chunk) slotRows() int { return c.n }

func (c *chunk) slotZone(int) *storage.Zone { panic("engine: a resolved chunk is never zone-pruned") }

func (c *chunk) load(*queryCtx, *probeBuf) (*chunk, error) { return c, nil }

// storedCol is one column of a sealed chunk as it stays in memory: a typed
// header over a payload of pointer-free vectors — the null flags, string
// offsets and one vector of lanes (typed values, dictionary codes, packed
// words or a string block), each as the seal or the segment decoder made it.
// The only pointers in the payload are a dictionary's string headers and a
// boxed column's boxes (refs). Lengths follow from the chunk's row count n
// and the header: n values, n+1 offsets, nref dictionary entries. A kernel
// reads the column through a view (view).
type storedCol struct {
	zone        storage.Zone
	base        int64
	kind        uint8 // a ColType
	enc         colEnc
	width, exp  uint8
	sw, nref    uint32
	nulls, offs unsafe.Pointer // *bool, *uint32
	lanes       unsafe.Pointer // the lanes' element type
	refs        unsafe.Pointer // *string (encDict) or *Value (TAny)
}

// sliceData is the pointer a stored column keeps of v (nil for nil).
func sliceData[T any](v []T) unsafe.Pointer { return unsafe.Pointer(unsafe.SliceData(v)) }

// payloadOf is the n values at p: nil when p is.
func payloadOf[T any](p unsafe.Pointer, n int) []T {
	if p == nil {
		return nil
	}
	return unsafe.Slice((*T)(p), n)
}

// fromStorage makes s the header of a stored column of n rows, its payload
// c's vectors.
func (s *storedCol) fromStorage(c *storage.Col, n int) {
	if c.Enc == storage.EncRLE {
		expandRuns(c, n)
	}
	*s = storedCol{zone: c.Zone, base: c.Base, kind: c.Kind, enc: colEnc(c.Enc), width: c.Width, exp: c.Exp,
		sw: c.StrWidth, nref: uint32(len(c.Dict)), nulls: sliceData(c.Nulls), offs: sliceData(c.StrOffs)}
	switch {
	case s.enc == encDict:
		s.lanes, s.refs = sliceData(c.Codes), sliceData(c.Dict)
	case s.enc == encDelta || s.enc == encDecimal:
		s.lanes = sliceData(c.Packed)
	case c.Kind == storage.KindInt:
		s.lanes = sliceData(c.Ints)
	case c.Kind == storage.KindFloat:
		s.lanes = sliceData(c.Floats)
	case c.Kind == storage.KindString:
		s.lanes = sliceData(c.StrBytes)
	case c.Kind == storage.KindBool:
		s.lanes = sliceData(c.Bools)
	default:
		s.refs = sliceData(c.Anys)
	}
}

// expandRuns makes c, a run-length column of n rows, the raw column of the
// same lanes: one slot, and one NULL flag, per row. Segments written by
// earlier versions of the engine hold such columns, and compaction copies
// them as they are, so this is where each one becomes a stored column.
func expandRuns(c *storage.Col, n int) {
	run := make([]int32, n) // run[i] is the run holding row i
	for r, i := 0, 0; i < n; i++ {
		for int(c.RunEnds[r]) <= i {
			r++
		}
		run[i] = int32(r)
	}
	c.Nulls, c.Ints, c.Floats, c.Bools = perRow(c.Nulls, run), perRow(c.Ints, run), perRow(c.Floats, run), perRow(c.Bools, run)
	if c.Kind == storage.KindString {
		size := 0
		for _, r := range run {
			size += int(c.StrOffs[r+1] - c.StrOffs[r])
		}
		blk, offs := make([]byte, 0, size), make([]uint32, n+1)
		for i, r := range run {
			blk = append(blk, c.StrBytes[c.StrOffs[r]:c.StrOffs[r+1]]...)
			offs[i+1] = uint32(len(blk))
		}
		c.StrBytes, c.StrOffs = blk, offs
	}
	c.Enc, c.RunEnds = storage.EncNone, nil
}

// perRow is one value of slots per row, row i's that of its run run[i] (nil
// for nil).
func perRow[T any](slots []T, run []int32) []T {
	if slots == nil {
		return nil
	}
	out := make([]T, len(run))
	for i, r := range run {
		out[i] = slots[r]
	}
	return out
}

// view makes cv the kernel form of the column, n rows: every vector a view
// of the payload, so filling one allocates nothing and whatever a kernel or a
// box takes from it points into the payload, never into cv.
func (s *storedCol) view(cv *colVec, n int) {
	*cv = colVec{kind: ColType(s.kind), enc: s.enc, sw: s.sw, base: s.base, width: s.width, exp: s.exp,
		nulls: payloadOf[bool](s.nulls, n)}
	switch {
	case s.enc == encDict:
		cv.codes, cv.dict = payloadOf[uint8](s.lanes, n), payloadOf[string](s.refs, int(s.nref))
	case s.enc == encDelta || s.enc == encDecimal:
		cv.packed = payloadOf[uint64](s.lanes, (n*int(s.width)+63)/64)
	case cv.kind == TInt:
		cv.ints = payloadOf[int64](s.lanes, n)
	case cv.kind == TFloat:
		cv.floats = payloadOf[float64](s.lanes, n)
	case cv.kind == TBool:
		cv.bools = payloadOf[bool](s.lanes, n)
	case cv.kind == TString:
		size := int(s.sw) * n
		if s.offs != nil {
			cv.soffs = payloadOf[uint32](s.offs, n+1)
			size = int(cv.soffs[n])
		}
		cv.sbytes = payloadOf[byte](s.lanes, size)
	default:
		cv.anys = payloadOf[Value](s.refs, n)
	}
}

// bytes is the size of the column's payload, n rows: its vectors, and a
// dictionary's entries (bytes and header) or a boxed column's boxes.
func (s *storedCol) bytes(n int) int64 {
	var v colVec
	s.view(&v, n)
	b := int64(len(v.nulls)+len(v.bools)+len(v.codes)+len(v.sbytes)) +
		4*int64(len(v.soffs)) + 8*int64(len(v.ints)+len(v.floats)+len(v.packed)) +
		int64(len(v.anys))*bytesPerValue
	for _, e := range v.dict {
		b += int64(len(e)) + 16
	}
	return b
}

// storedChunk is a sealed chunk in its stored form: the row count and a
// header per column. A table's resident chunk is whole; one loaded from a
// segment (seg set) decodes a column, header and payload, the first time a
// view reads it, so a query reading 3 of a table's 16 columns decodes, and the
// cache holds, those 3. Resident and segment chunks load the same way: a view
// (probeBuf.view).
type storedChunk struct {
	n    int
	cols []storedCol
	seg  *segFill

	mu sync.Mutex // serializes decodes
}

func (sc *storedChunk) slotRows() int { return sc.n }

func (sc *storedChunk) slotZone(col int) *storage.Zone { return &sc.cols[col].zone }

func (sc *storedChunk) load(qc *queryCtx, pb *probeBuf) (*chunk, error) { return pb.view(qc, sc), nil }

// col returns column j's header, decoding the column first if it came from a
// segment and no view has read it yet.
func (sc *storedChunk) col(j int) *storedCol {
	f := sc.seg
	if f == nil {
		return &sc.cols[j]
	}
	if s := f.cols[j].Load(); s != nil {
		return s
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	s := f.cols[j].Load()
	if s == nil {
		c := f.blk.DecodeCol(j)
		s = new(storedCol)
		s.fromStorage(&c, sc.n)
		f.slot.cache.grow(f.slot, sc, int64(unsafe.Sizeof(*s))+s.bytes(sc.n))
		f.cols[j].Store(s)
	}
	return s
}

// kind reports column j's storage kind without decoding it.
func (sc *storedChunk) kind(j int) ColType {
	if sc.seg != nil {
		return ColType(sc.seg.slot.meta().Cols[j].Kind)
	}
	return ColType(sc.cols[j].kind)
}

// width is the chunk's column count.
func (sc *storedChunk) width() int {
	if sc.seg != nil {
		return len(sc.seg.cols)
	}
	return len(sc.cols)
}

// bytes is what the chunk holds now: its headers and the payloads of its
// decoded columns, and a segment chunk's pointers to them.
func (sc *storedChunk) bytes() int64 {
	size := int64(unsafe.Sizeof(storedCol{}))
	if sc.seg == nil {
		b := int64(len(sc.cols)) * size
		for j := range sc.cols {
			b += sc.cols[j].bytes(sc.n)
		}
		return b
	}
	b := int64(len(sc.seg.cols)) * int64(unsafe.Sizeof(sc.seg.cols[0]))
	for j := range sc.seg.cols {
		if s := sc.seg.cols[j].Load(); s != nil {
			b += size + s.bytes(sc.n)
		}
	}
	return b
}

// storedFill fills a view from a stored chunk, each column into a vector of
// the view's query (newCol), or of the view's own when it has no query.
type storedFill struct {
	sc *storedChunk
	qc *queryCtx
}

func (f *storedFill) fillCol(c *chunk, j int) {
	var cv *colVec
	switch {
	case c.vcols == nil:
		cv = &c.cols[j]
	case c.vcols[j] == nil:
		cv = f.qc.newCol()
		c.vcols[j] = cv
	default:
		cv = c.vcols[j]
	}
	f.sc.col(j).view(cv, c.n)
}

func (f *storedFill) kindOf(_ *chunk, j int) ColType { return f.sc.kind(j) }

func (f *storedFill) cellAt(c *chunk, j, i int) Value { return c.col(j).value(i) }

// view returns a chunk that reads sc, for qc. A worker that does not keep its
// chunks reuses one view, pointed at each chunk it loads; loads that keep them
// (pb nil or pb.keep) get a view each.
func (pb *probeBuf) view(qc *queryCtx, sc *storedChunk) *chunk {
	keep := pb == nil || pb.keep
	if !keep && pb.sview != nil && pb.sview.width() == sc.width() {
		pb.sview.point(sc)
		return pb.sview
	}
	v := qc.newView(sc.width())
	v.point(sc)
	if !keep {
		pb.sview = v
	}
	return v
}

// point makes v, a view, read sc with no column filled. The vectors of the
// columns it filled before are filled again when touched.
func (v *chunk) point(sc *storedChunk) {
	v.lazy.(*storedFill).sc, v.n = sc, sc.n
	v.filled.clear()
}

// storedView is a view and its filler, allocated together.
type storedView struct {
	chunk
	f storedFill
}

// A view is one storedView, w column pointers and a colVec per column
// touched, carved out of a query's blocks (viewArena) of these sizes.
const (
	viewBlock = 64
	ptrBlock  = 1024
	colBlock  = 256
)

// viewArena is where a query's views come from: carved out of blocks it takes
// from the engine's pool (or makes) and hands back when it ends (done). A
// view is the query's until then, and nothing of the query reads one after:
// what a view hands out points into stored payloads.
type viewArena struct {
	mu    sync.Mutex
	views arenaList[storedView]
	ptrs  arenaList[*colVec]
	cols  arenaList[colVec]
}

// newView returns an empty view of w columns for qc, from its arena (qc nil: a
// context-free load makes its own, with a vector for every column).
func (qc *queryCtx) newView(w int) *chunk {
	var v *storedView
	if qc == nil || qc.eng == nil {
		v = &storedView{chunk: chunk{cols: make([]colVec, w)}}
	} else {
		a, p := &qc.views, &qc.eng.views
		a.mu.Lock()
		v = &a.views.carve(p, &p.views, 1, viewBlock)[0]
		v.vcols = a.ptrs.carve(p, &p.ptrs, w, ptrBlock)
		a.mu.Unlock()
	}
	v.lazy, v.f.qc = &v.f, qc
	v.filled.init(w)
	return &v.chunk
}

// newCol returns a vector for a view's column from qc's arena.
func (qc *queryCtx) newCol() *colVec {
	a, p := &qc.views, &qc.eng.views
	a.mu.Lock()
	defer a.mu.Unlock()
	return &a.cols.carve(p, &p.cols, 1, colBlock)[0]
}

// arenaList is one kind of a query's blocks: the rest of the current one and
// every one it took.
type arenaList[T any] struct {
	cur  []T
	blks [][]T
}

// carve takes n items, from a new block of size items when the current one is
// short: the pool's, or one of its own when n is more than a block.
func (a *arenaList[T]) carve(p *viewPool, l *blockList[T], n, size int) []T {
	if n > size {
		return make([]T, n)
	}
	if len(a.cur) < n {
		blk := l.take(p, size)
		a.blks, a.cur = append(a.blks, blk), blk // one slice header per block, reused query to query
	}
	out := a.cur[:n:n]
	a.cur = a.cur[n:]
	return out
}

// viewPool holds the blocks of finished queries' views for the next queries
// to carve. It holds them weakly: a collection frees whatever no query has
// taken back, so the pool keeps no memory alive.
type viewPool struct {
	mu    sync.Mutex
	views blockList[storedView]
	ptrs  blockList[*colVec]
	cols  blockList[colVec]
}

// blockList is the pool's blocks of one kind, each by its first item.
type blockList[T any] []weak.Pointer[T] // guarded by viewPool.mu

// take takes a block of size items from the list, or makes one.
func (l *blockList[T]) take(p *viewPool, size int) []T {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(*l) > 0 {
		b := (*l)[len(*l)-1].Value()
		*l = (*l)[:len(*l)-1]
		if b != nil {
			return unsafe.Slice(b, size)
		}
	}
	return make([]T, size)
}

// put returns a query's blocks to the list, the items it carved cleared: a
// pooled block must keep no dropped table's chunks alive, and a carved
// column pointer must start nil.
func (l *blockList[T]) put(a *arenaList[T]) {
	for i, b := range a.blks {
		if i == len(a.blks)-1 {
			clear(b[:len(b)-len(a.cur)])
		} else {
			clear(b)
		}
		*l = append(*l, weak.Make(&b[0])) // pool bookkeeping: one weak pointer per block
	}
}

// done hands the blocks of qc's views to the engine's pool.
func (qc *queryCtx) done() {
	a, p := &qc.views, &qc.eng.views
	p.mu.Lock()
	defer p.mu.Unlock()
	p.views.put(&a.views)
	p.ptrs.put(&a.ptrs)
	p.cols.put(&a.cols)
	*a = viewArena{}
}

// segSlot is a chunk spilled to a segment file: loads go through the data
// directory's shared chunk cache, and a per-slot mutex collapses concurrent
// cold loads of the same chunk into one disk read. A load verifies the
// chunk's block once (storage.OpenChunk: read, CRC, structural walk — the
// only step that can fail) and caches a stored chunk that decodes a column
// when a view first touches it.
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

func (s *segSlot) slotZone(col int) *storage.Zone { return &s.meta().Cols[col].Zone }

func (s *segSlot) load(qc *queryCtx, pb *probeBuf) (*chunk, error) {
	if sc := s.cache.get(s, true); sc != nil {
		return pb.view(qc, sc), nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sc := s.cache.get(s, false); sc != nil {
		return pb.view(qc, sc), nil // a concurrent loader beat us to it
	}
	blk, err := s.seg.OpenChunk(s.idx)
	if err != nil {
		return nil, fmt.Errorf("engine: loading chunk %d of %s: %w", s.idx, s.seg.Path, err)
	}
	w := len(s.meta().Cols)
	x := &struct { // the chunk, its decoding state and its cache entry in one allocation
		sc storedChunk
		f  segFill
		en cacheEntry
	}{f: segFill{slot: s, blk: blk, cols: make([]atomic.Pointer[storedCol], w)}}
	sc := &x.sc
	sc.n, sc.seg = blk.NRows(), &x.f
	x.en = cacheEntry{slot: s, ch: sc, bytes: sc.bytes() + int64(blk.HeapBytes())}
	s.cache.put(&x.en)
	return pb.view(qc, sc), nil
}

// segFill is what a stored chunk loaded from a segment decodes its columns
// from: the verified block, which refers to the segment's mapping. The
// mapping outlives every chunk: segments, retired ones included, are closed
// only by Engine.Close (retireFileLocked). Decoded vectors do not refer to it.
type segFill struct {
	slot *segSlot
	blk  storage.Block
	cols []atomic.Pointer[storedCol] // column j's header once it is decoded
}

// chunkCache is the data directory's LRU over segment chunks, bounded by
// what they hold: an entry starts at its chunk's pointer per column and grows
// by each column's header and payload as it is decoded. Its resident bytes are
// accounted on the same memGauge type the per-query budget uses, but the policy
// differs deliberately: going over capacity evicts the least-recently-used
// chunks instead of aborting anything — eviction is always possible because
// sealed chunks are immutable and reloadable. In-flight scans holding an
// evicted chunk keep it alive, and keep decoding its columns, via ordinary GC
// reachability; the cache only controls how long chunks stay warm.
type chunkCache struct {
	mu    sync.Mutex
	cap   int64
	gauge memGauge // resident bytes (storedChunk.bytes)

	ll    *list.List                 // guarded by mu
	items map[*segSlot]*list.Element // guarded by mu

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	decoded   atomic.Int64
}

type cacheEntry struct {
	slot  *segSlot
	ch    *storedChunk
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
func (c *chunkCache) get(s *segSlot, countMiss bool) *storedChunk {
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

// put makes en.ch resident for en.slot at en.bytes — what of it is built now.
func (c *chunkCache) put(en *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[en.slot]; ok {
		return
	}
	c.gauge.add(en.bytes)
	c.items[en.slot] = c.ll.PushFront(en) // cache residency is accounted on the cache's own gauge (the add above), evicted not aborted
	c.shrinkLocked()
}

// grow charges bytes more to s's entry: ch just decoded a column. A chunk the
// cache no longer holds (evicted while a scan still reads it) grows uncharged.
func (c *chunkCache) grow(s *segSlot, ch *storedChunk, bytes int64) {
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
// The caller holds c.mu.
func (c *chunkCache) shrinkLocked() {
	for c.gauge.used.Load() > c.cap {
		back := c.ll.Back()
		if back == nil {
			break
		}
		c.evictLocked(back)
	}
}

// evictLocked drops one entry and its charge. The caller holds c.mu.
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
	Resident       int64 // bytes of the cached chunks: header arrays and decoded payloads
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

// chunkToStorage mirrors a sealed chunk into the storage package's neutral
// form. Slice headers are shared, not copied — the same bytes that serve
// in-memory scans are what the segment writer serializes.
func chunkToStorage(sc *storedChunk) *storage.Chunk {
	out := &storage.Chunk{NRows: sc.n, Cols: make([]storage.Col, len(sc.cols))}
	var v colVec
	for j := range sc.cols {
		sc.cols[j].view(&v, sc.n)
		out.Cols[j] = v.mirror(sc.cols[j].zone)
	}
	return out
}

// mirror is the column in the storage package's form, sharing its vectors,
// with zone z.
func (c *colVec) mirror(z storage.Zone) storage.Col {
	return storage.Col{
		Kind: uint8(c.kind), Enc: uint8(c.enc), Nulls: c.nulls, Zone: z,
		Ints: c.ints, Floats: c.floats, StrBytes: c.sbytes, StrOffs: c.soffs, StrWidth: c.sw,
		Bools: c.bools, Anys: c.anys,
		Dict: c.dict, Codes: c.codes,
		Base: c.base, Width: c.width, Exp: c.exp, Packed: c.packed,
	}
}

// storedOf makes a decoded storage chunk a stored chunk, sharing its vectors.
func storedOf(c *storage.Chunk) *storedChunk {
	sc := &storedChunk{n: c.NRows, cols: make([]storedCol, len(c.Cols))}
	for j := range c.Cols {
		sc.cols[j].fromStorage(&c.Cols[j], c.NRows)
	}
	return sc
}
