package engine

import (
	"hash/maphash"
	"math"
	"math/bits"
	"os"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"verdictdb/internal/storage"
)

// Columnar chunked storage. A table is an append-only sequence of sealed,
// immutable chunks of exactly chunkRows rows stored column-wise, plus an open
// row-major tail holding the most recent < chunkRows rows. When the tail fills
// — or a vectorized CTAS or INSERT … SELECT gathers a whole chunk from its
// typed lanes (seal.go) — the rows are packed into typed vectors (buildChunk,
// gatherCol), given zone summaries and an encoding (sealChunk), and kept in
// the stored form: per column a small typed header over pointer-free vectors
// (storedCol, chunkslot.go), so the collector traces a table's columns, not
// its values. Readers snapshot the chunk and tail slice headers under the
// engine lock and then scan without coordination. Every scan reads a chunk
// through a view whose columns are colVecs over the stored vectors, filled
// on first touch: the one form the kernels (vectorize.go, vecexec.go), the
// gathers and the row closures' lane reads (valueAt) work on.

// chunkRows is the sealed chunk size. It doubles as the zone-map pruning
// granularity: every sealed chunk carries its own min/max summaries.
const chunkRows = 256

// colEnc identifies the physical encoding of a column. Only table-storage
// chunks (sealChunk) take every encoding; kernel outputs and
// gathered join columns are raw or dict (a dictionary column's codes gathered,
// its dictionary shared), and ephemeral chunks over rows stay raw. Every
// encoding is transparent through isNull/value/the typed accessors — the row
// path and scramble construction read identical bytes either way — while the
// vectorized kernels (vectorize.go) pattern-match on enc to run on the
// compressed form.
type colEnc uint8

const (
	encNone    colEnc = iota // raw typed vector (or boxed TAny)
	encDict                  // sorted per-chunk dictionary + one-byte codes (strings)
	_                        // storage.EncRLE: segments may hold it; fromStorage expands it
	encDelta                 // int64 offsets from the chunk minimum, bit-packed
	encDecimal               // floats as encDelta's integers over a power of ten
)

// colVec is the engine's one vector of lanes: a view of a stored column, a
// gathered join column, or a kernel's output; the last two are reset for
// every chunk and keep their storage (reset). Strings are the one kind whose
// two forms differ: a stored column keeps them in a byte block (sbytes,
// soffs), a per-query vector as string headers (strs); slotStr reads either.
type colVec struct {
	// kind is the storage representation of this chunk-column. A column
	// whose values in this chunk all share one dynamic type is stored
	// unboxed; mixed-type (or all-NULL) chunk-columns keep the original
	// boxed values in anys. TAny therefore means "boxed", not "untyped".
	kind ColType

	ints   []int64
	floats []float64
	strs   []string // per-query string lanes: kernel outputs, gathers, chunks over rows
	bools  []bool
	anys   []Value

	// sbytes and soffs are a stored string column's slots, one per row: slot
	// s is sbytes[soffs[s]:soffs[s+1]], and soffs holds n+1 offsets from 0 to
	// len(sbytes). That is the segment payload itself, so a flush writes the
	// two slices and a cold load copies them. A string read out of the column
	// is a view of sbytes; stored blocks are never written after seal. A NULL
	// slot is empty. A raw column whose slots all have one length sw > 0
	// (dates, codes, flags) has no offsets: slot s is sbytes[s*sw:(s+1)*sw], a
	// NULL slot sw bytes of zero padding.
	sbytes []byte
	soffs  []uint32

	// nulls flags NULL rows; empty when the column has no NULLs. Null slots
	// of a stored column's typed vectors hold zero values; a reset vector's
	// hold whatever its storage held. Every vector of every encoding has one
	// slot per row: slot i is row i.
	nulls []bool

	// enc selects which of the encoding field groups below is live.
	enc colEnc
	sw  uint32 // the slot width of a stored string block without offsets, else 0

	// encDict: dict holds the chunk's distinct non-NULL strings in sorted
	// order, so code order preserves value order (range predicates compare
	// codes). codes[i] indexes dict — a chunk of at most chunkRows = 256 rows
	// has at most 256 of them, so a code is one byte; NULL rows keep code 0
	// and are flagged in nulls. The entries of a stored column are views of
	// one block the column owns; a gathered column shares its source's. There
	// are no string slots (strs, sbytes, soffs).
	dict  []string
	codes []uint8

	// encDelta: row i decodes as base + the width-bit little-endian field
	// starting at bit i*width of packed. NULL rows pack zero. width 0 means
	// every non-NULL value equals base and packed is nil. ints is nil.
	// encDecimal: the same integers, row i a float64 read as that integer
	// divided by 10^exp (decAt); floats is nil.
	base   int64
	width  uint8
	exp    uint8
	packed []uint64
}

// isNull reports whether row i of the column is NULL. (Kept small enough to
// inline: kernels call it per lane.)
func (c *colVec) isNull(i int) bool {
	if len(c.nulls) == 0 {
		return c.kind == TAny && c.anys[i] == nil
	}
	return c.nulls[i]
}

// deltaAt decodes row i of an encDelta column. The uint64 round trip is
// exact modulo 2^64, so negative bases and full-range deltas reproduce the
// original bits.
func (c *colVec) deltaAt(i int) int64 {
	w := uint(c.width)
	if w == 0 {
		return c.base
	}
	bit := uint(i) * w
	word, off := bit>>6, bit&63
	v := c.packed[word] >> off
	if off+w > 64 {
		v |= c.packed[word+1] << (64 - off)
	}
	v &= 1<<w - 1
	return int64(uint64(c.base) + v)
}

// pow10 holds the powers of ten a decimal column divides by, each exact in
// float64.
var pow10 = func() (p [storage.MaxDecimalExp + 1]float64) {
	p[0] = 1
	for e := 1; e < len(p); e++ {
		p[e] = p[e-1] * 10
	}
	return p
}()

// decAt decodes row i of an encDecimal column. The division is the form's
// definition: the seal checked every lane's bits through this expression (a
// multiply by the reciprocal would round differently).
func (c *colVec) decAt(i int) float64 {
	return float64(c.deltaAt(i)) / pow10[c.exp]
}

// strAt reads string row i through the encoding (callers have excluded NULL
// rows and checked the kind).
func (c *colVec) strAt(i int) string {
	if c.enc == encDict {
		return c.dict[c.codes[i]]
	}
	return c.slotStr(i)
}

// slotStr reads string slot s: a view of the block of a stored column, the
// lane of a per-query one.
func (c *colVec) slotStr(s int) string {
	switch {
	case c.soffs != nil:
		return blockStr(c.sbytes, c.soffs[s], c.soffs[s+1])
	case c.sw > 0:
		lo := uint32(s) * c.sw
		return blockStr(c.sbytes, lo, lo+c.sw)
	}
	return c.strs[s]
}

// inBlock reports whether the column's strings are a stored block (with
// offsets or of one width), not per-query string lanes.
func (c *colVec) inBlock() bool { return c.soffs != nil || c.sw > 0 }

// blockStr is the string of bytes b[lo:hi], sharing them. Callers never
// write a block once a string views it. An empty string points at nothing, so
// it keeps no block alive.
func blockStr(b []byte, lo, hi uint32) string {
	if lo == hi {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b[lo:hi]), hi-lo)
}

// value boxes row i back into a dynamic Value: every read of a column that is
// not a typed kernel loop goes through it. The box is freshly allocated for
// typed vectors (a string box holds a header viewing the column's block); a
// dictionary entry's box points at the entry, and TAny columns return the
// original box.
func (c *colVec) value(i int) Value {
	if c.kind == TAny {
		return c.anys[i]
	}
	switch {
	case len(c.nulls) > 0 && c.nulls[i]:
		return nil
	case c.enc == encDict:
		return boxStr(&c.dict[c.codes[i]])
	case c.enc == encDelta:
		return c.deltaAt(i)
	case c.enc == encDecimal:
		return c.decAt(i)
	case c.kind == TInt:
		return c.ints[i]
	case c.kind == TFloat:
		return c.floats[i]
	case c.kind == TString:
		return c.slotStr(i)
	}
	return c.bools[i]
}

// reset makes cv n raw lanes of kind, no NULLs, over the storage its previous
// lanes left: a kernel's output buffer or a column a join gathers into a
// reused chunk. String lanes are headers (strs), never a block. Every lane is
// the caller's to write. Growth is charged to qc — a gathered column is, a
// worker's kernel buffers (qc nil) are not.
func (cv *colVec) reset(qc *queryCtx, kind ColType, n int) {
	*cv = colVec{kind: kind, ints: cv.ints[:0], floats: cv.floats[:0], strs: cv.strs[:0],
		bools: cv.bools[:0], anys: cv.anys[:0], codes: cv.codes[:0], nulls: cv.nulls[:0]}
	switch kind {
	case TInt:
		cv.ints = lanes(qc, cv.ints, n)
	case TFloat:
		cv.floats = lanes(qc, cv.floats, n)
	case TString:
		cv.strs = lanes(qc, cv.strs, n)
	case TBool:
		cv.bools = lanes(qc, cv.bools, n)
	default:
		cv.anys = lanes(qc, cv.anys, n)
	}
}

// setNull makes lane k of a reset vector of n lanes NULL: a nil box for TAny,
// else a flag, the flags made over the vector's storage on its first NULL.
func (cv *colVec) setNull(k, n int) {
	if cv.kind == TAny {
		cv.anys[k] = nil
		return
	}
	if len(cv.nulls) == 0 {
		cv.nulls = lanes(nil, cv.nulls, n)
		clear(cv.nulls)
	}
	cv.nulls[k] = true
}

// lanes returns buf with n lanes: what a previous chunk left, or a new
// vector, charged, when that is too small. Every lane is the caller's to
// overwrite.
func lanes[T any](qc *queryCtx, buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	size := n
	if cap(buf) > 0 {
		size += n / 4 // a worker's chunks vary in size: do not regrow for each new largest
	}
	qc.chargeMem(int64(size) * bytesPerRef)
	return make([]T, size)[:n]
}

// chunk is chunkRows rows (fewer only for the ephemeral tail chunk; more for
// one-to-many join outputs) column-wise: a view of a stored chunk, a join's
// output, rows being sealed. Immutable after construction, except that a
// chunk with a filler builds its column vectors lazily.
type chunk struct {
	cols []colVec
	n    int

	// vcols are a view's columns instead of cols (chunkslot.go): one vector
	// for each column a reader has touched, nil for the rest.
	vcols []*colVec

	// lazy is non-nil for a chunk whose columns are built on first touch, each
	// at most once, from what the filler holds: row references into a join's
	// inputs (joinGather, vecjoin.go), boxed rows that already exist (rowFill),
	// a stored chunk (storedFill, chunkslot.go). Columns a query never reads
	// are never gathered, packed or decoded.
	lazy colFiller

	// filled holds j once column j is built; mu serializes the builds, so a
	// reader that sees the flag sees the column and takes no lock.
	filled colFlags
	mu     sync.Mutex
}

// colFlags is a set of column numbers that goroutines add to concurrently,
// a bit each, the first 64 held in the set itself.
type colFlags struct {
	words []atomic.Uint64
	small [1]atomic.Uint64
}

// init makes the set empty and able to hold columns [0, w).
func (f *colFlags) init(w int) {
	f.words = f.small[:]
	if w > 64 {
		f.words = make([]atomic.Uint64, (w+63)/64)
	}
}

func (f *colFlags) has(j int) bool { return f.words[j>>6].Load()&(1<<(j&63)) != 0 }

func (f *colFlags) add(j int) { f.words[j>>6].Or(1 << (j & 63)) }

func (f *colFlags) clear() {
	for i := range f.words {
		f.words[i].Store(0)
	}
}

// colFiller is where a lazily filled chunk's data lives until a column of it
// is touched. None of the methods has an error path: whatever can fail has
// failed before the chunk exists, and a memory charge surfaces at the caller's
// next poll.
type colFiller interface {
	// fillCol builds c.cols[j]; called once per column, with c.mu held.
	fillCol(c *chunk, j int)
	// kindOf reports column j's storage kind, without building it when the
	// filler knows.
	kindOf(c *chunk, j int) ColType
	// cellAt boxes cell (row i, column j), without building the column when
	// the filler can reach the cell another way.
	cellAt(c *chunk, j, i int) Value
}

// rowFill fills a chunk from the boxed rows it was made over — a snapshot's
// tail, a row source's rows: the rows are the chunk's data, and a column's
// typed vector is packed from them, and charged to qc, only when a kernel first
// touches it. The row closures never do.
type rowFill struct {
	rows [][]Value
	qc   *queryCtx
}

func (f *rowFill) fillCol(c *chunk, j int) {
	f.qc.chargeMem(int64(c.n) * bytesPerRef)
	packCol(&c.cols[j], f.rows, j, false)
}

func (f *rowFill) kindOf(c *chunk, j int) ColType { return c.col(j).kind }

func (f *rowFill) cellAt(c *chunk, j, i int) Value { return f.rows[i][j] }

// col returns column j's vector, building it first if the chunk fills lazily.
func (c *chunk) col(j int) *colVec {
	if c.lazy != nil && !c.filled.has(j) {
		c.mu.Lock()
		if !c.filled.has(j) {
			c.lazy.fillCol(c, j)
			c.filled.add(j)
		}
		c.mu.Unlock()
	}
	if c.vcols != nil {
		return c.vcols[j]
	}
	return &c.cols[j]
}

// width is the chunk's column count.
func (c *chunk) width() int { return max(len(c.cols), len(c.vcols)) }

// colKind reports column j's storage kind without forcing a gather or a
// decode (a chunk over existing rows learns it by packing the column).
func (c *chunk) colKind(j int) ColType {
	if c.lazy != nil {
		return c.lazy.kindOf(c, j)
	}
	return c.cols[j].kind
}

// valueAt boxes cell (row i, column j) — how the row closures read a lane, and
// the cheap path for boxing single rows (group representatives, rows that pass
// WHERE). Join-output chunks read through the row references without gathering
// the whole column; chunks over existing rows hand back the box they were
// built from; segment chunks decode the column.
func (c *chunk) valueAt(j, i int) Value {
	if c.lazy != nil {
		return c.lazy.cellAt(c, j, i)
	}
	return c.cols[j].value(i)
}

// overRows reports whether the chunk was made over boxed rows that already
// exist (and were charged by whoever made them).
func (c *chunk) overRows() bool {
	_, ok := c.lazy.(*rowFill)
	return ok
}

// storageKind classifies a non-NULL runtime value for vector storage.
func storageKind(v Value) ColType {
	switch v.(type) {
	case int64:
		return TInt
	case float64:
		return TFloat
	case string:
		return TString
	case bool:
		return TBool
	}
	return TAny
}

// mergeKind folds t, the storage kind of one more non-NULL value, into kind,
// the values' before it (-1 when there are none): TAny once two differ.
func mergeKind(kind, t ColType) ColType {
	if kind == -1 || kind == t {
		return t
	}
	return TAny
}

// buildChunk packs rows (all of width w) into a columnar chunk of raw stored
// vectors, with no zone summaries or encodings: sealChunk adds those to a
// table's chunks, and the flusher's staging chunk needs neither.
func buildChunk(rows [][]Value, w int) *chunk {
	ch := &chunk{cols: make([]colVec, w), n: len(rows)}
	for j := range ch.cols {
		packCol(&ch.cols[j], rows, j, true)
	}
	return ch
}

// packCol packs column j of rows into col: a typed vector when its non-NULL
// values share one dynamic type, the original boxes otherwise. A stored column
// copies its strings — into one block, or, boxed, one by one — so it refers to
// none of the rows' strings; a per-query column (stored false) references
// them.
func packCol(col *colVec, rows [][]Value, j int, stored bool) {
	n := len(rows)
	// Pass 1: storage kind (TAny on mixed types or all NULLs).
	kind := ColType(-1)
	hasNull := false
	for i := 0; i < n; i++ {
		v := rows[i][j]
		if v == nil {
			hasNull = true
			continue
		}
		kind = mergeKind(kind, storageKind(v))
	}
	if kind == -1 || kind == TAny {
		// Boxed storage: reference the original values (NULL = nil box).
		col.kind = TAny
		col.anys = make([]Value, n)
		for i := 0; i < n; i++ {
			v := rows[i][j]
			if s, ok := v.(string); ok && stored {
				v = strings.Clone(s)
			}
			col.anys[i] = v
		}
		return
	}
	col.kind = kind
	if hasNull {
		col.nulls = make([]bool, n)
	}
	// Pass 2: pack the typed vector.
	switch kind {
	case TInt:
		col.ints = make([]int64, n)
		for i := 0; i < n; i++ {
			if v := rows[i][j]; v != nil {
				col.ints[i] = v.(int64)
			} else {
				col.nulls[i] = true
			}
		}
	case TFloat:
		col.floats = make([]float64, n)
		for i := 0; i < n; i++ {
			if v := rows[i][j]; v != nil {
				col.floats[i] = v.(float64)
			} else {
				col.nulls[i] = true
			}
		}
	case TString:
		strs := make([]string, n)
		for i := 0; i < n; i++ {
			if v := rows[i][j]; v != nil {
				strs[i] = v.(string)
			} else {
				col.nulls[i] = true
			}
		}
		if stored {
			col.storeStrs(strs)
		} else {
			col.strs = strs
		}
	case TBool:
		col.bools = make([]bool, n)
		for i := 0; i < n; i++ {
			if v := rows[i][j]; v != nil {
				col.bools[i] = v.(bool)
			} else {
				col.nulls[i] = true
			}
		}
	}
}

// storeStrs makes strs, one per row (a NULL row's empty), the column's
// stored slots: one block of their bytes plus offsets.
func (col *colVec) storeStrs(strs []string) {
	size := 0
	for _, s := range strs {
		size += len(s)
	}
	col.sbytes, col.soffs = make([]byte, size), make([]uint32, len(strs)+1)
	off := 0
	for i, s := range strs {
		off += copy(col.sbytes[off:], s)
		col.soffs[i+1] = uint32(off)
	}
}

// Encoding selection. Thresholds are deliberately conservative: an encoding
// must shrink the column (and speed the kernels) decisively before the seal
// pass commits to it, because a bad bet is paid on every scan until the
// table dies.
const (
	dictMaxCardDiv = 2  // dict when distinct strings <= n/dictMaxCardDiv
	deltaMaxWidth  = 32 // delta when the packed field fits 32 bits
)

// forceEncodingsEnv is a test knob: when set (non-empty), every sealed
// chunk-column takes the encoding its kind has, wherever it is exact,
// regardless of the thresholds — strings dictionary-encode, ints delta-encode
// when their range fits 63 bits, floats take the decimal form wherever every
// lane is an exact decimal; bools, boxed columns and whatever else does not
// fit stay raw. CI runs the workload parity suite once under it so the
// encoded kernel paths cannot rot behind cardinality heuristics.
const forceEncodingsEnv = "ENGINE_FORCE_ENCODINGS"

func forceEncodings() bool { return os.Getenv(forceEncodingsEnv) != "" }

// sealChunk gives each column of a table's new chunk — packed from the tail's
// boxed rows (buildChunk) or gathered from a SELECT's typed lanes (gatherCol)
// — its zone summary and encoding, charges the encoded footprint to the
// query's memory gauge (qc may be nil for context-free bulk loads), and
// returns the chunk's stored form, which is what readers see.
func sealChunk(ch *chunk, qc *queryCtx) *storedChunk {
	force := forceEncodings()
	var dp dictProber
	var bytes int64
	sc := &storedChunk{n: ch.n, cols: make([]storedCol, len(ch.cols))}
	for j := range ch.cols {
		c := &ch.cols[j]
		var z storage.Zone
		if c.kind != TString {
			z = c.zone(ch.n) // before encoding: a delta column is based on its minimum
		}
		bytes += encodeCol(c, ch.n, force, &dp, &z)
		if c.kind == TString { // views of the final block or dictionary
			z = c.zone(ch.n)
		}
		col := c.mirror(z)
		sc.cols[j].fromStorage(&col, ch.n)
	}
	qc.chargeMem(bytes)
	return sc
}

// zone returns the zone summary of a column's first n rows: min and max over
// the non-NULL ones in Compare's order, in one typed pass.
// Integer bounds are exact (Compare would round them through float64, which
// orders the same way, so pruning against either is sound), a string
// column's are views of its own block or dictionary (whose ends are its
// bounds), and a boxed column's its own values.
func (c *colVec) zone(n int) (z storage.Zone) {
	kind := uint8(c.kind)
	switch c.kind {
	case TInt:
		if lo, hi, ok := orderedZone(c.ints[:n], c.nulls); ok {
			z.Kinds, z.Num = [2]uint8{kind, kind}, [2]uint64{uint64(lo), uint64(hi)}
		}
	case TFloat:
		if lo, hi, ok := orderedZone(c.floats[:n], c.nulls); ok {
			z.Kinds, z.Num = [2]uint8{kind, kind}, [2]uint64{math.Float64bits(lo), math.Float64bits(hi)}
		}
	case TString:
		if c.enc == encDict {
			z.SetStr(0, c.dict[0])
			z.SetStr(1, c.dict[len(c.dict)-1])
			break
		}
		lo, hi, seen := "", "", false
		for s := 0; s < n; s++ {
			if len(c.nulls) > 0 && c.nulls[s] {
				continue
			}
			v := c.slotStr(s)
			switch {
			case !seen:
				lo, hi, seen = v, v, true
			case v < lo:
				lo = v
			case v > hi:
				hi = v
			}
		}
		if seen {
			z.SetStr(0, lo)
			z.SetStr(1, hi)
		}
	case TBool:
		lo, hi := true, false // false < true
		for s, b := range c.bools[:n] {
			if len(c.nulls) == 0 || !c.nulls[s] {
				lo, hi = lo && b, hi || b
			}
		}
		if !lo || hi { // else no slot was counted
			z.Set(0, lo)
			z.Set(1, hi)
		}
	default:
		var lo, hi Value
		for _, v := range c.anys[:n] {
			if v == nil {
				continue
			}
			if lo == nil || Compare(v, lo) < 0 {
				lo = v
			}
			if hi == nil || Compare(v, hi) > 0 {
				hi = v
			}
		}
		z.Set(0, lo)
		z.Set(1, hi)
	}
	return z
}

// orderedZone returns the least and greatest of vals outside the NULL flags
// (ok false when there are none), the first of equal ones.
func orderedZone[T int64 | float64](vals []T, nulls []bool) (lo, hi T, ok bool) {
	for s, v := range vals {
		switch {
		case len(nulls) > 0 && nulls[s]:
		case !ok:
			lo, hi, ok = v, v, true
		case v < lo:
			lo = v
		case v > hi:
			hi = v
		}
	}
	return lo, hi, ok
}

// encodeCol picks and applies one encoding for a sealed chunk-column,
// returning the estimated byte footprint of what it built (0 when the column
// keeps its raw vectors). Boxed (TAny) columns — mixed dynamic types or all
// NULLs — never encode. A raw string column whose slots share one length
// drops its offsets (fixWidth).
func encodeCol(c *colVec, n int, force bool, dp *dictProber, z *storage.Zone) int64 {
	if c.kind == TAny || n == 0 {
		return 0
	}
	cardDiv, maxWidth := dictMaxCardDiv, deltaMaxWidth
	if force {
		cardDiv, maxWidth = 1, 63 // a 64-bit field would save nothing
	}
	switch c.kind {
	case TString:
		if dict, codes := dp.probe(c, n, n/cardDiv); dict != nil {
			return c.encodeDict(dict, codes)
		}
		return c.fixWidth(n)
	case TInt:
		if w := deltaWidth(z); w <= maxWidth {
			return c.encodeDelta(n, w, z)
		}
	case TFloat:
		if b, ok := c.encodeDecimal(n, maxWidth); ok {
			return b
		}
	}
	return 0
}

// dictProber numbers a chunk's string columns for dictionary encoding, one
// column after another, in storage it reuses: an open-addressed table of
// 1 + dictionary index (0 empty) over a hash of each string, and the
// dictionary in first-appearance order.
type dictProber struct {
	table []int32
	dict  []string
}

// dictSeed keys dictProber's hash; the codes do not depend on it.
var dictSeed = maphash.MakeSeed()

// probe numbers column c's distinct non-NULL strings in the order they first
// appear and gives each of its n rows its string's number (a NULL row keeps
// 0). It gives up, returning nils, when more than limit strings are distinct
// (or more than a one-byte code numbers): the column stays raw, and the rest
// of it is never hashed. The dictionary is the prober's, valid until its next
// probe; the codes are the caller's.
func (p *dictProber) probe(c *colVec, n, limit int) ([]string, []uint8) {
	limit = min(limit, 1<<8)
	size := 1 << bits.Len(uint(2*n)) // at most half full
	if cap(p.table) < size {
		p.table = make([]int32, size)
	}
	p.table, p.dict = p.table[:size], p.dict[:0]
	clear(p.table)
	codes := make([]uint8, n)
	mask := uint64(size - 1)
	for i := 0; i < n; i++ {
		if c.nulls != nil && c.nulls[i] {
			continue
		}
		s := c.slotStr(i)
		h := maphash.String(dictSeed, s) & mask
		for ; p.table[h] != 0 && p.dict[p.table[h]-1] != s; h = (h + 1) & mask {
		}
		if p.table[h] == 0 {
			if len(p.dict) == limit {
				return nil, nil
			}
			p.dict = append(p.dict, s) //verdict:nocharge seal scratch: at most limit ≤ n entries, reused column to column
			p.table[h] = int32(len(p.dict))
		}
		codes[i] = uint8(p.table[h] - 1)
	}
	return p.dict, codes
}

// encodeDict makes the raw column its dictionary form from dictProber's
// numbering: the dictionary is sorted, so code order is value order, the codes
// renumbered to match, and the entries moved into one block of their own: the
// raw block goes.
func (c *colVec) encodeDict(dict []string, codes []uint8) int64 {
	order := make([]uint8, len(dict)) // order[code] = the probe's number
	for i := range order {
		order[i] = uint8(i)
	}
	slices.SortFunc(order, func(a, b uint8) int { return strings.Compare(dict[a], dict[b]) })
	var rank [1 << 8]uint8
	for code, id := range order {
		rank[id] = uint8(code)
	}
	for i, id := range codes {
		if c.nulls == nil || !c.nulls[i] {
			codes[i] = rank[id]
		}
	}
	size := 0
	for _, s := range dict {
		size += len(s)
	}
	blk := make([]byte, 0, size)
	sorted := make([]string, len(dict))
	for code, id := range order {
		lo := uint32(len(blk))
		blk = append(blk, dict[id]...)
		sorted[code] = blockStr(blk, lo, uint32(len(blk)))
	}
	n := len(codes)
	c.dict, c.codes = sorted, codes
	c.sbytes, c.soffs = nil, nil
	c.enc = encDict
	return int64(size) + int64(len(dict))*16 + int64(n)
}

// deltaWidth returns the bit width needed to pack an int column with zone z
// as offsets from its minimum. uint64 subtraction is exact modulo 2^64, so
// negative ranges work out.
func deltaWidth(z *storage.Zone) int { return bits.Len64(z.Num[1] - z.Num[0]) }

func (c *colVec) encodeDelta(n, width int, z *storage.Zone) int64 {
	base := int64(z.Num[0])
	c.base, c.width = base, uint8(width)
	c.packed = packDeltas(n, width, base, c.nulls, func(i int) int64 { return c.ints[i] })
	c.ints = nil
	c.enc = encDelta
	return int64(len(c.packed)) * 8
}

// packDeltas bit-packs at(i) - base for rows [0, n), width bits each (a NULL
// row packs zero): nil when width is 0.
func packDeltas(n, width int, base int64, nulls []bool, at func(int) int64) []uint64 {
	if width == 0 {
		return nil
	}
	packed := make([]uint64, (n*width+63)/64)
	for i := 0; i < n; i++ {
		if nulls != nil && nulls[i] {
			continue
		}
		d := uint64(at(i)) - uint64(base)
		bit := uint(i) * uint(width)
		word, off := bit>>6, bit&63
		packed[word] |= d << off
		if off+uint(width) > 64 {
			packed[word+1] |= d >> (64 - off)
		}
	}
	return packed
}

// decimalAt returns the integer d for which float64(d) / 10^e is f, bit for
// bit, when there is one: f × 10^e rounded, checked through the division
// itself. NaN, ±Inf and −0 have none, nor has a value whose scaled form is
// past 2^53, where float64 integers stop being exact.
func decimalAt(f float64, e int) (int64, bool) {
	s := f * pow10[e]
	if !(s > -(1<<53) && s < 1<<53) {
		return 0, false
	}
	d := int64(math.Round(s))
	return d, math.Float64bits(float64(d)/pow10[e]) == math.Float64bits(f)
}

// encodeDecimal stores a raw float column in the decimal form (the "ALP"
// idea: Afroozeh, Kuffó and Boncz, SIGMOD 2023) — delta's base, width and
// packed integers plus an exponent e, row i reading back as
// float64(base + field i) / 10^e — when that reproduces every non-NULL lane
// exactly at a packed width of at most maxWidth bits. ok is false, and the
// column untouched, otherwise.
func (c *colVec) encodeDecimal(n, maxWidth int) (bytes int64, ok bool) {
	// The least exponent that suits every lane: a lane is tried at the
	// exponent the lanes before it needed, and raises it when it needs more.
	e := 0
	for i, f := range c.floats[:n] {
		if c.nulls != nil && c.nulls[i] {
			continue
		}
		for {
			if _, ok := decimalAt(f, e); ok {
				break
			}
			if e++; e > storage.MaxDecimalExp {
				return 0, false
			}
		}
	}
	// Every lane again at e itself (a lane exact at a smaller exponent need
	// not be at e), and the integers' range.
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i, f := range c.floats[:n] {
		if c.nulls != nil && c.nulls[i] {
			continue
		}
		d, ok := decimalAt(f, e)
		if !ok {
			return 0, false
		}
		lo, hi = min(lo, d), max(hi, d)
	}
	width := bits.Len64(uint64(hi) - uint64(lo))
	if width > maxWidth {
		return 0, false
	}
	p := pow10[e]
	c.packed = packDeltas(n, width, lo, c.nulls, func(i int) int64 { return int64(math.Round(c.floats[i] * p)) })
	c.base, c.width, c.exp = lo, uint8(width), uint8(e)
	c.floats = nil
	c.enc = encDecimal
	return int64(len(c.packed)) * 8, true
}

// fixWidth drops the offsets of a raw string column whose non-NULL slots all
// have one length w > 0: a slot is found by multiplying, and NULL slots are
// padded to w with zero bytes (the block is rebuilt only when there are any).
// It returns the bytes of a rebuilt block.
func (c *colVec) fixWidth(n int) int64 {
	w := int64(-1) // no non-NULL slot yet
	for s := 0; s < n; s++ {
		if c.nulls != nil && c.nulls[s] {
			continue
		}
		switch l := int64(c.soffs[s+1] - c.soffs[s]); {
		case w < 0:
			w = l
		case l != w:
			return 0
		}
	}
	if w <= 0 {
		return 0
	}
	var built int64
	if c.nulls != nil {
		blk := make([]byte, n*int(w))
		for s := 0; s < n; s++ {
			copy(blk[s*int(w):], c.sbytes[c.soffs[s]:c.soffs[s+1]]) // a NULL slot is empty: zeros stay
		}
		c.sbytes, built = blk, int64(len(blk))
	}
	c.soffs, c.sw = nil, uint32(w)
	return built
}

// materializeRow boxes one row of the chunk: the row itself when the chunk was
// built over rows, a fresh slice otherwise.
func (c *chunk) materializeRow(i int) []Value {
	if f, ok := c.lazy.(*rowFill); ok {
		return f.rows[i]
	}
	row := make([]Value, c.width())
	for j := range row {
		row[j] = c.valueAt(j, i)
	}
	return row
}

// chunkifyRows appends boxed rows to dst as ephemeral chunks of at most
// chunkRows rows, for qc. Typed vectors are packed from the rows per column,
// on first touch, with no zone summaries (ephemeral chunks are never pruned).
func chunkifyRows(dst []chunkSlot, rows [][]Value, w int, qc *queryCtx) []chunkSlot {
	for lo := 0; lo < len(rows); lo += chunkRows {
		part := rows[lo:min(lo+chunkRows, len(rows))]
		ch := &chunk{cols: make([]colVec, w), n: len(part), lazy: &rowFill{rows: part, qc: qc}}
		ch.filled.init(w)
		dst = append(dst, ch)
	}
	return dst
}

// colSource is what a relation reads: one query's snapshot of a table — the
// (possibly pruned) sealed chunk slots plus the open tail rows — or an
// intermediate result in the same shape: a join's probe slots as sealed
// slots, boxed rows that already exist as an all-tail source (rowSource).
// Slots are resident chunks, segment-backed references or probe slots
// (chunkslot.go); resolving a slot can therefore read from disk, evaluate a
// join's kernels, and fail. A join's output is a stream — each scan worker
// holds the one chunk it is reading — unless something hashes or otherwise
// retains it (resolveAll). The source is created per scan, so its lazily built
// fields need no locking — everything that touches them runs before the morsel
// fan-out.
type colSource struct {
	sealed []chunkSlot
	tail   [][]Value
	nrows  int // an estimate while probes is set

	// probes marks a join's output that nothing has resolved: the slots are
	// probe slots, and loading them is the join's left pass.
	probes bool

	// counted marks a base-table snapshot whose nrows buildFrom added to the
	// query's RowsScanned; a bounded scan takes back the rows of the chunks
	// it never visited (scanChunks).
	counted bool

	slots []chunkSlot // sealed + ephemeral tail chunk slots, built on first use
	scan  []*chunk    // resolved chunks, cached by resolveAll
}

// rowSource wraps boxed rows a block already produced (and charged) — a
// derived table's result, the row join's output, the FROM-less single row — as
// a source. Row consumers get the rows back as they are; kernels pack typed
// vectors from them, a column at a time (chunkifyRows).
func rowSource(rows [][]Value) *colSource {
	return &colSource{tail: rows, nrows: len(rows)}
}

// scanSlots returns the slot sequence scans iterate: every sealed slot, then
// ephemeral chunks over the tail rows. Resolving slots is left to the caller
// so parallel scans can load lazily, chunk by chunk, under their own
// cancellation polls.
func (s *colSource) scanSlots(qc *queryCtx) []chunkSlot {
	if len(s.tail) == 0 {
		return s.sealed
	}
	if s.slots == nil {
		s.slots = make([]chunkSlot, 0, len(s.sealed)+(len(s.tail)+chunkRows-1)/chunkRows)
		s.slots = chunkifyRows(append(s.slots, s.sealed...), s.tail, len(s.tail[0]), qc)
	}
	return s.slots
}

// resolveAll loads every slot and caches the chunk sequence — the
// all-at-once path for consumers that need the whole relation resident (a
// join's hashed input, the row join's materialization). Over a join's probe
// slots that is the join's whole left pass, morsel-parallel; the chunks it
// produced (those with rows: only a probe slot loads an empty chunk) then are
// the source.
func (s *colSource) resolveAll(qc *queryCtx) ([]*chunk, error) {
	if s.scan != nil {
		return s.scan, nil
	}
	slots := s.scanSlots(qc)
	out := make([]*chunk, len(slots)) // chunk-pointer slice; loaded chunk bytes are tracked by the chunk cache
	// Loading resident or cached chunks is not worth a fan-out.
	nrows := 0
	if s.probes {
		nrows = s.nrows
	}
	_, err := scanMorsels(qc, slots, nrows, true, func() struct{} { return struct{}{} },
		func(_ struct{}, ci int, ch *chunk) error {
			out[ci] = ch
			return nil
		})
	if err != nil {
		return nil, err
	}
	if !s.probes {
		s.scan = out
		return out, nil
	}
	kept := out[:0]
	for _, ch := range out {
		if ch != nil {
			kept = append(kept, ch)
		}
	}
	s.hold(kept)
	return kept, nil
}

// hold makes resident chunks the source.
func (s *colSource) hold(chunks []*chunk) {
	slots := make([]chunkSlot, len(chunks))
	n := 0
	for i, ch := range chunks {
		slots[i] = ch
		n += ch.n
	}
	*s = colSource{sealed: slots, nrows: n, scan: chunks}
}

// materialize boxes the whole source for the row join, per query: rows that
// already exist are handed back, the rest are boxed and charged here. It can
// load segment-backed chunks from disk, hence the error.
func (s *colSource) materialize(qc *queryCtx) ([][]Value, error) {
	if len(s.sealed) == 0 {
		return s.tail, nil
	}
	chunks, err := s.resolveAll(qc)
	if err != nil {
		return nil, err
	}
	out := make([][]Value, 0, s.nrows)
	for _, ch := range chunks {
		if err := qc.pollAbort(); err != nil {
			return nil, err
		}
		if !ch.overRows() {
			qc.chargeMem(int64(ch.n) * boxedRowBytes(ch.width()))
		}
		for i := 0; i < ch.n; i++ {
			out = append(out, ch.materializeRow(i))
		}
	}
	return out, nil
}

// appendRow adds one already-normalized row to the table, sealing (and
// encoding) the tail into a columnar chunk when it reaches chunkRows.
// Callers hold the engine write lock. qc is the query charged for encoded
// seal state (dictionaries, code vectors); nil for context-free bulk loads.
func (t *Table) appendRow(row []Value, qc *queryCtx) {
	t.tail = append(t.tail, row)
	t.nrows++
	if len(t.tail) >= chunkRows {
		t.sealed = append(t.sealed, sealChunk(buildChunk(t.tail, len(t.Cols)), qc))
		// A fresh slice, not a truncation: concurrent readers may still
		// hold the old tail header.
		t.tail = nil
	}
}

// ownTail moves the open-tail rows a statement appended — the table had
// sealed chunks and tail rows before it — into rows of their own whose
// strings are copies in one block. Sealing copies a row's strings into the
// chunk's block; a row left in the tail would otherwise keep whatever its
// strings view alive, such as the block of a source chunk a flush has since
// dropped from memory (CTAS and INSERT … SELECT rows are views of their
// source). At most chunkRows-1 rows move, in four allocations: the cells, the
// bytes, the string headers and their boxes. Callers hold the engine write
// lock, and no snapshot can hold those rows yet, so replacing them races with
// no reader.
func (t *Table) ownTail(sealed, tail int) {
	if len(t.sealed) != sealed {
		tail = 0 // sealed during the statement: the whole tail is new
	}
	rows := t.tail[tail:]
	nstr, size := 0, 0
	for _, row := range rows {
		for _, v := range row {
			if s, ok := v.(string); ok && s != "" {
				nstr++
				size += len(s)
			}
		}
	}
	if nstr == 0 {
		return
	}
	blk, hdrs := make([]byte, 0, size), make([]string, 0, nstr)
	for _, row := range rows {
		for _, v := range row {
			if s, ok := v.(string); ok && s != "" {
				lo := uint32(len(blk))
				blk = append(blk, s...)
				hdrs = append(hdrs, blockStr(blk, lo, uint32(len(blk))))
			}
		}
	}
	boxed := boxStrings(hdrs)
	w := len(t.Cols)
	cells := make([]Value, len(rows)*w)
	for i, row := range rows {
		own := cells[i*w : (i+1)*w : (i+1)*w]
		for j, v := range row {
			if s, ok := v.(string); ok && s != "" {
				v, boxed = boxed[0], boxed[1:]
			}
			own[j] = v
		}
		rows[i] = own
	}
}

// NumRows returns the table's row count. Unlike Engine.RowCount it does not
// take the engine lock; callers coordinating with concurrent appends should
// go through the engine.
func (t *Table) NumRows() int { return t.nrows }

// ForEachRow calls fn for every row in order. The row slice is reused
// between calls — callers must not retain it. Like the old exported Rows
// field, iteration is not synchronized against concurrent appends.
func (t *Table) ForEachRow(fn func(row []Value) error) error {
	buf := make([]Value, len(t.Cols))
	cvs := make([]*colVec, len(t.Cols))
	// exported table utility with no query context; its consumers (dbgen, tests) run outside query execution
	for _, sl := range t.sealed {
		ch, err := sl.load(nil, nil)
		if err != nil {
			return err
		}
		for j := range cvs {
			cvs[j] = ch.col(j)
		}
		for i := 0; i < ch.n; i++ {
			for j, cv := range cvs {
				buf[j] = cv.value(i)
			}
			if err := fn(buf); err != nil {
				return err
			}
		}
	}
	for _, row := range t.tail {
		copy(buf, row)
		if err := fn(buf); err != nil {
			return err
		}
	}
	return nil
}
