package engine

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Columnar chunked storage. A table is an append-only sequence of sealed,
// immutable chunks of exactly chunkRows rows stored column-wise — per-column
// typed vectors ([]int64, []float64, []bool; strings as one byte block plus
// u32 offsets) with a null-flag vector — plus an open row-major tail holding
// the most recent < chunkRows rows. When the tail fills it is sealed into a
// chunk: values are packed into typed vectors and the per-column zone
// summaries (min/max over non-NULL values) are computed right there, so
// scan-range pruning never needs the lazy locking dance the old row store
// required. A sealed chunk holds no pointer per value: its strings are bytes
// it owns, not headers of strings the rows it was packed from referred to, so
// the collector traces a table's columns, not its values.
//
// Sealed chunks are immutable forever, which is what makes the concurrency
// story trivial: readers snapshot the chunk-slice header and the tail-slice
// header under the engine lock and can then scan without coordination,
// exactly as row snapshots used to work. The encoded columns are the only
// stored form of a table. The vectorized execution path (vectorize.go,
// vecexec.go) consumes the typed vectors directly, and what its kernels
// produce and a join gathers is the same type, colVec; the row closures
// (compile.go) read lanes too — the cells an expression names, boxed into a
// scratch row (valueAt), and whole rows only for the ones that pass WHERE
// (materializeRow) — so nothing boxed outlives the query that boxed it, and
// dynamic value types round-trip exactly.

// chunkRows is the sealed chunk size. It doubles as the zone-map pruning
// granularity: every sealed chunk carries its own min/max summaries.
const chunkRows = 256

// colEnc identifies the physical encoding of a column. Only table-storage
// chunks (sealed in Table.appendRow) take every encoding; kernel outputs and
// gathered join columns are raw or dict (a dictionary column's codes gathered,
// its dictionary shared), and ephemeral chunks over rows stay raw. Every
// encoding is transparent through isNull/value/the typed accessors — the row
// path and scramble construction read identical bytes either way — while the
// vectorized kernels (vectorize.go) pattern-match on enc to run on the
// compressed form.
type colEnc uint8

const (
	encNone  colEnc = iota // raw typed vector (or boxed TAny)
	encDict                // sorted per-chunk dictionary + uint32 codes (strings)
	encRLE                 // run-length: run end offsets + one value slot per run
	encDelta               // int64 offsets from the chunk minimum, bit-packed
)

// colVec is the engine's one vector of lanes: one column of a chunk (a typed
// vector plus null flags and, when sealed, the zone summary computed at seal
// time), a gathered join column, or a kernel's output. The last two are reset
// for every chunk and keep their storage (reset), so their flags, like their
// typed lanes, are resliced rather than remade. Strings are the one kind
// whose two forms differ: a stored column (sealed, or decoded from a segment)
// keeps them in a byte block (sbytes, soffs), a per-query vector as string
// headers (strs); slotStr reads either.
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

	// sbytes and soffs are a stored string column's slots — one per row, or
	// per run under encRLE: slot s is sbytes[soffs[s]:soffs[s+1]], and soffs
	// holds slots+1 offsets from 0 to len(sbytes). That is the segment
	// payload itself, so a flush writes the two slices and a cold load copies
	// them. A string read out of the column is a view of sbytes; stored
	// blocks are never written after seal. A NULL slot is empty.
	sbytes []byte
	soffs  []uint32

	// nulls flags NULL rows; empty when the column has no NULLs. Null slots
	// of a stored column's typed vectors hold zero values; a reset vector's
	// hold whatever its storage held. Under encRLE the flags are per RUN, not
	// per row (a null-flag change always starts a new run, so runs are
	// uniformly null or non-null); every other encoding keeps per-row flags.
	nulls []bool

	// min/max are the zone summary over non-NULL values (nil when every
	// value is NULL). Comparisons follow Compare, matching the WHERE
	// pushdown tests in zonemap.go.
	min, max Value

	// enc selects which of the encoding field groups below is live.
	enc colEnc

	// encDict: dict holds the chunk's distinct non-NULL strings in sorted
	// order, so code order preserves value order (range predicates compare
	// codes). codes[i] indexes dict; NULL rows keep code 0 and are flagged
	// in nulls. dictBoxed pre-boxes each entry once — every read-through box
	// of a dictionary value is a shared immutable interface, not a fresh
	// allocation. The entries of a stored column are views of one block the
	// column owns; a gathered column shares its source's. There are no
	// string slots (strs, sbytes, soffs).
	dict      []string
	dictBoxed []Value
	codes     []uint32

	// encRLE: runEnds[r] is the exclusive end row of run r; run r's value
	// lives in slot r of the typed vector (truncated to one slot per run).
	runEnds []int32

	// encDelta: row i decodes as base + the width-bit little-endian field
	// starting at bit i*width of packed. NULL rows pack zero. width 0 means
	// every non-NULL value equals base and packed is nil. ints is nil.
	base   int64
	width  uint8
	packed []uint64
}

// isNull reports whether row i of the column is NULL. (Kept small enough to
// inline: kernels call it per lane.)
func (c *colVec) isNull(i int) bool {
	if len(c.nulls) == 0 {
		return c.kind == TAny && c.anys[i] == nil
	}
	if c.enc == encRLE {
		i = c.runIdx(i)
	}
	return c.nulls[i]
}

// runFrom returns the run holding row i of an encRLE column, walking forward
// from run r, the previous row's: O(rows + runs) over ascending rows, a binary
// search when i is behind run r.
func (c *colVec) runFrom(r, i int) int {
	if r > 0 && int(c.runEnds[r-1]) > i {
		return c.runIdx(i)
	}
	for int(c.runEnds[r]) <= i {
		r++
	}
	return r
}

// runIdx returns the run holding row i of an encRLE column: the first run
// whose (exclusive) end offset is past i.
func (c *colVec) runIdx(i int) int {
	lo, hi := 0, len(c.runEnds)-1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if int(c.runEnds[mid]) > i {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
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

// strAt reads string row i through the encoding (callers have excluded NULL
// rows and checked the kind).
func (c *colVec) strAt(i int) string {
	switch c.enc {
	case encDict:
		return c.dict[c.codes[i]]
	case encRLE:
		return c.slotStr(c.runIdx(i))
	}
	return c.slotStr(i)
}

// slotStr reads string slot s: a view of the block of a stored column, the
// lane of a per-query one.
func (c *colVec) slotStr(s int) string {
	if c.soffs == nil {
		return c.strs[s]
	}
	return blockStr(c.sbytes, c.soffs[s], c.soffs[s+1])
}

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
// typed vectors (a string box holds a header viewing the column's block;
// dictionary columns return the shared pre-boxed entry); TAny columns return
// the original box.
func (c *colVec) value(i int) Value {
	if c.kind == TAny {
		return c.anys[i]
	}
	slot := i // a run-length column keeps one slot, and one flag, per run
	if c.enc == encRLE {
		slot = c.runIdx(i)
	}
	switch {
	case len(c.nulls) > 0 && c.nulls[slot]:
		return nil
	case c.enc == encDict:
		return c.dictBoxed[c.codes[i]]
	case c.enc == encDelta:
		return c.deltaAt(i)
	case c.kind == TInt:
		return c.ints[slot]
	case c.kind == TFloat:
		return c.floats[slot]
	case c.kind == TString:
		return c.slotStr(slot)
	}
	return c.bools[slot]
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
// one-to-many join outputs) stored column-wise. Immutable after construction,
// except that a chunk with a filler builds its column vectors lazily.
type chunk struct {
	cols []colVec
	n    int

	// lazy is non-nil for a chunk whose columns are built on first touch, each
	// at most once, from what the filler holds: row references into a join's
	// inputs (joinGather, vecjoin.go), boxed rows that already exist (rowFill),
	// a verified segment block (segFill, chunkslot.go). Columns a query never
	// reads are never gathered, packed or decoded. Resident storage chunks
	// leave it nil and read cols directly.
	lazy colFiller

	// filled[j] is set once cols[j] is built; mu serializes the builds, so a
	// reader that sees the flag sees the column and takes no lock.
	filled []atomic.Bool
	mu     sync.Mutex
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
	packCol(&c.cols[j], f.rows, j, false, false)
}

func (f *rowFill) kindOf(c *chunk, j int) ColType { return c.col(j).kind }

func (f *rowFill) cellAt(c *chunk, j, i int) Value { return f.rows[i][j] }

// col returns column j's vector, building it first if the chunk fills lazily.
func (c *chunk) col(j int) *colVec {
	if c.lazy != nil && !c.filled[j].Load() {
		c.mu.Lock()
		if !c.filled[j].Load() {
			c.lazy.fillCol(c, j)
			c.filled[j].Store(true)
		}
		c.mu.Unlock()
	}
	return &c.cols[j]
}

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

// joinOutput reports whether the chunk is row references into a join's inputs.
func (c *chunk) joinOutput() bool {
	_, ok := c.lazy.(*joinGather)
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

// buildChunk seals rows (all of width w) into a columnar chunk in the stored
// form. Zone summaries only matter for table storage (scan pruning reads
// them); the flusher's staging chunk skips the per-value Compare calls.
func buildChunk(rows [][]Value, w int, withZones bool) *chunk {
	ch := &chunk{cols: make([]colVec, w), n: len(rows)}
	for j := range ch.cols {
		packCol(&ch.cols[j], rows, j, true, withZones)
	}
	return ch
}

// packCol packs column j of rows into col: a typed vector when its non-NULL
// values share one dynamic type, the original boxes otherwise, with the zone
// summary computed in the same pass when withZones is set. A stored column
// copies its strings — into one block, or, boxed, one by one — so it refers to
// none of the rows' strings; a per-query column (stored false) references
// them.
func packCol(col *colVec, rows [][]Value, j int, stored, withZones bool) {
	n := len(rows)
	// Pass 1: storage kind (TAny on mixed types or all NULLs) and the
	// zone summary. min/max reference the existing boxes — no boxing.
	kind := ColType(-1)
	hasNull := false
	for i := 0; i < n; i++ {
		v := rows[i][j]
		if v == nil {
			hasNull = true
			continue
		}
		if t := storageKind(v); kind == -1 {
			kind = t
		} else if kind != t {
			kind = TAny
		}
		if withZones {
			if col.min == nil || Compare(v, col.min) < 0 {
				col.min = v
			}
			if col.max == nil || Compare(v, col.max) > 0 {
				col.max = v
			}
		}
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
		if !stored {
			col.strs = make([]string, n)
			for i := 0; i < n; i++ {
				if v := rows[i][j]; v != nil {
					col.strs[i] = v.(string)
				} else {
					col.nulls[i] = true
				}
			}
			break
		}
		size := 0
		for i := 0; i < n; i++ {
			s, _ := rows[i][j].(string)
			size += len(s)
		}
		col.sbytes, col.soffs = make([]byte, size), make([]uint32, n+1)
		off := 0
		for i := 0; i < n; i++ {
			if v := rows[i][j]; v != nil {
				off += copy(col.sbytes[off:], v.(string))
			} else {
				col.nulls[i] = true
			}
			col.soffs[i+1] = uint32(off)
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

// Encoding selection. Thresholds are deliberately conservative: an encoding
// must shrink the column (and speed the kernels) decisively before the seal
// pass commits to it, because a bad bet is paid on every scan until the
// table dies.
const (
	rleMaxRunsDiv  = 8  // RLE when runs <= n/rleMaxRunsDiv (mean run length >= 8)
	dictMaxCardDiv = 2  // dict when distinct strings <= n/dictMaxCardDiv
	deltaMaxWidth  = 32 // delta when the packed field fits 32 bits
)

// forceEncodingsEnv is a test knob: when set (non-empty), every sealed
// chunk-column takes some encoding regardless of the thresholds — strings
// dictionary-encode, ints delta-encode (RLE when the range needs >= 64
// bits), floats and bools run-length-encode even with run length 1. CI runs
// the workload parity suite once under it so the encoded kernel paths
// cannot rot behind cardinality heuristics.
const forceEncodingsEnv = "ENGINE_FORCE_ENCODINGS"

func forceEncodings() bool { return os.Getenv(forceEncodingsEnv) != "" }

// laneEq reports whether raw (pre-encoding) rows a and b of the column hold
// the same value for run detection. Floats compare by bit pattern: -0.0 and
// 0.0 (or two NaN payloads) must not collapse into one run, or decode would
// not be byte-identical.
func (c *colVec) laneEq(a, b int) bool {
	an := c.nulls != nil && c.nulls[a]
	bn := c.nulls != nil && c.nulls[b]
	if an || bn {
		return an == bn
	}
	switch c.kind {
	case TInt:
		return c.ints[a] == c.ints[b]
	case TFloat:
		return math.Float64bits(c.floats[a]) == math.Float64bits(c.floats[b])
	case TString:
		return c.slotStr(a) == c.slotStr(b)
	}
	return c.bools[a] == c.bools[b]
}

// countRuns counts maximal constant runs (laneEq equivalence) in rows [0,n).
func (c *colVec) countRuns(n int) int {
	runs := 1
	for i := 1; i < n; i++ {
		if !c.laneEq(i-1, i) {
			runs++
		}
	}
	return runs
}

// encodeChunk encodes each column of a freshly sealed storage chunk in
// place and charges the encoded footprint to the query's memory gauge (qc
// may be nil for context-free bulk loads). Runs before the chunk is
// published, so readers only ever see the final form.
func encodeChunk(ch *chunk, qc *queryCtx) {
	force := forceEncodings()
	var bytes int64
	for j := range ch.cols {
		c := &ch.cols[j]
		bytes += encodeCol(c, ch.n, force)
		c.ownZone()
	}
	qc.chargeMem(bytes)
}

// ownZone makes a sealed column's string zone bounds its own: packCol took them
// from the rows it packed, whose strings may be views of another chunk's
// block. A string column's bounds become views of the first slots holding
// them, a boxed column's copies; a dictionary's are its own entries already.
func (c *colVec) ownZone() {
	switch {
	case c.kind == TString && c.enc != encDict && c.min != nil:
		lo, hi := c.min.(string), c.max.(string)
		for s, found := 0, 0; found != 3 && s+1 < len(c.soffs); s++ {
			v := c.slotStr(s)
			if found&1 == 0 && v == lo {
				c.min, found = v, found|1
			}
			if found&2 == 0 && v == hi {
				c.max, found = v, found|2
			}
		}
	case c.kind == TAny:
		if s, ok := c.min.(string); ok {
			c.min = strings.Clone(s)
		}
		if s, ok := c.max.(string); ok {
			c.max = strings.Clone(s)
		}
	}
}

// encodeCol picks and applies one encoding for a sealed chunk-column,
// returning the estimated byte footprint of the encoded form (0 when the
// column stays raw). Boxed (TAny) columns — mixed dynamic types or all
// NULLs — never encode.
func encodeCol(c *colVec, n int, force bool) int64 {
	if c.kind == TAny || n == 0 {
		return 0
	}
	runs := c.countRuns(n)
	if !force && runs <= n/rleMaxRunsDiv {
		return c.encodeRLE(n, runs)
	}
	switch c.kind {
	case TString:
		dict := c.sortedDict(n)
		if force || len(dict) <= n/dictMaxCardDiv {
			return c.encodeDict(n, dict)
		}
	case TInt:
		if w := c.deltaWidth(); w <= deltaMaxWidth || (force && w < 64) {
			return c.encodeDelta(n, w)
		} else if force {
			return c.encodeRLE(n, runs)
		}
	case TFloat, TBool:
		if force {
			return c.encodeRLE(n, runs)
		}
	}
	return 0
}

// sortedDict returns the column's distinct non-NULL strings, sorted.
func (c *colVec) sortedDict(n int) []string {
	seen := make(map[string]struct{}, 16)
	dict := make([]string, 0, 16)
	for i := 0; i < n; i++ {
		if c.nulls != nil && c.nulls[i] {
			continue
		}
		s := c.slotStr(i)
		if _, ok := seen[s]; !ok {
			seen[s] = struct{}{}
			dict = append(dict, s)
		}
	}
	sort.Strings(dict)
	return dict
}

// encodeDict codes the raw column against dict, its sorted distinct strings,
// whose entries it then moves into one block of their own: the raw block goes.
func (c *colVec) encodeDict(n int, dict []string) int64 {
	codes := make([]uint32, n)
	for i := 0; i < n; i++ {
		if c.nulls != nil && c.nulls[i] {
			continue
		}
		codes[i] = uint32(sort.SearchStrings(dict, c.slotStr(i)))
	}
	size := 0
	for _, s := range dict {
		size += len(s)
	}
	blk := make([]byte, 0, size)
	boxed := make([]Value, len(dict))
	for ci, s := range dict {
		lo := uint32(len(blk))
		blk = append(blk, s...)
		dict[ci] = blockStr(blk, lo, uint32(len(blk)))
		boxed[ci] = dict[ci]
	}
	c.dict, c.dictBoxed, c.codes = dict, boxed, codes
	c.sbytes, c.soffs = nil, nil
	c.enc = encDict
	// The sorted dictionary's ends are exact zone bounds — byte-equal to
	// the Compare-derived min/max buildChunk found — and they reuse the
	// boxes downstream pruning already holds.
	c.min, c.max = boxed[0], boxed[len(boxed)-1]
	return int64(size) + int64(len(dict))*(16+24) + int64(n)*4
}

func (c *colVec) encodeRLE(n, runs int) int64 {
	ends := make([]int32, 0, runs)
	for i := 1; i <= n; i++ {
		if i == n || !c.laneEq(i-1, i) {
			ends = append(ends, int32(i))
		}
	}
	var runNulls []bool
	markNull := func(r int) {
		if runNulls == nil {
			runNulls = make([]bool, len(ends))
		}
		runNulls[r] = true
	}
	elem, extra := int64(8), int64(0)
	prev := 0
	switch c.kind {
	case TInt:
		vals := make([]int64, len(ends))
		for r, e := range ends {
			if c.nulls != nil && c.nulls[prev] {
				markNull(r)
			} else {
				vals[r] = c.ints[prev]
			}
			prev = int(e)
		}
		c.ints = vals
	case TFloat:
		vals := make([]float64, len(ends))
		for r, e := range ends {
			if c.nulls != nil && c.nulls[prev] {
				markNull(r)
			} else {
				vals[r] = c.floats[prev]
			}
			prev = int(e)
		}
		c.floats = vals
	case TString:
		// Two passes over the run starts: the block's size, then its bytes.
		size := 0
		for _, e := range ends {
			size += int(c.soffs[prev+1] - c.soffs[prev]) // a NULL slot is empty
			prev = int(e)
		}
		blk, offs := make([]byte, 0, size), make([]uint32, len(ends)+1)
		prev = 0
		for r, e := range ends {
			if c.nulls != nil && c.nulls[prev] {
				markNull(r)
			}
			blk = append(blk, c.sbytes[c.soffs[prev]:c.soffs[prev+1]]...)
			offs[r+1] = uint32(len(blk))
			prev = int(e)
		}
		c.sbytes, c.soffs = blk, offs
		elem, extra = 4, int64(4+size) // an offset per run; the first offset and the bytes
	case TBool:
		elem = 1
		vals := make([]bool, len(ends))
		for r, e := range ends {
			if c.nulls != nil && c.nulls[prev] {
				markNull(r)
			} else {
				vals[r] = c.bools[prev]
			}
			prev = int(e)
		}
		c.bools = vals
	}
	c.nulls = runNulls
	c.runEnds = ends
	c.enc = encRLE
	return int64(len(ends))*(4+elem) + extra
}

// deltaWidth returns the bit width needed to pack this int column as
// offsets from its zone minimum. The zone summary is always present for
// storage seals (buildChunk computes it with withZones), and uint64
// subtraction is exact modulo 2^64, so negative ranges work out.
func (c *colVec) deltaWidth() int {
	lo, _ := c.min.(int64)
	hi, _ := c.max.(int64)
	return bits.Len64(uint64(hi) - uint64(lo))
}

func (c *colVec) encodeDelta(n, width int) int64 {
	base, _ := c.min.(int64)
	var packed []uint64
	if width > 0 {
		packed = make([]uint64, (n*width+63)/64)
		for i := 0; i < n; i++ {
			if c.nulls != nil && c.nulls[i] {
				continue
			}
			d := uint64(c.ints[i]) - uint64(base)
			bit := uint(i) * uint(width)
			word, off := bit>>6, bit&63
			packed[word] |= d << off
			if off+uint(width) > 64 {
				packed[word+1] |= d >> (64 - off)
			}
		}
	}
	c.base, c.width, c.packed = base, uint8(width), packed
	c.ints = nil
	c.enc = encDelta
	return int64(len(packed)) * 8
}

// materializeRow boxes one row of the chunk: the row itself when the chunk was
// built over rows, a fresh slice otherwise.
func (c *chunk) materializeRow(i int) []Value {
	if f, ok := c.lazy.(*rowFill); ok {
		return f.rows[i]
	}
	row := make([]Value, len(c.cols))
	for j := range c.cols {
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
		dst = append(dst, &chunk{cols: make([]colVec, w), n: len(part),
			lazy: &rowFill{rows: part, qc: qc}, filled: make([]atomic.Bool, w)})
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
	out := make([]*chunk, len(slots)) //verdict:nocharge chunk-pointer slice; loaded chunk bytes are tracked by the chunk cache
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
			qc.chargeMem(int64(ch.n) * boxedRowBytes(len(ch.cols)))
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
		ch := buildChunk(t.tail, len(t.Cols), true)
		encodeChunk(ch, qc)
		t.sealed = append(t.sealed, ch)
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

// ScanColumn calls fn with every value of one column in row order, boxing
// only that column — the single-column analogue of ForEachRow for
// full-scan consumers like the native-approximation baselines. Iteration
// is not synchronized against concurrent appends.
func (t *Table) ScanColumn(col int, fn func(v Value) error) error {
	if col < 0 || col >= len(t.Cols) {
		return fmt.Errorf("engine: column %d out of range for %q", col, t.Name)
	}
	//verdict:nopoll exported table utility with no query context; consumers (baselines, loaders) run outside query execution
	for _, sl := range t.sealed {
		ch, err := sl.load(nil, nil)
		if err != nil {
			return err
		}
		cv := ch.col(col)
		for i := 0; i < ch.n; i++ {
			if err := fn(cv.value(i)); err != nil {
				return err
			}
		}
	}
	for _, row := range t.tail {
		if err := fn(row[col]); err != nil {
			return err
		}
	}
	return nil
}

// ForEachRow calls fn for every row in order. The row slice is reused
// between calls — callers must not retain it. Like the old exported Rows
// field, iteration is not synchronized against concurrent appends.
func (t *Table) ForEachRow(fn func(row []Value) error) error {
	buf := make([]Value, len(t.Cols))
	cvs := make([]*colVec, len(t.Cols))
	//verdict:nopoll exported table utility with no query context; consumers (baselines, loaders) run outside query execution
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
