// Package storage is the on-disk persistence layer for the engine's sealed
// columnar chunks: immutable segment files holding encoded chunks exactly as
// they live in memory (PR 9's dict/RLE/delta layouts serialize as-is), plus
// a crash-safe versioned manifest recording which segments make up each
// table.
//
// The package is deliberately engine-agnostic: it speaks in neutral mirror
// types (Chunk, Col) whose slices the engine aliases directly — converting a
// sealed in-memory chunk to a storage.Chunk copies slice headers, never
// data. Keeping the format code here (and out of internal/engine) means the
// byte layout has exactly one owner, and the engine's scan paths stay
// byte-identical whether a chunk came from memory or disk.
//
// Durability contract: a segment file is immutable once written (write,
// fsync, then record it in the manifest); the manifest commits via
// write-temp + fsync + atomic rename. A crash therefore leaves either the
// old manifest (new segments are unreferenced orphans, swept at open) or the
// new one (segments fully fsynced before the rename). Torn or bit-rotted
// segments are detected by per-chunk CRC32 checksums and a footer checksum,
// and quarantined at open rather than trusted.
package storage

import (
	"errors"
	"fmt"
)

// Format identifiers. The head magic versions the chunk-block layout; the
// foot magic proves the footer was written completely (a torn write cannot
// end with it).
const (
	segMagic     = "VDBSEG1\n"
	segFootMagic = "VDBSEGF\n"
	// FormatVersion is the segment meta-section version.
	FormatVersion = 1
)

// Column kinds, mirroring engine.ColType by value. Stored as one byte.
const (
	KindAny uint8 = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// Column encodings, mirroring the engine's colEnc by value.
const (
	EncNone uint8 = iota
	EncDict
	EncRLE
	EncDelta
)

// ErrCorrupt is the sentinel wrapped by every corruption detection —
// checksum mismatches, truncated files, bad magics, malformed payloads.
// Callers test with errors.Is(err, storage.ErrCorrupt) and quarantine.
var ErrCorrupt = errors.New("storage: corrupt segment")

// CorruptError reports where and how a segment failed validation. It wraps
// ErrCorrupt.
type CorruptError struct {
	Path   string
	Detail string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("storage: corrupt segment %s: %s", e.Path, e.Detail)
}

func (e *CorruptError) Unwrap() error { return ErrCorrupt }

func corrupt(path, format string, args ...any) error {
	return &CorruptError{Path: path, Detail: fmt.Sprintf(format, args...)}
}

// Chunk is the serializable mirror of one sealed engine chunk: per-column
// encoded vectors plus row count. The engine converts by sharing slice
// headers in both directions.
type Chunk struct {
	NRows int
	Cols  []Col
}

// Col mirrors the engine's colVec. Which field groups are live follows Enc
// and Kind exactly as in memory:
//
//   - EncNone: the Kind-matching typed vector (Anys for KindAny, where nil
//     boxes are the NULLs and Nulls stays nil). KindString's vector is
//     StrBytes plus StrOffs: slot s is StrBytes[StrOffs[s]:StrOffs[s+1]],
//     StrOffs holds slots+1 offsets from 0 to len(StrBytes), and the pair is
//     the segment payload itself (end offsets, then bytes).
//   - EncDict: Dict (sorted distinct strings) + Codes; strings live only in
//     the dictionary.
//   - EncRLE: RunEnds + one value slot per run in the typed vector (for
//     strings, one StrOffs span per run); Nulls is per RUN.
//   - EncDelta: Base + Width + Packed words; Ints is nil.
//
// Nulls (when non-nil) flags NULL slots; null slots of typed vectors hold
// zero values. Min/Max are the zone summary boxes (nil for all-NULL
// columns); they ride in the segment footer so pruning works without
// loading chunk data.
type Col struct {
	Kind uint8
	Enc  uint8

	Nulls []bool
	Min   any
	Max   any

	Ints     []int64
	Floats   []float64
	StrBytes []byte
	StrOffs  []uint32
	Bools    []bool
	Anys     []any

	Dict  []string
	Codes []uint32

	RunEnds []int32

	Base   int64
	Width  uint8
	Packed []uint64
}

// ColMeta is the footer-resident description of one chunk-column: enough
// for zone pruning and cache sizing without touching the chunk block.
type ColMeta struct {
	Kind     uint8
	Enc      uint8
	HasNulls bool
	Min      any
	Max      any
}

// ChunkMeta locates and describes one chunk inside a segment file.
type ChunkMeta struct {
	Offset uint64 // byte offset of the chunk block
	Length uint64 // byte length of the chunk block
	CRC    uint32 // CRC32-C over the chunk block
	NRows  int
	Cols   []ColMeta
}

// SegMeta is a segment's decoded footer.
type SegMeta struct {
	NCols  int
	Chunks []ChunkMeta
}

// Rows sums the segment's chunk row counts.
func (m *SegMeta) Rows() int {
	n := 0
	for i := range m.Chunks {
		n += m.Chunks[i].NRows
	}
	return n
}
