// Package storage is the on-disk persistence layer for the engine's sealed
// columnar chunks: immutable segment files holding encoded chunks exactly as
// they live in memory (the dictionary, delta and decimal layouts serialize
// as-is; run-length columns, which earlier engines wrote, are still read and
// copied), plus a crash-safe versioned manifest recording which segments make
// up each table.
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
	"math"
	"unsafe"
)

// Format identifiers. The head magic versions the chunk-block layout; the
// foot magic proves the footer was written completely (a torn write cannot
// end with it).
const (
	segMagic     = "VDBSEG1\n"
	segFootMagic = "VDBSEGF\n"
	// FormatVersion is the segment meta-section version. Version 2 stores
	// dictionary codes in one byte, fixed-width string blocks and the decimal
	// float form; version 1 segments (u32 codes) are still read.
	FormatVersion = 2
)

// MaxDecimalExp is the largest exponent of an EncDecimal column: 10^18 and
// every smaller power of ten are exact in float64.
const MaxDecimalExp = 18

// Column kinds, mirroring engine.ColType by value. Stored as one byte.
const (
	KindAny uint8 = iota
	KindBool
	KindInt
	KindFloat
	KindString
)

// Column encodings, mirroring the engine's colEnc by value. The engine no
// longer makes EncRLE columns; it expands the ones segments hold on load.
const (
	EncNone uint8 = iota
	EncDict
	EncRLE
	EncDelta
	EncDecimal
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
//     the segment payload itself (end offsets, then bytes) — or, when every
//     slot has one length StrWidth > 0, StrBytes alone: slot s is
//     StrBytes[s*StrWidth:(s+1)*StrWidth], NULL slots padded, StrOffs nil.
//   - EncDict: Dict (sorted distinct strings, at most 256) + one-byte Codes;
//     strings live only in the dictionary.
//   - EncRLE: RunEnds + one value slot per run in the typed vector (for
//     strings, one StrOffs span per run); Nulls is per RUN. Only segments
//     written by earlier engines hold it.
//   - EncDelta: Base + Width + Packed words; Ints is nil.
//   - EncDecimal (KindFloat): EncDelta's Base + Width + Packed, plus Exp: row
//     i is float64(Base + field i) / 10^Exp, bit for bit; Floats is nil.
//
// Nulls (when non-nil) flags NULL slots; null slots of typed vectors hold
// zero values. Zone is the zone summary; it rides in the segment footer so
// pruning works without loading chunk data.
type Col struct {
	Kind uint8
	Enc  uint8

	Nulls []bool
	Zone  Zone

	Ints     []int64
	Floats   []float64
	StrBytes []byte
	StrOffs  []uint32
	StrWidth uint32
	Bools    []bool
	Anys     []any

	Dict  []string
	Codes []uint8

	RunEnds []int32

	Base   int64
	Width  uint8
	Exp    uint8
	Packed []uint64
}

// ColMeta is the footer-resident description of one chunk-column: enough
// for zone pruning and cache sizing without touching the chunk block.
type ColMeta struct {
	Kind     uint8
	Enc      uint8
	HasNulls bool
	Zone     Zone
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

// Zone is a chunk-column's zone summary, typed: the least and greatest of its
// non-NULL values, bound 0 and bound 1. Kinds[b] is a bound's kind — KindAny
// for both when every value is NULL, ZoneOpaque for a value no tag encodes —
// and a boxed column's two bounds may differ in kind. A KindInt bound holds
// its int64 in Num, a KindFloat bound its float64 bits, a KindBool bound 0 or
// 1, and a KindString bound its length, its bytes in str (Str): 40 bytes a
// zone, in every footer entry and stored column.
type Zone struct {
	Kinds [2]uint8
	Num   [2]uint64
	str   [2]*byte
}

// Str is string bound b ("" for a bound of another kind).
func (z *Zone) Str(b int) string {
	if z.Kinds[b] != KindString {
		return ""
	}
	return unsafe.String(z.str[b], z.Num[b])
}

// SetStr makes bound b the string s, sharing its bytes.
func (z *Zone) SetStr(b int, s string) {
	z.Kinds[b], z.Num[b], z.str[b] = KindString, uint64(len(s)), unsafe.StringData(s)
}

// ZoneOpaque is the kind of a bound of a dynamic type the footer cannot
// encode: it never prunes, and a segment cannot hold it.
const ZoneOpaque uint8 = 0xff

// ZoneOf is the zone with bounds min and max (both nil: every value NULL).
func ZoneOf(min, max any) Zone {
	var z Zone
	z.Set(0, min)
	z.Set(1, max)
	return z
}

// Set makes bound b the value v: nil, int64, float64, string, bool, or
// anything else as ZoneOpaque.
func (z *Zone) Set(b int, v any) {
	z.Num[b], z.str[b] = 0, nil
	switch x := v.(type) {
	case nil:
		z.Kinds[b] = KindAny
	case int64:
		z.Kinds[b], z.Num[b] = KindInt, uint64(x)
	case float64:
		z.Kinds[b], z.Num[b] = KindFloat, math.Float64bits(x)
	case string:
		z.SetStr(b, x)
	case bool:
		z.Kinds[b] = KindBool
		if x {
			z.Num[b] = 1
		}
	default:
		z.Kinds[b] = ZoneOpaque
	}
}

// Bound boxes bound b: nil when every value is NULL or the bound is opaque.
func (z *Zone) Bound(b int) any {
	switch z.Kinds[b] {
	case KindInt:
		return int64(z.Num[b])
	case KindFloat:
		return math.Float64frombits(z.Num[b])
	case KindString:
		return z.Str(b)
	case KindBool:
		return z.Num[b] != 0
	}
	return nil
}
