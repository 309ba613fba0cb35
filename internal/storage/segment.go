package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"

	"verdictdb/internal/faultpoint"
)

// crcTable is the Castagnoli polynomial: hardware-accelerated on amd64 and
// arm64, which matters because every chunk load (OpenChunk) verifies its
// checksum.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Segment file layout (all integers little-endian):
//
//	[8]  head magic "VDBSEG1\n"
//	     chunk blocks, back to back (see encodeChunkBlock)
//	     meta section (see encodeMeta)
//	[4]  CRC32-C over the meta section
//	[8]  meta section length (uint64)
//	[8]  foot magic "VDBSEGF\n"
//
// Chunk block, per column in order (format version 2):
//
//	[1] kind  [1] enc  [1] flags (bit0: has nulls, bit1: fixed-width strings)
//	EncNone:  nulls? bitmap(n) | payload by kind — ints/floats 8n bytes,
//	          bools bitmap(n), strings u32 n + end offsets(u32×n) + bytes,
//	          or under bit1 u32 w + u32 bytes (= n×w) + bytes,
//	          any tagged-value×n (nil tag = NULL; Nulls bitmap absent)
//	          (a stored string vector is this payload in memory too:
//	          Col.StrOffs and Col.StrBytes, see appendStrBlock)
//	EncDict:  nulls? bitmap(n) | u32 dictLen (<= 256) | end offsets(u32×dictLen) |
//	          dict bytes | codes u8×n
//	EncRLE:   u32 runs | runEnds i32×runs | nulls? bitmap(runs) |
//	          run values by kind (one slot per run, strings as offsets+bytes)
//	EncDelta: nulls? bitmap(n) | i64 base | u8 width | u32 words | u64×words
//	EncDecimal: nulls? bitmap(n) | i64 base | u8 width | u8 exp | u32 words |
//	          u64×words
//
// Version 1 differs in one place: dictionary codes are u32×n. A version-1
// segment is read as it is (Segment.v1), its codes narrowed to bytes.
//
// Tagged value: [1] tag (0 nil, 1 int64, 2 float64 bits, 3 string, 4 bool)
// followed by the payload (strings as u32 length + bytes).
//
// Reading a chunk is two steps. OpenChunk verifies: it reads the block, checks
// its CRC, and walks every column without building anything (walkCol), which is
// where each length, offset, code, run end and tag above is checked against the
// bytes that are there — the only step that can fail. Block.DecodeCol then
// builds one column from bytes known to be well-formed (decodeCol), so a
// reader pays for the columns it uses. A column carries no length prefix:
// where it ends is known only by walking it, which is why the walk covers the
// whole block.

// --- encoding helpers -------------------------------------------------------

func appendU32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func appendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// appendBitmap bit-packs a bool slice (LSB-first within each byte).
func appendBitmap(b []byte, flags []bool) []byte {
	nb := (len(flags) + 7) / 8
	start := len(b)
	b = append(b, make([]byte, nb)...)
	for i, f := range flags {
		if f {
			b[start+i>>3] |= 1 << (i & 7)
		}
	}
	return b
}

// appendStrings writes a string vector as u32 end-offsets then the bytes.
func appendStrings(b []byte, strs []string) []byte {
	b = appendU32(b, uint32(len(strs)))
	off := uint32(0)
	for _, s := range strs {
		off += uint32(len(s))
		b = appendU32(b, off)
	}
	for _, s := range strs {
		b = append(b, s...)
	}
	return b
}

// appendStrBlock writes a stored string vector (Col.StrBytes, Col.StrOffs) in
// appendStrings' layout. The stored form already is that payload — the end
// offsets after the leading 0, then the bytes — so nothing walks the strings.
func appendStrBlock(b, bytes []byte, offs []uint32) []byte {
	b = appendU32(b, uint32(len(offs)-1))
	for _, o := range offs[1:] {
		b = appendU32(b, o)
	}
	return append(b, bytes...)
}

// Column flags, the third byte of a column in a chunk block.
const (
	flagNulls uint8 = 1 << iota // a null bitmap follows
	flagFixed                   // EncNone strings: one slot width, no offsets
)

// maxDictLen bounds a chunk's dictionary: a one-byte code indexes it.
const maxDictLen = 256

// Tagged dynamic values (zone bounds, KindAny lanes).
const (
	tagNil uint8 = iota
	tagInt
	tagFloat
	tagString
	tagBool
)

func appendTagged(b []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(b, tagNil), nil
	case int64:
		return appendU64(append(b, tagInt), uint64(x)), nil
	case float64:
		return appendU64(append(b, tagFloat), math.Float64bits(x)), nil
	case string:
		b = appendU32(append(b, tagString), uint32(len(x)))
		return append(b, x...), nil
	case bool:
		if x {
			return append(b, tagBool, 1), nil
		}
		return append(b, tagBool, 0), nil
	}
	return b, fmt.Errorf("storage: unsupported dynamic value type %T", v)
}

// appendBound writes zone bound b as a tagged value.
func appendBound(buf []byte, z *Zone, b int) ([]byte, error) {
	if z.Kinds[b] == ZoneOpaque {
		return buf, fmt.Errorf("storage: unsupported dynamic value type in a zone bound")
	}
	return appendTagged(buf, z.Bound(b))
}

// encodeChunkBlock serializes one chunk's column payloads.
func encodeChunkBlock(b []byte, ch *Chunk) ([]byte, error) {
	for ci := range ch.Cols {
		c := &ch.Cols[ci]
		flags := uint8(0)
		if c.Nulls != nil {
			flags |= flagNulls
		}
		if c.StrWidth > 0 {
			flags |= flagFixed
		}
		b = append(b, c.Kind, c.Enc, flags)
		var err error
		switch c.Enc {
		case EncNone:
			if c.Nulls != nil {
				b = appendBitmap(b, c.Nulls)
			}
			switch c.Kind {
			case KindInt:
				for _, v := range c.Ints {
					b = appendU64(b, uint64(v))
				}
			case KindFloat:
				for _, v := range c.Floats {
					b = appendU64(b, math.Float64bits(v))
				}
			case KindString:
				if c.StrWidth > 0 {
					b = appendU32(appendU32(b, c.StrWidth), uint32(len(c.StrBytes)))
					b = append(b, c.StrBytes...)
				} else {
					b = appendStrBlock(b, c.StrBytes, c.StrOffs)
				}
			case KindBool:
				b = appendBitmap(b, c.Bools)
			case KindAny:
				for _, v := range c.Anys {
					if b, err = appendTagged(b, v); err != nil {
						return nil, err
					}
				}
			}
		case EncDict:
			if c.Nulls != nil {
				b = appendBitmap(b, c.Nulls)
			}
			b = appendStrings(b, c.Dict)
			b = append(b, c.Codes...)
		case EncRLE:
			b = appendU32(b, uint32(len(c.RunEnds)))
			for _, e := range c.RunEnds {
				b = appendU32(b, uint32(e))
			}
			if c.Nulls != nil {
				b = appendBitmap(b, c.Nulls)
			}
			switch c.Kind {
			case KindInt:
				for _, v := range c.Ints {
					b = appendU64(b, uint64(v))
				}
			case KindFloat:
				for _, v := range c.Floats {
					b = appendU64(b, math.Float64bits(v))
				}
			case KindString:
				b = appendStrBlock(b, c.StrBytes, c.StrOffs)
			case KindBool:
				b = appendBitmap(b, c.Bools)
			}
		case EncDelta, EncDecimal:
			if c.Nulls != nil {
				b = appendBitmap(b, c.Nulls)
			}
			b = appendU64(b, uint64(c.Base))
			b = append(b, c.Width)
			if c.Enc == EncDecimal {
				b = append(b, c.Exp)
			}
			b = appendU32(b, uint32(len(c.Packed)))
			for _, w := range c.Packed {
				b = appendU64(b, w)
			}
		default:
			return nil, fmt.Errorf("storage: unknown column encoding %d", c.Enc)
		}
	}
	return b, nil
}

// encodeMeta serializes the footer meta section for the given chunk metas.
func encodeMeta(b []byte, ncols int, chunks []ChunkMeta) ([]byte, error) {
	b = appendU32(b, FormatVersion)
	b = appendU32(b, uint32(len(chunks)))
	b = appendU32(b, uint32(ncols))
	var err error
	for i := range chunks {
		cm := &chunks[i]
		b = appendU64(b, cm.Offset)
		b = appendU64(b, cm.Length)
		b = appendU32(b, cm.CRC)
		b = appendU32(b, uint32(cm.NRows))
		for j := range cm.Cols {
			col := &cm.Cols[j]
			flags := uint8(0)
			if col.HasNulls {
				flags |= 1
			}
			b = append(b, col.Kind, col.Enc, flags)
			for bound := range col.Zone.Kinds {
				if b, err = appendBound(b, &col.Zone, bound); err != nil {
					return nil, err
				}
			}
		}
	}
	return b, nil
}

// WriteSegment writes chunks as one immutable segment file and fsyncs it.
// The file is complete and durable when WriteSegment returns nil; the caller
// then records it in the manifest. ncols must match every chunk's width.
// A failed write leaves at worst an orphan file the next open sweeps.
func WriteSegment(path string, ncols int, chunks []*Chunk) (retErr error) {
	if err := faultpoint.Hit(faultpoint.SiteStorageSegmentWrite); err != nil {
		return fmt.Errorf("storage: writing segment %s: %w", path, err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("storage: creating segment %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && retErr == nil {
			retErr = fmt.Errorf("storage: closing segment %s: %w", path, cerr)
		}
	}()

	buf := make([]byte, 0, 1<<16)
	buf = append(buf, segMagic...)
	metas := make([]ChunkMeta, len(chunks))
	for i, ch := range chunks {
		if len(ch.Cols) != ncols {
			return fmt.Errorf("storage: chunk %d has %d columns, segment has %d", i, len(ch.Cols), ncols)
		}
		start := len(buf)
		buf, err = encodeChunkBlock(buf, ch)
		if err != nil {
			return err
		}
		block := buf[start:]
		cm := &metas[i]
		cm.Offset = uint64(start)
		cm.Length = uint64(len(block))
		cm.CRC = crc32.Checksum(block, crcTable)
		cm.NRows = ch.NRows
		cm.Cols = make([]ColMeta, ncols)
		for j := range ch.Cols {
			c := &ch.Cols[j]
			cm.Cols[j] = ColMeta{
				Kind: c.Kind, Enc: c.Enc, HasNulls: c.Nulls != nil, Zone: c.Zone,
			}
		}
	}
	metaStart := len(buf)
	buf, err = encodeMeta(buf, ncols, metas)
	if err != nil {
		return err
	}
	meta := buf[metaStart:]
	buf = appendU32(buf, crc32.Checksum(meta, crcTable))
	buf = appendU64(buf, uint64(len(meta)))
	buf = append(buf, segFootMagic...)

	if _, err := f.Write(buf); err != nil {
		return fmt.Errorf("storage: writing segment %s: %w", path, err)
	}
	if err := faultpoint.Hit(faultpoint.SiteStorageSegmentFsync); err != nil {
		return fmt.Errorf("storage: syncing segment %s: %w", path, err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: syncing segment %s: %w", path, err)
	}
	return nil
}

// --- decoding ---------------------------------------------------------------

// byteReader is a bounds-checked cursor over bytes read from a file: the footer
// meta section, and a chunk block during OpenChunk's walk. All reads after an
// overrun return zero values; callers check err once at the end (corrupt input
// degrades to an error, never a panic). Nothing here allocates per value except
// tagged, which the footer parse uses; the walk uses the skip forms.
type byteReader struct {
	b   []byte
	pos int
	err error
}

func (r *byteReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("malformed data at offset %d", r.pos)
	}
}

func (r *byteReader) take(n int) []byte {
	if r.err != nil || n < 0 || n > len(r.b)-r.pos {
		r.fail()
		return nil
	}
	out := r.b[r.pos : r.pos+n]
	r.pos += n
	return out
}

func (r *byteReader) u8() uint8 {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *byteReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *byteReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// count reads a u32 element count that the bytes left could at least hold
// one byte each of — the cap that keeps a flipped length from sizing anything.
func (r *byteReader) count() int {
	n := int(r.u32())
	if n < 0 || n > len(r.b)-r.pos {
		r.fail()
		return 0
	}
	return n
}

// bound reads a tagged value into zone bound b.
func (r *byteReader) bound(z *Zone, b int) {
	switch r.u8() {
	case tagNil:
		z.Kinds[b] = KindAny
	case tagInt:
		z.Kinds[b], z.Num[b] = KindInt, r.u64()
	case tagFloat:
		z.Kinds[b], z.Num[b] = KindFloat, r.u64()
	case tagString:
		z.SetStr(b, string(r.take(int(r.u32()))))
	case tagBool:
		z.Kinds[b], z.Num[b] = KindBool, 0
		if r.u8() != 0 {
			z.Num[b] = 1
		}
	default:
		r.fail()
	}
}

// skipTagged steps over one tagged value, checking its tag.
func (r *byteReader) skipTagged() {
	switch r.u8() {
	case tagNil:
	case tagInt, tagFloat:
		r.take(8)
	case tagString:
		r.take(int(r.u32()))
	case tagBool:
		r.take(1)
	default:
		r.fail()
	}
}

// skipStrings steps over a string vector (appendStrings), checking that its
// end offsets never decrease and its bytes are present, and returns its
// length. want >= 0 is the length it must have.
func (r *byteReader) skipStrings(want int) int {
	n := r.count()
	if want >= 0 && n != want {
		r.fail()
	}
	ends := r.take(4 * n)
	prev := uint32(0)
	for i := 0; i+4 <= len(ends); i += 4 {
		end := binary.LittleEndian.Uint32(ends[i:])
		if end < prev {
			r.fail()
			return 0
		}
		prev = end
	}
	r.take(int(prev))
	return n
}

func bitmapLen(n int) int { return (n + 7) / 8 }

// walkCol steps r over one column of an n-row chunk block, making every
// structural check there is to make, so that decodeCol over the same bytes
// cannot index out of range and the column it builds cannot make the engine's
// accessors do so either.
func walkCol(r *byteReader, n int, cm *ColMeta, v1 bool) {
	kind, enc, flags := r.u8(), r.u8(), r.u8()
	hasNulls, fixed := flags&flagNulls != 0, flags&flagFixed != 0
	// The footer is what planning and pruning believed before the block was
	// read (kind, encoding, zone bounds); a block that disagrees is not the
	// one the footer describes.
	if kind != cm.Kind || enc != cm.Enc || hasNulls != cm.HasNulls ||
		flags&^(flagNulls|flagFixed) != 0 || fixed && (v1 || enc != EncNone || kind != KindString) {
		r.fail()
	}
	if hasNulls && enc != EncRLE {
		r.take(bitmapLen(n))
	}
	switch enc {
	case EncNone:
		switch kind {
		case KindInt, KindFloat:
			r.take(8 * n)
		case KindString:
			if !fixed {
				r.skipStrings(n)
				break
			}
			w, size := uint64(r.u32()), uint64(r.u32())
			if w == 0 || size != uint64(n)*w {
				r.fail()
			}
			r.take(int(size))
		case KindBool:
			r.take(bitmapLen(n))
		case KindAny:
			for i := 0; i < n && r.err == nil; i++ {
				r.skipTagged()
			}
		default:
			r.fail()
		}
	case EncDict:
		if kind != KindString {
			r.fail()
		}
		// A chunk has at most 256 distinct strings: codes are one byte.
		dictLen := uint32(r.skipStrings(-1))
		if dictLen > maxDictLen {
			r.fail()
		}
		if v1 {
			codes := r.take(4 * n)
			for i := 0; i+4 <= len(codes); i += 4 {
				if binary.LittleEndian.Uint32(codes[i:]) >= dictLen {
					r.fail()
					break
				}
			}
			break
		}
		for _, code := range r.take(n) {
			if uint32(code) >= dictLen {
				r.fail()
				break
			}
		}
	case EncRLE:
		runs := r.count()
		ends := r.take(4 * runs)
		prev := int32(0)
		for i := 0; i+4 <= len(ends); i += 4 {
			end := int32(binary.LittleEndian.Uint32(ends[i:]))
			if end <= prev {
				r.fail()
				break
			}
			prev = end
		}
		if int(prev) != n {
			r.fail()
		}
		if hasNulls {
			r.take(bitmapLen(runs))
		}
		switch kind {
		case KindInt, KindFloat:
			r.take(8 * runs)
		case KindString:
			r.skipStrings(runs)
		case KindBool:
			r.take(bitmapLen(runs))
		default:
			r.fail()
		}
	case EncDelta, EncDecimal:
		if enc == EncDelta && kind != KindInt || enc == EncDecimal && (v1 || kind != KindFloat) {
			r.fail()
		}
		r.take(8) // base
		width := int(r.u8())
		if enc == EncDecimal && r.u8() > MaxDecimalExp {
			r.fail()
		}
		words := r.count()
		if width > 64 || words < (n*width+63)/64 {
			r.fail()
		}
		r.take(8 * words)
	default:
		r.fail()
	}
}

// colDecoder is the unchecked cursor decodeCol reads a walked column with:
// every length it follows was checked by walkCol, and each vector it returns
// is one allocation that shares nothing with the block.
type colDecoder struct{ b []byte }

func (d *colDecoder) take(n int) []byte {
	out := d.b[:n]
	d.b = d.b[n:]
	return out
}

func (d *colDecoder) u32() uint32 { return binary.LittleEndian.Uint32(d.take(4)) }
func (d *colDecoder) u64() uint64 { return binary.LittleEndian.Uint64(d.take(8)) }

func (d *colDecoder) bitmap(n int) []bool {
	raw := d.take(bitmapLen(n))
	out := make([]bool, n)
	for i := range out {
		out[i] = raw[i>>3]&(1<<(i&7)) != 0
	}
	return out
}

func (d *colDecoder) ints(n int) []int64 {
	raw := d.take(8 * n)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

func (d *colDecoder) floats(n int) []float64 {
	raw := d.take(8 * n)
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
	}
	return out
}

func (d *colDecoder) u64s(n int) []uint64 {
	raw := d.take(8 * n)
	out := make([]uint64, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(raw[8*i:])
	}
	return out
}

// strBlock copies a string vector out as the engine stores it: the bytes,
// and the end offsets behind a leading 0. Two allocations and no string
// headers, however many lanes there are.
func (d *colDecoder) strBlock() ([]byte, []uint32) {
	n := int(d.u32())
	offs := make([]uint32, n+1)
	raw := d.take(4 * n)
	for i := 1; i <= n; i++ {
		offs[i] = binary.LittleEndian.Uint32(raw[4*(i-1):])
	}
	bytes := make([]byte, offs[n])
	copy(bytes, d.take(len(bytes)))
	return bytes, offs
}

// strings copies a dictionary's bytes into one string and slices every entry
// out of it: two allocations however many entries there are. An entry that
// outlives its column keeps that string, not the segment, alive.
func (d *colDecoder) strings() []string {
	n := int(d.u32())
	ends := d.take(4 * n)
	total := 0
	if n > 0 {
		total = int(binary.LittleEndian.Uint32(ends[4*(n-1):]))
	}
	backing := string(d.take(total))
	out := make([]string, n)
	start := 0
	for i := range out {
		end := int(binary.LittleEndian.Uint32(ends[4*i:]))
		out[i] = backing[start:end]
		start = end
	}
	return out
}

func (d *colDecoder) tagged() any {
	switch d.take(1)[0] {
	case tagInt:
		return int64(d.u64())
	case tagFloat:
		return math.Float64frombits(d.u64())
	case tagString:
		return string(d.take(int(d.u32())))
	case tagBool:
		return d.take(1)[0] != 0
	}
	return nil
}

// decodeCol builds one column of an n-row chunk from its walked bytes. Zone
// bounds come from the footer meta, not the block.
func decodeCol(b []byte, n int, cm *ColMeta, v1 bool) Col {
	fixed := b[2]&flagFixed != 0
	d := &colDecoder{b: b[3:]}
	c := Col{Kind: cm.Kind, Enc: cm.Enc, Zone: cm.Zone}
	if cm.HasNulls && c.Enc != EncRLE {
		c.Nulls = d.bitmap(n)
	}
	slots := n // value slots in the typed vector: one per row, or per run
	switch c.Enc {
	case EncDict:
		c.Dict = d.strings()
		if v1 {
			c.Codes = make([]uint8, n)
			for i, raw := 0, d.take(4*n); i < n; i++ {
				c.Codes[i] = uint8(binary.LittleEndian.Uint32(raw[4*i:]))
			}
		} else {
			c.Codes = append([]uint8(nil), d.take(n)...)
		}
		return c
	case EncDelta, EncDecimal:
		c.Base = int64(d.u64())
		c.Width = d.take(1)[0]
		if c.Enc == EncDecimal {
			c.Exp = d.take(1)[0]
		}
		if words := int(d.u32()); words > 0 {
			c.Packed = d.u64s(words)
		}
		return c
	case EncRLE:
		slots = int(d.u32())
		c.RunEnds = make([]int32, slots)
		for i, raw := 0, d.take(4*slots); i < slots; i++ {
			c.RunEnds[i] = int32(binary.LittleEndian.Uint32(raw[4*i:]))
		}
		if cm.HasNulls {
			c.Nulls = d.bitmap(slots)
		}
	}
	switch c.Kind {
	case KindInt:
		c.Ints = d.ints(slots)
	case KindFloat:
		c.Floats = d.floats(slots)
	case KindString:
		if fixed {
			c.StrWidth = d.u32()
			c.StrBytes = append([]byte(nil), d.take(int(d.u32()))...)
		} else {
			c.StrBytes, c.StrOffs = d.strBlock()
		}
	case KindBool:
		c.Bools = d.bitmap(slots)
	case KindAny:
		c.Anys = make([]any, n)
		for i := range c.Anys {
			c.Anys[i] = d.tagged()
		}
	}
	return c
}

// --- segment reader ---------------------------------------------------------

// Segment is one open segment file: parsed footer plus either an mmap of
// the whole file (unix) or pread access. Immutable and safe for concurrent
// OpenChunk/ReadChunk calls. Close unmaps and closes; on Linux the file may
// already be unlinked (compaction retires segments that way) — reads keep
// working until Close. A Block from OpenChunk points into the mapping, so
// whoever closes a Segment must know that no Block of it is still in use; the
// engine closes segments, retired ones included, only in Engine.Close.
type Segment struct {
	Path string
	Meta SegMeta

	f    *os.File
	data []byte // mmap of the whole file; nil when mmap is unavailable
	size int64
	v1   bool // written at format version 1: dictionary codes are u32

	mu     sync.Mutex
	closed bool
}

// OpenSegment opens and validates a segment file: both magics, the footer
// length/CRC, and the meta section parse. Chunk payloads are NOT verified
// here (VerifyChecksums does a full pass; OpenChunk verifies per load).
func OpenSegment(path string) (*Segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: opening segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: opening segment %s: %w", path, err)
	}
	s := &Segment{Path: path, f: f, size: st.Size()}
	s.data = mmapFile(f, st.Size())
	if err := s.parseFooter(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// readRange returns bytes [off, off+n) of the file, from the mmap when
// available.
func (s *Segment) readRange(off int64, n int) ([]byte, error) {
	if off < 0 || n < 0 || off+int64(n) > s.size {
		return nil, corrupt(s.Path, "range [%d,+%d) outside file of %d bytes", off, n, s.size)
	}
	if s.data != nil {
		return s.data[off : off+int64(n)], nil
	}
	buf := make([]byte, n)
	if _, err := s.f.ReadAt(buf, off); err != nil {
		return nil, fmt.Errorf("storage: reading segment %s: %w", s.Path, err)
	}
	return buf, nil
}

func (s *Segment) parseFooter() error {
	const footLen = 4 + 8 + 8 // metaCRC + metaLen + foot magic
	minSize := int64(len(segMagic) + footLen + 11)
	if s.size < minSize {
		return corrupt(s.Path, "file too small (%d bytes)", s.size)
	}
	head, err := s.readRange(0, len(segMagic))
	if err != nil {
		return err
	}
	if string(head) != segMagic {
		return corrupt(s.Path, "bad head magic")
	}
	foot, err := s.readRange(s.size-footLen, footLen)
	if err != nil {
		return err
	}
	if string(foot[12:]) != segFootMagic {
		return corrupt(s.Path, "bad foot magic (torn write?)")
	}
	metaCRC := binary.LittleEndian.Uint32(foot[0:4])
	metaLen := int64(binary.LittleEndian.Uint64(foot[4:12]))
	metaOff := s.size - footLen - metaLen
	if metaLen <= 0 || metaOff < int64(len(segMagic)) {
		return corrupt(s.Path, "bad meta length %d", metaLen)
	}
	meta, err := s.readRange(metaOff, int(metaLen))
	if err != nil {
		return err
	}
	if crc32.Checksum(meta, crcTable) != metaCRC {
		return corrupt(s.Path, "meta checksum mismatch")
	}

	r := &byteReader{b: meta}
	switch v := r.u32(); v {
	case 1:
		s.v1 = true
	case FormatVersion:
	default:
		return corrupt(s.Path, "unsupported format version %d", v)
	}
	nchunks := int(r.u32())
	ncols := int(r.u32())
	if nchunks < 0 || ncols < 0 || nchunks > int(s.size) {
		return corrupt(s.Path, "implausible chunk/column counts %d/%d", nchunks, ncols)
	}
	s.Meta.NCols = ncols
	s.Meta.Chunks = make([]ChunkMeta, nchunks)
	for i := range s.Meta.Chunks {
		cm := &s.Meta.Chunks[i]
		cm.Offset = r.u64()
		cm.Length = r.u64()
		cm.CRC = r.u32()
		cm.NRows = int(r.u32())
		cm.Cols = make([]ColMeta, ncols)
		for j := range cm.Cols {
			col := &cm.Cols[j]
			col.Kind = r.u8()
			col.Enc = r.u8()
			col.HasNulls = r.u8()&1 != 0
			r.bound(&col.Zone, 0)
			r.bound(&col.Zone, 1)
		}
		if r.err != nil {
			return corrupt(s.Path, "meta parse: %v", r.err)
		}
		end := cm.Offset + cm.Length
		if cm.Offset < uint64(len(segMagic)) || end > uint64(metaOff) || end < cm.Offset {
			return corrupt(s.Path, "chunk %d block [%d,+%d) outside data region", i, cm.Offset, cm.Length)
		}
	}
	return nil
}

// Block is one chunk block after OpenChunk: read, checksummed, and walked
// column by column, so DecodeCol cannot fail and can be called for just the
// columns a scan touches, in any order, from any goroutine. Its bytes are a
// window of the segment's mapping (or a private buffer where mmap is
// unavailable), so a Block must not be used after its Segment is closed; what
// DecodeCol returns shares nothing with it.
type Block struct {
	meta  *ChunkMeta
	data  []byte
	ends  []int // column j occupies data[ends[j-1]:ends[j]], column 0 starts at 0
	owned bool  // data is a private buffer, not the mapping
	v1    bool  // the segment's format version is 1
}

// OpenChunk reads chunk i, verifies its checksum — once per call, whatever
// number of columns is decoded afterwards, so a segment that rots on disk
// after open is still detected whenever a chunk is (re)loaded — and walks the
// block without allocating per value: lengths, string offsets, dictionary
// codes, run ends and value tags are all checked here. Any violation is a
// *CorruptError.
func (s *Segment) OpenChunk(i int) (Block, error) {
	if i < 0 || i >= len(s.Meta.Chunks) {
		return Block{}, fmt.Errorf("storage: chunk %d out of range in %s", i, s.Path)
	}
	if err := faultpoint.Hit(faultpoint.SiteStorageSegmentRead); err != nil {
		return Block{}, fmt.Errorf("storage: reading chunk %d of %s: %w", i, s.Path, err)
	}
	cm := &s.Meta.Chunks[i]
	data, err := s.readRange(int64(cm.Offset), int(cm.Length))
	if err != nil {
		return Block{}, err
	}
	if err := faultpoint.Hit(faultpoint.SiteStorageSegmentChecksum); err != nil {
		return Block{}, corrupt(s.Path, "chunk %d checksum: %v", i, err)
	}
	if crc32.Checksum(data, crcTable) != cm.CRC {
		return Block{}, corrupt(s.Path, "chunk %d checksum mismatch", i)
	}
	r := &byteReader{b: data}
	ends := make([]int, len(cm.Cols))
	for j := range cm.Cols {
		walkCol(r, cm.NRows, &cm.Cols[j], s.v1)
		if r.err != nil {
			return Block{}, corrupt(s.Path, "chunk %d: column %d: %v", i, j, r.err)
		}
		ends[j] = r.pos
	}
	return Block{meta: cm, data: data, ends: ends, owned: s.data == nil, v1: s.v1}, nil
}

// NRows is the chunk's row count.
func (b *Block) NRows() int { return b.meta.NRows }

// HeapBytes is the memory a Block holds beyond the segment's mapping: the
// private copy of the block where the file could not be mapped, else zero.
func (b *Block) HeapBytes() int {
	if b.owned {
		return len(b.data)
	}
	return 0
}

// DecodeCol builds column j: one allocation per vector (two for a string
// vector), none of them referring to the block's bytes.
func (b *Block) DecodeCol(j int) Col {
	start := 0
	if j > 0 {
		start = b.ends[j-1]
	}
	return decodeCol(b.data[start:b.ends[j]], b.meta.NRows, &b.meta.Cols[j], b.v1)
}

// ReadChunk is OpenChunk followed by DecodeCol of every column, for readers
// that want the whole chunk (compaction, tail recovery).
func (s *Segment) ReadChunk(i int) (*Chunk, error) {
	b, err := s.OpenChunk(i)
	if err != nil {
		return nil, err
	}
	ch := &Chunk{NRows: b.NRows(), Cols: make([]Col, len(b.ends))}
	for j := range ch.Cols {
		ch.Cols[j] = b.DecodeCol(j)
	}
	return ch, nil
}

// VerifyChecksums checks every chunk payload against its recorded CRC
// without decoding — the full-file integrity pass recovery runs before
// trusting a segment.
func (s *Segment) VerifyChecksums() error {
	for i := range s.Meta.Chunks {
		cm := &s.Meta.Chunks[i]
		block, err := s.readRange(int64(cm.Offset), int(cm.Length))
		if err != nil {
			return err
		}
		if err := faultpoint.Hit(faultpoint.SiteStorageSegmentChecksum); err != nil {
			return corrupt(s.Path, "chunk %d checksum: %v", i, err)
		}
		if crc32.Checksum(block, crcTable) != cm.CRC {
			return corrupt(s.Path, "chunk %d checksum mismatch", i)
		}
	}
	return nil
}

// Close unmaps and closes the file. Idempotent.
func (s *Segment) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.data != nil {
		munmapFile(s.data)
		s.data = nil
	}
	return s.f.Close()
}

// Quarantine closes the segment and renames its file aside with a
// .quarantined suffix so recovery never re-reads it as live data. The
// renamed path is returned.
func (s *Segment) Quarantine() (string, error) {
	_ = s.Close()
	dst := s.Path + ".quarantined"
	if err := os.Rename(s.Path, dst); err != nil {
		return "", fmt.Errorf("storage: quarantining %s: %w", filepath.Base(s.Path), err)
	}
	return dst, nil
}
