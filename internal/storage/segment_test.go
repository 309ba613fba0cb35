package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

// --- fixtures ---------------------------------------------------------------

var (
	testKinds = []uint8{KindInt, KindFloat, KindString, KindBool, KindAny}
	testEncs  = []uint8{EncNone, EncDict, EncRLE, EncDelta}
	testSizes = []int{0, 1, 255, 256, 257}

	// The lanes cycle through these, so every size sees the edge values.
	edgeInts    = []int64{0, -1, 1 << 53, -(1 << 53), math.MaxInt64, math.MinInt64, 42}
	edgeFloats  = []float64{0, math.Copysign(0, -1), math.NaN(), 1 << 53, -(1 << 53), math.Inf(1), 0.1}
	edgeStrings = []string{"", "a", "", "héllo", "1994-01-01", "\x00", "zz"}
)

const (
	nullsNone = iota
	nullsSome
	nullsAll
)

// validEnc reports whether the engine ever writes kind under enc.
func validEnc(kind, enc uint8) bool {
	switch enc {
	case EncDict:
		return kind == KindString
	case EncDelta:
		return kind == KindInt
	case EncRLE:
		return kind != KindAny
	}
	return true
}

// makeCol builds a well-formed column of n rows the way the engine would:
// null slots hold zero values, RLE nulls are per run, KindAny marks NULL with a
// nil box and carries no bitmap.
func makeCol(kind, enc uint8, nulls, n int) Col {
	c := Col{Kind: kind, Enc: enc}
	isNull := func(i int) bool { return nulls == nullsAll || nulls == nullsSome && i%3 == 1 }
	slots := n
	if enc == EncRLE {
		// Runs of 1, 2, 3, 1, 2, 3, … rows.
		for end := 0; end < n; {
			end = min(end+len(c.RunEnds)%3+1, n)
			c.RunEnds = append(c.RunEnds, int32(end))
		}
		if c.RunEnds == nil {
			c.RunEnds = []int32{}
		}
		slots = len(c.RunEnds)
	}
	if nulls != nullsNone && kind != KindAny {
		c.Nulls = make([]bool, slots)
		for i := range c.Nulls {
			c.Nulls[i] = isNull(i)
		}
	}
	switch enc {
	case EncDict:
		c.Dict = []string{"", "a", "b", "héllo"}
		c.Codes = make([]uint32, n)
		for i := range c.Codes {
			if !isNull(i) {
				c.Codes[i] = uint32(i % len(c.Dict))
			}
		}
		c.Min, c.Max = "", "héllo"
		return c
	case EncDelta:
		c.Base, c.Width = -7, 13
		c.Packed = make([]uint64, (n*int(c.Width)+63)/64)
		for i := range c.Packed {
			c.Packed[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		}
		if len(c.Packed) == 0 {
			c.Packed = nil
		}
		c.Min, c.Max = int64(-7), int64(8184)
		return c
	}
	switch kind {
	case KindInt:
		c.Ints = make([]int64, slots)
		for i := range c.Ints {
			if !isNull(i) {
				c.Ints[i] = edgeInts[i%len(edgeInts)]
			}
		}
		c.Min, c.Max = int64(math.MinInt64), int64(math.MaxInt64)
	case KindFloat:
		c.Floats = make([]float64, slots)
		for i := range c.Floats {
			if !isNull(i) {
				c.Floats[i] = edgeFloats[i%len(edgeFloats)]
			}
		}
		c.Min, c.Max = math.Inf(-1), math.Inf(1)
	case KindString:
		c.StrOffs = make([]uint32, 1, slots+1)
		for i := 0; i < slots; i++ {
			if !isNull(i) {
				c.StrBytes = append(c.StrBytes, edgeStrings[i%len(edgeStrings)]...)
			}
			c.StrOffs = append(c.StrOffs, uint32(len(c.StrBytes)))
		}
		c.Min, c.Max = "", "zz"
	case KindBool:
		c.Bools = make([]bool, slots)
		for i := range c.Bools {
			c.Bools[i] = !isNull(i) && i%2 == 0
		}
		c.Min, c.Max = false, true
	case KindAny:
		c.Anys = make([]any, n)
		for i := range c.Anys {
			switch {
			case isNull(i):
			case i%4 == 0:
				c.Anys[i] = edgeInts[i%len(edgeInts)]
			case i%4 == 1:
				c.Anys[i] = edgeFloats[i%len(edgeFloats)]
			case i%4 == 2:
				c.Anys[i] = edgeStrings[i%len(edgeStrings)]
			default:
				c.Anys[i] = i%8 == 3
			}
		}
	}
	if nulls == nullsAll {
		c.Min, c.Max = nil, nil
	}
	return c
}

// matrixChunk is one chunk of n rows holding every valid kind × enc × nulls
// column.
func matrixChunk(n int) *Chunk {
	ch := &Chunk{NRows: n}
	for _, kind := range testKinds {
		for _, enc := range testEncs {
			if !validEnc(kind, enc) {
				continue
			}
			for nulls := nullsNone; nulls <= nullsAll; nulls++ {
				ch.Cols = append(ch.Cols, makeCol(kind, enc, nulls, n))
			}
		}
	}
	return ch
}

func colMeta(c *Col) ColMeta {
	return ColMeta{Kind: c.Kind, Enc: c.Enc, HasNulls: c.Nulls != nil, Min: c.Min, Max: c.Max}
}

// memSegment is a Segment over blocks held in memory, each with the checksum
// of whatever bytes it was given — so a block corrupted before it gets here
// passes the CRC and only OpenChunk's walk stands between it and the decoder.
func memSegment(blocks [][]byte, nrows []int, metas [][]ColMeta) *Segment {
	s := &Segment{Path: "mem.seg", data: []byte(segMagic)}
	for i, b := range blocks {
		s.Meta.Chunks = append(s.Meta.Chunks, ChunkMeta{
			Offset: uint64(len(s.data)), Length: uint64(len(b)),
			CRC: crc32.Checksum(b, crcTable), NRows: nrows[i], Cols: metas[i],
		})
		s.data = append(s.data, b...)
	}
	s.size = int64(len(s.data))
	return s
}

// sameCol compares columns bit for bit: NaN equals NaN, -0 differs from 0, and
// a nil vector equals an empty one (the format has no way to tell them apart).
func sameCol(a, b *Col) bool {
	norm := func(c Col) Col {
		bits := make([]int64, len(c.Floats))
		for i, f := range c.Floats {
			bits[i] = int64(math.Float64bits(f))
		}
		c.Floats, c.Ints = nil, append(append([]int64{}, c.Ints...), bits...)
		anys := make([]any, len(c.Anys))
		for i, v := range c.Anys {
			if f, ok := v.(float64); ok {
				v = [1]uint64{math.Float64bits(f)}
			}
			anys[i] = v
		}
		c.Anys = anys
		for _, p := range []*any{&c.Min, &c.Max} {
			if f, ok := (*p).(float64); ok {
				*p = [1]uint64{math.Float64bits(f)}
			}
		}
		v := reflect.ValueOf(&c).Elem()
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Slice && f.Len() == 0 {
				f.Set(reflect.Zero(f.Type()))
			}
		}
		return c
	}
	return reflect.DeepEqual(norm(*a), norm(*b))
}

// --- round trip -------------------------------------------------------------

// TestChunkRoundTrip writes the whole matrix to one segment file and reads it
// back three ways — ReadChunk, and OpenChunk + DecodeCol forwards and backwards
// — over the mapping and over the pread fallback.
func TestChunkRoundTrip(t *testing.T) {
	chunks := make([]*Chunk, len(testSizes))
	for i, n := range testSizes {
		chunks[i] = matrixChunk(n)
	}
	ncols := len(chunks[0].Cols)
	path := filepath.Join(t.TempDir(), "t-0"+SegmentExt)
	if err := WriteSegment(path, ncols, chunks); err != nil {
		t.Fatal(err)
	}
	for _, mapped := range []bool{true, false} {
		seg, err := OpenSegment(path)
		if err != nil {
			t.Fatal(err)
		}
		defer seg.Close()
		if !mapped && seg.data != nil {
			munmapFile(seg.data)
			seg.data = nil
		}
		if err := seg.VerifyChecksums(); err != nil {
			t.Fatal(err)
		}
		for i, want := range chunks {
			whole, err := seg.ReadChunk(i)
			if err != nil {
				t.Fatalf("mapped=%v ReadChunk(%d): %v", mapped, i, err)
			}
			blk, err := seg.OpenChunk(i)
			if err != nil {
				t.Fatalf("mapped=%v OpenChunk(%d): %v", mapped, i, err)
			}
			if whole.NRows != want.NRows || blk.NRows() != want.NRows || len(whole.Cols) != ncols {
				t.Fatalf("chunk %d: shape %d×%d / %d, want %d×%d", i, whole.NRows, len(whole.Cols), blk.NRows(), want.NRows, ncols)
			}
			if heap := blk.HeapBytes(); (heap == 0) != (seg.data != nil) {
				t.Errorf("mapped=%v chunk %d: HeapBytes %d", mapped, i, heap)
			}
			for k := 0; k < 2*ncols; k++ {
				j := k // forwards, then backwards: any order, and twice
				if k >= ncols {
					j = 2*ncols - 1 - k
				}
				got := blk.DecodeCol(j)
				w := &want.Cols[j]
				if !sameCol(&got, w) || !sameCol(&whole.Cols[j], w) {
					t.Errorf("mapped=%v n=%d col %d (kind %d enc %d nulls %v):\n got  %+v\n read %+v\n want %+v",
						mapped, want.NRows, j, w.Kind, w.Enc, w.Nulls != nil, got, whole.Cols[j], *w)
				}
			}
		}
	}
}

// TestDecodedVectorsDoNotAliasBlock scribbles over the block after decoding:
// nothing DecodeCol returned may change.
func TestDecodedVectorsDoNotAliasBlock(t *testing.T) {
	ch := matrixChunk(257)
	block, err := encodeChunkBlock(nil, ch)
	if err != nil {
		t.Fatal(err)
	}
	metas := make([]ColMeta, len(ch.Cols))
	for j := range ch.Cols {
		metas[j] = colMeta(&ch.Cols[j])
	}
	seg := memSegment([][]byte{block}, []int{ch.NRows}, [][]ColMeta{metas})
	blk, err := seg.OpenChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]Col, len(ch.Cols))
	for j := range got {
		got[j] = blk.DecodeCol(j)
	}
	for i := range seg.data {
		seg.data[i] = 0xAA
	}
	for j := range got {
		if !sameCol(&got[j], &ch.Cols[j]) {
			t.Errorf("col %d changed when the block did", j)
		}
	}
}

// --- corruption -------------------------------------------------------------

// oneColBlock encodes a single-column chunk and returns its block and meta.
func oneColBlock(t testing.TB, c Col, n int) ([]byte, ColMeta) {
	t.Helper()
	block, err := encodeChunkBlock(nil, &Chunk{NRows: n, Cols: []Col{c}})
	if err != nil {
		t.Fatal(err)
	}
	return block, colMeta(&c)
}

// mustCorrupt asserts that OpenChunk rejects the block with a *CorruptError
// and that ReadChunk agrees.
func mustCorrupt(t *testing.T, name string, block []byte, n int, metas []ColMeta) {
	t.Helper()
	seg := memSegment([][]byte{block}, []int{n}, [][]ColMeta{metas})
	_, err := seg.OpenChunk(0)
	var ce *CorruptError
	if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) {
		t.Errorf("%s: OpenChunk error %v, want *CorruptError", name, err)
	}
	if _, err := seg.ReadChunk(0); !errors.As(err, &ce) {
		t.Errorf("%s: ReadChunk error %v, want *CorruptError", name, err)
	}
}

func TestOpenChunkRejectsCorruptBlocks(t *testing.T) {
	// Truncation at every column boundary (and one byte either side of it).
	ch := matrixChunk(256)
	block, err := encodeChunkBlock(nil, ch)
	if err != nil {
		t.Fatal(err)
	}
	metas := make([]ColMeta, len(ch.Cols))
	for j := range ch.Cols {
		metas[j] = colMeta(&ch.Cols[j])
	}
	blk, err := memSegment([][]byte{block}, []int{256}, [][]ColMeta{metas}).OpenChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	for j, end := range blk.ends[:len(blk.ends)-1] {
		for _, cut := range []int{end - 1, end, end + 1} {
			mustCorrupt(t, fmt.Sprintf("truncated at %d (column %d ends at %d)", cut, j, end), block[:cut], 256, metas)
		}
	}
	mustCorrupt(t, "last byte missing", block[:len(block)-1], 256, metas)
	mustCorrupt(t, "empty block", nil, 256, metas)

	// Targeted damage to one-column blocks. Offsets are into the block: a
	// 3-byte header, then the layout in segment.go's format comment.
	const n = 16
	bitmap := bitmapLen(n)
	cases := []struct {
		name   string
		col    Col
		mutate func(b []byte, m *ColMeta) []byte
	}{
		{"string count flipped", makeCol(KindString, EncNone, nullsNone, n), func(b []byte, _ *ColMeta) []byte {
			b[3]++
			return b
		}},
		{"string count huge", makeCol(KindString, EncNone, nullsNone, n), func(b []byte, _ *ColMeta) []byte {
			b[6] = 0xFF
			return b
		}},
		{"string offset decreasing", makeCol(KindString, EncNone, nullsSome, n), func(b []byte, _ *ColMeta) []byte {
			off := 3 + bitmap + 4 + 4*5 // end offset of lane 5
			b[off], b[off+4] = b[off+4]+1, b[off]
			return b
		}},
		{"string bytes short", makeCol(KindString, EncNone, nullsNone, n), func(b []byte, _ *ColMeta) []byte {
			b[3+4+4*(n-1)] += 9 // last end offset past the data
			return b
		}},
		{"dict code out of range", makeCol(KindString, EncDict, nullsNone, n), func(b []byte, _ *ColMeta) []byte {
			b[len(b)-4] = 4 // dictionary has entries 0..3
			return b
		}},
		{"dict offset decreasing", makeCol(KindString, EncDict, nullsNone, n), func(b []byte, _ *ColMeta) []byte {
			b[3+4+4] = 9 // entry 1 ends at 9, entry 2 at 2
			return b
		}},
		{"dict of a non-string kind", makeCol(KindString, EncDict, nullsNone, n), func(b []byte, m *ColMeta) []byte {
			b[0], m.Kind = KindInt, KindInt
			return b
		}},
		{"rle last run end past n", makeCol(KindInt, EncRLE, nullsNone, n), func(b []byte, _ *ColMeta) []byte {
			runs := int(b[3])
			b[3+4+4*(runs-1)]++
			return b
		}},
		{"rle run ends not increasing", makeCol(KindFloat, EncRLE, nullsSome, n), func(b []byte, _ *ColMeta) []byte {
			b[3+4+4] = b[3+4] // run 1 ends where run 0 does
			return b
		}},
		{"rle run count huge", makeCol(KindBool, EncRLE, nullsNone, n), func(b []byte, _ *ColMeta) []byte {
			b[5] = 0xFF
			return b
		}},
		{"rle of boxed values", makeCol(KindInt, EncRLE, nullsNone, n), func(b []byte, m *ColMeta) []byte {
			b[0], m.Kind = KindAny, KindAny
			return b
		}},
		{"delta word count short", makeCol(KindInt, EncDelta, nullsNone, n), func(b []byte, _ *ColMeta) []byte {
			b[3+8+1]-- // 16 rows × 13 bits need 4 words
			return b[:len(b)-8]
		}},
		{"delta width over 64", makeCol(KindInt, EncDelta, nullsSome, n), func(b []byte, _ *ColMeta) []byte {
			b[3+bitmap+8] = 65
			return b
		}},
		{"tagged value with a bad tag", makeCol(KindAny, EncNone, nullsNone, n), func(b []byte, _ *ColMeta) []byte {
			b[3] = 9
			return b
		}},
		{"tagged string length past the block", makeCol(KindAny, EncNone, nullsAll, 1), func(b []byte, _ *ColMeta) []byte {
			return append(b[:3], tagString, 0xFF, 0xFF, 0, 0)
		}},
		{"unknown kind", makeCol(KindInt, EncNone, nullsNone, n), func(b []byte, m *ColMeta) []byte {
			b[0], m.Kind = 9, 9
			return b
		}},
		{"unknown encoding", makeCol(KindInt, EncNone, nullsNone, n), func(b []byte, m *ColMeta) []byte {
			b[1], m.Enc = 9, 9
			return b
		}},
		{"kind disagrees with footer", makeCol(KindInt, EncNone, nullsNone, n), func(b []byte, _ *ColMeta) []byte {
			b[0] = KindFloat
			return b
		}},
		{"null flag disagrees with footer", makeCol(KindInt, EncNone, nullsNone, n), func(b []byte, m *ColMeta) []byte {
			m.HasNulls = true
			return b
		}},
	}
	for _, tc := range cases {
		rows := n
		if tc.col.Anys != nil {
			rows = len(tc.col.Anys)
		}
		block, meta := oneColBlock(t, tc.col, rows)
		if _, err := memSegment([][]byte{block}, []int{rows}, [][]ColMeta{{meta}}).OpenChunk(0); err != nil {
			t.Fatalf("%s: undamaged block rejected: %v", tc.name, err)
		}
		block = tc.mutate(block, &meta)
		mustCorrupt(t, tc.name, block, rows, []ColMeta{meta})
	}

	// The checksum itself, and a chunk index out of range.
	block, meta := oneColBlock(t, makeCol(KindInt, EncNone, nullsNone, n), n)
	seg := memSegment([][]byte{block}, []int{n}, [][]ColMeta{{meta}})
	seg.data[len(seg.data)-1] ^= 1
	var ce *CorruptError
	if _, err := seg.OpenChunk(0); !errors.As(err, &ce) {
		t.Errorf("checksum mismatch: %v, want *CorruptError", err)
	}
	if _, err := seg.OpenChunk(1); err == nil || errors.Is(err, ErrCorrupt) {
		t.Errorf("chunk out of range: %v, want a plain error", err)
	}
}

// FuzzOpenChunk feeds arbitrary bytes through OpenChunk as a one-column block
// whose footer entry agrees with its header (so the walk gets past it). Either
// the walk rejects the block with a *CorruptError, or decoding it succeeds and
// every lane of the result can be read the way the engine's accessors read it.
func FuzzOpenChunk(f *testing.F) {
	for _, n := range testSizes {
		ch := matrixChunk(n)
		for j := range ch.Cols {
			block, _ := oneColBlock(f, ch.Cols[j], n)
			f.Add(block, uint16(n))
		}
	}
	f.Fuzz(func(t *testing.T, block []byte, nrows uint16) {
		if len(block) < 3 {
			return
		}
		n := int(nrows)
		meta := ColMeta{Kind: block[0], Enc: block[1], HasNulls: block[2]&1 != 0}
		seg := memSegment([][]byte{block}, []int{n}, [][]ColMeta{{meta}})
		blk, err := seg.OpenChunk(0)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("OpenChunk: %v, want *CorruptError", err)
			}
			return
		}
		c := blk.DecodeCol(0)
		slots := n
		switch c.Enc {
		case EncRLE:
			slots = len(c.RunEnds)
			if slots > 0 && int(c.RunEnds[slots-1]) != n || slots == 0 && n != 0 {
				t.Fatalf("run ends %v do not cover %d rows", c.RunEnds, n)
			}
		case EncDict:
			for _, code := range c.Codes {
				_ = c.Dict[code]
			}
			if len(c.Codes) != n {
				t.Fatalf("%d codes for %d rows", len(c.Codes), n)
			}
			return
		case EncDelta:
			if need := (n*int(c.Width) + 63) / 64; len(c.Packed) < need {
				t.Fatalf("%d packed words, %d rows of width %d need %d", len(c.Packed), n, c.Width, need)
			}
			return
		}
		if c.Nulls != nil && len(c.Nulls) != slots {
			t.Fatalf("%d null flags for %d slots", len(c.Nulls), slots)
		}
		if c.Kind == KindString {
			// The block invariants the engine's string accessors slice by.
			if len(c.StrOffs) != slots+1 || c.StrOffs[0] != 0 {
				t.Fatalf("%d string offsets from %v for %d slots", len(c.StrOffs), c.StrOffs[:min(1, len(c.StrOffs))], slots)
			}
			for i := 1; i <= slots; i++ {
				if c.StrOffs[i] < c.StrOffs[i-1] {
					t.Fatalf("string offset %d decreases: %d after %d", i, c.StrOffs[i], c.StrOffs[i-1])
				}
			}
			if last := c.StrOffs[slots]; int(last) != len(c.StrBytes) {
				t.Fatalf("last string offset %d, block of %d bytes", last, len(c.StrBytes))
			}
			return
		}
		if got := len(c.Ints) + len(c.Floats) + len(c.Bools) + len(c.Anys); got != slots {
			t.Fatalf("kind %d enc %d: %d values for %d slots", c.Kind, c.Enc, got, slots)
		}
	})
}
