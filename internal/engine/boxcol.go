package engine

import (
	"slices"
	"unsafe"
)

// Bulk lane boxing for the ResultSet boundary (late materialization).
//
// A Go interface holding a non-pointer-shaped concrete type (int64,
// float64, string, bool) is two words: the type descriptor and a pointer to
// the value. The runtime's conversion allocates a fresh heap cell per
// value — the per-row cost that dominated E1Project. But an interface may
// point at any live memory, and sealed chunk storage is immutable for the
// table's lifetime, so the box can alias the column's backing array
// directly: we assemble the two words by hand from a cached type descriptor
// and an interior pointer into the vector. Interior pointers keep the whole
// backing array alive, which the table does anyway.
//
// Kernel-computed vectors are the same colVec, but live in per-worker buffers
// that the next chunk overwrites, so those are snapshotted into one fresh
// slice per chunk first and then boxed like a column — a single allocation
// where per-row boxing paid one per value.
//
// GC safety: eface's fields are unsafe.Pointer, so stores through *eface
// are ordinary pointer stores and get the compiler's write barriers. The
// type word always points at an immortal runtime type descriptor and the
// data word at a live slice element, so the heap is precise at every
// intermediate state. No code ever reads a half-written slot: the blocks
// are worker-local until returned.

type eface struct {
	typ  unsafe.Pointer
	data unsafe.Pointer
}

// typeWordOf extracts the runtime type descriptor word from a boxed value.
func typeWordOf(v Value) unsafe.Pointer {
	return (*eface)(unsafe.Pointer(&v)).typ
}

// Cached descriptor words for the four vector element types.
var (
	int64TypeWord   = typeWordOf(int64(0))
	float64TypeWord = typeWordOf(float64(0))
	stringTypeWord  = typeWordOf("")
	boolTypeWord    = typeWordOf(false)
)

// efaceSlice reinterprets a []Value block as its raw two-word slots for
// bulk construction. Value (interface) and eface share layout.
func efaceSlice(vs []Value) []eface {
	if len(vs) == 0 {
		return nil
	}
	return unsafe.Slice((*eface)(unsafe.Pointer(&vs[0])), len(vs))
}

// boxStrings boxes every string of strs in one allocation — the strings
// ownTail copied: each box aliases its entry, so a box that outlives its owner
// keeps the string headers (and their shared bytes) alive with it.
func boxStrings(strs []string) []Value {
	boxed := make([]Value, len(strs))
	eb := efaceSlice(boxed)
	for i := range eb {
		eb[i].data = unsafe.Pointer(&strs[i])
		eb[i].typ = stringTypeWord
	}
	return boxed
}

// boxStr boxes *s without copying it: the box aliases the header, as a
// dictionary entry's box does its entry.
func boxStr(s *string) (v Value) {
	e := (*eface)(unsafe.Pointer(&v))
	e.data, e.typ = unsafe.Pointer(s), stringTypeWord
	return v
}

// boxColLanes boxes rows idx of a column into dst at the given stride
// (dst[k*stride] receives row idx[k]), reading through the column's encoding.
// NULL lanes keep the zero (nil) interface the block was allocated with.
// Chunk storage is immutable, so a box is an interior pointer into the
// column's typed slots or dictionary entries, or a TAny column's own box. Three kinds of column have no slot a box can point at, so each
// call fills one fresh vector for them: a delta column decodes its integers, a
// decimal column its floats, and a stored string column makes the headers of
// views of its block.
func boxColLanes(dst []Value, stride int, cv *colVec, idx []int32) {
	eb := efaceSlice(dst)
	var decoded []int64
	var decFloats []float64
	var hdrs []string
	switch {
	case cv.enc == encDelta:
		decoded = make([]int64, len(idx))
	case cv.enc == encDecimal:
		decFloats = make([]float64, len(idx))
	case cv.kind == TString && cv.inBlock():
		hdrs = make([]string, len(idx))
	}
	for k, x := range idx {
		i := int(x)
		if len(cv.nulls) > 0 && cv.nulls[i] {
			continue
		}
		s := k * stride
		switch {
		case cv.kind == TAny:
			dst[s] = cv.anys[i] // original box (nil = NULL)
		case cv.enc == encDict:
			eb[s].data, eb[s].typ = unsafe.Pointer(&cv.dict[cv.codes[i]]), stringTypeWord
		case cv.enc == encDelta:
			decoded[k] = cv.deltaAt(i)
			eb[s].data, eb[s].typ = unsafe.Pointer(&decoded[k]), int64TypeWord
		case cv.enc == encDecimal:
			decFloats[k] = cv.decAt(i)
			eb[s].data, eb[s].typ = unsafe.Pointer(&decFloats[k]), float64TypeWord
		case cv.kind == TInt:
			eb[s].data, eb[s].typ = unsafe.Pointer(&cv.ints[i]), int64TypeWord
		case cv.kind == TFloat:
			eb[s].data, eb[s].typ = unsafe.Pointer(&cv.floats[i]), float64TypeWord
		case hdrs != nil:
			hdrs[k] = cv.slotStr(i)
			eb[s].data, eb[s].typ = unsafe.Pointer(&hdrs[k]), stringTypeWord
		case cv.kind == TString:
			eb[s].data, eb[s].typ = unsafe.Pointer(&cv.strs[i]), stringTypeWord
		default:
			eb[s].data, eb[s].typ = unsafe.Pointer(&cv.bools[i]), boolTypeWord
		}
	}
}

// boxVecLanes boxes the lanes idx of a kernel's output, which a reused
// per-worker buffer holds only until the next chunk: its typed slice is
// snapshotted once (one allocation per chunk-column) and the snapshot boxed
// like a stored column. Dictionary entries and TAny boxes are shared already,
// and a stored string column (a column leaf hands one over) is immutable.
func boxVecLanes(dst []Value, stride int, v *colVec, idx []int32) {
	snap, n := *v, len(idx)
	switch {
	case v.enc == encDict, v.inBlock():
	case v.kind == TInt:
		snap.ints = slices.Clone(v.ints[:n])
	case v.kind == TFloat:
		snap.floats = slices.Clone(v.floats[:n])
	case v.kind == TString:
		snap.strs = slices.Clone(v.strs[:n])
	case v.kind == TBool:
		snap.bools = slices.Clone(v.bools[:n])
	}
	boxColLanes(dst, stride, &snap, idx)
}
