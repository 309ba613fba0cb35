package engine

import "unsafe"

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
// Kernel-computed vectors live in per-worker buffers that the next chunk
// overwrites, so those are snapshotted into one fresh slice per chunk first
// — a single allocation where per-row boxing paid one per value.
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

// boxStrings boxes every entry of a decoded chunk's dictionary in one
// allocation: each box aliases its entry, so a box that outlives the chunk
// keeps the dictionary's string headers (and their shared backing string)
// alive with it. Seal-time dictionaries box entry by entry instead
// (encodeDict): values copied out of a table that is then flushed would pin
// dictionaries the flush meant to free.
func boxStrings(strs []string) []Value {
	boxed := make([]Value, len(strs))
	eb := efaceSlice(boxed)
	for i := range eb {
		eb[i].data = unsafe.Pointer(&strs[i])
		eb[i].typ = stringTypeWord
	}
	return boxed
}

// boxColLanes boxes the selected lanes of a storage column into dst at the
// given stride (dst[k*stride] receives lane k), reading through the
// column's encoding. NULL lanes keep the zero (nil) interface the block was
// allocated with. Chunk storage is immutable, so every non-decoding path
// boxes interior pointers and allocates nothing; only delta columns decode
// into one fresh vector per call.
func boxColLanes(dst []Value, stride int, cv *colVec, sel []int32, lanes int) {
	switch cv.enc {
	case encDict:
		for k := 0; k < lanes; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			if cv.nulls != nil && cv.nulls[i] {
				continue
			}
			dst[k*stride] = cv.dictBoxed[cv.codes[i]]
		}
		return
	case encRLE:
		eb := efaceSlice(dst)
		r := 0
		for k := 0; k < lanes; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			for int(cv.runEnds[r]) <= i {
				r++
			}
			if cv.nulls != nil && cv.nulls[r] {
				continue
			}
			s := k * stride
			switch cv.kind {
			case TInt:
				eb[s].data = unsafe.Pointer(&cv.ints[r])
				eb[s].typ = int64TypeWord
			case TFloat:
				eb[s].data = unsafe.Pointer(&cv.floats[r])
				eb[s].typ = float64TypeWord
			case TString:
				eb[s].data = unsafe.Pointer(&cv.strs[r])
				eb[s].typ = stringTypeWord
			case TBool:
				eb[s].data = unsafe.Pointer(&cv.bools[r])
				eb[s].typ = boolTypeWord
			}
		}
		return
	case encDelta:
		vals := make([]int64, lanes)
		eb := efaceSlice(dst)
		for k := 0; k < lanes; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			if cv.nulls != nil && cv.nulls[i] {
				continue
			}
			vals[k] = cv.deltaAt(i)
			s := k * stride
			eb[s].data = unsafe.Pointer(&vals[k])
			eb[s].typ = int64TypeWord
		}
		return
	}
	if cv.kind == TAny {
		for k := 0; k < lanes; k++ {
			i := k
			if sel != nil {
				i = int(sel[k])
			}
			dst[k*stride] = cv.anys[i] // original box (nil = NULL)
		}
		return
	}
	eb := efaceSlice(dst)
	for k := 0; k < lanes; k++ {
		i := k
		if sel != nil {
			i = int(sel[k])
		}
		if cv.nulls != nil && cv.nulls[i] {
			continue
		}
		s := k * stride
		switch cv.kind {
		case TInt:
			eb[s].data = unsafe.Pointer(&cv.ints[i])
			eb[s].typ = int64TypeWord
		case TFloat:
			eb[s].data = unsafe.Pointer(&cv.floats[i])
			eb[s].typ = float64TypeWord
		case TString:
			eb[s].data = unsafe.Pointer(&cv.strs[i])
			eb[s].typ = stringTypeWord
		case TBool:
			eb[s].data = unsafe.Pointer(&cv.bools[i])
			eb[s].typ = boolTypeWord
		}
	}
}

// boxVecLanes boxes all lanes of a kernel-computed vector into dst at the
// given stride. The vector's typed storage belongs to a reused per-worker
// buffer, so it is snapshotted into one fresh slice the boxes can alias
// (one allocation per chunk-column). Dictionary vectors reuse the shared
// pre-boxed entries and TAny lanes are already boxed — both zero-alloc.
func boxVecLanes(dst []Value, stride int, v *vec, lanes int) {
	if v.kind == TAny {
		for k := 0; k < lanes; k++ {
			dst[k*stride] = v.anys[k]
		}
		return
	}
	if v.dict != nil {
		for k := 0; k < lanes; k++ {
			if v.isNull(k) {
				continue
			}
			dst[k*stride] = v.dictBoxed[v.codes[k]]
		}
		return
	}
	eb := efaceSlice(dst)
	switch v.kind {
	case TInt:
		vals := append([]int64(nil), v.ints...)
		for k := 0; k < lanes; k++ {
			if v.nulls != nil && v.nulls[k] {
				continue
			}
			s := k * stride
			eb[s].data = unsafe.Pointer(&vals[k])
			eb[s].typ = int64TypeWord
		}
	case TFloat:
		vals := append([]float64(nil), v.floats...)
		for k := 0; k < lanes; k++ {
			if v.nulls != nil && v.nulls[k] {
				continue
			}
			s := k * stride
			eb[s].data = unsafe.Pointer(&vals[k])
			eb[s].typ = float64TypeWord
		}
	case TString:
		vals := append([]string(nil), v.strs...)
		for k := 0; k < lanes; k++ {
			if v.nulls != nil && v.nulls[k] {
				continue
			}
			s := k * stride
			eb[s].data = unsafe.Pointer(&vals[k])
			eb[s].typ = stringTypeWord
		}
	case TBool:
		vals := append([]bool(nil), v.bools...)
		for k := 0; k < lanes; k++ {
			if v.nulls != nil && v.nulls[k] {
				continue
			}
			s := k * stride
			eb[s].data = unsafe.Pointer(&vals[k])
			eb[s].typ = boolTypeWord
		}
	}
}
