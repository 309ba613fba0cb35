package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"math"
)

// The engine's one key table: GROUP BY finds a key tuple's dense group id in
// it (groupSet), a hash join the chain of hashed rows with a key (joinTable).
// It is open-addressed at load <= 1/2, holds no pointers, and allocates
// nothing per key. Key equality is GroupKey equality (1 = 1.0, -0 = 0,
// NaN = NaN, "1" <> 1, true <> 1). A single key whose lane holds an integral
// number is stored as that int64; every other key tuple as its appendKeyLane
// bytes in one arena. The two classes never equal each other, so each lives in
// a slot array of its own. GroupKey's text, which hash01, hash_bucket and HLL
// hash, is not used here.

// keySlot is one key of a keyTable. head is the key's value to its user, and 0
// marks an empty slot: a join's first hashed row of the key (rows number from
// 1) with tail its last, or a group table's group id + 1.
type keySlot struct {
	key        int64 // the integer key, or the hash of the key's encoded bytes
	head, tail int32
}

// keyTable maps keys to slots. A join sizes it once for every hashed row; a
// group table (groups) starts small and doubles as keys arrive. The slot
// arrays are allocated when their key class first appears, and every array is
// charged to the query at its exact size.
type keyTable struct {
	qc     *queryCtx
	single bool // one key expression: integer-form lanes are stored as int64
	groups bool // GROUP BY: a NULL component is part of the key, and the table grows
	shift  uint
	mask   uint64
	n      int // keys stored

	intSlots  []keySlot
	byteSlots []keySlot
	spans     [][2]uint32 // per byteSlots slot: its key's [start, end) in arena
	arena     []byte
}

const (
	keyNull = iota // a join key with a NULL component: it matches nothing
	keyInt
	keyBytes
)

var keySeed = maphash.MakeSeed()

// init sizes t for keys keys at load <= 1/2, at least 8 slots.
func (t *keyTable) init(qc *queryCtx, keys int, single, groups bool) {
	bits := uint(3)
	for 1<<bits < 2*keys {
		bits++
	}
	*t = keyTable{qc: qc, single: single, groups: groups, shift: 64 - bits, mask: 1<<bits - 1}
}

// laneKey classifies lane k of a key tuple, encoding it into kbuf: keyInt with
// the integer when it is a single key that encodes as one, keyBytes with the
// hash of the encoding, or — in a join — keyNull when a component is NULL.
func (t *keyTable) laneKey(keys []*colVec, k int, kbuf []byte) (int, int64, []byte) {
	if t.single && keys[0].kind == TInt && len(keys[0].nulls) == 0 {
		return keyInt, keys[0].ints[k], kbuf // the common case, not encoded
	}
	kbuf = kbuf[:0]
	for _, kv := range keys {
		if !t.groups && kv.isNull(k) {
			return keyNull, 0, kbuf
		}
		kbuf = appendKeyLane(kbuf, kv, k)
	}
	if t.single && kbuf[0] == keyTagInt {
		return keyInt, int64(binary.LittleEndian.Uint64(kbuf[1:])), kbuf
	}
	return keyBytes, int64(maphash.Bytes(keySeed, kbuf)), kbuf
}

// intSlot returns the slot holding integer key x, or the empty slot it would
// take.
func (t *keyTable) intSlot(x int64) *keySlot {
	for i := uint64(x) * 0x9E3779B97F4A7C15 >> t.shift; ; i = (i + 1) & t.mask {
		if s := &t.intSlots[i]; s.head == 0 || s.key == x {
			return s
		}
	}
}

// bytesSlot is intSlot for an encoded key kb with hash h, and returns the
// slot's index too.
func (t *keyTable) bytesSlot(h int64, kb []byte) (*keySlot, uint64) {
	for i := uint64(h) >> t.shift; ; i = (i + 1) & t.mask {
		s := &t.byteSlots[i]
		if s.head == 0 {
			return s, i
		}
		if sp := t.spans[i]; s.key == h && bytes.Equal(t.arena[sp[0]:sp[1]], kb) {
			return s, i
		}
	}
}

// claim returns the slot of a key (class keyInt or keyBytes), storing the key
// in an empty one: its head is 0 then, and the caller sets it.
func (t *keyTable) claim(class int, x int64, kb []byte) (*keySlot, error) {
	if t.groups && 2*(t.n+1) > int(t.mask+1) {
		if err := t.grow(); err != nil {
			return nil, err
		}
	}
	if class == keyInt {
		if t.intSlots == nil {
			if err := t.alloc(keyInt, t.mask+1); err != nil {
				return nil, err
			}
		}
		s := t.intSlot(x)
		if s.head == 0 {
			s.key = x
			t.n++
		}
		return s, nil
	}
	if t.byteSlots == nil {
		if err := t.alloc(keyBytes, t.mask+1); err != nil {
			return nil, err
		}
	}
	s, i := t.bytesSlot(x, kb)
	if s.head == 0 {
		end := len(t.arena) + len(kb)
		if end > math.MaxUint32 {
			return nil, fmt.Errorf("engine: keys exceed %d bytes", uint32(math.MaxUint32))
		}
		c := cap(t.arena)
		t.arena = append(t.arena, kb...)
		t.qc.chargeMem(int64(cap(t.arena) - c))
		t.spans[i] = [2]uint32{uint32(end - len(kb)), uint32(end)}
		s.key = x
		t.n++
	}
	return s, nil
}

// alloc makes class's slot arrays at the table's size once the budget admits
// charge slots' worth of them.
func (t *keyTable) alloc(class int, charge uint64) error {
	per := keySlotBytes
	if class == keyBytes {
		per += keySpanBytes
	}
	if err := t.qc.reserve(int64(charge) * per); err != nil {
		return err
	}
	if class == keyInt {
		t.intSlots = make([]keySlot, t.mask+1)
	} else {
		t.byteSlots, t.spans = make([]keySlot, t.mask+1), make([][2]uint32, t.mask+1)
	}
	return nil
}

// grow doubles a group table's slot arrays, charging the difference, and
// places every key again.
func (t *keyTable) grow() error {
	ints, bytesSlots, spans := t.intSlots, t.byteSlots, t.spans
	half := t.mask + 1
	t.shift--
	t.mask = t.mask<<1 | 1
	if ints != nil {
		if err := t.alloc(keyInt, half); err != nil {
			return err
		}
		for _, s := range ints {
			if s.head != 0 {
				d := t.intSlot(s.key)
				*d = s
			}
		}
	}
	if bytesSlots != nil {
		if err := t.alloc(keyBytes, half); err != nil {
			return err
		}
		for i, s := range bytesSlots {
			if s.head != 0 {
				sp := spans[i]
				d, j := t.bytesSlot(s.key, t.arena[sp[0]:sp[1]])
				*d, t.spans[j] = s, sp
			}
		}
	}
	return nil
}

// Key encoding tags (appendKeyLane): each component is a tag byte and then
// its payload.
const (
	keyTagNull  = iota
	keyTagInt   // 8 bytes: an int64, or a float integralFloat folds
	keyTagFloat // 8 bytes: any other float's bits, every NaN as one
	keyTagStr   // a uvarint length, then the bytes
	keyTagTrue
	keyTagFalse
	keyTagOther // a uvarint length, then the %v text
)

// appendKeyLane appends lane k of v to an encoded key tuple. The encoding is
// self-delimiting, so tuples are equal exactly when every component is, and
// two components are equal exactly when their GroupKey texts are.
func appendKeyLane(dst []byte, v *colVec, k int) []byte {
	if v.isNull(k) {
		return append(dst, keyTagNull)
	}
	switch v.kind {
	case TInt:
		return appendKeyInt(dst, v.ints[k])
	case TFloat:
		return appendKeyFloat(dst, v.floats[k])
	case TString:
		return appendKeyStr(dst, keyTagStr, v.strAt(k))
	case TBool:
		return appendKeyBool(dst, v.bools[k])
	}
	return appendKeyValue(dst, v.anys[k])
}

// appendKeyValue is appendKeyLane for a boxed value: the row closures' group
// keys, the row join's keys and DISTINCT's row keys.
func appendKeyValue(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, keyTagNull)
	case int64:
		return appendKeyInt(dst, x)
	case float64:
		return appendKeyFloat(dst, x)
	case string:
		return appendKeyStr(dst, keyTagStr, x)
	case bool:
		return appendKeyBool(dst, x)
	}
	return appendKeyStr(dst, keyTagOther, fmt.Sprintf("%v", v))
}

func appendKeyInt(dst []byte, x int64) []byte {
	return binary.LittleEndian.AppendUint64(append(dst, keyTagInt), uint64(x))
}

func appendKeyFloat(dst []byte, x float64) []byte {
	if i, ok := integralFloat(x); ok {
		return appendKeyInt(dst, i)
	}
	if x != x {
		x = math.NaN()
	}
	return binary.LittleEndian.AppendUint64(append(dst, keyTagFloat), math.Float64bits(x))
}

func appendKeyStr(dst []byte, tag byte, s string) []byte {
	dst = binary.AppendUvarint(append(dst, tag), uint64(len(s)))
	return append(dst, s...)
}

func appendKeyBool(dst []byte, x bool) []byte {
	if x {
		return append(dst, keyTagTrue)
	}
	return append(dst, keyTagFalse)
}
