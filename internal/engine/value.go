// Package engine implements a from-scratch, in-memory relational SQL engine:
// storage, expression evaluation, hash joins, hash aggregation, window
// functions, sorting, and DDL/DML including CREATE TABLE AS SELECT.
//
// It is the substrate standing in for the off-the-shelf engines (Impala,
// Spark SQL, Redshift) of the VerdictDB paper: the middleware only ever
// talks to it through SQL strings, exactly as the paper requires. The engine
// deliberately has no approximation logic; everything approximate happens in
// the SQL that VerdictDB sends it.
package engine

import (
	"fmt"
	"strconv"
	"strings"
)

// Value is a runtime SQL value: one of nil, bool, int64, float64, or string.
// Dates are ISO-8601 strings ("2006-01-02"), which order correctly under
// lexicographic comparison.
type Value = any

// ColType is a column's declared type.
type ColType int

// Column types. TAny is used for columns whose type could not be inferred.
const (
	TAny ColType = iota
	TBool
	TInt
	TFloat
	TString
)

func (t ColType) String() string {
	switch t {
	case TBool:
		return "BOOLEAN"
	case TInt:
		return "BIGINT"
	case TFloat:
		return "DOUBLE"
	case TString:
		return "STRING"
	}
	return "ANY"
}

// TypeFromSQL maps a SQL type keyword to a ColType.
func TypeFromSQL(name string) ColType {
	switch strings.ToUpper(name) {
	case "INT", "BIGINT", "INTEGER", "SMALLINT", "TINYINT":
		return TInt
	case "DOUBLE", "FLOAT", "DECIMAL", "REAL", "NUMERIC":
		return TFloat
	case "VARCHAR", "STRING", "CHAR", "TEXT", "DATE":
		return TString
	case "BOOLEAN", "BOOL":
		return TBool
	}
	return TAny
}

// InferType returns the ColType of a runtime value.
func InferType(v Value) ColType {
	switch v.(type) {
	case bool:
		return TBool
	case int64:
		return TInt
	case float64:
		return TFloat
	case string:
		return TString
	}
	return TAny
}

// Normalize converts convenience Go types (int, int32, float32) into the
// engine's canonical runtime types. Bulk-load APIs call it per cell.
func Normalize(v Value) Value {
	switch x := v.(type) {
	case int:
		return int64(x)
	case int32:
		return int64(x)
	case int16:
		return int64(x)
	case int8:
		return int64(x)
	case uint32:
		return int64(x)
	case uint64:
		return int64(x)
	case float32:
		return float64(x)
	}
	return v
}

// IsNull reports whether v is SQL NULL.
func IsNull(v Value) bool { return v == nil }

// ToFloat coerces a value to float64. The second return is false for NULL or
// non-numeric values.
func ToFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	case string:
		f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
		if err != nil {
			return 0, false
		}
		return f, true
	}
	return 0, false
}

// ToInt coerces a value to int64.
func ToInt(v Value) (int64, bool) {
	switch x := v.(type) {
	case int64:
		return x, true
	case float64:
		return int64(x), true
	case bool:
		if x {
			return 1, true
		}
		return 0, true
	case string:
		i, err := strconv.ParseInt(strings.TrimSpace(x), 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(strings.TrimSpace(x), 64)
			if ferr != nil {
				return 0, false
			}
			return int64(f), true
		}
		return i, true
	}
	return 0, false
}

// ToBool coerces a value to a SQL boolean; NULL yields (false, false).
func ToBool(v Value) (bool, bool) {
	switch x := v.(type) {
	case bool:
		return x, true
	case int64:
		return x != 0, true
	case float64:
		return x != 0, true
	}
	return false, false
}

// ToStr renders a value as a string (used by hash01, concat, CSV output).
func ToStr(v Value) string {
	switch x := v.(type) {
	case nil:
		return ""
	case string:
		return x
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		return strconv.FormatFloat(x, 'g', -1, 64)
	case bool:
		if x {
			return "true"
		}
		return "false"
	}
	return fmt.Sprintf("%v", v)
}

// Compare orders two non-null values: -1, 0, or +1. Numeric values compare
// numerically across int64/float64; strings lexically; bools false<true.
// Mixed incomparable types order by type tag for stable sorting.
func Compare(a, b Value) int {
	af, aok := numeric(a)
	bf, bok := numeric(b)
	if aok && bok {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		return 0
	}
	as, aIsStr := a.(string)
	bs, bIsStr := b.(string)
	if aIsStr && bIsStr {
		return strings.Compare(as, bs)
	}
	ab, aIsB := a.(bool)
	bb, bIsB := b.(bool)
	if aIsB && bIsB {
		switch {
		case ab == bb:
			return 0
		case !ab:
			return -1
		}
		return 1
	}
	// Incomparable: order by type tag.
	ta, tb := InferType(a), InferType(b)
	switch {
	case ta < tb:
		return -1
	case ta > tb:
		return 1
	}
	return 0
}

func numeric(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	}
	return 0, false
}

// Equal reports SQL equality of two non-null values (numeric coercion
// applies).
func Equal(a, b Value) bool {
	if a == nil || b == nil {
		return false
	}
	return Compare(a, b) == 0
}

// integralFloat reports x as an int64 when it is one exactly. The range test
// comes first: converting a float outside int64 (or NaN) is
// implementation-defined, and a saturating platform would fold 2^63.
func integralFloat(x float64) (int64, bool) {
	if x >= -(1<<63) && x < 1<<63 {
		if i := int64(x); float64(i) == x {
			return i, true
		}
	}
	return 0, false
}

// nullGroupKey is GroupKey(nil); no other value renders to it.
const nullGroupKey = "\x00N"

// GroupKey renders a value into a group-by key fragment. Numeric values that
// are integral produce identical fragments whether stored as int64 or
// float64, so GROUP BY keys match across representations.
func GroupKey(v Value) string {
	switch x := v.(type) {
	case nil:
		return nullGroupKey
	case int64:
		return "i" + strconv.FormatInt(x, 10)
	case float64:
		if i, ok := integralFloat(x); ok {
			return "i" + strconv.FormatInt(i, 10)
		}
		return "f" + strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return "s" + x
	case bool:
		if x {
			return "b1"
		}
		return "b0"
	}
	return fmt.Sprintf("?%v", v)
}
