package engine

import (
	"fmt"
	"math"
	"strings"
	"time"

	"verdictdb/internal/sketch"
	"verdictdb/internal/sqlparser"
)

// callScalar applies a scalar function to already-evaluated arguments.
// Function names arrive lower-cased from the parser. Several aliases exist
// so the dialect shims (Impala/Spark/Redshift spellings) all land on the
// same implementation — that is what lets the Syntax Changer stay thin.
func callScalar(eng *Engine, name string, args []Value) (Value, error) {
	switch name {
	case "rand", "random":
		return eng.randFloat(), nil
	case "rand_poisson1":
		// Poisson(1) variate via Knuth's product method (cheap at mean 1):
		// used by the consolidated-bootstrap baseline to draw per-resample
		// tuple multiplicities.
		const invE = 0.36787944117144233 // e^-1
		k := int64(0)
		prod := eng.randFloat()
		for prod > invE {
			k++
			prod *= eng.randFloat()
		}
		return k, nil
	case "floor":
		return unaryMath(args, math.Floor)
	case "ceil", "ceiling":
		return unaryMath(args, math.Ceil)
	case "abs":
		if len(args) == 1 {
			if i, ok := args[0].(int64); ok {
				if i < 0 {
					return -i, nil
				}
				return i, nil
			}
		}
		return unaryMath(args, math.Abs)
	case "sqrt":
		return unaryMath(args, math.Sqrt)
	case "exp":
		return unaryMath(args, math.Exp)
	case "ln", "log":
		return unaryMath(args, math.Log)
	case "sign":
		return unaryMath(args, func(f float64) float64 {
			switch {
			case f > 0:
				return 1
			case f < 0:
				return -1
			}
			return 0
		})
	case "round":
		if len(args) == 0 || args[0] == nil {
			return nil, nil
		}
		f, ok := ToFloat(args[0])
		if !ok {
			return nil, fmt.Errorf("engine: round on non-numeric")
		}
		digits := int64(0)
		if len(args) > 1 && args[1] != nil {
			digits, _ = ToInt(args[1])
		}
		scale := math.Pow(10, float64(digits))
		return math.Round(f*scale) / scale, nil
	case "pow", "power":
		if len(args) != 2 {
			return nil, fmt.Errorf("engine: pow wants 2 args")
		}
		if args[0] == nil || args[1] == nil {
			return nil, nil
		}
		a, _ := ToFloat(args[0])
		b, _ := ToFloat(args[1])
		return math.Pow(a, b), nil
	case "mod":
		if len(args) != 2 {
			return nil, fmt.Errorf("engine: mod wants 2 args")
		}
		if args[0] == nil || args[1] == nil {
			return nil, nil
		}
		return arith("%", args[0], args[1])
	case "greatest", "least":
		var best Value
		for _, v := range args {
			if v == nil {
				continue
			}
			if best == nil ||
				(name == "greatest" && Compare(v, best) > 0) ||
				(name == "least" && Compare(v, best) < 0) {
				best = v
			}
		}
		return best, nil
	case "coalesce":
		for _, v := range args {
			if v != nil {
				return v, nil
			}
		}
		return nil, nil
	case "nullif":
		if len(args) != 2 {
			return nil, fmt.Errorf("engine: nullif wants 2 args")
		}
		if args[0] != nil && args[1] != nil && Compare(args[0], args[1]) == 0 {
			return nil, nil
		}
		return args[0], nil
	case "if":
		if len(args) != 3 {
			return nil, fmt.Errorf("engine: if wants 3 args")
		}
		if b, ok := ToBool(args[0]); ok && b {
			return args[1], nil
		}
		return args[2], nil
	case "concat":
		var sb strings.Builder
		for _, v := range args {
			if v == nil {
				return nil, nil
			}
			sb.WriteString(ToStr(v))
		}
		return sb.String(), nil
	case "upper":
		return stringFunc(args, strings.ToUpper)
	case "lower":
		return stringFunc(args, strings.ToLower)
	case "trim":
		return stringFunc(args, strings.TrimSpace)
	case "length", "char_length":
		if len(args) != 1 {
			return nil, fmt.Errorf("engine: length wants 1 arg")
		}
		if args[0] == nil {
			return nil, nil
		}
		return int64(len(ToStr(args[0]))), nil
	case "substr", "substring":
		if len(args) < 2 || args[0] == nil {
			return nil, nil
		}
		s := ToStr(args[0])
		start, _ := ToInt(args[1]) // 1-based
		if start < 1 {
			start = 1
		}
		if int(start) > len(s) {
			return "", nil
		}
		rest := s[start-1:]
		if len(args) > 2 && args[2] != nil {
			n, _ := ToInt(args[2])
			if n < 0 {
				n = 0
			}
			if int(n) < len(rest) {
				rest = rest[:n]
			}
		}
		return rest, nil
	case "year":
		if len(args) != 1 || args[0] == nil {
			return nil, nil
		}
		s := ToStr(args[0])
		if len(s) >= 4 {
			if y, ok := ToInt(s[:4]); ok {
				return y, nil
			}
		}
		return nil, nil
	case "month":
		if len(args) != 1 || args[0] == nil {
			return nil, nil
		}
		s := ToStr(args[0])
		if len(s) >= 7 {
			if m, ok := ToInt(s[5:7]); ok {
				return m, nil
			}
		}
		return nil, nil
	case "hash01", "crc32_ratio", "md5_ratio", "bucket_hash":
		// Uniform hash of the value into [0,1): the primitive hashed
		// (universe) samples are built on. Engines spell it differently
		// (crc32, md5 + conversion); all spellings share one implementation
		// so samples hash identically everywhere.
		if len(args) != 1 {
			return nil, fmt.Errorf("engine: hash01 wants 1 arg")
		}
		if args[0] == nil {
			return nil, nil
		}
		return sketch.Hash01(GroupKey(args[0])), nil
	case "hash_bucket":
		// hash_bucket(x, b): stable bucket in [0, b).
		if len(args) != 2 {
			return nil, fmt.Errorf("engine: hash_bucket wants 2 args")
		}
		if args[0] == nil || args[1] == nil {
			return nil, nil
		}
		b, _ := ToInt(args[1])
		if b <= 0 {
			return nil, nil
		}
		return int64(sketch.Hash64(GroupKey(args[0])) % uint64(b)), nil
	case "double", "float64":
		if len(args) != 1 || args[0] == nil {
			return nil, nil
		}
		if f, ok := ToFloat(args[0]); ok {
			return f, nil
		}
		return nil, nil
	case "int", "bigint":
		if len(args) != 1 || args[0] == nil {
			return nil, nil
		}
		if i, ok := ToInt(args[0]); ok {
			return i, nil
		}
		return nil, nil
	case "date_add":
		if len(args) != 2 || args[0] == nil || args[1] == nil {
			return nil, nil
		}
		n, _ := ToInt(args[1])
		return shiftDate(ToStr(args[0]), &sqlparser.IntervalExpr{Value: fmt.Sprint(n), Unit: "day"}, false)
	}
	return nil, fmt.Errorf("engine: unknown function %s", name)
}

func unaryMath(args []Value, fn func(float64) float64) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("engine: function wants 1 arg")
	}
	if args[0] == nil {
		return nil, nil
	}
	f, ok := ToFloat(args[0])
	if !ok {
		return nil, fmt.Errorf("engine: non-numeric argument %T", args[0])
	}
	return fn(f), nil
}

func stringFunc(args []Value, fn func(string) string) (Value, error) {
	if len(args) != 1 {
		return nil, fmt.Errorf("engine: function wants 1 arg")
	}
	if args[0] == nil {
		return nil, nil
	}
	return fn(ToStr(args[0])), nil
}

// shiftDate adds or subtracts an interval from an ISO date string.
func shiftDate(date string, iv *sqlparser.IntervalExpr, negate bool) (Value, error) {
	t, err := time.Parse("2006-01-02", strings.TrimSpace(date))
	if err != nil {
		return nil, fmt.Errorf("engine: bad date %q: %v", date, err)
	}
	n, ok := ToInt(iv.Value)
	if !ok {
		return nil, fmt.Errorf("engine: bad interval quantity %q", iv.Value)
	}
	if negate {
		n = -n
	}
	switch iv.Unit {
	case "day":
		t = t.AddDate(0, 0, int(n))
	case "month":
		t = t.AddDate(0, int(n), 0)
	case "year":
		t = t.AddDate(int(n), 0, 0)
	default:
		return nil, fmt.Errorf("engine: unsupported interval unit %q", iv.Unit)
	}
	return t.Format("2006-01-02"), nil
}
