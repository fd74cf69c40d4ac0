// Package value defines the tagged scalar values that flow through COMDES
// signals, expression evaluation, and the debugger command payloads.
//
// COMDES signals are strongly typed scalars (the paper's models carry
// temperatures, set-points, discrete modes and boolean flags). A Value is a
// small immutable tagged union over float64, int64, bool and string with
// the arithmetic and comparison semantics shared by the expression language
// (internal/expr) and the generated code (internal/codegen).
package value

import (
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the dynamic type of a Value.
type Kind uint8

// The supported value kinds.
const (
	Invalid Kind = iota
	Float
	Int
	Bool
	String
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case Float:
		return "float"
	case Int:
		return "int"
	case Bool:
		return "bool"
	case String:
		return "string"
	default:
		return "invalid"
	}
}

// ParseKind converts a kind name (as used in model files) to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "float", "float64", "real", "double":
		return Float, nil
	case "int", "int64", "integer":
		return Int, nil
	case "bool", "boolean":
		return Bool, nil
	case "string":
		return String, nil
	}
	return Invalid, fmt.Errorf("value: unknown kind %q", s)
}

// Value is an immutable tagged scalar. The zero Value has Kind Invalid.
type Value struct {
	kind Kind
	f    float64
	i    int64
	b    bool
	s    string
}

// F returns a Float value.
func F(v float64) Value { return Value{kind: Float, f: v} }

// I returns an Int value.
func I(v int64) Value { return Value{kind: Int, i: v} }

// B returns a Bool value.
func B(v bool) Value { return Value{kind: Bool, b: v} }

// S returns a String value.
func S(v string) Value { return Value{kind: String, s: v} }

// Kind reports the dynamic kind of v.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether v holds a value of a known kind.
func (v Value) IsValid() bool { return v.kind != Invalid }

// Float returns the value as float64, converting Int and Bool.
func (v Value) Float() float64 {
	switch v.kind {
	case Float:
		return v.f
	case Int:
		return float64(v.i)
	case Bool:
		if v.b {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// Int returns the value as int64, truncating Float toward zero.
func (v Value) Int() int64 {
	switch v.kind {
	case Int:
		return v.i
	case Float:
		return int64(v.f)
	case Bool:
		if v.b {
			return 1
		}
		return 0
	default:
		return 0
	}
}

// Bool returns the value interpreted as a truth value: non-zero numbers and
// non-empty strings are true.
func (v Value) Bool() bool {
	switch v.kind {
	case Bool:
		return v.b
	case Int:
		return v.i != 0
	case Float:
		return v.f != 0
	case String:
		return v.s != ""
	default:
		return false
	}
}

// Str returns the underlying string for String values and a formatted
// representation otherwise.
func (v Value) Str() string {
	if v.kind == String {
		return v.s
	}
	return v.String()
}

// String implements fmt.Stringer with a stable textual form used in traces
// and rendered labels.
func (v Value) String() string {
	switch v.kind {
	case Float:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case Int:
		return strconv.FormatInt(v.i, 10)
	case Bool:
		return strconv.FormatBool(v.b)
	case String:
		return v.s
	default:
		return "<invalid>"
	}
}

// Parse parses the textual form produced by String back into a Value of the
// given kind.
func Parse(k Kind, s string) (Value, error) {
	switch k {
	case Float:
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad float %q: %w", s, err)
		}
		return F(f), nil
	case Int:
		i, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad int %q: %w", s, err)
		}
		return I(i), nil
	case Bool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return Value{}, fmt.Errorf("value: bad bool %q: %w", s, err)
		}
		return B(b), nil
	case String:
		return S(s), nil
	}
	return Value{}, fmt.Errorf("value: cannot parse kind %v", k)
}

// numeric reports whether the kind takes part in arithmetic.
func numeric(k Kind) bool { return k == Float || k == Int }

// Numeric reports whether v is a Float or Int.
func (v Value) Numeric() bool { return numeric(v.kind) }

// promote decides the arithmetic result kind for two numeric operands:
// Int op Int stays Int, anything involving Float becomes Float.
func promote(a, b Value) Kind {
	if a.kind == Float || b.kind == Float {
		return Float
	}
	return Int
}

// Arith applies a binary arithmetic operator (+ - * / %) with numeric
// promotion. Division of two Ints is integer division; % requires Ints or
// uses math.Mod for floats. Division by zero returns an error.
func Arith(op byte, a, b Value) (Value, error) {
	if !a.Numeric() || !b.Numeric() {
		return Value{}, fmt.Errorf("value: arithmetic %c on non-numeric %v, %v", op, a.kind, b.kind)
	}
	if promote(a, b) == Int {
		x, y := a.Int(), b.Int()
		switch op {
		case '+':
			return I(x + y), nil
		case '-':
			return I(x - y), nil
		case '*':
			return I(x * y), nil
		case '/':
			if y == 0 {
				return Value{}, fmt.Errorf("value: integer division by zero")
			}
			return I(x / y), nil
		case '%':
			if y == 0 {
				return Value{}, fmt.Errorf("value: integer modulo by zero")
			}
			return I(x % y), nil
		}
		return Value{}, fmt.Errorf("value: unknown operator %c", op)
	}
	x, y := a.Float(), b.Float()
	switch op {
	case '+':
		return F(x + y), nil
	case '-':
		return F(x - y), nil
	case '*':
		return F(x * y), nil
	case '/':
		if y == 0 {
			return Value{}, fmt.Errorf("value: division by zero")
		}
		return F(x / y), nil
	case '%':
		if y == 0 {
			return Value{}, fmt.Errorf("value: modulo by zero")
		}
		return F(math.Mod(x, y)), nil
	}
	return Value{}, fmt.Errorf("value: unknown operator %c", op)
}

// Neg returns the arithmetic negation of a numeric value.
func Neg(a Value) (Value, error) {
	switch a.kind {
	case Int:
		return I(-a.i), nil
	case Float:
		return F(-a.f), nil
	}
	return Value{}, fmt.Errorf("value: negation of %v", a.kind)
}

// Compare returns -1, 0 or +1 ordering a relative to b. Numeric kinds
// compare by promoted value; strings lexicographically; bools false<true.
// Mixed non-numeric kinds are an error.
func Compare(a, b Value) (int, error) {
	switch {
	case a.Numeric() && b.Numeric():
		x, y := a.Float(), b.Float()
		switch {
		case x < y:
			return -1, nil
		case x > y:
			return 1, nil
		default:
			return 0, nil
		}
	case a.kind == String && b.kind == String:
		switch {
		case a.s < b.s:
			return -1, nil
		case a.s > b.s:
			return 1, nil
		default:
			return 0, nil
		}
	case a.kind == Bool && b.kind == Bool:
		x, y := a.Int(), b.Int()
		return int(x - y), nil
	}
	return 0, fmt.Errorf("value: cannot compare %v with %v", a.kind, b.kind)
}

// Equal reports whether two values are equal under Compare semantics;
// incomparable kinds are simply unequal. Same-kind operands, the common
// case, skip Compare; each branch keeps its semantics: numbers compare as
// float64, so Ints past 2^53 that round together are equal, and a NaN
// (neither less nor greater) equals every number.
func Equal(a, b Value) bool {
	if a.kind == b.kind {
		switch a.kind {
		case Int:
			return float64(a.i) == float64(b.i)
		case Float:
			return !(a.f < b.f || a.f > b.f)
		case Bool:
			return a.b == b.b
		case String:
			return a.s == b.s
		}
	}
	c, err := Compare(a, b)
	return err == nil && c == 0
}

// Zero returns the zero value of kind k (0, 0.0, false, "").
func Zero(k Kind) Value {
	return Value{kind: k}
}

// Convert coerces v to kind k using the accessor semantics above.
func Convert(v Value, k Kind) (Value, error) {
	if v.kind == k {
		return v, nil
	}
	switch k {
	case Float:
		return F(v.Float()), nil
	case Int:
		return I(v.Int()), nil
	case Bool:
		return B(v.Bool()), nil
	case String:
		return S(v.String()), nil
	}
	return Value{}, fmt.Errorf("value: cannot convert %v to %v", v.kind, k)
}
