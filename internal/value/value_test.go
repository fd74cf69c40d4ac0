package value

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Float: "float", Int: "int", Bool: "bool", String: "string", Invalid: "invalid",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestParseKind(t *testing.T) {
	for s, want := range map[string]Kind{
		"float": Float, "float64": Float, "real": Float, "double": Float,
		"int": Int, "int64": Int, "integer": Int,
		"bool": Bool, "boolean": Bool,
		"string": String,
	} {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParseKind("complex"); err == nil {
		t.Error("ParseKind(complex) should fail")
	}
}

func TestAccessors(t *testing.T) {
	if F(2.5).Float() != 2.5 || F(2.5).Int() != 2 || !F(2.5).Bool() {
		t.Error("float accessors wrong")
	}
	if I(7).Int() != 7 || I(7).Float() != 7.0 || !I(7).Bool() {
		t.Error("int accessors wrong")
	}
	if !B(true).Bool() || B(true).Int() != 1 || B(false).Float() != 0 {
		t.Error("bool accessors wrong")
	}
	if S("x").Str() != "x" || !S("x").Bool() || S("").Bool() {
		t.Error("string accessors wrong")
	}
	var zero Value
	if zero.IsValid() || zero.Bool() || zero.Float() != 0 || zero.Int() != 0 {
		t.Error("zero Value should be invalid and falsy")
	}
}

func TestStringParseRoundtrip(t *testing.T) {
	vals := []Value{F(3.14159), F(-0.5), I(42), I(-1), B(true), B(false), S("hello world")}
	for _, v := range vals {
		got, err := Parse(v.Kind(), v.String())
		if err != nil {
			t.Fatalf("Parse(%v, %q): %v", v.Kind(), v.String(), err)
		}
		if !Equal(got, v) {
			t.Errorf("roundtrip %v -> %q -> %v", v, v.String(), got)
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(Float, "abc"); err == nil {
		t.Error("Parse(Float, abc) should fail")
	}
	if _, err := Parse(Int, "1.5"); err == nil {
		t.Error("Parse(Int, 1.5) should fail")
	}
	if _, err := Parse(Bool, "maybe"); err == nil {
		t.Error("Parse(Bool, maybe) should fail")
	}
	if _, err := Parse(Invalid, "x"); err == nil {
		t.Error("Parse(Invalid) should fail")
	}
}

func TestArithIntStaysInt(t *testing.T) {
	got, err := Arith('+', I(2), I(3))
	if err != nil || got.Kind() != Int || got.Int() != 5 {
		t.Fatalf("2+3 = %v, %v", got, err)
	}
	got, _ = Arith('/', I(7), I(2))
	if got.Kind() != Int || got.Int() != 3 {
		t.Errorf("7/2 = %v, want int 3", got)
	}
	got, _ = Arith('%', I(7), I(2))
	if got.Int() != 1 {
		t.Errorf("7%%2 = %v, want 1", got)
	}
}

func TestArithPromotion(t *testing.T) {
	got, err := Arith('*', I(2), F(1.5))
	if err != nil || got.Kind() != Float || got.Float() != 3.0 {
		t.Fatalf("2*1.5 = %v, %v; want float 3", got, err)
	}
	got, _ = Arith('%', F(7.5), F(2))
	if math.Abs(got.Float()-1.5) > 1e-12 {
		t.Errorf("7.5 mod 2 = %v, want 1.5", got)
	}
}

func TestArithErrors(t *testing.T) {
	if _, err := Arith('+', S("a"), I(1)); err == nil {
		t.Error("string arithmetic should fail")
	}
	if _, err := Arith('/', I(1), I(0)); err == nil {
		t.Error("int div by zero should fail")
	}
	if _, err := Arith('/', F(1), F(0)); err == nil {
		t.Error("float div by zero should fail")
	}
	if _, err := Arith('%', I(1), I(0)); err == nil {
		t.Error("int mod by zero should fail")
	}
	if _, err := Arith('%', F(1), F(0)); err == nil {
		t.Error("float mod by zero should fail")
	}
	if _, err := Arith('?', I(1), I(1)); err == nil {
		t.Error("unknown op should fail")
	}
	if _, err := Arith('?', F(1), F(1)); err == nil {
		t.Error("unknown float op should fail")
	}
}

func TestNeg(t *testing.T) {
	if v, err := Neg(I(3)); err != nil || v.Int() != -3 {
		t.Errorf("Neg(3) = %v, %v", v, err)
	}
	if v, err := Neg(F(2.5)); err != nil || v.Float() != -2.5 {
		t.Errorf("Neg(2.5) = %v, %v", v, err)
	}
	if _, err := Neg(B(true)); err == nil {
		t.Error("Neg(bool) should fail")
	}
}

func TestCompare(t *testing.T) {
	type tc struct {
		a, b Value
		want int
	}
	for _, c := range []tc{
		{I(1), I(2), -1}, {I(2), I(2), 0}, {F(2.5), I(2), 1},
		{S("a"), S("b"), -1}, {S("b"), S("b"), 0}, {S("c"), S("b"), 1},
		{B(false), B(true), -1}, {B(true), B(true), 0},
	} {
		got, err := Compare(c.a, c.b)
		if err != nil || got != c.want {
			t.Errorf("Compare(%v,%v) = %d, %v; want %d", c.a, c.b, got, err, c.want)
		}
	}
	if _, err := Compare(S("a"), I(1)); err == nil {
		t.Error("Compare(string,int) should fail")
	}
}

func TestEqualAndConvert(t *testing.T) {
	if !Equal(I(2), F(2)) {
		t.Error("2 == 2.0 should hold")
	}
	if Equal(S("2"), I(2)) {
		t.Error("\"2\" != 2")
	}
	v, err := Convert(F(3.9), Int)
	if err != nil || v.Int() != 3 {
		t.Errorf("Convert(3.9, Int) = %v, %v", v, err)
	}
	v, _ = Convert(I(0), Bool)
	if v.Bool() {
		t.Error("Convert(0, Bool) should be false")
	}
	v, _ = Convert(B(true), String)
	if v.Str() != "true" {
		t.Errorf("Convert(true, String) = %q", v.Str())
	}
	if v, err := Convert(I(1), Int); err != nil || v.Int() != 1 {
		t.Error("identity convert failed")
	}
	if _, err := Convert(I(1), Invalid); err == nil {
		t.Error("Convert to Invalid should fail")
	}
}

func TestZero(t *testing.T) {
	if Zero(Float).Float() != 0 || Zero(Int).Int() != 0 || Zero(Bool).Bool() || Zero(String).Str() != "" {
		t.Error("Zero values wrong")
	}
}

// Property: arithmetic on Int values matches Go int64 arithmetic.
func TestQuickIntArith(t *testing.T) {
	f := func(a, b int64) bool {
		sum, err := Arith('+', I(a), I(b))
		if err != nil || sum.Int() != a+b {
			return false
		}
		prod, err := Arith('*', I(a), I(b))
		if err != nil || prod.Int() != a*b {
			return false
		}
		if b != 0 {
			q, err := Arith('/', I(a), I(b))
			if err != nil || q.Int() != a/b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Compare is antisymmetric and Equal is reflexive for floats.
func TestQuickCompareAntisymmetry(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) {
			return true
		}
		ab, err1 := Compare(F(a), F(b))
		ba, err2 := Compare(F(b), F(a))
		if err1 != nil || err2 != nil {
			return false
		}
		return ab == -ba && Equal(F(a), F(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: String/Parse roundtrip for floats (excluding NaN).
func TestQuickFloatRoundtrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) {
			return true
		}
		v, err := Parse(Float, F(x).String())
		return err == nil && v.Float() == x
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEqualMatchesCompare holds Equal's same-kind fast path to the
// general Compare over every kind pair, with the edge values where the
// two could part: NaN, ±0, ±Inf, Ints past 2^53 that round to one
// float64, mixed Int/Float, Bool against numbers, and the Invalid kind.
func TestEqualMatchesCompare(t *testing.T) {
	vals := []Value{
		{},
		F(0), F(math.Copysign(0, -1)), F(1), F(-2.5), F(1e300),
		F(math.NaN()), F(math.Inf(1)), F(math.Inf(-1)), F(1 << 53),
		I(0), I(1), I(-3), I(1 << 53), I(1<<53 + 1), I(math.MaxInt64), I(math.MinInt64),
		B(false), B(true),
		S(""), S("a"), S("b"), S("1"),
	}
	for _, a := range vals {
		for _, b := range vals {
			c, err := Compare(a, b)
			want := err == nil && c == 0
			if got := Equal(a, b); got != want {
				t.Errorf("Equal(%v %v, %v %v) = %v, Compare says %v", a.Kind(), a, b.Kind(), b, got, want)
			}
		}
	}
}
