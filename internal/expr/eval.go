package expr

import (
	"fmt"
	"math"

	"repro/internal/value"
)

// Env supplies variable values during evaluation.
type Env interface {
	// Lookup returns the value bound to name, or ok=false if unbound.
	Lookup(name string) (value.Value, bool)
}

// MapEnv is the trivial Env over a map.
type MapEnv map[string]value.Value

// Lookup implements Env.
func (m MapEnv) Lookup(name string) (value.Value, bool) {
	v, ok := m[name]
	return v, ok
}

// builtin describes one intrinsic function.
type builtin struct {
	minArgs, maxArgs int
	apply            func(args []value.Value) (value.Value, error)
}

// builtins is the intrinsic function table. All functions operate on
// numeric values and return Float (except sign/clampi behaviours noted).
var builtins = map[string]builtin{
	"abs": {1, 1, func(a []value.Value) (value.Value, error) {
		if a[0].Kind() == value.Int {
			v := a[0].Int()
			if v < 0 {
				v = -v
			}
			return value.I(v), nil
		}
		return value.F(math.Abs(a[0].Float())), nil
	}},
	"min": {2, 2, func(a []value.Value) (value.Value, error) {
		c, err := value.Compare(a[0], a[1])
		if err != nil {
			return value.Value{}, err
		}
		if c <= 0 {
			return a[0], nil
		}
		return a[1], nil
	}},
	"max": {2, 2, func(a []value.Value) (value.Value, error) {
		c, err := value.Compare(a[0], a[1])
		if err != nil {
			return value.Value{}, err
		}
		if c >= 0 {
			return a[0], nil
		}
		return a[1], nil
	}},
	"clamp": {3, 3, func(a []value.Value) (value.Value, error) {
		x, lo, hi := a[0].Float(), a[1].Float(), a[2].Float()
		if lo > hi {
			return value.Value{}, fmt.Errorf("expr: clamp lo %g > hi %g", lo, hi)
		}
		return value.F(math.Max(lo, math.Min(hi, x))), nil
	}},
	"floor": {1, 1, func(a []value.Value) (value.Value, error) {
		return value.F(math.Floor(a[0].Float())), nil
	}},
	"ceil": {1, 1, func(a []value.Value) (value.Value, error) {
		return value.F(math.Ceil(a[0].Float())), nil
	}},
	"sqrt": {1, 1, func(a []value.Value) (value.Value, error) {
		x := a[0].Float()
		if x < 0 {
			return value.Value{}, fmt.Errorf("expr: sqrt of negative %g", x)
		}
		return value.F(math.Sqrt(x)), nil
	}},
	"sign": {1, 1, func(a []value.Value) (value.Value, error) {
		x := a[0].Float()
		switch {
		case x > 0:
			return value.I(1), nil
		case x < 0:
			return value.I(-1), nil
		default:
			return value.I(0), nil
		}
	}},
}

// Builtin returns the named intrinsic as a function over already-evaluated
// arguments, with the intrinsic's arity check and errors, or nil when the
// name is unknown. The generated code's VM resolves its calls through it
// once, so compiled and interpreted evaluation share one implementation
// and a call pays no lookup.
func Builtin(name string) func(args []value.Value) (value.Value, error) {
	b, ok := builtins[name]
	if !ok {
		return nil
	}
	return func(args []value.Value) (value.Value, error) { return b.call(name, args) }
}

func (b builtin) call(name string, args []value.Value) (value.Value, error) {
	if len(args) < b.minArgs || len(args) > b.maxArgs {
		return value.Value{}, fmt.Errorf("expr: %s expects %d..%d args, got %d", name, b.minArgs, b.maxArgs, len(args))
	}
	return b.apply(args)
}

// Builtins returns the sorted names of all intrinsic functions.
func Builtins() []string {
	names := make([]string, 0, len(builtins))
	for n := range builtins {
		names = append(names, n)
	}
	sortStrings(names)
	return names
}

// Eval evaluates the expression under env. Logical operators short-circuit;
// comparison operators yield Bool; arithmetic follows value promotion rules.
func Eval(n Node, env Env) (value.Value, error) {
	switch e := n.(type) {
	case *Lit:
		return e.Val, nil
	case *Ident:
		v, ok := env.Lookup(e.Name)
		if !ok {
			return value.Value{}, fmt.Errorf("expr: unbound variable %q", e.Name)
		}
		return v, nil
	case *Unary:
		x, err := Eval(e.X, env)
		if err != nil {
			return value.Value{}, err
		}
		switch e.Op {
		case "-":
			return value.Neg(x)
		case "!":
			return value.B(!x.Bool()), nil
		}
		return value.Value{}, fmt.Errorf("expr: unknown unary %q", e.Op)
	case *Binary:
		return evalBinary(e, env)
	case *Call:
		args := make([]value.Value, len(e.Args))
		for i, a := range e.Args {
			v, err := Eval(a, env)
			if err != nil {
				return value.Value{}, err
			}
			args[i] = v
		}
		return builtins[e.Fn].apply(args)
	}
	return value.Value{}, fmt.Errorf("expr: unknown node %T", n)
}

func evalBinary(e *Binary, env Env) (value.Value, error) {
	// Short-circuit logic first.
	switch e.Op {
	case "&&":
		l, err := Eval(e.L, env)
		if err != nil {
			return value.Value{}, err
		}
		if !l.Bool() {
			return value.B(false), nil
		}
		r, err := Eval(e.R, env)
		if err != nil {
			return value.Value{}, err
		}
		return value.B(r.Bool()), nil
	case "||":
		l, err := Eval(e.L, env)
		if err != nil {
			return value.Value{}, err
		}
		if l.Bool() {
			return value.B(true), nil
		}
		r, err := Eval(e.R, env)
		if err != nil {
			return value.Value{}, err
		}
		return value.B(r.Bool()), nil
	}
	l, err := Eval(e.L, env)
	if err != nil {
		return value.Value{}, err
	}
	r, err := Eval(e.R, env)
	if err != nil {
		return value.Value{}, err
	}
	switch e.Op {
	case "+", "-", "*", "/", "%":
		return value.Arith(e.Op[0], l, r)
	case "==":
		return value.B(value.Equal(l, r)), nil
	case "!=":
		return value.B(!value.Equal(l, r)), nil
	case "<", "<=", ">", ">=":
		c, err := value.Compare(l, r)
		if err != nil {
			return value.Value{}, err
		}
		switch e.Op {
		case "<":
			return value.B(c < 0), nil
		case "<=":
			return value.B(c <= 0), nil
		case ">":
			return value.B(c > 0), nil
		default:
			return value.B(c >= 0), nil
		}
	}
	return value.Value{}, fmt.Errorf("expr: unknown operator %q", e.Op)
}

// EvalBool evaluates n and coerces the result to a truth value; it is the
// guard-evaluation entry point used by state machine function blocks and
// breakpoint predicates.
func EvalBool(n Node, env Env) (bool, error) {
	v, err := Eval(n, env)
	if err != nil {
		return false, err
	}
	return v.Bool(), nil
}
