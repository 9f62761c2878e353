package overlog

import (
	"fmt"

	"p2go/internal/tuple"
)

// Context supplies the environment builtin functions read: the node's
// clock, random source, and identity. The engine's node implements it.
type Context interface {
	// Now returns the node-local virtual time in seconds (f_now).
	Now() float64
	// Rand64 returns a uniformly random uint64 (f_rand, f_randID).
	Rand64() uint64
	// LocalAddr returns this node's address string (f_localAddr).
	LocalAddr() string
}

// Lookup resolves a variable name to its bound value; the second result
// is false for unbound variables.
type Lookup func(name string) (tuple.Value, bool)

// Fn is a compiled expression (see Compile): it evaluates over a binding
// frame indexed by variable slot, where tuple.Nil marks an unbound slot.
type Fn func(b []tuple.Value, ctx Context) (tuple.Value, error)

// The operator and builtin tables below are the single definition of
// OverLog's expression semantics; Eval interprets an AST through them
// and Compile resolves them once per expression.

// binaryOp is one binary operator. A strict operator applies fn to
// both operands. A short-circuit operator (fn nil) is decided by its
// left operand when that operand's truth equals decides: the result is
// then decides and the right operand is not evaluated; otherwise the
// result is the right operand's truth.
type binaryOp struct {
	fn      func(l, r tuple.Value) (tuple.Value, error)
	decides bool
}

// binaryOpOf is the operator table: the binaryOp for op, ok=false for
// an unknown operator. It is a switch rather than a map because the
// interpreter consults it on every evaluation.
func binaryOpOf(op string) (binaryOp, bool) {
	switch op {
	case "&&":
		return binaryOp{decides: false}, true
	case "||":
		return binaryOp{decides: true}, true
	case "+":
		return binaryOp{fn: tuple.Add}, true
	case "-":
		return binaryOp{fn: tuple.Sub}, true
	case "*":
		return binaryOp{fn: tuple.Mul}, true
	case "/":
		return binaryOp{fn: tuple.Div}, true
	case "%":
		return binaryOp{fn: tuple.Mod}, true
	case "<<":
		return binaryOp{fn: tuple.Shl}, true
	case "==":
		return binaryOp{fn: opEq}, true
	case "!=":
		return binaryOp{fn: opNe}, true
	case "<":
		return binaryOp{fn: opLt}, true
	case "<=":
		return binaryOp{fn: opLe}, true
	case ">":
		return binaryOp{fn: opGt}, true
	case ">=":
		return binaryOp{fn: opGe}, true
	}
	return binaryOp{}, false
}

func opEq(l, r tuple.Value) (tuple.Value, error) { return tuple.Bool(l.Equal(r)), nil }
func opNe(l, r tuple.Value) (tuple.Value, error) { return tuple.Bool(!l.Equal(r)), nil }
func opLt(l, r tuple.Value) (tuple.Value, error) { return tuple.Bool(l.Compare(r) < 0), nil }
func opLe(l, r tuple.Value) (tuple.Value, error) { return tuple.Bool(l.Compare(r) <= 0), nil }
func opGt(l, r tuple.Value) (tuple.Value, error) { return tuple.Bool(l.Compare(r) > 0), nil }
func opGe(l, r tuple.Value) (tuple.Value, error) { return tuple.Bool(l.Compare(r) >= 0), nil }

// negate is unary minus.
func negate(v tuple.Value) (tuple.Value, error) { return tuple.Sub(tuple.Int(0), v) }

// maxArity is the largest builtin arity; calls evaluate their arguments
// into a fixed array of this size instead of a slice.
const maxArity = 2

// builtin is one builtin function: its arity and its body, which reads
// only the first arity arguments. All builtins are pure given the
// Context.
type builtin struct {
	arity int
	fn    func(ctx Context, a, b tuple.Value) (tuple.Value, error)
}

// builtinOf is the builtin table: the builtin named name, ok=false for
// an unknown one (a switch for the same reason as binaryOpOf).
func builtinOf(name string) (builtin, bool) {
	switch name {
	case "f_now":
		return builtin{0, fNow}, true
	case "f_rand", "f_randID":
		return builtin{0, fRand}, true
	case "f_localAddr":
		return builtin{0, fLocalAddr}, true
	case "f_hash":
		return builtin{1, fHash}, true
	case "f_size":
		return builtin{1, fSize}, true
	case "f_first":
		return builtin{1, fFirst}, true
	case "f_last":
		return builtin{1, fLast}, true
	case "f_member":
		return builtin{2, fMember}, true
	case "f_tostr":
		return builtin{1, fToStr}, true
	}
	return builtin{}, false
}

func fNow(ctx Context, _, _ tuple.Value) (tuple.Value, error) { return tuple.Float(ctx.Now()), nil }

func fLocalAddr(ctx Context, _, _ tuple.Value) (tuple.Value, error) {
	return tuple.Str(ctx.LocalAddr()), nil
}

func fHash(_ Context, a, _ tuple.Value) (tuple.Value, error) { return tuple.ID(a.Hash()), nil }

func fToStr(_ Context, a, _ tuple.Value) (tuple.Value, error) { return tuple.Str(a.String()), nil }

func fRand(ctx Context, _, _ tuple.Value) (tuple.Value, error) { return tuple.ID(ctx.Rand64()), nil }

func fSize(_ Context, a, _ tuple.Value) (tuple.Value, error) {
	if a.Kind() == tuple.KindList {
		return tuple.Int(int64(len(a.AsList()))), nil
	}
	if a.Kind() == tuple.KindStr {
		return tuple.Int(int64(len(a.AsStr()))), nil
	}
	return tuple.Nil, fmt.Errorf("f_size wants a list or string, got %s", a.Kind())
}

func fFirst(_ Context, a, _ tuple.Value) (tuple.Value, error) {
	l := a.AsList()
	if a.Kind() != tuple.KindList || len(l) == 0 {
		return tuple.Nil, fmt.Errorf("f_first of empty or non-list")
	}
	return l[0], nil
}

func fLast(_ Context, a, _ tuple.Value) (tuple.Value, error) {
	l := a.AsList()
	if a.Kind() != tuple.KindList || len(l) == 0 {
		return tuple.Nil, fmt.Errorf("f_last of empty or non-list")
	}
	return l[len(l)-1], nil
}

func fMember(_ Context, list, x tuple.Value) (tuple.Value, error) {
	if list.Kind() != tuple.KindList {
		return tuple.Nil, fmt.Errorf("f_member wants a list")
	}
	for _, e := range list.AsList() {
		if e.Equal(x) {
			return tuple.Bool(true), nil
		}
	}
	return tuple.Bool(false), nil
}

// resolveCall finds a call's builtin. The error (unknown builtin or
// wrong arity) is reported only after every argument evaluated cleanly.
func resolveCall(c *Call) (builtin, error) {
	bi, ok := builtinOf(c.Name)
	if !ok {
		return bi, fmt.Errorf("unknown builtin %s", c.Name)
	}
	if len(c.Args) != bi.arity {
		return bi, fmt.Errorf("%s expects %d argument(s), got %d", c.Name, bi.arity, len(c.Args))
	}
	return bi, nil
}

// Errors of expressions that cannot evaluate under any binding.
func errUnbound(name string) error { return fmt.Errorf("unbound variable %s", name) }

func errWildcard() error { return fmt.Errorf("wildcard in expression context") }

func errAgg(x *Agg) error { return fmt.Errorf("aggregate %s evaluated outside head", x.String()) }

func errUnknownOp(op string) error { return fmt.Errorf("unknown operator %q", op) }

func errUnknownExpr(e Expr) error { return fmt.Errorf("unknown expression %T", e) }

// Eval evaluates an expression under the given variable bindings and
// builtin context. Unbound variables and type mismatches are errors; the
// planner guarantees rule expressions are evaluated only once their
// variables are bound.
func Eval(e Expr, lookup Lookup, ctx Context) (tuple.Value, error) {
	switch x := e.(type) {
	case *Lit:
		return x.Val, nil
	case *Var:
		v, ok := lookup(x.Name)
		if !ok {
			return tuple.Nil, errUnbound(x.Name)
		}
		return v, nil
	case *Wildcard:
		return tuple.Nil, errWildcard()
	case *Unary:
		v, err := Eval(x.X, lookup, ctx)
		if err != nil {
			return tuple.Nil, err
		}
		return negate(v)
	case *Binary:
		return evalBinary(x, lookup, ctx)
	case *Call:
		return evalCall(x, lookup, ctx)
	case *ListExpr:
		elems := make([]tuple.Value, len(x.Elems))
		for i, el := range x.Elems {
			v, err := Eval(el, lookup, ctx)
			if err != nil {
				return tuple.Nil, err
			}
			elems[i] = v
		}
		return tuple.List(elems...), nil
	case *RangeExpr:
		k, err := Eval(x.X, lookup, ctx)
		if err != nil {
			return tuple.Nil, err
		}
		lo, err := Eval(x.Lo, lookup, ctx)
		if err != nil {
			return tuple.Nil, err
		}
		hi, err := Eval(x.Hi, lookup, ctx)
		if err != nil {
			return tuple.Nil, err
		}
		return tuple.Bool(tuple.InInterval(k, lo, hi, x.LoOpen, x.HiOpen)), nil
	case *Agg:
		return tuple.Nil, errAgg(x)
	}
	return tuple.Nil, errUnknownExpr(e)
}

func evalBinary(x *Binary, lookup Lookup, ctx Context) (tuple.Value, error) {
	l, err := Eval(x.L, lookup, ctx)
	if err != nil {
		return tuple.Nil, err
	}
	op, known := binaryOpOf(x.Op)
	if known && op.fn == nil {
		if l.Truth() == op.decides {
			return tuple.Bool(op.decides), nil
		}
		r, err := Eval(x.R, lookup, ctx)
		if err != nil {
			return tuple.Nil, err
		}
		return tuple.Bool(r.Truth()), nil
	}
	r, err := Eval(x.R, lookup, ctx)
	if err != nil {
		return tuple.Nil, err
	}
	if !known {
		return tuple.Nil, errUnknownOp(x.Op)
	}
	return op.fn(l, r)
}

func evalCall(c *Call, lookup Lookup, ctx Context) (tuple.Value, error) {
	var args [maxArity]tuple.Value
	for i, a := range c.Args {
		v, err := Eval(a, lookup, ctx)
		if err != nil {
			return tuple.Nil, err
		}
		if i < maxArity {
			args[i] = v
		}
	}
	bi, err := resolveCall(c)
	if err != nil {
		return tuple.Nil, err
	}
	return bi.fn(ctx, args[0], args[1])
}

// Compile resolves an expression once into a closure over binding slots:
// slotOf maps a variable name to its slot in the frame the closure will
// read, or -1 if the name has none (the variable is then always
// unbound). Operators and builtins are looked up here, not per call. The
// closure returns exactly what Eval returns for the same expression, with
// a lookup that reports a slot holding tuple.Nil as unbound — values,
// errors and error text alike, including errors Compile could already
// foresee (an unknown builtin, a wrong arity), which are reported only
// when the closure runs and after its arguments evaluate, as Eval does.
func Compile(e Expr, slotOf func(string) int) Fn {
	switch x := e.(type) {
	case *Lit:
		v := x.Val
		return func([]tuple.Value, Context) (tuple.Value, error) { return v, nil }
	case *Var:
		name, slot := x.Name, slotOf(x.Name)
		if slot < 0 {
			return fail(nil, errUnbound(name))
		}
		return func(b []tuple.Value, _ Context) (tuple.Value, error) {
			if v := b[slot]; !v.IsNil() {
				return v, nil
			}
			return tuple.Nil, errUnbound(name)
		}
	case *Wildcard:
		return fail(nil, errWildcard())
	case *Unary:
		fx := Compile(x.X, slotOf)
		return func(b []tuple.Value, ctx Context) (tuple.Value, error) {
			v, err := fx(b, ctx)
			if err != nil {
				return tuple.Nil, err
			}
			return negate(v)
		}
	case *Binary:
		return compileBinary(x, slotOf)
	case *Call:
		return compileCall(x, slotOf)
	case *ListExpr:
		fs := compileAll(x.Elems, slotOf)
		return func(b []tuple.Value, ctx Context) (tuple.Value, error) {
			elems := make([]tuple.Value, len(fs))
			for i, f := range fs {
				v, err := f(b, ctx)
				if err != nil {
					return tuple.Nil, err
				}
				elems[i] = v
			}
			return tuple.List(elems...), nil
		}
	case *RangeExpr:
		fx, flo, fhi := Compile(x.X, slotOf), Compile(x.Lo, slotOf), Compile(x.Hi, slotOf)
		loOpen, hiOpen := x.LoOpen, x.HiOpen
		return func(b []tuple.Value, ctx Context) (tuple.Value, error) {
			k, err := fx(b, ctx)
			if err != nil {
				return tuple.Nil, err
			}
			lo, err := flo(b, ctx)
			if err != nil {
				return tuple.Nil, err
			}
			hi, err := fhi(b, ctx)
			if err != nil {
				return tuple.Nil, err
			}
			return tuple.Bool(tuple.InInterval(k, lo, hi, loOpen, hiOpen)), nil
		}
	case *Agg:
		return fail(nil, errAgg(x))
	}
	return fail(nil, errUnknownExpr(e))
}

func compileAll(es []Expr, slotOf func(string) int) []Fn {
	fs := make([]Fn, len(es))
	for i, e := range es {
		fs[i] = Compile(e, slotOf)
	}
	return fs
}

// fail returns a closure that evaluates fs in order, returning the first
// error among them, and otherwise err.
func fail(fs []Fn, err error) Fn {
	return func(b []tuple.Value, ctx Context) (tuple.Value, error) {
		for _, f := range fs {
			if _, ferr := f(b, ctx); ferr != nil {
				return tuple.Nil, ferr
			}
		}
		return tuple.Nil, err
	}
}

func compileBinary(x *Binary, slotOf func(string) int) Fn {
	fl, fr := Compile(x.L, slotOf), Compile(x.R, slotOf)
	op, known := binaryOpOf(x.Op)
	if !known {
		return fail([]Fn{fl, fr}, errUnknownOp(x.Op))
	}
	if op.fn == nil {
		decides := op.decides
		return func(b []tuple.Value, ctx Context) (tuple.Value, error) {
			l, err := fl(b, ctx)
			if err != nil {
				return tuple.Nil, err
			}
			if l.Truth() == decides {
				return tuple.Bool(decides), nil
			}
			r, err := fr(b, ctx)
			if err != nil {
				return tuple.Nil, err
			}
			return tuple.Bool(r.Truth()), nil
		}
	}
	fn := op.fn
	return func(b []tuple.Value, ctx Context) (tuple.Value, error) {
		l, err := fl(b, ctx)
		if err != nil {
			return tuple.Nil, err
		}
		r, err := fr(b, ctx)
		if err != nil {
			return tuple.Nil, err
		}
		return fn(l, r)
	}
}

func compileCall(c *Call, slotOf func(string) int) Fn {
	fs := compileAll(c.Args, slotOf)
	bi, err := resolveCall(c)
	if err != nil {
		return fail(fs, err)
	}
	fn := bi.fn
	if bi.arity == 0 {
		return func(_ []tuple.Value, ctx Context) (tuple.Value, error) {
			return fn(ctx, tuple.Nil, tuple.Nil)
		}
	}
	return func(b []tuple.Value, ctx Context) (tuple.Value, error) {
		var args [maxArity]tuple.Value
		for i, f := range fs {
			v, err := f(b, ctx)
			if err != nil {
				return tuple.Nil, err
			}
			args[i] = v
		}
		return fn(ctx, args[0], args[1])
	}
}
