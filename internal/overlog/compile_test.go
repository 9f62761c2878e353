package overlog

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"p2go/internal/tuple"
)

// fixedCtx is a deterministic builtin context: a fixed clock and
// address, and a counter for f_rand, so two evaluations that consume
// randomness in the same order see the same values.
type fixedCtx struct {
	now  float64
	addr string
	next uint64
}

func (c *fixedCtx) Now() float64      { return c.now }
func (c *fixedCtx) Rand64() uint64    { c.next++; return c.next * 0x9e3779b97f4a7c15 }
func (c *fixedCtx) LocalAddr() string { return c.addr }

// frame assigns slots to names in sorted order and returns the slot
// resolver Compile takes and the Lookup Eval takes over the same frame,
// which reports a slot holding tuple.Nil as unbound.
func frame(names []string, b []tuple.Value) (func(string) int, Lookup) {
	slots := make(map[string]int, len(names))
	for i, n := range names {
		slots[n] = i
	}
	slotOf := func(name string) int {
		if i, ok := slots[name]; ok {
			return i
		}
		return -1
	}
	lookup := func(name string) (tuple.Value, bool) {
		i, ok := slots[name]
		if !ok {
			return tuple.Nil, false
		}
		return b[i], !b[i].IsNil()
	}
	return slotOf, lookup
}

// randValue draws from every value kind, including nil (an unbound
// slot when placed in a frame).
func randValue(r *rand.Rand, depth int) tuple.Value {
	switch r.Intn(9) {
	case 0:
		return tuple.Nil
	case 1:
		return tuple.Int(int64(r.Intn(7)) - 3)
	case 2:
		return tuple.Int(r.Int63() - r.Int63())
	case 3:
		return tuple.ID(r.Uint64())
	case 4:
		return tuple.Float(r.NormFloat64() * 10)
	case 5:
		return tuple.Str([]string{"", "a", "n1", "-"}[r.Intn(4)])
	case 6:
		return tuple.Bool(r.Intn(2) == 0)
	case 7:
		if depth > 0 {
			elems := make([]tuple.Value, r.Intn(3))
			for i := range elems {
				elems[i] = randValue(r, depth-1)
			}
			return tuple.List(elems...)
		}
	}
	return tuple.ID(uint64(r.Intn(16)))
}

var (
	genVars  = []string{"A", "B", "C", "D"}
	genOps   = []string{"+", "-", "*", "/", "%", "<<", "==", "!=", "<", "<=", ">", ">=", "&&", "||", "^"}
	genCalls = []string{"f_now", "f_rand", "f_randID", "f_localAddr", "f_hash", "f_size", "f_first",
		"f_last", "f_member", "f_tostr", "f_nope"}
)

// genExpr builds a random expression tree over genVars, including forms
// the parser never produces (an unknown operator or builtin, a wildcard
// or aggregate in expression context, builtins at the wrong arity).
func genExpr(r *rand.Rand, depth int) Expr {
	if depth == 0 || r.Intn(4) == 0 {
		switch r.Intn(12) {
		case 0:
			return &Wildcard{}
		case 1:
			return &Agg{Op: "min", Var: genVars[r.Intn(len(genVars))]}
		case 2, 3, 4, 5, 6:
			return &Var{Name: genVars[r.Intn(len(genVars))]}
		default:
			return &Lit{Val: randValue(r, 1)}
		}
	}
	switch r.Intn(6) {
	case 0:
		return &Unary{Op: "-", X: genExpr(r, depth-1)}
	case 1:
		c := &Call{Name: genCalls[r.Intn(len(genCalls))]}
		for i := r.Intn(4); i > 0; i-- {
			c.Args = append(c.Args, genExpr(r, depth-1))
		}
		if bi, ok := builtinOf(c.Name); ok && r.Intn(3) > 0 {
			c.Args = c.Args[:0]
			for i := 0; i < bi.arity; i++ {
				c.Args = append(c.Args, genExpr(r, depth-1))
			}
		}
		return c
	case 2:
		l := &ListExpr{}
		for i := r.Intn(3); i > 0; i-- {
			l.Elems = append(l.Elems, genExpr(r, depth-1))
		}
		return l
	case 3:
		return &RangeExpr{X: genExpr(r, depth-1), Lo: genExpr(r, depth-1), Hi: genExpr(r, depth-1),
			LoOpen: r.Intn(2) == 0, HiOpen: r.Intn(2) == 0}
	default:
		return &Binary{Op: genOps[r.Intn(len(genOps))], L: genExpr(r, depth-1), R: genExpr(r, depth-1)}
	}
}

// progExprs collects every expression of a program's rules: conditions,
// assignments, and head and body-predicate arguments.
func progExprs(p *Program) []Expr {
	var out []Expr
	for _, r := range p.Rules() {
		out = append(out, r.Head.AllArgs()...)
		for _, t := range r.Body {
			switch x := t.(type) {
			case *Pred:
				out = append(out, x.AllArgs()...)
			case *Cond:
				out = append(out, x.Expr)
			case *Assign:
				out = append(out, x.Expr)
			}
		}
	}
	return out
}

// checkCompiled evaluates e through Compile and through Eval over the
// same random frame and demands the same value and error text. Some of
// the expression's variables are left out of the frame (no slot), and
// random values include nil (an unbound slot).
func checkCompiled(t *testing.T, e Expr, r *rand.Rand) {
	t.Helper()
	var names []string
	for v := range Vars(e) {
		if r.Intn(6) > 0 {
			names = append(names, v)
		}
	}
	sort.Strings(names)
	b := make([]tuple.Value, len(names))
	for i := range b {
		b[i] = randValue(r, 2)
	}
	slotOf, lookup := frame(names, b)
	want, wantErr := Eval(e, lookup, &fixedCtx{now: 12.5, addr: "n1"})
	got, gotErr := Compile(e, slotOf)(b, &fixedCtx{now: 12.5, addr: "n1"})
	if errText(gotErr) != errText(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s over %v = %v, %q; Eval gives %v, %q", e, b, got, errText(gotErr), want, errText(wantErr))
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return "error: " + err.Error()
}

// TestCompileMatchesEval: compiled closures agree with the interpreter
// on generated expressions over random frames.
func TestCompileMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 20000; i++ {
		checkCompiled(t, genExpr(r, 4), r)
	}
}

// FuzzCompileMatchesEval: every expression of a program that parses, and
// an expression generated from the seed, evaluates to the same value and
// error text compiled and interpreted, over random frames with unbound
// and slot-less variables.
func FuzzCompileMatchesEval(f *testing.F) {
	for i, src := range parseSeeds {
		f.Add(src, int64(i))
	}
	f.Add(`x@N(A) :- e@N(A, B), C := f_member([A, B], f_hash(B)), A in [B, C), f_size(f_tostr(-A)) > 2 || B << 1 != 0.`, int64(-1))
	f.Add(`y@N(f_first(L), f_last(L), f_localAddr(), f_rand()) :- e@N(L), T := f_now() - 17 * 3 / 2 % 5.`, int64(3))
	f.Fuzz(func(t *testing.T, src string, seed int64) {
		r := rand.New(rand.NewSource(seed))
		exprs := []Expr{genExpr(r, 3)}
		if prog, err := Parse(src); err == nil {
			exprs = append(exprs, progExprs(prog)...)
		}
		for _, e := range exprs {
			checkCompiled(t, e, r)
		}
	})
}

// Layer benchmarks over the hottest expressions of the churn workload:
// Chord l2's assignment and ring-interval selection, and the §3.1 fault
// detector fd1's timeout test. "Interpreted" is Eval behind a lookup
// that scans the frame's variable names, the way rule strands resolved
// variables before expressions were compiled; "compiled" is the closure
// the planner stores in the plan.

// hotExprs parses the benchmark expressions from the rules they come
// from.
func hotExprs(tb testing.TB) map[string]Expr {
	tb.Helper()
	prog, err := Parse(`l2 bestLookupDist@N(K, ReqAddr, E, min<D>) :- node@N(NID), lookup@N(K, ReqAddr, E), finger@N(I, FID, FAddr), D := K - FID - 1, FID in (NID, K).
fd1 faultyNode@N(PAddr, T) :- periodic@N(E, 5), pingNode@N(PAddr), lastHeard@N(PAddr, T0), T0 < f_now() - 17, T := f_now().`)
	if err != nil {
		tb.Fatal(err)
	}
	rs := prog.Rules()
	return map[string]Expr{
		"l2_assign": rs[0].Body[3].(*Assign).Expr,
		"l2_in":     rs[0].Body[4].(*Cond).Expr,
		"fd1_cond":  rs[1].Body[3].(*Cond).Expr,
	}
}

// hotFrame is a binding frame for hotExprs in the planner's slot order
// for l2 (fd1's T0 reuses a slot of its own), under which every
// expression succeeds and each selection holds.
func hotFrame() ([]string, []tuple.Value) {
	names := []string{"N", "NID", "K", "ReqAddr", "E", "I", "FID", "FAddr", "D", "PAddr", "T0"}
	b := []tuple.Value{
		tuple.Str("n1"), tuple.ID(100), tuple.ID(9000), tuple.Str("n7"), tuple.ID(42),
		tuple.Int(3), tuple.ID(4000), tuple.Str("n4"), tuple.Nil, tuple.Str("n2"), tuple.Float(1.5),
	}
	return names, b
}

// scanLookup resolves names by a linear scan over the frame's names.
func scanLookup(names []string, b []tuple.Value) Lookup {
	return func(name string) (tuple.Value, bool) {
		for i, n := range names {
			if n == name {
				return b[i], !b[i].IsNil()
			}
		}
		return tuple.Nil, false
	}
}

func compiledHot(tb testing.TB) (map[string]Fn, []tuple.Value) {
	names, b := hotFrame()
	slotOf, _ := frame(names, b)
	out := map[string]Fn{}
	for name, e := range hotExprs(tb) {
		out[name] = Compile(e, slotOf)
	}
	return out, b
}

func hotNames() []string { return []string{"l2_assign", "l2_in", "fd1_cond"} }

func BenchmarkEvalInterpreted(b *testing.B) {
	names, frame := hotFrame()
	lookup := scanLookup(names, frame)
	ctx := &fixedCtx{now: 30}
	exprs := hotExprs(b)
	for _, name := range hotNames() {
		e := exprs[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Eval(e, lookup, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEvalCompiled(b *testing.B) {
	fns, frame := compiledHot(b)
	ctx := &fixedCtx{now: 30}
	for _, name := range hotNames() {
		f := fns[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := f(frame, ctx); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCompiledHotPathAllocs: the compiled closures of the benchmark
// expressions allocate nothing when they succeed.
func TestCompiledHotPathAllocs(t *testing.T) {
	fns, frame := compiledHot(t)
	ctx := &fixedCtx{now: 30}
	for _, name := range hotNames() {
		f := fns[name]
		v, err := f(frame, ctx)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name != "l2_assign" && !v.Truth() {
			t.Fatalf("%s = %v, want true under the benchmark frame", name, v)
		}
		if n := testing.AllocsPerRun(1000, func() { _, _ = f(frame, ctx) }); n != 0 {
			t.Errorf("%s: %.1f allocs per compiled evaluation, want 0", name, n)
		}
	}
}
