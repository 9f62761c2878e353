package overlog

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// TestParseNeverPanics: arbitrary byte soup must produce an error or a
// program, never a panic (property-based robustness).
func TestParseNeverPanics(t *testing.T) {
	f := func(src string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("panic on %q: %v", src, r)
				ok = false
			}
		}()
		_, _ = Parse(src)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestParseTokenSoup: random sequences of valid tokens must not panic
// either (they exercise deeper parser paths than byte soup).
func TestParseTokenSoup(t *testing.T) {
	tokens := []string{
		"foo", "Bar", "_", "42", "3.5", `"str"`, "(", ")", "[", "]",
		",", ".", "@", ":-", ":=", "+", "-", "*", "/", "%", "==", "!=",
		"<", ">", "<=", ">=", "<<", "&&", "||", "in", "count", "min",
		"materialize", "watch", "delete", "keys", "infinity", "periodic",
		"f_now",
	}
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 3000; i++ {
		n := 1 + r.Intn(20)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteString(tokens[r.Intn(len(tokens))])
			b.WriteByte(' ')
		}
		src := b.String()
		func() {
			defer func() {
				if rec := recover(); rec != nil {
					t.Fatalf("panic on token soup %q: %v", src, rec)
				}
			}()
			_, _ = Parse(src)
		}()
	}
}

// TestRoundTripStability: every statement that parses prints to a form
// that reparses to the same print (idempotent pretty-printing), checked
// over generated rules.
func TestRoundTripStability(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	heads := []string{"a@N(X)", "b@N(X, Y)", "c@M(count<*>)", "d@N(X, min<Y>)"}
	bodies := []string{
		"e@N(X)", "f@N(X, Y)", "g@M(Y)", "X != 3", `Y := f_now()`,
		"X in (1, 5]", "periodic@N(E, 5)",
	}
	for i := 0; i < 500; i++ {
		var parts []string
		parts = append(parts, bodies[r.Intn(2)]) // ensure a binding predicate
		for j := 0; j < r.Intn(3); j++ {
			parts = append(parts, bodies[r.Intn(len(bodies))])
		}
		src := heads[r.Intn(len(heads))] + " :- " + strings.Join(parts, ", ") + "."
		prog, err := Parse(src)
		if err != nil {
			continue // some combinations are legitimately invalid
		}
		out1 := prog.Statements[0].String()
		prog2, err := Parse(out1)
		if err != nil {
			t.Fatalf("reparse of %q (from %q): %v", out1, src, err)
		}
		if out2 := prog2.Statements[0].String(); out2 != out1 {
			t.Fatalf("unstable print: %q -> %q", out1, out2)
		}
	}
}

// parseSeeds seed FuzzParse and FuzzCompileMatchesEval.
var parseSeeds = []string{
	`materialize(link, 100, 5, keys(1)).`,
	`p1 path@B(C, [B, A] + P, W1 + W2) :- link@A(B, W1), path@A(C, P, W2).`,
	`cs9 consistency@N(P, C) :- periodic@N(E, 20), t@N(P, T, L), T < f_now() - 20, m@N(P, R), C := (R * 1.0) / L.`,
	`d delete x@N(K, V) :- drop@N(K).`,
	`a out@N(K, count<*>) :- ev@N(K), tab@N(K, D).`,
}

// FuzzParse: native fuzzing entry — arbitrary source must never panic,
// and any program that parses must pretty-print to a reparsable form.
func FuzzParse(f *testing.F) {
	for _, src := range parseSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		for _, st := range prog.Statements {
			out := st.String()
			if _, err := Parse(out); err != nil {
				t.Fatalf("printed form %q does not reparse: %v", out, err)
			}
		}
	})
}
