package dataflow

import (
	"testing"

	"p2go/internal/overlog"
	"p2go/internal/table"
	"p2go/internal/tuple"
)

func TestStrandString(t *testing.T) {
	s := joinStrand()
	if got := s.String(); got != "strand(r1<-ev)" {
		t.Errorf("String = %q", got)
	}
}

// TestIndexedJoinMatchesScanFallback: with IndexPositions set, the
// indexed path must produce the same matches as the scan path (also
// exercising the DisableIndexedJoins ablation switch).
func TestIndexedJoinMatchesScanFallback(t *testing.T) {
	build := func() (*fakeCtx, *Strand) {
		ctx := newFakeCtx(t)
		tab := ctx.store.Get("tab")
		for i := int64(0); i < 10; i++ {
			tab.Insert(tuple.New("tab", tuple.Str("n1"), tuple.Int(i%3), tuple.Int(i)), 0) //nolint:errcheck
		}
		s := joinStrand()
		s.Ops = s.Ops[:1] // drop the condition; join only
		s.Ops[0].(*JoinOp).IndexPositions = []int{0, 1}
		return ctx, s
	}
	run := func(disable bool) []tuple.Tuple {
		DisableIndexedJoins = disable
		defer func() { DisableIndexedJoins = false }()
		ctx, s := build()
		s.Run(ctx, tuple.New("ev", tuple.Str("n1"), tuple.Int(1)))
		return ctx.heads
	}
	indexed, scanned := run(false), run(true)
	if len(indexed) != len(scanned) || len(indexed) != 3 {
		t.Fatalf("indexed=%d scanned=%d, want 3 each", len(indexed), len(scanned))
	}
	// Join order is unspecified; compare as multisets.
	asSet := func(ts []tuple.Tuple) map[uint64]int {
		m := map[uint64]int{}
		for _, x := range ts {
			m[x.Hash()]++
		}
		return m
	}
	si, ss := asSet(indexed), asSet(scanned)
	for k, v := range si {
		if ss[k] != v {
			t.Errorf("multiset mismatch: %v vs %v", indexed, scanned)
			break
		}
	}
}

// TestMinMaxEmptyEmitsNothing: min/max over zero matches emit no head.
func TestMinMaxEmptyEmitsNothing(t *testing.T) {
	ctx := newFakeCtx(t)
	s := newStrand(&Plan{
		RuleID:  "m",
		Trigger: Trigger{Kind: TriggerEvent, Name: "probe", FieldSlots: []int{0}, FieldConsts: make([]tuple.Value, 1)},
		NumVars: 3, VarNames: []string{"N", "K", "V"},
		Ops: []Op{
			&JoinOp{Table: "tab", Stage: 1, FieldSlots: []int{0, 1, 2}, FieldConsts: make([]tuple.Value, 3)},
		},
		HeadName: "out",
		HeadArgs: []overlog.Expr{&overlog.Var{Name: "N"}, &overlog.Agg{Op: "min", Var: "V"}},
		Agg:      &AggSpec{Op: "min", Slot: 2, ArgIndex: 1},
		Stages:   1,
	})
	s.Run(ctx, tuple.New("probe", tuple.Str("n1")))
	if len(ctx.heads) != 0 {
		t.Errorf("min over empty emitted %v", ctx.heads)
	}
}

// TestCountZeroEmission at the dataflow level (EmitZero set).
func TestCountZeroEmission(t *testing.T) {
	ctx := newFakeCtx(t)
	s := newStrand(&Plan{
		RuleID:  "c",
		Trigger: Trigger{Kind: TriggerEvent, Name: "probe", FieldSlots: []int{0, 1}, FieldConsts: make([]tuple.Value, 2)},
		NumVars: 3, VarNames: []string{"N", "G", "V"},
		Ops: []Op{
			&JoinOp{Table: "tab", Stage: 1, FieldSlots: []int{0, 1, 2}, FieldConsts: make([]tuple.Value, 3)},
		},
		HeadName: "out",
		HeadArgs: []overlog.Expr{&overlog.Var{Name: "N"}, &overlog.Var{Name: "G"}, &overlog.Agg{Op: "count"}},
		Agg:      &AggSpec{Op: "count", Slot: -1, ArgIndex: 2, EmitZero: true},
		Stages:   1,
	})
	s.Run(ctx, tuple.New("probe", tuple.Str("n1"), tuple.Int(42)))
	if len(ctx.heads) != 1 {
		t.Fatalf("heads = %v", ctx.heads)
	}
	h := ctx.heads[0]
	if h.Field(1).AsInt() != 42 || h.Field(2).AsInt() != 0 {
		t.Errorf("zero-count head = %v", h)
	}
}

// TestCondAndAssignErrorsReported: evaluation failures surface as rule
// errors and drop the binding without aborting the activation.
func TestCondAndAssignErrorsReported(t *testing.T) {
	ctx := newFakeCtx(t)
	tab := ctx.store.Get("tab")
	tab.Insert(tuple.New("tab", tuple.Str("n1"), tuple.Int(1), tuple.Int(2)), 0) //nolint:errcheck
	bad := &overlog.Binary{Op: "+", L: &overlog.Lit{Val: tuple.Bool(true)}, R: &overlog.Lit{Val: tuple.Int(1)}}
	p := joinPlan()
	p.Ops = []Op{
		p.Ops[0],
		&CondOp{Expr: bad},
	}
	s := newStrand(p)
	s.Run(ctx, tuple.New("ev", tuple.Str("n1"), tuple.Int(1)))
	if len(ctx.errs) == 0 {
		t.Error("condition type error not reported")
	}
	ctx2 := newFakeCtx(t)
	ctx2.store.Get("tab").Insert(tuple.New("tab", tuple.Str("n1"), tuple.Int(1), tuple.Int(2)), 0) //nolint:errcheck
	p2 := joinPlan()
	p2.Ops = []Op{
		p2.Ops[0],
		&AssignOp{Slot: 2, Expr: bad},
	}
	s2 := newStrand(p2)
	s2.Run(ctx2, tuple.New("ev", tuple.Str("n1"), tuple.Int(1)))
	if len(ctx2.errs) == 0 {
		t.Error("assignment type error not reported")
	}
}

// TestHeadEvalErrorReported: a head expression that cannot evaluate is a
// rule error, not a panic.
func TestHeadEvalErrorReported(t *testing.T) {
	ctx := newFakeCtx(t)
	s := newStrand(&Plan{
		RuleID:   "h",
		Trigger:  Trigger{Kind: TriggerEvent, Name: "ev", FieldSlots: []int{0}, FieldConsts: make([]tuple.Value, 1)},
		NumVars:  1,
		VarNames: []string{"N"},
		HeadName: "out",
		HeadArgs: []overlog.Expr{&overlog.Var{Name: "N"},
			&overlog.Binary{Op: "/", L: &overlog.Lit{Val: tuple.Int(1)}, R: &overlog.Lit{Val: tuple.Int(0)}}},
	})
	s.Run(ctx, tuple.New("ev", tuple.Str("n1")))
	if len(ctx.errs) != 1 || len(ctx.heads) != 0 {
		t.Errorf("errs=%v heads=%v", ctx.errs, ctx.heads)
	}
}

var _ = table.Infinity
