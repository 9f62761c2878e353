package engine_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/tuple"
)

// TestCascadeCap: a non-terminating recursive program is cut off with a
// rule error instead of hanging the node (the engine's runaway guard).
func TestCascadeCap(t *testing.T) {
	h := newHarness(t, `
loop1 ping@N(X + 1) :- pong@N(X).
loop2 pong@N(X + 1) :- ping@N(X).
`, "n1")
	h.inject("n1", tuple.New("ping", tuple.Str("n1"), tuple.Int(0)))
	h.net.RunFor(1)
	if len(h.errs) == 0 || !strings.Contains(h.errs[0], "cascade") {
		t.Fatalf("expected cascade-cap error, got %v", h.errs)
	}
	// The node remains usable afterwards.
	h.errs = nil
	h2 := h // same network
	h2.inject("n1", tuple.New("pong", tuple.Str("n1"), tuple.Int(1<<40)))
	h.net.RunFor(1)
	// (A second cascade error is fine; the point is no hang or panic.)
}

// TestRemoteDeleteRejected: delete-rule heads must be local.
func TestRemoteDeleteRejected(t *testing.T) {
	h := newHarness(t, `
materialize(tab, infinity, infinity, keys(1,2)).
d1 delete tab@Other(K) :- drop@N(K, Other).
`, "n1", "n2")
	h.inject("n1", tuple.New("tab", tuple.Str("n1"), tuple.Int(1)))
	h.inject("n1", tuple.New("drop", tuple.Str("n1"), tuple.Int(1), tuple.Str("n2")))
	h.net.RunFor(1)
	if len(h.errs) == 0 || !strings.Contains(h.errs[0], "must be local") {
		t.Errorf("expected locality error, got %v", h.errs)
	}
}

// TestUnknownEventDropped: tuples with no table, no strands and no watch
// are dropped silently (no error, no crash).
func TestUnknownEventDropped(t *testing.T) {
	h := newHarness(t, `watch(other).`, "n1")
	h.inject("n1", tuple.New("mystery", tuple.Str("n1"), tuple.Int(1)))
	h.net.RunFor(1)
	h.noErrors()
	if got := h.net.Node("n1").Metrics().TuplesProcessed; got == 0 {
		t.Error("tuple should still be counted as processed")
	}
}

// TestMalformedMessageDropped: undecodable network payloads surface as a
// rule error and are dropped.
func TestMalformedMessageDropped(t *testing.T) {
	h := newHarness(t, `watch(x).`, "n1")
	n := h.net.Node("n1")
	cost := n.HandleMessage(engine.Envelope{Src: "zz", SrcTupleID: 1, Raw: []byte{0xff, 0x01, 0x02}})
	if cost <= 0 {
		t.Error("unmarshal cost must be billed")
	}
	if n.Metrics().RuleErrors == 0 {
		t.Error("decode failure must be reported")
	}
}

// TestDrainQueueAllocs is the regression test for the drain queue leak:
// the old `n.queue = n.queue[1:]` pop shrank the slice's capacity on
// every step, so a deep steady-state cascade reallocated the whole
// backing array roughly once per emission — O(depth) fresh bytes per
// pop. The ring-buffer drain recycles slots, so a long cascade's
// allocations are dominated by the tuples themselves.
func TestDrainQueueAllocs(t *testing.T) {
	const seedRows, hops = 128, 200
	prog, err := overlog.Parse(`
materialize(seedt, infinity, infinity, keys(2)).
r0 hop@N(A, B) :- kick@N(X), seedt@N(A), B := ` + fmt.Sprint(hops) + `.
r1 hop@N(A, J) :- hop@N(A, K), K > 0, J := K - 1.
`)
	if err != nil {
		t.Fatal(err)
	}
	n := engine.NewNode(engine.Config{Addr: "n1", Seed: 1})
	if err := n.InstallProgram(prog); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < seedRows; j++ {
		n.HandleLocal(tuple.New("seedt", tuple.Str("n1"), tuple.Int(int64(j))))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	// One kick floods the queue with seedRows hop chains that count
	// down in lockstep: the queue holds ~seedRows entries for
	// seedRows*hops pops — the exact shape that made the old pop
	// quadratic in total bytes allocated.
	n.HandleLocal(tuple.New("kick", tuple.Str("n1"), tuple.Int(0)))
	runtime.ReadMemStats(&after)

	pops := n.Metrics().TuplesProcessed
	if pops < seedRows*hops {
		t.Fatalf("cascade too short: processed %d tuples, want >= %d", pops, seedRows*hops)
	}
	perPop := float64(after.TotalAlloc-before.TotalAlloc) / float64(pops)
	// The emitted hop tuple itself costs ~175 B/pop; the ring-buffer
	// drain adds nothing on top (measured ~178 B/pop). The old reslice
	// pop leaked the queue's backing array — capacity shrank by one per
	// pop, so steady-state churn reallocated the array every ~depth
	// pops, measured at ~335 B/pop on this workload. 250 B/pop sits
	// between the two with ~40% margin each way.
	if perPop > 250 {
		t.Errorf("drain allocated %.0f B/pop over a %d-pop cascade, want <= 250 (queue pop is leaking its backing array again)", perPop, pops)
	}
}
