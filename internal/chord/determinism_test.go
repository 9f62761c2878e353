package chord

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"p2go/internal/trace"
	"p2go/internal/tuple"
)

// ringFingerprint captures everything the determinism contract covers:
// each node's metrics counters, the full contents (including node-local
// tuple IDs) of every table on every node, the network-wide totals, and
// the drop count.
func ringFingerprint(r *Ring) string {
	var b strings.Builder
	now := r.Sim.Now()
	for _, a := range r.Addrs {
		n := r.Node(a)
		fmt.Fprintf(&b, "%s metrics=%+v\n", a, n.Metrics())
		st := n.Store()
		names := st.Names()
		sort.Strings(names)
		for _, name := range names {
			var rows []string
			st.Get(name).Scan(now, func(t tuple.Tuple) {
				rows = append(rows, fmt.Sprintf("%v#%d", t, t.ID))
			})
			sort.Strings(rows)
			fmt.Fprintf(&b, "%s/%s(%d): %s\n", a, name, len(rows), strings.Join(rows, " "))
		}
	}
	fmt.Fprintf(&b, "total=%+v dropped=%d watched=%d errors=%d now=%v\n",
		r.Net.TotalMetrics(), r.Net.Dropped(), len(r.Watched), len(r.Errors), now)
	return b.String()
}

// requireSame fails the test when two fingerprints of what should be
// the same run differ, quoting the neighbourhood of the first
// differing byte.
func requireSame(t *testing.T, what, first, second string) {
	t.Helper()
	if first == second {
		return
	}
	i := 0
	for i < len(first) && i < len(second) && first[i] == second[i] {
		i++
	}
	lo := max(0, i-200)
	t.Fatalf("two same-seed %s diverged at byte %d:\n...first:  %q\n...second: %q",
		what, i, first[lo:min(len(first), i+200)], second[lo:min(len(second), i+200)])
}

// TestTracedChurnDeterminism21: a short traced 21-node churn run twice
// on one seed leaves identical rings, tracer tables included. Crashes
// and rejoins make rows expire together, so this pins the order in
// which same-instant expiries reach the tracer's tupleLog.
func TestTracedChurnDeterminism21(t *testing.T) {
	if testing.Short() {
		t.Skip("two traced 21-node rings")
	}
	build := func() string {
		tc := trace.DefaultConfig()
		r, res, err := RunChurn(ChurnConfig{
			Seed: 42, Converge: 40, CrashAt: 10, RejoinAt: 20, End: 40,
			Tracing: &tc,
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.Node(r.Addrs[0]).Store().Get(trace.TupleLogTable) == nil {
			t.Fatal("traced run has no tupleLog table")
		}
		return fmt.Sprintf("%+v\n", res) + ringFingerprint(r)
	}
	requireSame(t, "traced churn runs", build(), build())
}
