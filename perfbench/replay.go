package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"p2go/internal/chord"
	"p2go/internal/engine"
	"p2go/internal/overlog"
	"p2go/internal/realtime"
	"p2go/internal/simnet"
	"p2go/internal/table"
	"p2go/internal/tracestore"
	"p2go/internal/tuple"
)

// Per-layer metrics of the simulated workloads. Counts come from the
// last repetition's network; times come from the spans of the traced
// run and from replaying inputs harvested from that network (converged
// tables, rule expressions, trace records) through each module's
// public functions after the run.

// replayNodes caps how many nodes' tables feed the table, tuple and
// expression replays, so a 10k-host ring replays a sample.
const replayNodes = 64

// replayInput is what the replays take from the last repetition's
// network, so the network can be freed before they run and a 10k-host
// heap does not slow them.
type replayInput struct {
	churn      bool
	now        float64
	addr       string
	pendingMax int
	harvested  []map[string]tableRows
}

// layerCounts records the per-layer counts and span-derived times of
// the last repetition, replays its trace stores, and harvests the
// inputs of the other replays.
func layerCounts(res *result, r *simRun, st *runStats, qs *queryStats, sp *spans, runMed float64, wall time.Duration) (*replayInput, error) {
	v := res.values
	m := r.net.TotalMetrics()
	events := v["simnet.events"]
	v["engine.rule_fires"] = float64(m.RuleFires)
	v["engine.tuples_processed"] = float64(m.TuplesProcessed)
	v["engine.msgs_sent"] = float64(m.MsgsSent)
	v["engine.model_busy_s"] = m.BusySeconds
	v["simnet.pending_max"] = float64(st.pendingMax)
	v["engine.allocs_per_event"] = float64(st.allocObj) / events
	v["engine.alloc_bytes_per_event"] = float64(st.allocBytes) / events
	v["bench.traced_run_s"] = runMed

	stepTotal := sp.steps.total
	sp.byName["run/step"] = &spanAgg{n: sp.steps.n, total: stepTotal}
	v["engine.step_us_p50"] = float64(sp.steps.quantile(0.5)) / float64(time.Microsecond)
	v["engine.step_us_p99"] = float64(sp.steps.quantile(0.99)) / float64(time.Microsecond)
	// The modelled bill is for the last repetition, and so is the wall
	// time it is set against.
	if m.BusySeconds > 0 {
		v["engine.wall_per_model"] = st.run.Seconds() / m.BusySeconds
	}
	covered := sp.total("setup") + stepTotal + sp.total("heap") + sp.total("query")
	v["bench.span_coverage"] = covered.Seconds() / wall.Seconds()
	v["simnet.add_node_us"] = float64(sp.mean("setup/add_node")) / float64(time.Microsecond)
	v["engine.install_us"] = float64(sp.mean("setup/install")) / float64(time.Microsecond)

	if r.cfg.traced {
		if err := replayStore(v, r); err != nil {
			return nil, err
		}
	}
	if qs != nil && len(qs.lat) > 0 {
		v["tracestore.query_edges"] = float64(qs.edges) / float64(len(qs.lat))
		v["tracestore.query_hops"] = float64(qs.hops) / float64(len(qs.lat))
	}
	return &replayInput{
		churn:      r.cfg.churn,
		now:        r.sim.Now(),
		addr:       r.ring.Addrs[0],
		pendingMax: st.pendingMax,
		harvested:  harvestRows(r),
	}, nil
}

// replayLayers replays the harvested inputs through the parser,
// planner, tables, expression evaluator, tuple codec and scheduler.
func replayLayers(v map[string]float64, in *replayInput) error {
	if err := replayParseCompile(v, in.churn); err != nil {
		return err
	}
	progs := []*overlog.Program{chord.Program()}
	if in.churn {
		progs = append(progs, parseDetectors()...)
	}
	ctx := &replayCtx{now: in.now, addr: in.addr, rng: rand.New(rand.NewSource(1))}
	cases := replayTables(v, in.harvested, progs, in.now, ctx)
	replayEval(v, cases, ctx)
	var rows []tuple.Tuple
	for _, node := range in.harvested {
		for _, h := range node {
			rows = append(rows, h.rows...)
		}
	}
	if err := replayCodec(v, rows); err != nil {
		return err
	}
	v["simnet.heap_ns"] = replayHeap(in.pendingMax)
	return nil
}

// replayCtx is the builtin context of the expression replays: the
// harvested network's clock and first address, and a seeded source for
// f_rand.
type replayCtx struct {
	now  float64
	addr string
	rng  *rand.Rand
}

func (c *replayCtx) Now() float64      { return c.now }
func (c *replayCtx) Rand64() uint64    { return c.rng.Uint64() }
func (c *replayCtx) LocalAddr() string { return c.addr }

// timeMedian runs f k times and returns the median duration.
func timeMedian(k int, f func() error) (time.Duration, error) {
	ds := make([]float64, k)
	for i := range ds {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds[i] = float64(time.Since(t0))
	}
	return time.Duration(median(ds)), nil
}

// replayParseCompile times parsing and planning the workload's programs.
func replayParseCompile(v map[string]float64, churn bool) error {
	src := chord.Rules + chord.DeadGuardRules
	d, err := timeMedian(15, func() error {
		_, err := overlog.Parse(src)
		return err
	})
	if err != nil {
		return err
	}
	v["overlog.parse_ms"] = ms(d)
	prog := chord.Program()
	var extras []*overlog.Program
	if churn {
		extras = parseDetectors()
	}
	d, err = timeMedian(15, func() error {
		cq, err := engine.CompileQuery(prog)
		if err != nil {
			return err
		}
		_, err = compileExtras(cq, extras)
		return err
	})
	if err != nil {
		return err
	}
	v["planner.compile_ms"] = ms(d)
	return nil
}

// tableRows is one harvested table: its declaration and live rows.
type tableRows struct {
	spec table.Spec
	rows []tuple.Tuple
}

// harvestRows collects the live rows of every table on up to
// replayNodes nodes, evenly spread over the address list, one map per
// node.
func harvestRows(r *simRun) []map[string]tableRows {
	var out []map[string]tableRows
	now := r.sim.Now()
	step := max(1, len(r.ring.Addrs)/replayNodes)
	for i := 0; i < len(r.ring.Addrs); i += step {
		st := r.net.Node(r.ring.Addrs[i]).Store()
		node := make(map[string]tableRows)
		for _, name := range st.Names() {
			tb := st.Get(name)
			tr := tableRows{spec: tb.Spec()}
			tb.Scan(now, func(t tuple.Tuple) { tr.rows = append(tr.rows, t) })
			node[name] = tr
		}
		out = append(out, node)
	}
	return out
}

// joinStep is a rule's first join: the rows of the first body table
// drive probes into the second on the variables they share, and the
// conditions over the bound variables select the matches.
type joinStep struct {
	a, b  *overlog.Pred
	conds []overlog.Expr
}

// ruleJoins extracts the first join of every rule whose body reads two
// stored tables (events are never stored).
func ruleJoins(progs []*overlog.Program, stored map[string]bool) []joinStep {
	var out []joinStep
	for _, p := range progs {
		for _, rule := range p.Rules() {
			var preds []*overlog.Pred
			var conds []overlog.Expr
			for _, term := range rule.Body {
				switch t := term.(type) {
				case *overlog.Pred:
					if stored[t.Name] {
						preds = append(preds, t)
					}
				case *overlog.Cond:
					conds = append(conds, t.Expr)
				}
			}
			if len(preds) < 2 {
				continue
			}
			bound := predVars(preds[0])
			for v := range predVars(preds[1]) {
				bound[v] = true
			}
			j := joinStep{a: preds[0], b: preds[1]}
			for _, c := range conds {
				if covered(overlog.Vars(c), bound) {
					j.conds = append(j.conds, c)
				}
			}
			out = append(out, j)
		}
	}
	return out
}

func predVars(p *overlog.Pred) map[string]bool {
	out := make(map[string]bool)
	for _, a := range p.AllArgs() {
		if x, ok := a.(*overlog.Var); ok {
			out[x.Name] = true
		}
	}
	return out
}

func covered(vars, bound map[string]bool) bool {
	for v := range vars {
		if !bound[v] {
			return false
		}
	}
	return true
}

// bindings is a small ordered variable frame, looked up by linear scan
// as the engine's own binding frame is.
type bindings struct {
	names []string
	vals  []tuple.Value
}

func (b *bindings) lookup(name string) (tuple.Value, bool) {
	for i, n := range b.names {
		if n == name {
			return b.vals[i], true
		}
	}
	return tuple.Nil, false
}

func (b *bindings) bindRow(p *overlog.Pred, row tuple.Tuple) {
	for i, a := range p.AllArgs() {
		if x, ok := a.(*overlog.Var); ok && i < len(row.Fields) {
			if _, ok := b.lookup(x.Name); !ok {
				b.names = append(b.names, x.Name)
				b.vals = append(b.vals, row.Fields[i])
			}
		}
	}
}

func (b *bindings) clone() *bindings {
	return &bindings{names: append([]string(nil), b.names...), vals: append([]tuple.Value(nil), b.vals...)}
}

// evalCase is one condition with the bindings it was evaluated under.
type evalCase struct {
	expr overlog.Expr
	b    *bindings
}

// maxDrivers caps the driving rows per join and node, and maxEvalCases
// the conditions kept for the expression replay.
const (
	maxDrivers   = 64
	maxEvalCases = 4096
)

// replayTables inserts each sampled node's harvested rows into fresh
// tables, replays the first join of every rule against them through
// MatchIndexed, and then expires the rows. The conditions met on the
// way become the expression replay's inputs.
func replayTables(v map[string]float64, harvested []map[string]tableRows, progs []*overlog.Program,
	now float64, ctx overlog.Context) []evalCase {
	var insertNs, matchNs, expireNs time.Duration
	var inserts, probes, expired, visited, matched int
	var cases []evalCase
	var cands []tuple.Tuple
	collect := func(t tuple.Tuple) { cands = append(cands, t) }
	for _, node := range harvested {
		fresh := make(map[string]*table.Table, len(node))
		stored := make(map[string]bool, len(node))
		// indexed holds the (table, positions) pairs probed once
		// untimed, so MatchIndexed's first-probe index build stays out
		// of table.match_ns.
		indexed := make(map[string]bool)
		for name, h := range node {
			tb := table.New(h.spec)
			t0 := time.Now()
			for _, t := range h.rows {
				_, _ = tb.Insert(t, now) // each row was live in a table of this very spec
			}
			insertNs += time.Since(t0)
			inserts += len(h.rows)
			fresh[name] = tb
			stored[name] = true
		}
		for _, j := range ruleJoins(progs, stored) {
			drivers := node[j.a.Name].rows
			if len(drivers) > maxDrivers {
				drivers = drivers[:maxDrivers]
			}
			for _, row := range drivers {
				b := &bindings{}
				b.bindRow(j.a, row)
				var pos []int
				var vals []tuple.Value
				for i, a := range j.b.AllArgs() {
					if x, ok := a.(*overlog.Var); ok {
						if val, ok := b.lookup(x.Name); ok {
							pos = append(pos, i)
							vals = append(vals, val)
						}
					}
				}
				if len(pos) == 0 {
					continue // a cross product, not a probe
				}
				if key := fmt.Sprint(j.b.Name, pos); !indexed[key] {
					indexed[key] = true
					fresh[j.b.Name].MatchIndexed(now, pos, vals, func(tuple.Tuple) {})
				}
				cands = cands[:0]
				t0 := time.Now()
				visited += fresh[j.b.Name].MatchIndexed(now, pos, vals, collect)
				matchNs += time.Since(t0)
				probes++
				for _, c := range cands {
					cb := b.clone()
					cb.bindRow(j.b, c)
					ok := true
					for _, e := range j.conds {
						val, err := overlog.Eval(e, cb.lookup, ctx)
						if err == nil && len(cases) < maxEvalCases {
							cases = append(cases, evalCase{e, cb})
						}
						if err != nil || !val.Truth() {
							ok = false
							break
						}
					}
					if ok {
						matched++
					}
				}
			}
		}
		for name, tb := range fresh {
			if lt := node[name].spec.Lifetime; lt > 0 {
				n := tb.Count()
				t0 := time.Now()
				tb.Expire(now + lt + 1)
				expireNs += time.Since(t0)
				expired += n - tb.Count()
			}
		}
	}
	v["table.insert_ns"] = perOp(insertNs, inserts)
	v["table.match_ns"] = perOp(matchNs, probes)
	if visited > 0 {
		v["table.match_hit_ratio"] = float64(matched) / float64(visited)
	}
	v["table.expire_ns"] = perOp(expireNs, expired)
	return cases
}

func perOp(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// replayReader pushes pre-framed datagrams through the UDP reader's hot
// path in process (realtime.MeasureReaderAllocs) and reports its time
// and allocations per datagram. Each call also binds a socket, warms
// the pools and collects the heap, so it is timed at two sizes and the
// difference divided by the extra datagrams; the median of three such
// differences is reported. It needs no traffic, so every traced run
// makes it.
func replayReader(v map[string]float64) error {
	const small, large = 100000, 300000
	var perDatagram []float64
	var allocs float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := realtime.MeasureReaderAllocs(small); err != nil {
			return fmt.Errorf("reader replay: %w", err)
		}
		t1 := time.Now()
		a, err := realtime.MeasureReaderAllocs(large)
		if err != nil {
			return fmt.Errorf("reader replay: %w", err)
		}
		d := time.Since(t1) - t1.Sub(t0)
		perDatagram = append(perDatagram, perOp(d, large-small))
		allocs = a
	}
	v["realtime.reader_ns"] = median(perDatagram)
	v["realtime.reader_allocs"] = allocs
	return nil
}

// replayCodec marshals and unmarshals the harvested rows.
func replayCodec(v map[string]float64, all []tuple.Tuple) error {
	if len(all) == 0 {
		return nil
	}
	rounds := max(10, 200000/len(all))
	var buf []byte
	var bytes int
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, t := range all {
			buf = tuple.Marshal(buf[:0], t)
			bytes += len(buf)
		}
	}
	marshal := time.Since(t0)
	wire := make([][]byte, len(all))
	for i, t := range all {
		wire[i] = tuple.Marshal(nil, t)
	}
	t0 = time.Now()
	for i := 0; i < rounds; i++ {
		for _, b := range wire {
			if _, _, err := tuple.Unmarshal(b); err != nil {
				return fmt.Errorf("codec round trip: %w", err)
			}
		}
	}
	unmarshal := time.Since(t0)
	n := rounds * len(all)
	v["tuple.marshal_ns"] = perOp(marshal, n)
	v["tuple.unmarshal_ns"] = perOp(unmarshal, n)
	v["tuple.bytes"] = float64(bytes) / float64(n)
	return nil
}

// replayEval times overlog.Eval over the conditions the join replay
// evaluated, under the same bindings, and counts its allocations.
func replayEval(v map[string]float64, cases []evalCase, ctx overlog.Context) {
	if len(cases) == 0 {
		return
	}
	const evals = 1000000
	rounds := max(1, evals/len(cases))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < rounds; i++ {
		for _, c := range cases {
			_, _ = overlog.Eval(c.expr, c.b.lookup, ctx) // each case evaluated cleanly when harvested
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	n := rounds * len(cases)
	v["overlog.eval_ns"] = perOp(d, n)
	v["overlog.eval_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// replayHeap measures the scheduler's cost per no-op event at the
// run's peak depth: a fresh Sim is filled to depth pending events, then
// timed through At+Step pairs that keep the depth constant.
func replayHeap(depth int) float64 {
	if depth < 1 {
		depth = 1
	}
	s := simnet.NewSim()
	rng := rand.New(rand.NewSource(7))
	noop := func() {}
	for i := 0; i < depth; i++ {
		s.At(rng.Float64()*10, noop)
	}
	const ops = 500000
	t0 := time.Now()
	for i := 0; i < ops; i++ {
		s.At(s.Now()+rng.Float64()*10, noop)
		s.Step()
	}
	return perOp(time.Since(t0), ops)
}

// replayStore reports the trace stores' counters and re-appends every
// retained record into fresh stores, timing the appends (including the
// seals window rotation triggers).
func replayStore(v map[string]float64, r *simRun) error {
	stores := make(map[string]*tracestore.Store)
	var records, sealed, sealedRecords, encoded int64
	memo := 0
	for _, a := range r.ring.Addrs {
		n := r.net.Node(a)
		memo += n.Tracer().MemoSize()
		st := n.TraceStore()
		stores[a] = st
		s := st.Stats()
		records += s.Appended()
		sealed += s.Sealed
		sealedRecords += s.SealedRecords
		encoded += s.TotalEncodedBytes
	}
	v["trace.memo_entries"] = float64(memo)
	v["tracestore.records"] = float64(records)
	v["tracestore.segments"] = float64(sealed)
	if sealedRecords > 0 {
		v["tracestore.bytes_per_record"] = float64(encoded) / float64(sealedRecords)
	}

	// Re-append each node's retained records in time order, one node at
	// a time so only one node's records are held.
	type rec struct {
		t    float64
		exec *tracestore.Exec
		hop  *tracestore.Hop
		ev   *tracestore.Event
	}
	view := tracestore.NewView(stores, 0)
	cfg := tracestore.DefaultConfig()
	cfg.WindowSeconds = storeWindow
	var total time.Duration
	n := 0
	for _, a := range r.ring.Addrs {
		var rs []rec
		execs, err := view.Execs(tracestore.ExecFilter{Node: a})
		if err != nil {
			return err
		}
		for _, e := range execs {
			rs = append(rs, rec{t: e.OutT, exec: &tracestore.Exec{
				Rule: e.Rule, InID: e.InID, OutID: e.OutID, InT: e.InT, OutT: e.OutT, IsEvent: e.IsEvent}})
		}
		hops, err := view.Hops(a)
		if err != nil {
			return err
		}
		for i := range hops {
			rs = append(rs, rec{t: hops[i].T, hop: &hops[i]})
		}
		evs, err := view.Events(tracestore.EventFilter{Node: a})
		if err != nil {
			return err
		}
		for i := range evs {
			rs = append(rs, rec{t: evs[i].T, ev: &evs[i]})
		}
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].t < rs[j].t })
		st := tracestore.New(a, cfg)
		t0 := time.Now()
		for _, x := range rs {
			switch {
			case x.exec != nil:
				st.AppendExec(*x.exec)
			case x.hop != nil:
				st.AppendHop(*x.hop)
			default:
				st.AppendEvent(*x.ev)
			}
		}
		total += time.Since(t0)
		n += len(rs)
	}
	v["tracestore.append_ns"] = perOp(total, n)
	return nil
}
