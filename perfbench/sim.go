package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	"p2go/internal/chord"
	"p2go/internal/engine"
	"p2go/internal/faults"
	"p2go/internal/monitor"
	"p2go/internal/overlog"
	"p2go/internal/planner"
	"p2go/internal/simnet"
	"p2go/internal/trace"
	"p2go/internal/tracestore"
	"p2go/internal/tuple"
)

// simCfg is one simulated workload. All run on the default sequential
// simnet driver.
type simCfg struct {
	hosts int
	// converge is the virtual time before the scenario window opens;
	// window is the scenario's length after it.
	converge, window float64
	// churn deploys the §3.1 detectors on every node and crashes
	// chord.RunChurn's three default victims at +60 s, rejoining them
	// 60 s later.
	churn bool
	// traced turns on the P2 tracer with a durable trace store.
	traced bool
	// queries is the number of ancestor queries run after the window.
	queries int
	// slice is the virtual time per latency sample.
	slice float64
	// repSeconds sizes the repetitions: a run makes --seconds /
	// repSeconds of them, each about repSeconds of wall time on a
	// 2-core host. churn21's take about 7 s but are sized at 10, and
	// forensics21's about 14 s but are sized at 13, so a 40 s run makes
	// four and three of them and all the runs the benchmark's contract
	// asks for keep well inside its time limit.
	repSeconds float64
	// netSeed, when set, seeds the simulated network instead of the
	// run's seed.
	netSeed int64
	// seededPhase delays the crash and the rejoin by a share of a probe
	// period drawn from the run's seed, so the crash lands at a seeded
	// point of the detectors' probe cycle.
	seededPhase bool
}

var simWorkloads = map[string]simCfg{
	"churn21":     {hosts: 21, converge: 300, window: 480, churn: true, slice: 0.1, repSeconds: 10, netSeed: chordSeed, seededPhase: true},
	"forensics21": {hosts: 21, converge: 120, window: 150, churn: true, traced: true, queries: 150, slice: 0.1, repSeconds: 13, netSeed: chordSeed},
	"ring10k":     {hosts: 10000, window: 3, slice: 0.1, repSeconds: 7},
}

// chordSeed seeds the 21-node ring's network: the seed every experiment
// in EXPERIMENTS.md uses. How a 21-node ring forms is chaotic in its
// network seed: on about a third of seeds a load-delayed ping is read
// as a failure while the ring forms, the repairs add load, and the run
// does half as much work again with the detectors alarming on the
// converged ring. So the churn workloads keep one network: churn21
// takes its input from the run's seed through the crash's phase,
// forensics21 through the roots of its queries.
const chordSeed = 42

const (
	crashAt, rejoinAfter = 60.0, 60.0
	quietWindow          = 60.0
	// probePeriod is the ring probe period of the detectors; a node is
	// declared faulty after 17 s of silence (chord fd1), so detection
	// lands 17 s after the last ping answered.
	probePeriod = 5.0
	silence     = 17.0
	// storeWindow is the trace store's rotation period and queryHorizon
	// the ancestor queries' horizon in windows.
	storeWindow  = 5.0
	queryHorizon = 10
)

var churnAlarms = map[string]bool{
	"inconsistentPred": true, "inconsistentSucc": true,
	"oscill": true, "repeatOscill": true, "chaotic": true,
}

// simRun is one built simulated network.
type simRun struct {
	cfg    simCfg
	sim    *simnet.Sim
	net    *simnet.Network
	ring   *chord.Ring
	errors int
	setup  time.Duration
	// victims are the members the churn scenario crashes, phase the
	// crash's delay past crashAt.
	victims []string
	phase   float64
}

// parseDetectors parses the §3.1 monitoring suite deployed on churn
// workloads: ring probes, the passive check and the oscillation
// detectors.
func parseDetectors() []*overlog.Program {
	return []*overlog.Program{
		monitor.RingProbeProgram(probePeriod),
		monitor.RingPassiveProgram(),
		monitor.OscillationProgram(),
	}
}

// buildSim makes the network, parses and compiles the programs once and
// installs them on every host, exactly as chord.NewRing does, but with
// each step under its own span.
func buildSim(c simCfg, seed int64, sp *spans) (*simRun, error) {
	t0 := time.Now()
	r := &simRun{cfg: c}
	var tcfg *trace.Config
	var scfg *tracestore.Config
	if c.traced {
		tc := trace.DefaultConfig()
		sc := tracestore.DefaultConfig()
		sc.WindowSeconds = storeWindow
		tcfg, scfg = &tc, &sc
	}
	netSeed := seed
	if c.netSeed != 0 {
		netSeed = c.netSeed
	}
	if c.churn {
		for _, i := range []int{c.hosts / 4, c.hosts / 2, 3 * c.hosts / 4} {
			r.victims = append(r.victims, fmt.Sprintf("n%d", i+1))
		}
	}
	if c.seededPhase {
		r.phase = rand.New(rand.NewSource(seed)).Float64() * probePeriod
	}
	r.sim = simnet.NewSim()
	r.ring = &chord.Ring{Sim: r.sim}
	r.net = simnet.NewNetwork(r.sim, simnet.Config{
		Seed:       netSeed,
		Tracing:    tcfg,
		TraceStore: scfg,
		OnWatch: func(now float64, node string, t tuple.Tuple) {
			r.ring.Watched = append(r.ring.Watched, chord.WatchedTuple{At: now, Node: node, T: t})
		},
		OnRuleError: func(now float64, node, ruleID string, err error) { r.errors++ },
	})
	r.ring.Net = r.net

	s := sp.start()
	prog := chord.Program()
	var extras []*overlog.Program
	if c.churn {
		extras = parseDetectors()
	}
	sp.end("setup/parse", s)

	s = sp.start()
	cq, err := engine.CompileQuery(prog)
	if err != nil {
		return nil, err
	}
	compiled, err := compileExtras(cq, extras)
	if err != nil {
		return nil, err
	}
	sp.end("setup/compile", s)

	for i := 1; i <= c.hosts; i++ {
		addr := fmt.Sprintf("n%d", i)
		r.ring.Addrs = append(r.ring.Addrs, addr)
		s = sp.start()
		n, err := r.net.AddNode(addr)
		sp.end("setup/add_node", s)
		if err != nil {
			return nil, err
		}
		s = sp.start()
		if err := installChord(n, cq); err != nil {
			return nil, err
		}
		for j, x := range compiled {
			if _, err := n.InstallCompiledQuery(chord.ExtraQueryID(j), x); err != nil {
				return nil, err
			}
		}
		sp.end("setup/install", s)
	}
	r.setup = time.Since(t0)
	sp.add("setup", r.setup)
	return r, nil
}

// installChord mirrors chord.Install with a compilation made in this
// run (chord.Install reuses a process-wide one, which would hide the
// compile from every set-up after the first).
func installChord(n *engine.Node, cq *engine.CompiledQuery) error {
	if _, err := n.InstallCompiledQuery(chord.QueryID, cq); err != nil {
		return err
	}
	addr := n.Addr()
	for _, t := range []tuple.Tuple{
		tuple.New("node", tuple.Str(addr), tuple.ID(chord.NodeID(addr))),
		tuple.New("landmark", tuple.Str(addr), tuple.Str("n1")),
		tuple.New("pred", tuple.Str(addr), tuple.Int(0), tuple.Str("-")),
		tuple.New("nextFingerFix", tuple.Str(addr), tuple.Int(32)),
	} {
		n.SeedLocal(t)
	}
	return nil
}

// compileExtras compiles the detectors against the Chord tables, the
// engine's system tables and the detectors before them, as the chord
// harness does.
func compileExtras(base *engine.CompiledQuery, progs []*overlog.Program) ([]*engine.CompiledQuery, error) {
	known := make(map[string]bool)
	for _, t := range base.DeclaredTables() {
		known[t] = true
	}
	env := planner.EnvFunc(func(name string) bool { return known[name] || engine.IsSystemTable(name) })
	out := make([]*engine.CompiledQuery, len(progs))
	for i, p := range progs {
		c, err := engine.CompileQueryEnv(p, env)
		if err != nil {
			return nil, err
		}
		out[i] = c
		for _, t := range c.DeclaredTables() {
			known[t] = true
		}
	}
	return out, nil
}

// runStats accumulates what stepping the simulator measured.
type runStats struct {
	run        time.Duration // stepping wall time (excludes oracle checks)
	slices     []float64     // wall ms per virtual slice
	pendingMax int
	allocObj   uint64
	allocBytes uint64
}

// stepTo steps the simulator through every event at or before until,
// then advances the clock to until as Sim.Run does. With spans on,
// every Sim.Step is timed.
func (r *simRun) stepTo(until float64, st *runStats, sp *spans) {
	var a0 rtSample
	if sp != nil {
		a0 = readRuntime()
	}
	t0 := time.Now()
	if sp == nil {
		for r.sim.NextAt() <= until {
			r.sim.Step()
		}
	} else {
		for r.sim.NextAt() <= until {
			if p := r.sim.Pending(); p > st.pendingMax {
				st.pendingMax = p
			}
			s := time.Now()
			r.sim.Step()
			sp.steps.record(time.Since(s))
		}
	}
	r.sim.Run(until)
	d := time.Since(t0)
	st.run += d
	st.slices = append(st.slices, ms(d))
	if sp != nil {
		a1 := readRuntime()
		st.allocObj += a1.allocObjects - a0.allocObjects
		st.allocBytes += a1.allocBytes - a0.allocBytes
	}
}

// runWindow steps from now to now+d in slices.
func (r *simRun) runWindow(d float64, st *runStats, sp *spans) {
	start := r.sim.Now()
	k := int(math.Round(d / r.cfg.slice))
	for i := 1; i <= k; i++ {
		r.stepTo(start+float64(i)*r.cfg.slice, st, sp)
	}
}

// churnOutcome is the repair and detection table of a churn run, as
// chord.ChurnResult defines it.
type churnOutcome struct {
	preAlarms, alarms, quietAlarms int
	detection, survivorRepair      float64
	rejoinRepair                   float64
	finalViolations                []string
}

// runScenario runs the workload's virtual scenario after set-up.
func (r *simRun) runScenario(st *runStats, sp *spans) (*churnOutcome, error) {
	c := r.cfg
	if !c.churn {
		r.runWindow(c.window, st, sp)
		return nil, nil
	}
	r.runWindow(c.converge, st, sp)
	base := r.sim.Now()
	vs := r.victims
	sc := faults.Scenario{Name: "churn", Events: []faults.Event{
		{At: crashAt + r.phase, Kind: faults.Crash, Nodes: vs},
		{At: crashAt + r.phase + rejoinAfter, Kind: faults.Rejoin, Nodes: vs},
	}}.Shift(base)
	if _, err := faults.Arm(r.net, sc); err != nil {
		return nil, err
	}
	out := &churnOutcome{detection: -1, survivorRepair: -1, rejoinRepair: -1}
	dead := make(map[string]bool)
	for _, v := range vs {
		dead[v] = true
	}
	survivors := r.ring.Alive(dead)
	crash := base + crashAt + r.phase
	rejoin := crash + rejoinAfter
	end := base + c.window
	for sec := 1; float64(sec) <= c.window; sec++ {
		r.runWindow(1, st, sp)
		now := r.sim.Now()
		s := sp.start()
		if now > crash && now <= rejoin && out.survivorRepair < 0 && len(r.ring.CheckRing(survivors)) == 0 {
			out.survivorRepair = now - crash
		}
		if now > rejoin && out.rejoinRepair < 0 && len(r.ring.CheckRing(r.ring.Addrs)) == 0 {
			out.rejoinRepair = now - rejoin
		}
		sp.end("check", s)
	}
	for _, w := range r.ring.Watched {
		if !churnAlarms[w.T.Name] || w.At < base {
			continue
		}
		if w.At < crash {
			out.preAlarms++
			continue
		}
		out.alarms++
		if out.detection < 0 {
			out.detection = w.At - crash
		}
		if w.At >= end-quietWindow {
			out.quietAlarms++
		}
	}
	out.finalViolations = r.ring.CheckRing(r.ring.Addrs)
	return out, nil
}

// verdicts returns the §3.1 monitoring verdicts of one churn run that
// failed.
func (o *churnOutcome) verdicts() []string {
	var bad []string
	fail := func(ok bool, format string, args ...any) {
		if !ok {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	fail(o.preAlarms == 0, "%d detector alarms on the healthy ring before the crash", o.preAlarms)
	// The crash lands up to one probe period after the victims' last
	// answered ping, so the first alarm belongs to the 17 s silence
	// class if it fires within (17-5, 17+5+2] s of the crash; the 2 s
	// is the faulty-node sweep period.
	fail(o.detection > silence-probePeriod && o.detection <= silence+probePeriod+2,
		"detection latency %.2fs is outside the %gs silence class", o.detection, silence)
	fail(o.survivorRepair >= 0, "survivor ring never repaired after the crash")
	fail(o.rejoinRepair >= 0, "full ring never repaired after the rejoin")
	fail(o.quietAlarms == 0, "%d alarms in the final %gs quiet window", o.quietAlarms, quietWindow)
	fail(len(o.finalViolations) == 0, "ring invariants violated at the end: %v", o.finalViolations)
	return bad
}

// fingerprint hashes what the network emitted: every table row (an
// order-independent sum over rows, so equal to hashing the sorted
// rows) except those of the table named skip, the watched-tuple stream
// in order, and the rule-error count.
func (r *simRun) fingerprint(skip string) uint64 {
	h := uint64(tuple.FnvOffset64)
	mix := func(v uint64) {
		h ^= v
		h *= 0x100000001b3
	}
	now := r.sim.Now()
	for _, a := range r.ring.Addrs {
		st := r.net.Node(a).Store()
		for _, name := range st.Names() {
			if name == skip {
				continue
			}
			var sum uint64
			rows := 0
			st.Get(name).Scan(now, func(t tuple.Tuple) {
				sum += splitmix(t.Hash() ^ splitmix(t.ID))
				rows++
			})
			mix(tuple.Str(name).Hash())
			mix(uint64(rows))
			mix(sum)
		}
	}
	for _, w := range r.ring.Watched {
		mix(math.Float64bits(w.At))
		mix(tuple.Str(w.Node).Hash())
		mix(w.T.Hash())
		mix(w.T.ID)
	}
	mix(uint64(r.errors))
	return h
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// queryStats is the outcome of the forensic query phase.
type queryStats struct {
	lat          []float64 // ms per query
	edges, hops  int
	empty        int
	restartMarks map[string]int
}

// runQueries picks a seeded set of traced products inside the horizon
// and asks for each one's ancestors, opening a fresh view per query as
// an investigator would. The run's repetitions share one sample of
// reps × cfg.queries products, and repetition rep asks every reps-th of
// them, so a run asks about distinct products in every repetition.
func (r *simRun) runQueries(seed int64, rep, reps int, sp *spans) (*queryStats, error) {
	stores := make(map[string]*tracestore.Store, len(r.ring.Addrs))
	for _, a := range r.ring.Addrs {
		st := r.net.Node(a).TraceStore()
		if st == nil {
			return nil, fmt.Errorf("node %s has no trace store", a)
		}
		stores[a] = st
	}
	qs := &queryStats{restartMarks: make(map[string]int)}
	full := tracestore.NewView(stores, 0)
	for _, v := range r.victims {
		evs, err := full.Events(tracestore.EventFilter{Node: v, Op: "restart"})
		if err != nil {
			return nil, err
		}
		qs.restartMarks[v] = len(evs)
	}
	since := math.Max(0, r.sim.Now()-queryHorizon*storeWindow)
	type root struct {
		node string
		id   uint64
	}
	var roots []root
	for _, a := range r.ring.Addrs {
		execs, err := full.Execs(tracestore.ExecFilter{Node: a, Since: since})
		if err != nil {
			return nil, err
		}
		for _, e := range execs {
			roots = append(roots, root{a, e.OutID})
		}
	}
	if len(roots) == 0 {
		return nil, fmt.Errorf("no traced products inside the query horizon")
	}
	// A systematic sample from a seeded offset: the roots are in node
	// and time order, so every node and every part of the horizon is
	// asked about in proportion, and the seed moves which products.
	off := rand.New(rand.NewSource(seed)).Float64()
	n := float64(r.cfg.queries * reps)
	for i := 0; i < r.cfg.queries; i++ {
		q := roots[int((float64(i*reps+rep)+off)*float64(len(roots))/n)]
		t0 := time.Now()
		l, err := tracestore.NewView(stores, since).Ancestors(q.node, q.id, 0)
		d := time.Since(t0)
		sp.add("query", d)
		if err != nil {
			return nil, err
		}
		qs.lat = append(qs.lat, ms(d))
		qs.edges += len(l.Edges)
		qs.hops += len(l.Hops)
		if len(l.Edges) == 0 {
			qs.empty++
		}
	}
	return qs, nil
}

// runSim runs a simulated workload: a fixed number of repetitions of
// set-up plus scenario (and queries) on the run's seed, sized so that
// they fill about --seconds. Every repetition simulates the same
// events, which the run checks through the event count and the
// emissions fingerprint, so each virtual slice is timed once per
// repetition. The host's speed changes from second to second, so run_s
// and the slice latencies take each slice at its fastest over the
// repetitions, not whole repetitions: a second in which a neighbour
// slowed the host is outvoted slice by slice. forensics21's repetitions
// ask distinct queries, and its latencies are quantiles over all of
// them. Every repetition's outputs are checked.
func runSim(name string, seed int64, seconds int, sp *spans) (*result, error) {
	c := simWorkloads[name]
	res := newResult()
	if sp != nil {
		// The reader replay collects the heap, so it runs before any
		// network exists.
		if err := replayReader(res.values); err != nil {
			return nil, err
		}
	}
	reps := max(1, int(float64(seconds)/c.repSeconds))
	var setups, runs, heaps, gcCPU, eps []float64
	// slices holds each repetition's wall ms per virtual slice, and
	// queryLat every query's wall ms.
	var slices [][]float64
	var queryLat []float64
	var last *simRun
	var lastStats runStats
	var lastQueries *queryStats
	var fp, fpNoLog uint64
	var events uint64
	var scenarioWall time.Duration
	for rep := 0; rep < reps; rep++ {
		last = nil
		runtime.GC()
		repStart := time.Now()
		rt0 := readRuntime()
		r, err := buildSim(c, seed, sp)
		if err != nil {
			return nil, err
		}
		// The scenario starts from a collected heap, so a collection the
		// set-up left running cannot spill into run_s. The collection
		// after it measures the live heap and is not charged.
		pre, preRT := time.Now(), readRuntime()
		runtime.GC()
		preGC, preGCCPU := time.Since(pre), readRuntime().gcCPU-preRT.gcCPU
		var st runStats
		outcome, err := r.runScenario(&st, sp)
		if err != nil {
			return nil, err
		}
		gcCPU = append(gcCPU, readRuntime().gcCPU-rt0.gcCPU-preGCCPU)
		s := time.Now()
		heaps = append(heaps, liveHeapMB())
		sp.add("heap", time.Since(s))
		var qs *queryStats
		if c.queries > 0 {
			if qs, err = r.runQueries(seed, rep, reps, sp); err != nil {
				return nil, err
			}
		}
		slices = append(slices, st.slices)
		if qs != nil {
			queryLat = append(queryLat, qs.lat...)
		}
		scenarioWall += time.Since(repStart) - preGC
		sp.add("run", st.run)
		setups = append(setups, r.setup.Seconds())
		runs = append(runs, st.run.Seconds())
		eps = append(eps, float64(r.sim.Executed())/st.run.Seconds())

		if rep == 0 {
			fp, events = r.fingerprint(""), r.sim.Executed()
			fpNoLog = r.fingerprint(trace.TupleLogTable)
		} else {
			// forensics21's tupleLog is not repeatable (see below), the
			// rest of every workload's emissions is.
			res.check(r.sim.Executed() == events && r.fingerprint(trace.TupleLogTable) == fpNoLog,
				"repetition %d did other work than repetition 0 (%d events, want %d)", rep, r.sim.Executed(), events)
		}
		m := r.net.TotalMetrics()
		res.attempted += m.RuleFires
		res.failed += m.RuleErrors
		// forensics21's shorter window ends inside the rejoin's
		// reconciliation burst, so only churn21 holds the ring to the
		// full repair and re-silence verdicts.
		if outcome != nil && !c.traced {
			for _, b := range outcome.verdicts() {
				res.check(false, "repetition %d: %s", rep, b)
			}
			res.infof("churn repetition %d crash phase %.2fs: detection %+.2fs, survivor repair %+.0fs, rejoin repair %+.0fs, alarms %d",
				rep, r.phase, outcome.detection, outcome.survivorRepair, outcome.rejoinRepair, outcome.alarms)
		}
		if qs != nil {
			res.attempted += int64(len(qs.lat))
			res.failed += int64(qs.empty)
			res.check(qs.empty == 0, "repetition %d: %d of %d ancestor queries returned an empty lineage", rep, qs.empty, len(qs.lat))
			for _, v := range r.victims {
				res.check(qs.restartMarks[v] == 1, "repetition %d: victim %s has %d restart markers, want 1", rep, v, qs.restartMarks[v])
			}
		}
		last, lastStats, lastQueries = r, st, qs
	}

	res.infof("simnet.events %d", events)
	res.infof("fingerprint %016x", fp)
	if c.traced {
		// The tracer logs a table's expiry deletions in the order
		// table.Table's expiry sweep meets them, which is Go map order,
		// so tupleLog, and with it the fingerprint, differs from run to
		// run; the rest of the emissions do not.
		res.infof("fingerprint without %s %016x", trace.TupleLogTable, fpNoLog)
	}
	runMed := sum(fastest(slices)) / 1000
	lat := fastest(slices)
	if c.queries > 0 {
		lat = queryLat
	}
	res.values["run_s"] = runMed
	res.values["live_heap_mb"] = median(heaps)
	res.values["lat_p50_ms"] = quantile(lat, 0.5)
	res.values["lat_tail_ms"] = quantile(lat, 0.95)
	res.infof("simulator events per wall second of run_s %.0f", median(eps))
	res.values["simnet.events"] = float64(events)
	res.values["runtime.gc_cpu_s"] = median(gcCPU)
	if sp != nil {
		in, err := layerCounts(res, last, &lastStats, lastQueries, sp, runMed, scenarioWall)
		if err != nil {
			return nil, err
		}
		last = nil
		runtime.GC()
		if err := replayLayers(res.values, in); err != nil {
			return nil, err
		}
	} else {
		// More set-ups of the run's network, so setup_s is a median of
		// at least five, and of up to a hundred while they add up to
		// less than a second (a 21-host set-up takes milliseconds).
		last = nil
		for len(setups) < 5 || (sum(setups) < 1 && len(setups) < 100) {
			runtime.GC()
			r, err := buildSim(c, seed, nil)
			if err != nil {
				return nil, err
			}
			setups = append(setups, r.setup.Seconds())
		}
	}
	res.values["setup_s"] = median(setups)
	res.infof("repetitions %d, set-ups %d, latency samples %d (tail = p95), whole repetitions' run_s %.3f",
		len(runs), len(setups), len(lat), runs)
	return res, nil
}
