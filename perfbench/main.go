// Command perfbench is the repository benchmark: it runs one workload
// against the p2go modules and prints every end-to-end metric (or, with
// -trace 1, every per-layer metric) as a JSON object on its last line.
//
//	perfbench -workload churn21|ring10k|forensics21 -seed N -seconds S -trace 0|1
//
// It times the program only from outside, around calls into the
// modules' public functions, and fails the run (exit status 1,
// "correct": false) when a workload's outputs are wrong. README.md in
// this directory lists the workloads, the metrics and which end-to-end
// metric each layer metric should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// endToEnd and perLayer are the metric names BENCHMARK.json declares.
// Every run reports all of the set it belongs to; a layer a workload
// does not use reports 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"live_heap_mb", "MB"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
}

var perLayer = []metricDef{
	{"overlog.parse_ms", "ms"},
	{"overlog.eval_ns", "ns"},
	{"overlog.eval_allocs", "count"},
	{"planner.compile_ms", "ms"},
	{"engine.install_us", "us"},
	{"table.match_ns", "ns"},
	{"table.match_hit_ratio", "ratio"},
	{"table.insert_ns", "ns"},
	{"table.expire_ns", "ns"},
	{"tuple.marshal_ns", "ns"},
	{"tuple.unmarshal_ns", "ns"},
	{"tuple.bytes", "B"},
	{"engine.step_us_p50", "us"},
	{"engine.step_us_p99", "us"},
	{"engine.rule_fires", "count"},
	{"engine.tuples_processed", "count"},
	{"engine.msgs_sent", "count"},
	{"engine.allocs_per_event", "count"},
	{"engine.alloc_bytes_per_event", "B"},
	{"engine.model_busy_s", "s"},
	{"engine.wall_per_model", "ratio"},
	{"simnet.events", "count"},
	{"simnet.pending_max", "count"},
	{"simnet.heap_ns", "ns"},
	{"simnet.add_node_us", "us"},
	{"trace.memo_entries", "count"},
	{"tracestore.records", "count"},
	{"tracestore.bytes_per_record", "B"},
	{"tracestore.segments", "count"},
	{"tracestore.append_ns", "ns"},
	{"tracestore.query_edges", "count"},
	{"tracestore.query_hops", "count"},
	{"realtime.reader_ns", "ns"},
	{"realtime.reader_allocs", "count"},
	{"runtime.gc_cpu_s", "s"},
	{"bench.traced_run_s", "s"},
	{"bench.span_coverage", "ratio"},
	{"bench.error_share", "ratio"},
}

type metricDef struct{ name, unit string }

// result is what one workload run produces.
type result struct {
	attempted, failed int64
	// problems lists failed output checks; any entry makes the run
	// incorrect.
	problems []string
	values   map[string]float64
	// info lines are printed before the JSON line (fingerprints,
	// sample counts, span tables).
	info []string
}

func newResult() *result { return &result{values: make(map[string]float64)} }

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *result) infof(format string, args ...any) {
	r.info = append(r.info, fmt.Sprintf(format, args...))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "churn21, ring10k or forensics21")
	seed := flag.Int64("seed", 42, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	traced := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.Parse()
	if *seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be at least 1")
		os.Exit(2)
	}

	var sp *spans
	if *traced == 1 {
		sp = newSpans()
	}
	var res *result
	var err error
	switch *workload {
	case "churn21", "ring10k", "forensics21":
		res, err = runSim(*workload, *seed, *seconds, sp)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}

	fmt.Printf("# host nproc=%d GOMAXPROCS=%d go=%s workload=%s seed=%d seconds=%d trace=%d\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), *workload, *seed, *seconds, *traced)
	for _, l := range res.info {
		fmt.Println("#", l)
	}
	if sp != nil {
		sp.write(os.Stdout)
	}
	for _, p := range res.problems {
		fmt.Println("# CHECK FAILED:", p)
	}
	errShare := 0.0
	if res.attempted > 0 {
		errShare = float64(res.failed) / float64(res.attempted)
	}
	res.values["bench.error_share"] = errShare
	fmt.Printf("# error_share %.6g (%d failed of %d attempted)\n", errShare, res.failed, res.attempted)

	defs := endToEnd
	if sp != nil {
		defs = perLayer
	}
	out := jsonResult{
		Correct:   len(res.problems) == 0,
		Attempted: max(res.attempted, 1),
		Failed:    res.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	var lines []string
	for _, d := range defs {
		v := res.values[d.name]
		out.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
		lines = append(lines, fmt.Sprintf("# metric %-30s %16.6g %s", d.name, v, d.unit))
	}
	sort.Strings(lines)
	fmt.Println(strings.Join(lines, "\n"))
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !out.Correct {
		os.Exit(1)
	}
}
