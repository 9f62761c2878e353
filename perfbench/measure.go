package main

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// spans records the benchmark's own spans around calls into the
// program's modules. Spans are aggregated in memory by name (a child's
// name is prefixed by its parent's, "setup/add_node"), so a run with
// millions of simulator steps stays small, and written out once when
// the run ends. A nil *spans is the untraced run: every method is a
// no-op that reads no clock.
type spans struct {
	byName map[string]*spanAgg
	// steps holds every simulator step's duration.
	steps durHist
}

type spanAgg struct {
	n     int64
	total time.Duration
}

func newSpans() *spans { return &spans{byName: make(map[string]*spanAgg)} }

// start returns the span's start time (zero when untraced).
func (s *spans) start() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// end closes a span opened by start.
func (s *spans) end(name string, t0 time.Time) {
	if s == nil {
		return
	}
	s.add(name, time.Since(t0))
}

func (s *spans) add(name string, d time.Duration) {
	if s == nil {
		return
	}
	a := s.byName[name]
	if a == nil {
		a = &spanAgg{}
		s.byName[name] = a
	}
	a.n++
	a.total += d
}

// total returns the summed duration of the named span.
func (s *spans) total(name string) time.Duration {
	if s == nil || s.byName[name] == nil {
		return 0
	}
	return s.byName[name].total
}

// mean returns the named span's mean duration.
func (s *spans) mean(name string) time.Duration {
	if s == nil || s.byName[name] == nil || s.byName[name].n == 0 {
		return 0
	}
	a := s.byName[name]
	return a.total / time.Duration(a.n)
}

// write prints every span as name, count, total and self time. Self
// time is the total minus the totals of the span's direct children.
func (s *spans) write(w io.Writer) {
	if s == nil {
		return
	}
	names := make([]string, 0, len(s.byName))
	for n := range s.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# span %-28s %10s %12s %12s\n", "name", "count", "total_ms", "self_ms")
	for _, n := range names {
		a := s.byName[n]
		self := a.total
		for _, c := range names {
			if strings.HasPrefix(c, n+"/") && !strings.Contains(c[len(n)+1:], "/") {
				self -= s.byName[c].total
			}
		}
		fmt.Fprintf(w, "# span %-28s %10d %12.3f %12.3f\n", n, a.n, ms(a.total), ms(self))
	}
}

// durHist is a log-linear histogram of durations: 64 sub-buckets per
// power of two of nanoseconds, so a quantile is exact to about 1.6 %.
// Recording allocates nothing, which keeps the allocation counts of the
// stepping it surrounds clean.
type durHist struct {
	counts [64 * 64]int64
	n      int64
	total  time.Duration
}

const histSub = 6 // log2 of the sub-buckets per power of two

func (h *durHist) record(d time.Duration) {
	v := uint64(max(d, 0))
	h.n++
	h.total += d
	if v < 1<<histSub {
		h.counts[v]++
		return
	}
	e := bits.Len64(v) - histSub - 1
	const mask = 1<<histSub - 1
	h.counts[(e+1)<<histSub+int(v>>e&mask)]++
}

// quantile returns the lower edge of the bucket holding the q-quantile.
func (h *durHist) quantile(q float64) time.Duration {
	rank := int64(math.Ceil(q * float64(h.n)))
	var seen int64
	for i, c := range h.counts {
		seen += c
		if c > 0 && seen >= rank {
			if i < 1<<histSub {
				return time.Duration(i)
			}
			e := i>>histSub - 1
			mant := uint64(1<<histSub + i%(1<<histSub))
			return time.Duration(mant << e)
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of xs (nearest rank on a sorted copy).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// fastest returns, for each unit of work, its least wall time over the
// repetitions; every repetition times the same units in the same order.
func fastest(reps [][]float64) []float64 {
	if len(reps) == 0 {
		return nil
	}
	out := append([]float64(nil), reps[0]...)
	for _, r := range reps[1:] {
		for i := range out {
			out[i] = min(out[i], r[i])
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// liveHeapMB returns the live heap after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// rtSample reads the Go runtime counters the per-layer metrics use.
type rtSample struct {
	gcCPU        float64
	allocObjects uint64
	allocBytes   uint64
}

var rtNames = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
}

// rtSamples is reused so reading the counters does not allocate.
var rtSamples = func() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	return s
}()

func readRuntime() rtSample {
	s := rtSamples
	metrics.Read(s)
	var out rtSample
	if s[0].Value.Kind() == metrics.KindFloat64 {
		out.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		out.allocObjects = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindUint64 {
		out.allocBytes = s[2].Value.Uint64()
	}
	return out
}
