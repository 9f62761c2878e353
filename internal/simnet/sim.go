// Package simnet drives P2 nodes with a deterministic discrete-event
// simulation: a virtual clock, per-link FIFO message channels with
// configurable delay and loss, and a single-server CPU model per node
// (tasks queue while a node is busy, so heavy monitoring load shows up as
// superlinear CPU growth exactly as in Figures 6-7 of the paper).
//
// The paper ran 21 P2 processes over UDP on two LAN hosts; this package
// is the substitution DESIGN.md §4 documents. Per-link FIFO delivery
// preserves the ordering assumption of the Chandy-Lamport snapshots
// (§3.3).
package simnet

import (
	"container/heap"
	"math"
)

// event is one scheduled callback.
type event struct {
	at  float64
	seq uint64 // tie-break: FIFO among simultaneous events
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Sim is a discrete-event scheduler with a virtual clock in seconds.
type Sim struct {
	pq       eventHeap
	now      float64
	seq      uint64
	executed uint64
}

// NewSim creates a simulator at time zero.
func NewSim() *Sim { return &Sim{} }

// Now returns the current virtual time in seconds.
func (s *Sim) Now() float64 { return s.now }

// At schedules fn at absolute virtual time t (clamped to now).
func (s *Sim) At(t float64, fn func()) {
	if t < s.now {
		t = s.now
	}
	s.seq++
	heap.Push(&s.pq, event{at: t, seq: s.seq, fn: fn})
}

// After schedules fn d seconds from now.
func (s *Sim) After(d float64, fn func()) { s.At(s.now+d, fn) }

// Step runs the earliest event; it reports false when none remain.
func (s *Sim) Step() bool {
	if len(s.pq) == 0 {
		return false
	}
	e := heap.Pop(&s.pq).(event)
	s.now = e.at
	s.executed++
	e.fn()
	return true
}

// Executed returns how many events have run since the simulation
// started — the numerator of the scale benchmark's events/sec curves.
func (s *Sim) Executed() uint64 { return s.executed }

// Run executes events until the virtual clock reaches until (events at
// exactly until still run); afterwards now == until.
func (s *Sim) Run(until float64) {
	for len(s.pq) > 0 && s.pq[0].at <= until {
		s.Step()
	}
	if s.now < until {
		s.now = until
	}
}

// RunUntilIdle drains every event (use with bounded workloads only).
func (s *Sim) RunUntilIdle(maxEvents int) bool {
	for i := 0; i < maxEvents; i++ {
		if !s.Step() {
			return true
		}
	}
	return false
}

// Pending returns the number of scheduled events.
func (s *Sim) Pending() int { return len(s.pq) }

// NextAt returns the time of the earliest pending event, or +Inf.
func (s *Sim) NextAt() float64 {
	if len(s.pq) == 0 {
		return math.Inf(1)
	}
	return s.pq[0].at
}
