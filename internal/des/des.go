// Package des implements a minimal discrete-event scheduler: a
// time-ordered queue of callbacks with deterministic FIFO tie-breaking
// for simultaneous events. It underlies both the synthetic contact
// simulator and trace replay.
//
// The event queue is a calendar-style ladder queue (ladder.go) with
// O(1) amortized schedule/pop, which replaced a binary heap whose
// O(log n) pops dominated city-scale runs. The package tests keep a
// container/heap scheduler as an independent reference and run
// randomized programs against both in lockstep.
package des

import (
	"fmt"

	"repro/internal/obs"
)

// event is one scheduled callback.
type event struct {
	time float64
	seq  uint64 // FIFO tie-break for equal times
	fn   func()
}

// before reports whether e pops before o: strict (time, seq) order.
func (e event) before(o event) bool {
	if e.time != o.time {
		return e.time < o.time
	}
	return e.seq < o.seq
}

// Scheduler orders and dispatches events. The zero value is ready to
// use. Scheduler is not safe for concurrent use; simulations are
// single-threaded by design and parallelism happens across runs.
type Scheduler struct {
	now     float64
	queue   ladderQueue
	seq     uint64
	stopped bool
	// maxQueue tracks the deepest the pending queue has been — a plain
	// int so the per-event cost is one compare; it is flushed to the
	// observability layer when a Run drains.
	maxQueue int
}

// New returns a ready Scheduler, the same as the zero value.
func New() *Scheduler { return &Scheduler{} }

// Now returns the current simulation time.
func (s *Scheduler) Now() float64 { return s.now }

// At schedules fn to run at time t. Scheduling in the past (t < Now)
// panics: it would silently reorder causality.
func (s *Scheduler) At(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("des: event scheduled at %v before current time %v", t, s.now))
	}
	s.queue.push(event{time: t, seq: s.seq, fn: fn})
	s.seq++
	if n := s.queue.size; n > s.maxQueue {
		s.maxQueue = n
	}
}

// Step dispatches the earliest pending event and reports whether one
// was dispatched.
func (s *Scheduler) Step() bool {
	e, ok := s.queue.pop()
	if !ok {
		return false
	}
	s.now = e.time
	e.fn()
	return true
}

// Run dispatches all pending events (including ones scheduled during
// dispatch) until the queue drains or Stop is called, and returns the
// number dispatched.
func (s *Scheduler) Run() int {
	s.stopped = false
	dispatched := 0
	for !s.stopped && s.Step() {
		dispatched++
	}
	s.flushObs(dispatched)
	return dispatched
}

// flushObs reports a completed dispatch loop to the observability
// layer: one atomic pointer load when disabled, no RNG, no effect on
// event order.
func (s *Scheduler) flushObs(dispatched int) {
	if c := obs.Active(); c != nil {
		c.Add(obs.DESEvents, int64(dispatched))
		c.RecordMax(obs.DESQueueHighWater, int64(s.maxQueue))
	}
}

// Stop makes the current Run return after the in-flight event
// completes. Pending events remain queued.
func (s *Scheduler) Stop() { s.stopped = true }
