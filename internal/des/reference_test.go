package des

import (
	"container/heap"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/rng"
)

// refScheduler is the reference the lockstep suite holds Scheduler to:
// a plain container/heap queue with its own clock, sequence counter and
// stop flag, implementing the documented Scheduler semantics. It has
// its own entry type and its own (time, seq) order, so it shares no
// ordering code with the ladder path: a bug in event.before or in the
// ladder's bucket routing shows up as a divergence.
type refScheduler struct {
	now     float64
	h       refHeap
	seq     uint64
	stopped bool
}

type refEntry struct {
	time float64
	seq  uint64
	fn   func()
}

type refHeap []refEntry

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refEntry)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = refEntry{} // release the callback reference
	*h = old[:n-1]
	return e
}

func (s *refScheduler) Now() float64 { return s.now }

func (s *refScheduler) Len() int { return len(s.h) }

func (s *refScheduler) At(t float64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("ref: event scheduled at %v before current time %v", t, s.now))
	}
	heap.Push(&s.h, refEntry{time: t, seq: s.seq, fn: fn})
	s.seq++
}

func (s *refScheduler) After(delay float64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("ref: negative delay %v", delay))
	}
	s.At(s.now+delay, fn)
}

func (s *refScheduler) Step() bool {
	if len(s.h) == 0 {
		return false
	}
	e := heap.Pop(&s.h).(refEntry)
	s.now = e.time
	e.fn()
	return true
}

func (s *refScheduler) RunUntil(horizon float64) int {
	s.stopped = false
	dispatched := 0
	for !s.stopped && len(s.h) > 0 && s.h[0].time <= horizon {
		s.Step()
		dispatched++
	}
	if s.now < horizon && !s.stopped {
		s.now = horizon
	}
	return dispatched
}

func (s *refScheduler) Run() int {
	s.stopped = false
	dispatched := 0
	for !s.stopped && s.Step() {
		dispatched++
	}
	return dispatched
}

func (s *refScheduler) Stop() { s.stopped = true }

func (s *refScheduler) Reset() { *s = refScheduler{} }

// TestReferencePanicsLikeScheduler pins the reference to the misuse
// panics TestAtPastPanics and TestAfterNegativePanics require of
// Scheduler, so the lockstep suite compares like with like.
func TestReferencePanicsLikeScheduler(t *testing.T) {
	s := &refScheduler{}
	s.At(5, func() {})
	s.Step()
	for what, misuse := range map[string]func(){
		"At in the past": func() { s.At(1, func() {}) },
		"negative After": func() { s.After(-1, func() {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %s", what)
				}
			}()
			misuse()
		}()
	}
}

// TestLadderVsHeapReplayThroughput is the ladder queue's throughput
// gate. It replays a whole contact trace the size and shape of a city
// trace at n=1e4 (505,066 contacts over one day, ascending start times)
// through the Scheduler and through refScheduler: every event is
// scheduled, then Run drains it. Comparing the two in one process keeps
// the gate machine-independent, unlike an absolute events/sec floor.
func TestLadderVsHeapReplayThroughput(t *testing.T) {
	const (
		events  = 505066
		horizon = 86400.0
		reps    = 2   // best of reps per side, sides alternated
		bound   = 0.9 // ladder events/sec >= bound x reference
	)
	src := rng.New(1).Split("ladder-vs-heap")
	times := make([]float64, events)
	now := 0.0
	for i := range times {
		now += src.Exp(events / horizon)
		times[i] = now
	}
	var ladder, ref float64
	for r := 0; r < reps; r++ {
		if r%2 == 0 {
			ladder = max(ladder, replayEventsPerSec(t, New(), times))
			ref = max(ref, replayEventsPerSec(t, &refScheduler{}, times))
		} else {
			ref = max(ref, replayEventsPerSec(t, &refScheduler{}, times))
			ladder = max(ladder, replayEventsPerSec(t, New(), times))
		}
	}
	ratio := ladder / ref
	t.Logf("ladder %.0f ev/s, reference heap %.0f ev/s, ratio %.3f", ladder, ref, ratio)
	if ratio < bound {
		t.Fatalf("ladder/heap replay ratio %.3f below %.2f", ratio, bound)
	}
}

// replayEventsPerSec schedules one event per time into s, drains it,
// and returns the observed events/sec.
func replayEventsPerSec(t *testing.T, s lockstepScheduler, times []float64) float64 {
	t.Helper()
	runtime.GC()
	dispatched := 0
	start := time.Now()
	for _, tt := range times {
		s.At(tt, func() { dispatched++ })
	}
	got := s.Run()
	elapsed := time.Since(start).Seconds()
	if got != len(times) || dispatched != len(times) {
		t.Fatalf("replay dispatched %d/%d events", dispatched, len(times))
	}
	return float64(got) / elapsed
}
