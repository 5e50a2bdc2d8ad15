package des

import (
	"fmt"
	"sort"
	"testing"
	"testing/quick"
)

// Len returns the number of pending events.
func (s *Scheduler) Len() int { return s.queue.size }

// After schedules fn to run delay time units from now. Negative delays
// panic.
func (s *Scheduler) After(delay float64, fn func()) {
	if delay < 0 {
		panic(fmt.Sprintf("des: negative delay %v", delay))
	}
	s.At(s.now+delay, fn)
}

// Reset discards all pending events and rewinds the clock to zero,
// returning the scheduler to its zero value.
func (s *Scheduler) Reset() { *s = Scheduler{} }

// RunUntil dispatches events in order until the queue drains, the
// horizon is passed, or Stop is called. Events scheduled exactly at the
// horizon are dispatched; later ones are left pending. It returns the
// number of events dispatched.
func (s *Scheduler) RunUntil(horizon float64) int {
	s.stopped = false
	dispatched := 0
	for !s.stopped {
		head, ok := s.queue.peek()
		if !ok || head.time > horizon {
			break
		}
		s.Step()
		dispatched++
	}
	if s.now < horizon && !s.stopped {
		s.now = horizon
	}
	s.flushObs(dispatched)
	return dispatched
}

func (q *ladderQueue) peek() (event, bool) {
	if !q.ensureBottom() {
		return event{}, false
	}
	return q.bottom[q.botIdx], true
}

func TestEventsRunInTimeOrder(t *testing.T) {
	var s Scheduler
	var got []float64
	for _, tt := range []float64{5, 1, 3, 2, 4} {
		tt := tt
		s.At(tt, func() { got = append(got, tt) })
	}
	if n := s.Run(); n != 5 {
		t.Fatalf("dispatched %d events", n)
	}
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events out of order: %v", got)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	var s Scheduler
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(7, func() { got = append(got, i) })
	}
	s.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break not FIFO: %v", got)
		}
	}
}

func TestNowAdvances(t *testing.T) {
	var s Scheduler
	s.At(2, func() {
		if s.Now() != 2 {
			t.Fatalf("Now = %v inside event at 2", s.Now())
		}
	})
	s.Run()
	if s.Now() != 2 {
		t.Fatalf("Now = %v after run", s.Now())
	}
}

func TestAfter(t *testing.T) {
	var s Scheduler
	fired := 0.0
	s.At(3, func() {
		s.After(2, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 5 {
		t.Fatalf("After event fired at %v, want 5", fired)
	}
}

func TestAtPastPanics(t *testing.T) {
	var s Scheduler
	s.At(5, func() {})
	s.Step()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic scheduling in the past")
		}
	}()
	s.At(1, func() {})
}

func TestAfterNegativePanics(t *testing.T) {
	var s Scheduler
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for negative delay")
		}
	}()
	s.After(-1, func() {})
}

func TestRunUntilHorizon(t *testing.T) {
	var s Scheduler
	var got []float64
	for _, tt := range []float64{1, 2, 3, 4, 5} {
		tt := tt
		s.At(tt, func() { got = append(got, tt) })
	}
	n := s.RunUntil(3)
	if n != 3 {
		t.Fatalf("dispatched %d, want 3 (inclusive horizon)", n)
	}
	if s.Len() != 2 {
		t.Fatalf("pending %d, want 2", s.Len())
	}
	if s.Now() != 3 {
		t.Fatalf("Now = %v, want horizon 3", s.Now())
	}
}

func TestRunUntilAdvancesClockToHorizonWhenEmpty(t *testing.T) {
	var s Scheduler
	s.RunUntil(42)
	if s.Now() != 42 {
		t.Fatalf("Now = %v, want 42", s.Now())
	}
}

func TestStopDuringRun(t *testing.T) {
	var s Scheduler
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(float64(i), func() {
			count++
			if count == 4 {
				s.Stop()
			}
		})
	}
	n := s.Run()
	if n != 4 || count != 4 {
		t.Fatalf("dispatched %d (count %d), want 4", n, count)
	}
	if s.Len() != 6 {
		t.Fatalf("pending %d, want 6", s.Len())
	}
}

func TestEventsScheduledDuringDispatch(t *testing.T) {
	var s Scheduler
	depth := 0
	var schedule func()
	schedule = func() {
		depth++
		if depth < 5 {
			s.After(1, schedule)
		}
	}
	s.At(0, schedule)
	s.Run()
	if depth != 5 {
		t.Fatalf("chained depth %d, want 5", depth)
	}
	if s.Now() != 4 {
		t.Fatalf("Now = %v, want 4", s.Now())
	}
}

func TestReset(t *testing.T) {
	var s Scheduler
	s.At(1, func() {})
	s.At(2, func() {})
	s.Step()
	s.Reset()
	if s.Now() != 0 || s.Len() != 0 {
		t.Fatal("Reset did not clear state")
	}
	s.At(0.5, func() {}) // must not panic after reset
	s.Run()
}

func TestOrderProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		var s Scheduler
		var got []float64
		for _, r := range raw {
			tt := float64(r)
			s.At(tt, func() { got = append(got, tt) })
		}
		s.Run()
		return sort.Float64sAreSorted(got) && len(got) == len(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var s Scheduler
		for j := 0; j < 1000; j++ {
			s.At(float64(j%97), func() {})
		}
		s.Run()
	}
}
