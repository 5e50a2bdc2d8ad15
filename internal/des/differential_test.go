package des

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/rng"
)

// The differential suite is the safety proof for the ladder queue: the
// heap-backed refScheduler (reference_test.go) is the reference, and
// randomized programs of scheduler operations are applied to it and to
// the real Scheduler in lockstep. Any divergence in event execution
// order (including FIFO tie-breaks of simultaneous events), observed
// clock values, or queue lengths fails the test.

// lockstepScheduler is the surface the suite drives on both sides.
type lockstepScheduler interface {
	Now() float64
	Len() int
	At(t float64, fn func())
	After(delay float64, fn func())
	Step() bool
	Run() int
	RunUntil(horizon float64) int
	Stop()
	Reset()
}

var (
	_ lockstepScheduler = (*Scheduler)(nil)
	_ lockstepScheduler = (*refScheduler)(nil)
)

// diffEntry is one dispatched event in a machine's execution log.
type diffEntry struct {
	id  int
	now float64
}

// diffMachine drives one scheduler and records its execution trace.
// Child scheduling and stop decisions are pure functions of the event
// id, so two machines given the same op program behave identically
// exactly when their schedulers dispatch in the same order.
type diffMachine struct {
	s      lockstepScheduler
	log    []diffEntry
	nextID int
	total  int // all events ever scheduled, to bound runaway growth
}

const diffMaxEvents = 20000

// diffDeltas are the quantized schedule offsets. Coarse repeated values
// force same-time collisions (exercising seq tie-breaks), the spread of
// magnitudes forces rung subdivision, and the sub-integer steps land
// events away from bucket boundaries and on them.
var diffDeltas = []float64{0, 0, 0, 0.25, 0.25, 0.5, 1, 1, 2.5, 7.75, 64, 513.25, 10000}

// diffChildren returns the child offsets event id spawns when it fires.
func diffChildren(id int) []float64 {
	h := uint64(id)*0x9e3779b97f4a7c15 + 0x632be59bd9b4e019
	h ^= h >> 29
	n := int(h % 4) // 0..3 children
	out := make([]float64, 0, n)
	for c := 0; c < n; c++ {
		out = append(out, diffDeltas[int((h>>(7*c+3))%uint64(len(diffDeltas)))])
	}
	return out
}

// diffStops reports whether event id calls Stop when it fires.
func diffStops(id int) bool {
	h := uint64(id) * 0xd1342543de82ef95
	return (h>>17)%23 == 0
}

func (m *diffMachine) schedule(delta float64) {
	if m.total >= diffMaxEvents {
		return
	}
	m.total++
	id := m.nextID
	m.nextID++
	m.s.At(m.s.Now()+delta, func() {
		m.log = append(m.log, diffEntry{id: id, now: m.s.Now()})
		for _, cd := range diffChildren(id) {
			m.schedule(cd)
		}
		if diffStops(id) {
			m.s.Stop()
		}
	})
}

// diffOp is one step of a lockstep program.
type diffOp struct {
	kind  byte    // 's' schedule, 'r' Run, 'u' RunUntil, 't' Step, 'x' Reset
	delta float64 // schedule offset or RunUntil horizon offset
}

func (m *diffMachine) apply(op diffOp) {
	switch op.kind {
	case 's':
		m.schedule(op.delta)
	case 'r':
		m.s.Run()
	case 'u':
		m.s.RunUntil(m.s.Now() + op.delta)
	case 't':
		m.s.Step()
	case 'x':
		m.s.Reset()
	}
}

func runDifferential(t *testing.T, ops []diffOp) {
	t.Helper()
	ladder := &diffMachine{s: New()}
	ref := &diffMachine{s: &refScheduler{}}
	for opIdx, op := range ops {
		for _, m := range []*diffMachine{ladder, ref} {
			m.apply(op) // logs intentionally survive Reset; ids keep counting
		}
		if ladder.s.Now() != ref.s.Now() {
			t.Fatalf("op %d (%c): Now diverged: ladder=%v reference=%v",
				opIdx, op.kind, ladder.s.Now(), ref.s.Now())
		}
		if ladder.s.Len() != ref.s.Len() {
			t.Fatalf("op %d (%c): Len diverged: ladder=%d reference=%d",
				opIdx, op.kind, ladder.s.Len(), ref.s.Len())
		}
		if len(ladder.log) != len(ref.log) {
			t.Fatalf("op %d (%c): dispatched %d events on ladder, %d on reference heap",
				opIdx, op.kind, len(ladder.log), len(ref.log))
		}
	}
	for i := range ladder.log {
		a, b := ladder.log[i], ref.log[i]
		if a != b {
			t.Fatalf("execution traces diverge at event %d: ladder fired id=%d t=%v, reference fired id=%d t=%v",
				i, a.id, a.now, b.id, b.now)
		}
	}
	if len(ladder.log) == 0 {
		t.Fatal("differential program dispatched no events; program generator is broken")
	}
}

// opsFromStream generates a random lockstep program. Schedules dominate
// so queues grow deep enough to exercise rung subdivision.
func opsFromStream(s *rng.Stream, n int) []diffOp {
	kinds := []byte{'s', 's', 's', 's', 's', 's', 'r', 'u', 'u', 't', 't', 't', 'x'}
	ops := make([]diffOp, 0, n)
	for i := 0; i < n; i++ {
		op := diffOp{kind: kinds[s.IntN(len(kinds))]}
		switch op.kind {
		case 's':
			op.delta = diffDeltas[s.IntN(len(diffDeltas))]
		case 'u':
			op.delta = diffDeltas[s.IntN(len(diffDeltas))]
		}
		ops = append(ops, op)
	}
	// Drain whatever is left so the full schedule is compared.
	for i := 0; i < 50; i++ {
		ops = append(ops, diffOp{kind: 'r'})
	}
	return ops
}

// TestSchedulerDifferentialRandomPrograms runs many randomized lockstep
// programs over the ladder and the reference.
func TestSchedulerDifferentialRandomPrograms(t *testing.T) {
	programs := 300
	if testing.Short() {
		programs = 30
	}
	root := rng.New(0xd1f)
	for p := 0; p < programs; p++ {
		p := p
		s := root.SplitN("program", p)
		t.Run(fmt.Sprintf("program%d", p), func(t *testing.T) {
			runDifferential(t, opsFromStream(s, 120))
		})
	}
}

// TestSchedulerDifferentialDeepQueue pushes one backlog far beyond the
// rung-subdivision threshold, with heavy same-time collisions, then
// drains: the shape that most stresses ladder bucket math.
func TestSchedulerDifferentialDeepQueue(t *testing.T) {
	s := rng.New(0xbeef).Split("deep")
	ops := make([]diffOp, 0, 6200)
	for i := 0; i < 6000; i++ {
		ops = append(ops, diffOp{kind: 's', delta: diffDeltas[s.IntN(len(diffDeltas))]})
	}
	// Interleave partial drains with refills at the advanced clock.
	for i := 0; i < 40; i++ {
		ops = append(ops, diffOp{kind: 'u', delta: 100})
		ops = append(ops, diffOp{kind: 's', delta: diffDeltas[s.IntN(len(diffDeltas))]})
	}
	ops = append(ops, diffOp{kind: 'r'})
	runDifferential(t, ops)
}

// TestSchedulerDifferentialAdversarialTimes drives times designed to
// sit exactly on bucket boundaries: powers of two, dense equal blocks,
// and values separated by one ulp.
func TestSchedulerDifferentialAdversarialTimes(t *testing.T) {
	var ops []diffOp
	base := 1024.0
	for i := 0; i < 600; i++ {
		switch i % 5 {
		case 0:
			ops = append(ops, diffOp{kind: 's', delta: base})
		case 1:
			ops = append(ops, diffOp{kind: 's', delta: base / 2})
		case 2:
			ops = append(ops, diffOp{kind: 's', delta: math.Nextafter(base, 2*base) - base + base})
		case 3:
			ops = append(ops, diffOp{kind: 's', delta: 0})
		case 4:
			ops = append(ops, diffOp{kind: 's', delta: base * 3})
		}
	}
	ops = append(ops, diffOp{kind: 'u', delta: base}, diffOp{kind: 'r'})
	runDifferential(t, ops)
}

// FuzzSchedulerDifferential lets the fuzzer search for a byte program
// whose op sequence makes the ladder diverge from the reference.
func FuzzSchedulerDifferential(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{255, 254, 253, 13, 13, 13, 42, 42})
	f.Add([]byte{'s', 'r', 'u', 't', 'x', 's', 's', 'r'})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			data = data[:512]
		}
		kinds := []byte{'s', 's', 's', 's', 'u', 't', 'r', 'x'}
		var ops []diffOp
		for _, b := range data {
			op := diffOp{kind: kinds[int(b)%len(kinds)]}
			if op.kind == 's' || op.kind == 'u' {
				op.delta = diffDeltas[int(b>>3)%len(diffDeltas)]
			}
			ops = append(ops, op)
		}
		for i := 0; i < 50; i++ {
			ops = append(ops, diffOp{kind: 'r'})
		}
		// The fuzz harness tolerates programs that dispatch nothing.
		ladder := &diffMachine{s: New()}
		ref := &diffMachine{s: &refScheduler{}}
		for opIdx, op := range ops {
			for _, m := range []*diffMachine{ladder, ref} {
				m.apply(op)
			}
			if ladder.s.Now() != ref.s.Now() || ladder.s.Len() != ref.s.Len() || len(ladder.log) != len(ref.log) {
				t.Fatalf("op %d (%c): state diverged: now %v vs %v, len %d vs %d, dispatched %d vs %d",
					opIdx, op.kind, ladder.s.Now(), ref.s.Now(),
					ladder.s.Len(), ref.s.Len(), len(ladder.log), len(ref.log))
			}
		}
		for i := range ladder.log {
			if ladder.log[i] != ref.log[i] {
				t.Fatalf("traces diverge at event %d: %+v vs %+v", i, ladder.log[i], ref.log[i])
			}
		}
	})
}

// benchQueue measures the classic hold model (pop one, reschedule one
// exponential step ahead) at a steady queue depth n.
func benchQueue(b *testing.B, s lockstepScheduler, n int) {
	src := rng.New(1).Split("bench")
	var fire func()
	fire = func() { s.After(src.Exp(1), fire) }
	for i := 0; i < n; i++ {
		s.At(src.Exp(1), fire)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// The Legacy benchmarks keep their names from when the heap was a
// production queue; they now measure refScheduler.
func BenchmarkHoldLadder1e3(b *testing.B) { benchQueue(b, New(), 1000) }
func BenchmarkHoldLegacy1e3(b *testing.B) { benchQueue(b, &refScheduler{}, 1000) }
func BenchmarkHoldLadder1e5(b *testing.B) { benchQueue(b, New(), 100000) }
func BenchmarkHoldLegacy1e5(b *testing.B) { benchQueue(b, &refScheduler{}, 100000) }
func BenchmarkHoldLadder1e6(b *testing.B) { benchQueue(b, New(), 1000000) }
func BenchmarkHoldLegacy1e6(b *testing.B) { benchQueue(b, &refScheduler{}, 1000000) }
