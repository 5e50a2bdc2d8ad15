package adversary

import (
	"math"
	"testing"

	"repro/internal/contact"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/routing"
)

// compromisedCount is the number of nodes a controls.
func compromisedCount(a *Adversary) int {
	c := 0
	for _, bad := range a.compromised {
		if bad {
			c++
		}
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, nil); err == nil {
		t.Fatal("accepted n=0")
	}
	if _, err := New(5, []contact.NodeID{7}); err == nil {
		t.Fatal("accepted out-of-range node")
	}
	a, err := New(5, []contact.NodeID{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if compromisedCount(a) != 2 || a.n != 5 {
		t.Fatalf("count=%d n=%d", compromisedCount(a), a.n)
	}
	if !a.IsCompromised(1) || a.IsCompromised(2) {
		t.Fatal("membership wrong")
	}
	if a.IsCompromised(-1) || a.IsCompromised(5) {
		t.Fatal("a node outside [0, n) reported compromised")
	}
	dup, err := New(5, []contact.NodeID{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if compromisedCount(dup) != 1 {
		t.Fatalf("duplicate node counted %d times", compromisedCount(dup))
	}
}

func TestRandomCount(t *testing.T) {
	a, err := Random(100, 17, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if compromisedCount(a) != 17 {
		t.Fatalf("count = %d", compromisedCount(a))
	}
	if _, err := Random(10, 11, rng.New(1)); err == nil {
		t.Fatal("accepted c > n")
	}
	if _, err := Random(10, -1, rng.New(1)); err == nil {
		t.Fatal("accepted c < 0")
	}
}

func TestRandomFraction(t *testing.T) {
	a, err := RandomFraction(100, 0.1, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if compromisedCount(a) != 10 {
		t.Fatalf("count = %d, want 10", compromisedCount(a))
	}
	if _, err := RandomFraction(100, 1.5, rng.New(1)); err == nil {
		t.Fatal("accepted fraction > 1")
	}
}

func TestSenderBits(t *testing.T) {
	a, err := New(10, []contact.NodeID{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	bits := a.SenderBits([]contact.NodeID{1, 2, 3, 4})
	want := []bool{false, true, false, true}
	for i := range want {
		if bits[i] != want[i] {
			t.Fatalf("bits = %v", bits)
		}
	}
}

func deliveredTrace(nodes ...contact.NodeID) routing.CopyTrace {
	ct := routing.CopyTrace{Delivered: true}
	for i, v := range nodes {
		ct.Visits = append(ct.Visits, routing.Visit{Node: v, Stage: i})
	}
	return ct
}

func TestTraceableRatePaperExample(t *testing.T) {
	// Path v1 v2 v3 v4 v5 (4 hops); compromising v1, v2, v4 yields
	// bits 1101 -> (4+1)/16.
	a, err := New(10, []contact.NodeID{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	ct := deliveredTrace(1, 2, 3, 4, 5)
	got := a.TraceableRate(ct)
	if math.Abs(got-5.0/16.0) > 1e-12 {
		t.Fatalf("got %v want %v", got, 5.0/16.0)
	}
}

func TestTraceableRateUndeliveredCopyUsesAllVisits(t *testing.T) {
	// An undelivered copy's senders are all its visited nodes.
	a, err := New(10, []contact.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	ct := routing.CopyTrace{Visits: []routing.Visit{{Node: 1, Stage: 0}, {Node: 2, Stage: 1}}}
	if got := a.TraceableRate(ct); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("got %v", got)
	}
}

func TestCompromisedPositionsSingleCopy(t *testing.T) {
	a, err := New(20, []contact.NodeID{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	// Path src=1, relays 3, 5, 7, dst=9 (K=3).
	ct := routing.CopyTrace{Delivered: true, Visits: []routing.Visit{
		{Node: 1, Stage: 0}, {Node: 3, Stage: 1}, {Node: 5, Stage: 2}, {Node: 7, Stage: 3}, {Node: 9, Stage: 4},
	}}
	if got := a.CompromisedPositions([]routing.CopyTrace{ct}, 3); got != 2 {
		t.Fatalf("positions = %d, want 2", got)
	}
}

func TestCompromisedPositionsMultiCopyUnion(t *testing.T) {
	a, err := New(20, []contact.NodeID{4, 11})
	if err != nil {
		t.Fatal(err)
	}
	// Two copies; position 1 compromised via copy B (node 4), position
	// 2 via copy A (node 11); destination visits are ignored.
	copyA := routing.CopyTrace{Visits: []routing.Visit{
		{Node: 1, Stage: 0}, {Node: 3, Stage: 1}, {Node: 11, Stage: 2},
	}}
	copyB := routing.CopyTrace{Visits: []routing.Visit{
		{Node: 1, Stage: 0}, {Node: 4, Stage: 1},
	}}
	if got := a.CompromisedPositions([]routing.CopyTrace{copyA, copyB}, 3); got != 2 {
		t.Fatalf("positions = %d, want 2", got)
	}
}

func TestCompromisedPositionsIgnoresDestinationStage(t *testing.T) {
	a, err := New(20, []contact.NodeID{9})
	if err != nil {
		t.Fatal(err)
	}
	ct := deliveredTrace(1, 3, 5, 7, 9) // node 9 at stage 4 = destination (K=3)
	if got := a.CompromisedPositions([]routing.CopyTrace{ct}, 3); got != 0 {
		t.Fatalf("destination counted as position: %d", got)
	}
}

func TestObservedPathAnonymityMatchesModelFormula(t *testing.T) {
	a, err := New(100, []contact.NodeID{3})
	if err != nil {
		t.Fatal(err)
	}
	ct := deliveredTrace(1, 3, 5, 7, 9)
	got := a.ObservedPathAnonymity(5, 3, []routing.CopyTrace{ct})
	want := model.PathAnonymity(100, 4, 5, 1)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("got %v want %v", got, want)
	}
}

func TestSampleSenders(t *testing.T) {
	s := rng.New(3)
	senders, err := SampleSenders(100, 3, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(senders) != 4 {
		t.Fatalf("len = %d, want eta = 4", len(senders))
	}
	seen := map[contact.NodeID]bool{}
	for _, v := range senders {
		if seen[v] {
			t.Fatal("duplicate sender in acyclic path")
		}
		seen[v] = true
	}
	if _, err := SampleSenders(3, 3, s); err == nil {
		t.Fatal("accepted too-small population")
	}
	if _, err := SampleSenders(10, 0, s); err == nil {
		t.Fatal("accepted k=0")
	}
}

func TestSamplePositions(t *testing.T) {
	s := rng.New(5)
	pos, err := SamplePositions(100, 3, 5, 10, false, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(pos) != 4 {
		t.Fatalf("positions = %d", len(pos))
	}
	if len(pos[0]) != 1 {
		t.Fatal("source position should hold one node")
	}
	for k := 1; k <= 3; k++ {
		if len(pos[k]) != 5 { // min(L, g) = 5
			t.Fatalf("position %d holds %d relays, want 5", k, len(pos[k]))
		}
	}
	// L > g: occupancy caps at g.
	pos, err = SamplePositions(100, 2, 7, 3, false, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(pos[1]) != 3 {
		t.Fatalf("occupancy %d, want g=3", len(pos[1]))
	}
	if _, err := SamplePositions(100, 0, 1, 1, false, s); err == nil {
		t.Fatal("accepted k=0")
	}
}

func TestPositionsCompromised(t *testing.T) {
	a, err := New(10, []contact.NodeID{2})
	if err != nil {
		t.Fatal(err)
	}
	positions := [][]contact.NodeID{{0}, {1, 2}, {3, 4}}
	if got := a.PositionsCompromised(positions); got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
}

// TestTraceableRateStatisticsMatchModel is the Fig. 6 validation in
// fast mode: measured traceable rate over many sampled paths must
// match the analytical expectation.
func TestTraceableRateStatisticsMatchModel(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical cross-check")
	}
	const n = 100
	root := rng.New(99)
	for _, k := range []int{3, 5, 10} {
		for _, frac := range []float64{0.1, 0.3} {
			const runs = 20000
			sum := 0.0
			for i := 0; i < runs; i++ {
				s := root.SplitN("run", i*100+k*10+int(frac*10))
				a, err := RandomFraction(n, frac, s.Split("adv"))
				if err != nil {
					t.Fatal(err)
				}
				senders, err := SampleSenders(n, k, s.Split("path"))
				if err != nil {
					t.Fatal(err)
				}
				sum += model.TraceableRateOfPath(a.SenderBits(senders))
			}
			got := sum / runs
			want := model.TraceableRate(k+1, frac)
			if math.Abs(got-want) > 0.01 {
				t.Errorf("K=%d c/n=%v: measured %v vs model %v", k, frac, got, want)
			}
		}
	}
}

// TestAnonymityStatisticsMatchModel is the Fig. 8/12 validation in
// fast mode.
func TestAnonymityStatisticsMatchModel(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical cross-check")
	}
	const n, k, g = 100, 3, 5
	root := rng.New(123)
	for _, copies := range []int{1, 3} {
		for _, frac := range []float64{0.1, 0.2} {
			const runs = 20000
			sum := 0.0
			for i := 0; i < runs; i++ {
				s := root.SplitN("run", i*100+copies*10+int(frac*10))
				a, err := RandomFraction(n, frac, s.Split("adv"))
				if err != nil {
					t.Fatal(err)
				}
				pos, err := SamplePositions(n, k, copies, g, true, s.Split("path"))
				if err != nil {
					t.Fatal(err)
				}
				cO := a.PositionsCompromised(pos)
				sum += model.PathAnonymity(n, k+1, g, float64(cO))
			}
			got := sum / runs
			want := model.PathAnonymityMultiCopy(n, k+1, g, frac, copies)
			if math.Abs(got-want) > 0.02 {
				t.Errorf("L=%d c/n=%v: measured %v vs model %v", copies, frac, got, want)
			}
		}
	}
}

func BenchmarkTraceableRateFastMode(b *testing.B) {
	s := rng.New(1)
	a, err := RandomFraction(100, 0.1, s)
	if err != nil {
		b.Fatal(err)
	}
	senders, err := SampleSenders(100, 3, s)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = model.TraceableRateOfPath(a.SenderBits(senders))
	}
}
