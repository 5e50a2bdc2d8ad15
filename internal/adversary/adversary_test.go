package adversary

import (
	"fmt"
	"math"
	"sync"
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

// The materialised fast-mode samplers: each draw is a Stream.Sample
// turned into a slice. They are the reference Path.FastTrial must
// reproduce value for value and error for error.

// sampleSenders draws a uniform sender sequence: a source plus one
// relay per onion group, all distinct. The slice has length k+1 = eta.
func sampleSenders(n, k int, s *rng.Stream) ([]contact.NodeID, error) {
	if k < 1 {
		return nil, fmt.Errorf("adversary: need at least one relay, got %d", k)
	}
	if n < k+2 {
		return nil, fmt.Errorf("adversary: %d nodes cannot host a %d-relay acyclic path", n, k)
	}
	picks := s.Sample(n, k+1)
	out := make([]contact.NodeID, k+1)
	for i, p := range picks {
		out[i] = contact.NodeID(p)
	}
	return out, nil
}

// samplePositions draws the position occupancy of an L-copy message:
// min(L, g) distinct group members at each relay position, and at
// position 0 the source plus, with spray, the L-1 sprayed relays.
func samplePositions(n, k, copies, g int, spray bool, s *rng.Stream) ([][]contact.NodeID, error) {
	if k < 1 || copies < 1 || g < 1 {
		return nil, fmt.Errorf("adversary: invalid parameters k=%d L=%d g=%d", k, copies, g)
	}
	perGroup := min(copies, g)
	if n < 2+perGroup {
		return nil, fmt.Errorf("adversary: %d nodes too few for %d relays per hop", n, perGroup)
	}
	firstHop := 1
	if spray {
		firstHop = min(copies, n-1)
	}
	out := make([][]contact.NodeID, k+1)
	for pos := range out {
		occupancy := perGroup
		if pos == 0 {
			occupancy = firstHop
		}
		for _, p := range s.Sample(n, occupancy) {
			out[pos] = append(out[pos], contact.NodeID(p))
		}
	}
	return out, nil
}

// positionsCompromised counts positions with at least one compromised
// occupant.
func positionsCompromised(a *Adversary, positions [][]contact.NodeID) int {
	count := 0
	for _, occupants := range positions {
		for _, v := range occupants {
			if a.IsCompromised(v) {
				count++
				break
			}
		}
	}
	return count
}

// referenceTrial is Path.FastTrial materialised: an Adversary, the
// sender slice and the position slices, each drawn whatever want names.
func referenceTrial(p Path, parent *rng.Stream, label string, i int, frac float64, want Metric) (Outcome, error) {
	s := parent.SplitN(label, i)
	a, err := RandomFraction(p.Nodes, frac, s.Split("adv"))
	if err != nil {
		return Outcome{}, err
	}
	senders, err := sampleSenders(p.Nodes, p.Relays, s.Split("senders"))
	if err != nil {
		return Outcome{}, err
	}
	positions, err := samplePositions(p.Nodes, p.Relays, p.Copies, p.GroupSize, p.Spray, s.Split("positions"))
	if err != nil {
		return Outcome{}, err
	}
	var out Outcome
	if want&Traceable != 0 {
		out.TraceableRate = model.TraceableRateOfPath(a.SenderBits(senders))
	}
	if want&Positions != 0 {
		out.CompromisedPositions = positionsCompromised(a, positions)
	}
	return out, nil
}

func TestSampleSenders(t *testing.T) {
	s := rng.New(3)
	senders, err := sampleSenders(100, 3, s)
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
	if _, err := sampleSenders(3, 3, s); err == nil {
		t.Fatal("accepted too-small population")
	}
	if _, err := sampleSenders(10, 0, s); err == nil {
		t.Fatal("accepted k=0")
	}
}

func TestSamplePositions(t *testing.T) {
	s := rng.New(5)
	pos, err := samplePositions(100, 3, 5, 10, false, s)
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
	pos, err = samplePositions(100, 2, 7, 3, false, s)
	if err != nil {
		t.Fatal(err)
	}
	if len(pos[1]) != 3 {
		t.Fatalf("occupancy %d, want g=3", len(pos[1]))
	}
	if _, err := samplePositions(100, 0, 1, 1, false, s); err == nil {
		t.Fatal("accepted k=0")
	}
}

func TestPositionsCompromised(t *testing.T) {
	a, err := New(10, []contact.NodeID{2})
	if err != nil {
		t.Fatal(err)
	}
	positions := [][]contact.NodeID{{0}, {1, 2}, {3, 4}}
	if got := positionsCompromised(a, positions); got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
}

// TestFastTrialMatchesReference runs the kernel and the materialised
// reference over a grid that reaches all three Sample paths (small k,
// sparse over n > 4096, dense), sprays and L > g, and every error: the
// outcomes must be equal and the errors identical.
func TestFastTrialMatchesReference(t *testing.T) {
	root := rng.New(17)
	trials, failed := 0, 0
	for _, n := range []int{0, 3, 12, 41, 100, 5000} {
		for _, relays := range []int{0, 1, 3, 10, 20} {
			for _, copies := range []int{0, 1, 3, 20} {
				for _, g := range []int{0, 1, 5, 25} {
					for _, frac := range []float64{-0.1, 0, 0.01, 0.5, 1, 1.5} {
						for _, spray := range []bool{false, true} {
							for _, want := range []Metric{Traceable, Positions, Traceable | Positions} {
								p := Path{Nodes: n, Relays: relays, Copies: copies, GroupSize: g, Spray: spray}
								i := trials
								got, gotErr := p.FastTrial(root, "trial", i, frac, want)
								ref, refErr := referenceTrial(p, root, "trial", i, frac, want)
								if fmt.Sprint(gotErr) != fmt.Sprint(refErr) {
									t.Fatalf("%+v frac=%v want=%d: error %v, reference %v", p, frac, want, gotErr, refErr)
								}
								if got != ref {
									t.Fatalf("%+v frac=%v want=%d: %+v, reference %+v", p, frac, want, got, ref)
								}
								trials++
								if gotErr != nil {
									failed++
								}
							}
						}
					}
				}
			}
		}
	}
	if failed == 0 || failed == trials {
		t.Fatalf("%d of %d trials failed: the grid no longer reaches both outcomes", failed, trials)
	}
}

// TestFastTrialConcurrent runs the same trials on several goroutines
// at once, each drawing on pooled scratch the others return, and checks
// every outcome against the one a single goroutine measured.
func TestFastTrialConcurrent(t *testing.T) {
	p := Path{Nodes: 100, Relays: 10, Copies: 3, GroupSize: 5, Spray: true}
	root := rng.New(9)
	const trials, workers = 300, 4
	want := make([]Outcome, trials)
	for i := range want {
		var err error
		if want[i], err = p.FastTrial(root, "trial", i, 0.3, Traceable|Positions); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range want {
				got, err := p.FastTrial(root, "trial", i, 0.3, Traceable|Positions)
				if err != nil || got != want[i] {
					t.Errorf("trial %d on a concurrent worker: %+v, %v; want %+v", i, got, err, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestFastTrialRecoversFromAnInterruptedTrial panics one trial between
// a draw and its undo, as a recovered trial would, and checks that the
// trials after it measure what they measure without it.
func TestFastTrialRecoversFromAnInterruptedTrial(t *testing.T) {
	p := Path{Nodes: 100, Relays: 10, Copies: 3, GroupSize: 5, Spray: true}
	root := rng.New(5)
	run := func(i int) Outcome {
		out, err := p.FastTrial(root, "trial", i, 0.5, Traceable|Positions)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := []Outcome{run(1), run(2), run(3)}
	interruptAfterDraw(t, func() { run(99) })
	for i, w := range want {
		if got := run(i + 1); got != w {
			t.Fatalf("trial %d after an interrupted trial: %+v, want %+v", i+1, got, w)
		}
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
				p := Path{Nodes: n, Relays: k, Copies: 1, GroupSize: 1}
				out, err := p.FastTrial(root, "run", i*100+k*10+int(frac*10), frac, Traceable)
				if err != nil {
					t.Fatal(err)
				}
				sum += out.TraceableRate
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
				p := Path{Nodes: n, Relays: k, Copies: copies, GroupSize: g, Spray: true}
				out, err := p.FastTrial(root, "run", i*100+copies*10+int(frac*10), frac, Positions)
				if err != nil {
					t.Fatal(err)
				}
				sum += model.PathAnonymity(n, k+1, g, float64(out.CompromisedPositions))
			}
			got := sum / runs
			want := model.PathAnonymityMultiCopy(n, k+1, g, frac, copies)
			if math.Abs(got-want) > 0.02 {
				t.Errorf("L=%d c/n=%v: measured %v vs model %v", copies, frac, got, want)
			}
		}
	}
}

func BenchmarkFastTrial(b *testing.B) {
	for _, c := range []struct {
		name string
		p    Path
		want Metric
	}{
		{"K3-traceable", Path{Nodes: 100, Relays: 3, Copies: 1, GroupSize: 5}, Traceable},
		{"K10-L3-anonymity", Path{Nodes: 100, Relays: 10, Copies: 3, GroupSize: 5, Spray: true}, Positions},
		{"K3-both", Path{Nodes: 100, Relays: 3, Copies: 1, GroupSize: 5}, Traceable | Positions},
	} {
		b.Run(c.name, func(b *testing.B) {
			root := rng.New(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.p.FastTrial(root, "trial", i, 0.25, c.want); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
