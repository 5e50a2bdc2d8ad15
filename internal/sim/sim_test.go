package sim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/contact"
	"repro/internal/rng"
	"repro/internal/trace"
)

// recorder captures delivered contacts.
type recorder struct {
	times []float64
	pairs [][2]contact.NodeID
	stop  int // Done() becomes true after this many contacts (0 = never)
}

func (r *recorder) OnContact(t float64, a, b contact.NodeID) {
	r.times = append(r.times, t)
	r.pairs = append(r.pairs, [2]contact.NodeID{a, b})
}

func (r *recorder) Done() bool { return r.stop > 0 && len(r.times) >= r.stop }

func TestRunSyntheticOrdering(t *testing.T) {
	g := contact.NewRandom(10, 1, 50, rng.New(1))
	rec := &recorder{}
	n := RunSynthetic(g, 200, rng.New(2), rec)
	if n != len(rec.times) {
		t.Fatalf("returned %d, recorded %d", n, len(rec.times))
	}
	if n == 0 {
		t.Fatal("no contacts generated")
	}
	for i := 1; i < len(rec.times); i++ {
		if rec.times[i] < rec.times[i-1] {
			t.Fatalf("contacts out of order at %d", i)
		}
	}
	for _, tt := range rec.times {
		if tt < 0 || tt > 200 {
			t.Fatalf("contact at %v outside horizon", tt)
		}
	}
}

func TestRunSyntheticPoissonCount(t *testing.T) {
	// A single pair with rate lambda produces ~lambda*T contacts.
	g := contact.NewGraph(2)
	g.SetRate(0, 1, 0.5)
	var total int
	const reps = 200
	const horizon = 100.0
	for i := 0; i < reps; i++ {
		rec := &recorder{}
		total += RunSynthetic(g, horizon, rng.New(uint64(i)), rec)
	}
	mean := float64(total) / reps
	want := 0.5 * horizon
	if math.Abs(mean-want) > 0.05*want {
		t.Fatalf("mean contacts %v, want ~%v", mean, want)
	}
}

func TestRunSyntheticRespectsRates(t *testing.T) {
	// A pair with twice the rate should meet ~twice as often.
	g := contact.NewGraph(3)
	g.SetRate(0, 1, 0.2)
	g.SetRate(0, 2, 0.4)
	counts := map[[2]contact.NodeID]int{}
	for i := 0; i < 100; i++ {
		rec := &recorder{}
		RunSynthetic(g, 500, rng.New(uint64(i)), rec)
		for _, p := range rec.pairs {
			counts[p]++
		}
	}
	ratio := float64(counts[[2]contact.NodeID{0, 2}]) / float64(counts[[2]contact.NodeID{0, 1}])
	if math.Abs(ratio-2) > 0.2 {
		t.Fatalf("rate ratio %v, want ~2", ratio)
	}
}

func TestRunSyntheticEarlyExit(t *testing.T) {
	g := contact.NewRandom(10, 1, 10, rng.New(3))
	rec := &recorder{stop: 5}
	n := RunSynthetic(g, 1000, rng.New(4), rec)
	if n != 5 {
		t.Fatalf("dispatched %d contacts after Done, want 5", n)
	}
}

func TestRunSyntheticZeroHorizon(t *testing.T) {
	g := contact.NewRandom(5, 1, 10, rng.New(1))
	if n := RunSynthetic(g, 0, rng.New(1), &recorder{}); n != 0 {
		t.Fatalf("events at zero horizon: %d", n)
	}
}

func TestRunSyntheticDeterministic(t *testing.T) {
	g := contact.NewRandom(8, 1, 30, rng.New(5))
	a, b := &recorder{}, &recorder{}
	RunSynthetic(g, 100, rng.New(6), a)
	RunSynthetic(g, 100, rng.New(6), b)
	if len(a.times) != len(b.times) {
		t.Fatal("same seed produced different contact counts")
	}
	for i := range a.times {
		if a.times[i] != b.times[i] || a.pairs[i] != b.pairs[i] {
			t.Fatal("same seed produced different contacts")
		}
	}
}

func TestReplayWindow(t *testing.T) {
	tr := &trace.Trace{NodeCount: 4, Contacts: []trace.Contact{
		{A: 0, B: 1, Start: 10, End: 10},
		{A: 1, B: 2, Start: 20, End: 20},
		{A: 2, B: 3, Start: 30, End: 30},
		{A: 0, B: 3, Start: 40, End: 40},
	}}
	rec := &recorder{}
	n := Replay(tr, 15, 20, rec) // window [15, 35]
	if n != 2 {
		t.Fatalf("replayed %d contacts, want 2", n)
	}
	if rec.times[0] != 20 || rec.times[1] != 30 {
		t.Fatalf("times = %v", rec.times)
	}
}

func TestReplayEarlyExit(t *testing.T) {
	tr := &trace.Trace{NodeCount: 2, Contacts: []trace.Contact{
		{A: 0, B: 1, Start: 1, End: 1},
		{A: 0, B: 1, Start: 2, End: 2},
		{A: 0, B: 1, Start: 3, End: 3},
	}}
	rec := &recorder{stop: 1}
	if n := Replay(tr, 0, 100, rec); n != 1 {
		t.Fatalf("replayed %d, want 1", n)
	}
}

func TestReplayZeroHorizon(t *testing.T) {
	tr := &trace.Trace{NodeCount: 2, Contacts: []trace.Contact{{A: 0, B: 1, Start: 1, End: 1}}}
	if n := Replay(tr, 0, 0, &recorder{}); n != 0 {
		t.Fatal("replayed contacts with zero horizon")
	}
}

type nopProtocol struct{}

func (nopProtocol) OnContact(float64, contact.NodeID, contact.NodeID) {}
func (nopProtocol) Done() bool                                        { return false }

var _ Protocol = nopProtocol{}

func TestCountContacts(t *testing.T) {
	g := contact.NewGraph(2)
	g.SetRate(0, 1, 1)
	n := RunSynthetic(g, 50, rng.New(9), nopProtocol{})
	if n < 20 || n > 90 {
		t.Fatalf("contact count %d wildly off mean 50", n)
	}
}

// Validate sanity-checks a contact graph and a source-destination
// pair on it.
func Validate(g *contact.Graph, src, dst contact.NodeID) error {
	if err := g.Validate(); err != nil {
		return err
	}
	if src == dst {
		return fmt.Errorf("sim: source and destination are both node %d", src)
	}
	if src < 0 || int(src) >= g.N() || dst < 0 || int(dst) >= g.N() {
		return fmt.Errorf("sim: endpoints (%d, %d) out of range [0, %d)", src, dst, g.N())
	}
	return nil
}

func TestValidate(t *testing.T) {
	g := contact.NewRandom(5, 1, 10, rng.New(1))
	if err := Validate(g, 0, 4); err != nil {
		t.Fatal(err)
	}
	if err := Validate(g, 2, 2); err == nil {
		t.Fatal("accepted src == dst")
	}
	if err := Validate(g, 0, 9); err == nil {
		t.Fatal("accepted out-of-range node")
	}
}

func BenchmarkRunSynthetic100Nodes(b *testing.B) {
	g := contact.NewRandom(100, 1, 360, rng.New(1))
	s := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunSynthetic(g, 1800, s, nopProtocol{})
	}
}

func TestFanoutFeedsAllUntilEachDone(t *testing.T) {
	a := &recorder{stop: 2}
	b := &recorder{stop: 5}
	f := Fanout{a, b}
	g := contact.NewRandom(6, 1, 5, rng.New(31))
	RunSynthetic(g, 1000, rng.New(32), f)
	if len(a.times) != 2 {
		t.Fatalf("a saw %d contacts, want 2 (stopped early)", len(a.times))
	}
	if len(b.times) != 5 {
		t.Fatalf("b saw %d contacts, want 5", len(b.times))
	}
	// Both saw the same prefix of the identical stream.
	for i := range a.times {
		if a.times[i] != b.times[i] || a.pairs[i] != b.pairs[i] {
			t.Fatal("fanout streams diverged")
		}
	}
	if !f.Done() {
		t.Fatal("fanout not done when all constituents are")
	}
}

func TestFanoutEmptyIsDone(t *testing.T) {
	if !(Fanout{}).Done() {
		t.Fatal("empty fanout should be done")
	}
}
